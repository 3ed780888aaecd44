import dataclasses
import hashlib
import json
import math
import random

import numpy as np
import pytest

from diacritize import classify, evaluate
from diacritize.classify import (
    ClassifierBank,
    Hyper,
    LINEAR_SVM,
    LOGISTIC,
    MULTINOMIAL_NB,
    PERCEPTRON,
    TextClassifier,
    Vectorizer,
    extract_window,
    fit_instances,
    logistic_example_grad,
    logistic_example_loss,
    posterior,
    predict,
    predict_scores,
    train_classifier,
)
from diacritize.corpus import TokenKind, token_kind
from diacritize.datasetgen import AmbiguousSet, Instance
from diacritize.errors import DataError, ModelError


def toks(n):
    return [f"w{i}" for i in range(n)]


class TestStickyWindow:
    @pytest.mark.parametrize(
        "target,n,expected",
        [
            (4, 7, [1, 2, 3, 5, 6, 7]),   # centered
            (1, 7, [0, 2, 3, 4, 5, 6]),   # clamped left
            (9, 7, [3, 4, 5, 6, 7, 8]),   # clamped right
            (2, 7, [0, 1, 3, 4, 5, 6]),   # near left edge
        ],
    )
    def test_ten_token_rows(self, target, n, expected):
        assert extract_window(toks(10), target, n) == [f"w{i}" for i in expected]

    def test_short_sentence_clamps_whole(self):
        assert extract_window(toks(3), 1, 9) == ["w0", "w2"]

    def test_filters_non_words(self):
        tokens = ["ha", ",", "3", "bu", "ndi", "!", "oma"]
        assert extract_window(tokens, 3, 7) == ["ha", "ndi", "oma"]

    def test_centering_when_unclamped(self):
        rng = random.Random(3)
        for _ in range(300):
            length = rng.randrange(1, 30)
            target = rng.randrange(length)
            n = rng.choice([3, 5, 7, 9, 11])
            context = extract_window(toks(length), target, n)
            positions = sorted(int(t[1:]) for t in context) + [target]
            positions.sort()
            lo, hi = positions[0], positions[-1]
            # contiguous slice containing the target
            assert positions == list(range(lo, hi + 1))
            assert lo <= target <= hi
            assert len(positions) == min(n, length)
            clamped = lo == 0 or hi == length - 1
            if not clamped:
                assert abs((target - lo) - (hi - target)) <= 1

    def test_bad_args(self):
        with pytest.raises(DataError):
            extract_window(toks(5), 0, 4)
        with pytest.raises(DataError):
            extract_window(toks(5), 9, 5)


class TestVectorizer:
    def test_idf_everywhere_term_is_one(self):
        v = Vectorizer.fit([["a", "b"], ["a"], ["a", "c"]])
        assert v.idf[v.vocabulary["a"]] == pytest.approx(1.0)

    def test_idf_rare_term(self):
        v = Vectorizer.fit([["a"], ["b"], ["b"], ["b"]])
        assert v.idf[v.vocabulary["a"]] == pytest.approx(math.log(5 / 2) + 1, abs=1e-9)

    def test_unit_norm(self):
        v = Vectorizer.fit([["a", "b", "c"], ["b", "c"], ["c"]])
        rng = random.Random(7)
        for _ in range(50):
            window = [rng.choice("abc") for _ in range(rng.randrange(1, 9))]
            vec = v.transform(window)
            norm = math.sqrt(sum(x * x for x in vec.values()))
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_unknown_terms_contribute_nothing(self):
        v = Vectorizer.fit([["a", "b"], ["b"]])
        with_sentinel = v.transform(["a", "sentinel-not-in-train"])
        without = v.transform(["a"])
        assert with_sentinel == without

    def test_empty_window_is_zero_vector(self):
        v = Vectorizer.fit([["a"]])
        assert v.transform([]) == {}

    def test_fit_requires_windows(self):
        with pytest.raises(DataError):
            Vectorizer.fit([])


class TestPerceptron:
    def test_separable_two_points(self):
        X = [{0: 1.0}, {1: 1.0}]
        y = ["A", "B"]
        model = train_classifier(PERCEPTRON, X, y, 2, Hyper(epochs=10))
        assert [predict(model, x) for x in X] == y

    def test_training_error_reaches_zero_on_separable_fixture(self):
        rng = random.Random(5)
        X, y = [], []
        for _ in range(60):
            if rng.random() < 0.5:
                X.append({0: 1.0 + rng.random(), 1: rng.random() * 0.1})
                y.append("pos")
            else:
                X.append({0: rng.random() * 0.1, 1: 1.0 + rng.random()})
                y.append("neg")
        model = train_classifier(PERCEPTRON, X, y, 2, Hyper(epochs=10))
        assert all(predict(model, x) == label for x, label in zip(X, y))
        for errors in model.train_errors.values():
            assert errors == sorted(errors, reverse=True)
            assert errors[-1] == 0.0


class TestLogistic:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            dim = rng.integers(2, 8)
            w = rng.normal(size=dim)
            b = float(rng.normal())
            nnz = rng.integers(1, dim + 1)
            idx = rng.choice(dim, size=nnz, replace=False)
            x = {int(i): float(rng.normal()) for i in idx}
            y = int(rng.integers(0, 2))
            l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
            gw, gb = logistic_example_grad(w, b, x, y, l2)
            h = 1e-6
            for i in range(dim):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (
                    logistic_example_loss(wp, b, x, y, l2)
                    - logistic_example_loss(wm, b, x, y, l2)
                ) / (2 * h)
                assert abs(fd - gw[i]) <= 1e-5 * max(1.0, abs(fd))
            fd_b = (
                logistic_example_loss(w, b + h, x, y, l2)
                - logistic_example_loss(w, b - h, x, y, l2)
            ) / (2 * h)
            assert abs(fd_b - gb) <= 1e-5 * max(1.0, abs(fd_b))

    def test_trainer_steps_follow_the_example_gradient(self):
        # The trainer keeps w as scale * stored weights; two of its steps must
        # equal two explicit steps w -= rate * grad of logistic_example_loss.
        X = [{0: 0.6, 2: 0.8}, {1: 1.0, 2: 0.5}]
        y = ["A", "B"]
        hyper = Hyper(learning_rate=0.3, epochs=1, l2=0.05, seed=3)
        model = train_classifier(LOGISTIC, X, y, 3, hyper)
        order = [0, 1]
        random.Random(hyper.seed).shuffle(order)
        for c, cls in enumerate(model.classes):
            w, b = np.zeros(3), 0.0
            for j in order:
                gw, gb = logistic_example_grad(w, b, X[j], 1 if y[j] == cls else 0, hyper.l2)
                w = w - hyper.learning_rate * gw
                b = b - hyper.learning_rate * gb
            np.testing.assert_allclose(model.rows[c], w, rtol=1e-12, atol=0)
            assert model.offsets[c] == pytest.approx(b, rel=1e-12, abs=0)

    def test_learns_separable_data(self):
        X = [{0: 1.0}] * 5 + [{1: 1.0}] * 5
        y = ["A"] * 5 + ["B"] * 5
        model = train_classifier(LOGISTIC, X, y, 2, Hyper(epochs=50))
        assert [predict(model, x) for x in ({0: 1.0}, {1: 1.0})] == ["A", "B"]

    def test_zero_vector_falls_to_larger_bias_or_prior(self):
        X = [{0: 1.0}] * 6 + [{1: 1.0}] * 4
        y = ["A"] * 6 + ["B"] * 4
        model = train_classifier(LOGISTIC, X, y, 2, Hyper(epochs=30))
        assert predict(model, {}) == "A"


class TestLinearSvm:
    def test_learns_separable_data(self):
        X = [{0: 1.0}] * 5 + [{1: 1.0}] * 5
        y = ["A"] * 5 + ["B"] * 5
        model = train_classifier(LINEAR_SVM, X, y, 2, Hyper(epochs=50))
        assert [predict(model, x) for x in ({0: 1.0}, {1: 1.0})] == ["A", "B"]


class TestNaiveBayes:
    def test_laplace_smoothing_example(self):
        X = [{0: 3.0}, {1: 3.0}]
        y = ["A", "B"]
        model = train_classifier(MULTINOMIAL_NB, X, y, 2)
        # P(term0 | A) = (3 + 1) / (3 + 2) with a 2-term vocabulary
        assert math.exp(model.rows[0][0]) == pytest.approx(4 / 5, abs=1e-12)
        assert math.exp(model.rows[0][1]) == pytest.approx(1 / 5, abs=1e-12)

    def test_posteriors_normalize(self):
        rng = random.Random(11)
        X, y = [], []
        for _ in range(40):
            X.append({rng.randrange(6): rng.random() * 3 for _ in range(3)})
            y.append(rng.choice(["A", "B", "C"]))
        model = train_classifier(MULTINOMIAL_NB, X, y, 6)
        for _ in range(100):
            x = {rng.randrange(6): rng.random() for _ in range(2)}
            assert sum(posterior(model, x).values()) == pytest.approx(1.0, abs=1e-9)

    def test_totals_add_each_row_in_order(self):
        # Many weights per (class, feature), so another order of the additions would round otherwise.
        for X, y, n_features, classes in mixed_sets(16, [90, 64, 13]):
            model = train_classifier(MULTINOMIAL_NB, X, y, n_features, Hyper(alpha=0.5))
            totals = np.zeros((len(classes), n_features))
            for x, label in zip(X, y):
                row = totals[classes.index(label)]
                for i, v in x.items():
                    row[i] += v
            smoothed = totals + 0.5
            want = np.log(smoothed) - np.log(smoothed.sum(axis=1, keepdims=True))
            assert np.array(model.rows).tobytes() == want.tobytes()

    def test_identical_features_predict_majority(self):
        X = [{0: 1.0}] * 10
        y = ["maj"] * 6 + ["min"] * 4
        nb = train_classifier(MULTINOMIAL_NB, X, y, 1)
        logit = train_classifier(LOGISTIC, X, y, 1, Hyper(epochs=30))
        assert predict(nb, {0: 1.0}) == "maj"
        assert predict(logit, {0: 1.0}) == "maj"


class TestPredict:
    def test_single_class_training_rejected(self):
        with pytest.raises(ModelError):
            train_classifier(PERCEPTRON, [{0: 1.0}], ["A"], 1)

    def test_dimension_mismatch(self):
        model = train_classifier(PERCEPTRON, [{0: 1.0}, {1: 1.0}], ["A", "B"], 2)
        with pytest.raises(DataError):
            predict(model, {5: 1.0})

    def test_memorizes_separable_training_point(self):
        X = [{0: 1.0, 2: 0.5}, {1: 1.0}]
        y = ["A", "B"]
        for kind in (PERCEPTRON, LOGISTIC, LINEAR_SVM, MULTINOMIAL_NB):
            model = train_classifier(kind, X, y, 3, Hyper(epochs=30))
            assert predict(model, X[0]) == "A"

    def test_predict_agrees_with_scores_argmax(self):
        rng = random.Random(23)
        X = [{rng.randrange(8): rng.random() for _ in range(3)} for _ in range(80)]
        y = [rng.choice(["A", "B", "C"]) for _ in range(80)]
        model = train_classifier(LOGISTIC, X, y, 8, Hyper(epochs=5))
        counts = dict(zip(model.classes, model.class_counts))
        for _ in range(1000):
            x = {rng.randrange(8): rng.random() for _ in range(3)}
            scores = predict_scores(model, x)
            best = max(scores.values())
            tied = sorted(
                (c for c, s in scores.items() if s == best),
                key=lambda c: (-counts[c], c),
            )
            assert predict(model, x) == tied[0]

    def test_tie_breaks_toward_frequent_class(self):
        model = train_classifier(
            MULTINOMIAL_NB, [{0: 1.0}] * 3 + [{1: 1.0}], ["big"] * 3 + ["sm"], 2
        )
        model = dataclasses.replace(model, offsets=[0.0, 0.0], rows=[[0.0, 0.0], [0.0, 0.0]])
        assert predict_scores(model, {0: 1.0}) == {"big": 0.0, "sm": 0.0}
        assert predict(model, {0: 1.0}) == "big"


class TestDeterminism:
    def test_same_seed_identical_weights(self):
        rng = random.Random(31)
        X = [{rng.randrange(10): rng.random() for _ in range(4)} for _ in range(60)]
        y = [rng.choice(["A", "B"]) for _ in range(60)]
        for kind in (PERCEPTRON, LOGISTIC, LINEAR_SVM):
            a = train_classifier(kind, X, y, 10, Hyper(seed=9))
            b = train_classifier(kind, X, y, 10, Hyper(seed=9))
            assert np.array_equal(a.rows, b.rows)
            assert np.array_equal(a.offsets, b.offsets)

    def test_different_seed_may_differ_but_runs(self):
        X = [{0: 1.0}, {1: 1.0}, {0: 0.5, 1: 0.5}, {0: 0.2}]
        y = ["A", "B", "A", "B"]
        train_classifier(LOGISTIC, X, y, 2, Hyper(seed=1))
        train_classifier(LOGISTIC, X, y, 2, Hyper(seed=2))


class TestInstanceInterface:
    def make_instances(self):
        insts = []
        for i in range(20):
            label = "ká" if i % 2 == 0 else "kà"
            cue = "sun" if label == "ká" else "moon"
            insts.append(
                Instance(tokens=("the", cue, "ka", "rose", "."), target=2, label=label, line=i)
            )
        return insts

    def test_fit_and_predict_instances(self):
        insts = self.make_instances()
        clf = fit_instances([insts], LOGISTIC, window=5, hyper=Hyper(epochs=30))[0]
        bank = ClassifierBank({"ka": clf})
        assert all(bank.predict_instance(i.tokens, i.target, list(i.tokens[: i.target])) == i.label for i in insts)

    def test_persistence_round_trip(self):
        insts = self.make_instances()
        for kind in (LOGISTIC, MULTINOMIAL_NB):
            clf = fit_instances([insts], kind, window=5, hyper=Hyper(epochs=10))[0]
            spec = json.loads(json.dumps(ClassifierBank({"ka": clf}).to_payload()))
            again = ClassifierBank.from_payload(spec, {"ka": [("ká", 10), ("kà", 10)]})
            for inst in insts:
                window = extract_window(inst.tokens, inst.target, 5)
                assert again.predict_instance(inst.tokens, inst.target, list(inst.tokens[: inst.target])) == (
                    predict(clf.model, clf.vectorizer.transform(window))
                )

    def test_vocabulary_fit_on_training_fold_only(self):
        insts = self.make_instances()
        clf = fit_instances([insts], LOGISTIC, window=5, hyper=Hyper(epochs=10))[0]
        probe = Instance(
            tokens=("sentinelterm", "sun", "ka", "rose", "."), target=2, label="ká", line=0
        )
        baseline = Instance(
            tokens=("the", "sun", "ka", "rose", "."), target=2, label="ká", line=0
        )
        window_p = extract_window(probe.tokens, 2, 5)
        window_b = extract_window(baseline.tokens, 2, 5)
        assert "sentinelterm" in window_p
        # the unseen term must not shift the feature vector beyond renormalizing
        vec_p = clf.vectorizer.transform(window_p)
        vec_b = clf.vectorizer.transform(window_b)
        assert set(vec_p) <= set(vec_b)

    def test_cv_fitter_queues_folds_and_hands_each_out_once(self, monkeypatch):
        calls = []
        real = classify._train_models
        monkeypatch.setattr(classify, "_train_models", lambda kind, sets, hyper: calls.append(len(sets)) or real(kind, sets, hyper))
        insts = self.make_instances()
        trains = [insts[:12], insts[4:], insts[::3]]
        fit = classify.cv_fitter(LOGISTIC, window=5, hyper=Hyper(epochs=5))
        queued = [fit(train) for train in trains]
        with pytest.raises(ModelError, match="single class"):
            fit(insts[::2])
        assert calls == []
        assert [queued[1](inst) for inst in insts] == [queued[1](inst) for inst in insts]
        assert calls == [3]
        windows = [extract_window(i.tokens, i.target, 5) for i in insts]
        for predictor, train in zip(queued, trains):
            alone = fit_instances([train], LOGISTIC, window=5, hyper=Hyper(epochs=5))[0]
            assert [predictor(i) for i in insts] == [predict(alone.model, alone.vectorizer.transform(w)) for w in windows]
        assert calls == [3, 1, 1, 1]


class TestLoadedNumbers:
    """A loaded classifier holds the decoded lists, with every number a Python float."""

    def payload(self, kind):
        insts = TestInstanceInterface().make_instances()
        clf = fit_instances([insts], kind, window=5, hyper=Hyper(epochs=5))[0]
        return json.loads(json.dumps(classify.classifier_payload(clf)))

    @staticmethod
    def numbers(payload):
        """idf, rows and offsets, as the payload holds them."""
        if payload["kind"] == MULTINOMIAL_NB:
            nb = payload["nb_params"]
            return payload["idf"], nb["feature_log_prob"], nb["class_log_prior"]
        return payload["idf"], payload["weights"], payload["bias"]

    @pytest.mark.parametrize("kind", [LOGISTIC, MULTINOMIAL_NB])
    def test_the_decoded_lists_are_kept(self, kind):
        payload = self.payload(kind)
        clf = classify.classifier_from_payload(payload)
        idf, rows, offsets = self.numbers(payload)
        assert clf.vectorizer.idf is idf and clf.model.rows is rows and clf.model.offsets is offsets
        assert not holds_numpy(clf)

    @pytest.mark.parametrize("kind", [LOGISTIC, MULTINOMIAL_NB])
    def test_only_a_field_that_holds_a_json_int_is_widened(self, kind):
        payload = self.payload(kind)
        idf, rows, offsets = self.numbers(payload)
        rows[0][0] = 3
        clf = classify.classifier_from_payload(payload)
        assert clf.vectorizer.idf is idf and clf.model.offsets is offsets
        assert clf.model.rows == rows and clf.model.rows is not rows
        assert all(type(x) is float for row in clf.model.rows for x in row)


def three_class_fixture():
    rng = random.Random(17)
    X, y = [], []
    for _ in range(90):
        label = rng.choice("ABC")
        home = "ABC".index(label) * 8
        x = {}
        for _ in range(rng.randrange(2, 6)):
            i = home + rng.randrange(8) if rng.random() < 0.7 else rng.randrange(24)
            x[i] = x.get(i, 0.0) + rng.random()
        X.append(x)
        y.append(label)
    return X, y, 24


def early_and_late_fixture():
    """Class A is separable at once; B and C overlap and never converge."""
    rng = random.Random(29)
    X, y = [], []
    for _ in range(60):
        if rng.random() < 0.3:
            X.append({0: 1.0, rng.randrange(1, 6): 0.2})
            y.append("A")
        else:
            X.append({rng.randrange(1, 6): rng.random() for _ in range(3)})
            y.append(rng.choice("BC"))
    return X, y, 6


# The L2 scale shrinks by 0.75 a step and 0.75 ** 73 < 1e-9, so every 90-step
# epoch renormalizes the weights at least once.
FLOOR = Hyper(learning_rate=0.5, l2=0.5, epochs=4, seed=4)


class TestPinnedBits:
    """Trained weights and perceptron epoch errors, pinned to the bit.

    The sha256 covers the float64 bytes of the weight rows, then of the biases;
    errors are the per-epoch mistake counts (train_errors holds each divided by
    the set size).
    """

    @pytest.mark.parametrize(
        "kind,fixture,hyper,sha,mistakes",
        [
            (LOGISTIC, three_class_fixture, Hyper(seed=4),
             "c1c1008a9674f9f32ebc83056b05a0aedcb3d4ea5b05dfe238d9264740c46531", None),
            (LINEAR_SVM, three_class_fixture, Hyper(seed=4),
             "31fd020b262d4c280678bd8b0d347b373fc166f7cdd4939870dd9b2cb123208e", None),
            (PERCEPTRON, three_class_fixture, Hyper(seed=4),
             "fed2b5c96bbb8e4576d2377d2c85d8c9cf53e23eb746297bf61bfbf42e53514d", {
                 "A": [13, 5, 2, 2, 8, 2, 4, 4, 6, 0],
                 "B": [19, 17, 11, 7, 4, 4, 7, 4, 8, 5, 1, 2, 5, 5, 5, 5, 4, 4, 1, 2],
                 "C": [21, 8, 3, 6, 2, 2, 1, 4, 4, 3, 4, 1, 1, 3, 1, 0],
             }),
            (LOGISTIC, three_class_fixture, FLOOR,
             "34a8d02b67146fc8cfbe49b9f2ea897410cef72dc6574a0270ce061cc6281024", None),
            (LINEAR_SVM, three_class_fixture, FLOOR,
             "c87b57675afa388d41f67b43768f3a743f40450a6020fedca198f537e4c1abac", None),
            (PERCEPTRON, early_and_late_fixture, Hyper(epochs=12, seed=2),
             "d0e9c6ec94efd5bc3748a90d5fad94457711d625b598c332a064baf32565fa6a", {
                 "A": [2, 0],
                 "B": [24, 19, 12, 18, 14, 12, 15, 17, 13, 18, 11, 14],
                 "C": [22, 19, 16, 16, 14, 16, 15, 18, 10, 18, 13, 16],
             }),
        ],
        ids=["logistic", "linear_svm", "perceptron", "logistic_floor", "linear_svm_floor",
             "perceptron_early_stop"],
    )
    def test_trained_bits(self, kind, fixture, hyper, sha, mistakes):
        X, y, n_features = fixture()
        model = train_classifier(kind, X, y, n_features, hyper)
        digest = hashlib.sha256(np.array(model.rows).tobytes() + np.array(model.offsets).tobytes()).hexdigest()
        assert digest == sha
        if mistakes is None:
            assert model.train_errors is None
        else:
            assert model.train_errors == {c: [m / len(X) for m in ms] for c, ms in mistakes.items()}


def numpy_scalar_transform(vectorizer, window):
    """Vectorizer.transform as computed on numpy scalars read from an idf array."""
    idf = np.array(vectorizer.idf)
    tf = {}
    for term in window:
        idx = vectorizer.vocabulary.get(term)
        if idx is not None:
            tf[idx] = tf.get(idx, 0) + 1
    vec = {idx: count * idf[idx] for idx, count in tf.items()}
    norm = math.sqrt(sum(v * v for v in vec.values()))
    if norm > 0:
        vec = {idx: v / norm for idx, v in vec.items()}
    return vec


def numpy_scalar_scores(model, x):
    """predict_scores as computed on numpy scalars read from arrays of the model's rows and offsets.

    A linear kind sums the products with sum(), which takes its generic path for
    numpy scalars on every Python, then adds the bias; naive Bayes adds each
    product to the class log prior.
    """
    rows, offsets = np.array(model.rows), np.array(model.offsets)
    scores = {}
    for c, cls in enumerate(model.classes):
        if model.kind == MULTINOMIAL_NB:
            s = offsets[c]
            for i, v in x.items():
                s += v * rows[c][i]
        else:
            s = sum(rows[c][i] * v for i, v in x.items()) + offsets[c]
        scores[cls] = float(s)
    return scores


def tied_copy(model):
    """The model with class 1 scored exactly as class 0."""
    rows, offsets = np.array(model.rows), np.array(model.offsets)
    rows[1], offsets[1] = rows[0], offsets[0]
    return dataclasses.replace(model, rows=rows.tolist(), offsets=offsets.tolist())


def swapped_copy(model):
    """The model with class 1 scored as class 0 with features 0 and 1 swapped; class 2 far behind.

    In a window whose first two terms are features 0 and 1, equally weighted,
    classes 0 and 1 add the same two addends in the two orders. Summed from
    0.0 they tie, so a linear margin ties; summed from the naive Bayes prior
    they may round apart. A tie goes to class 1, the more frequent.
    """
    rows, offsets = [list(row) for row in model.rows], list(model.offsets)
    rows[1] = [rows[0][1], rows[0][0], *rows[0][2:]]
    offsets[1], offsets[2] = offsets[0], offsets[0] - 1e3
    return dataclasses.replace(model, rows=rows, offsets=offsets, class_counts=[1, 2, 1])


def nan_copy(model, feature):
    """The model with class 2's weight for feature NaN."""
    rows = [list(row) for row in model.rows]
    rows[2][feature] = math.nan
    return dataclasses.replace(model, rows=rows)


class TestScoresMatchNumpyScalars:
    """Scoring gives the very floats that the numpy-scalar formula gives."""

    @pytest.mark.parametrize("kind", [PERCEPTRON, LOGISTIC, LINEAR_SVM, MULTINOMIAL_NB])
    def test_predict_scores(self, kind):
        X, y, n_features = three_class_fixture()
        model = train_classifier(kind, X, y, n_features, Hyper(epochs=5, seed=4))
        tied = tied_copy(model)
        rng = random.Random(41)
        inputs = [{}] + [
            {rng.randrange(n_features): rng.uniform(-1.0, 2.0) for _ in range(rng.randrange(1, 9))}
            for _ in range(500)
        ]
        for x in inputs:
            got = predict_scores(model, x)
            assert got == numpy_scalar_scores(model, x)
            assert all(type(s) is float for s in got.values())
            ties = predict_scores(tied, x)
            assert ties == numpy_scalar_scores(tied, x)
            assert ties["A"] == ties["B"]

    def test_transform(self):
        rng = random.Random(43)
        terms = [f"t{i}" for i in range(30)]
        windows = [rng.sample(terms, rng.randrange(1, 8)) for _ in range(60)]
        vectorizer = Vectorizer.fit(windows)
        probes = [[]] + [
            [rng.choice(terms + ["unseen"]) for _ in range(rng.randrange(1, 12))] for _ in range(500)
        ]
        for window in probes:
            got = vectorizer.transform(window)
            assert list(got.items()) == list(numpy_scalar_transform(vectorizer, window).items())

    @pytest.mark.parametrize("kind", [LOGISTIC, LINEAR_SVM, MULTINOMIAL_NB])
    def test_trained_and_loaded_classifiers_hold_only_plain_floats(self, kind, tmp_path, monkeypatch):
        calls = TestLockstepMatchesSerial.recorded_head(monkeypatch)
        base = TestInstanceInterface().make_instances()
        rng = random.Random(8)
        groups = [rng.sample(base, rng.randrange(6, 20)) for _ in range(20)]
        groups = [g for g in groups if len({i.label for i in g}) == 2]
        batch = fit_instances(groups, kind, window=5, hyper=Hyper(seed=3))
        if kind != MULTINOMIAL_NB:  # some sets ended in the lockstep head, the others took over from it
            [(_, handed_over)] = calls
            assert 0 < len(handed_over) < len(groups)
        trained = fit_instances([base], kind, window=5, hyper=Hyper(epochs=10))[0]
        path = tmp_path / "bank.json"
        path.write_text(json.dumps(ClassifierBank({"ka": trained}).to_payload()), encoding="utf-8")
        loaded = ClassifierBank.from_payload(
            json.loads(path.read_text(encoding="utf-8")), {"ka": [("ká", 10), ("kà", 10)]}
        ).classifiers["ka"]
        windows = [extract_window(i.tokens, i.target, 5) for i in base]
        for clf in [*batch, trained, loaded]:
            assert not holds_numpy(clf)
            rows, offsets = clf.model.rows, clf.model.offsets
            values = [*clf.vectorizer.idf, *offsets, *(w for row in rows for w in row)]
            assert values and all(type(v) is float for v in values)
            for w in windows:
                # The scores and class of the numpy-scalar formula over arrays of the same numbers.
                scores = numpy_scalar_scores(clf.model, numpy_scalar_transform(clf.vectorizer, w))
                assert predict_scores(clf.model, clf.vectorizer.transform(w)) == scores
                assert predict(clf.model, clf.vectorizer.transform(w)) == classify._argmax(clf.model, scores)
        for w in windows:
            assert predict(loaded.model, loaded.vectorizer.transform(w)) == predict(
                trained.model, trained.vectorizer.transform(w)
            )
            assert posterior(loaded.model, loaded.vectorizer.transform(w)) == posterior(
                trained.model, trained.vectorizer.transform(w)
            )


def reference_window(tokens, target_index, n):
    """extract_window as a comprehension over the window's indices, classifying every token."""
    size = min(n, len(tokens))
    start = min(max(target_index - n // 2, 0), len(tokens) - size)
    return [
        tokens[i]
        for i in range(start, start + size)
        if i != target_index and token_kind(tokens[i]) is TokenKind.WORD
    ]


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestLeanRestorePath:
    """The sliced window and the one-pass predict give what the plain definitions give."""

    @pytest.mark.parametrize("kind", [PERCEPTRON, LOGISTIC, LINEAR_SVM, MULTINOMIAL_NB])
    def test_predict_is_the_argmax_of_the_scores(self, kind):
        X, y, n_features = three_class_fixture()
        model = train_classifier(kind, X, y, n_features, Hyper(epochs=5, seed=4))
        rng = random.Random(47)
        specials = [math.nan, math.inf, -math.inf, 0.0, -0.0]
        inputs = [{}]
        for _ in range(600):
            x = {rng.randrange(n_features): rng.uniform(-1.0, 2.0) for _ in range(rng.randrange(1, 9))}
            if rng.random() < 0.3:
                x[rng.choice(list(x))] = rng.choice(specials)
            inputs.append(x)
        tied = tied_copy(model)
        # The tie of classes A and B goes to the more frequent one, whichever it is.
        counts = tied.class_counts
        swapped = dataclasses.replace(tied, class_counts=[counts[1], counts[0], *counts[2:]])
        seen = {"tie": 0, "nan": 0}
        for m in (model, tied, swapped):
            for x in inputs:
                scores = predict_scores(m, x)
                best = max(scores.values())
                seen["tie"] += sum(s == best for s in scores.values()) > 1
                seen["nan"] += any(s != s for s in scores.values())
                assert outcome(predict, m, x) == outcome(lambda: classify._argmax(m, scores))
        assert seen["tie"] > 50 and seen["nan"] > 10

    @pytest.mark.parametrize("kind", [PERCEPTRON, LOGISTIC, LINEAR_SVM, MULTINOMIAL_NB])
    def test_out_of_range_index_names_the_first_one(self, kind):
        X, y, n_features = three_class_fixture()
        model = train_classifier(kind, X, y, n_features, Hyper(epochs=2))
        cases = [
            ({n_features: 1.0}, n_features),
            ({-1: 0.5}, -1),
            ({0: 1.0, n_features + 3: 1.0, -2: 1.0}, n_features + 3),
            ({3: 1.0, -2: 1.0, n_features: 1.0}, -2),
        ]
        for x, first in cases:
            message = f"feature index {first} outside model dimension {n_features}"
            for fn in (predict, predict_scores):
                with pytest.raises(DataError) as raised:
                    fn(model, x)
                assert str(raised.value) == message

    def test_sliced_window_matches_the_index_comprehension(self):
        pool = [
            "ha", "ka", "ọ́", "Ụ", "ñ", "na-", "n'", "n’", "3", "12", "a1", "1a", ",", ".", "!",
            "…", "-", "'", "€", "+", "αβ", "мир", "中文", "x\u0300", "\u0300", "Ⅻ", "",
        ]
        rng = random.Random(53)
        for _ in range(2000):
            tokens = tuple(rng.choice(pool) for _ in range(rng.randrange(1, 25)))
            target = rng.randrange(len(tokens))
            n = rng.choice([3, 5, 7, 9, 11, 13])
            expected = reference_window(tokens, target, n)
            assert extract_window(tokens, target, n) == expected
            assert extract_window(list(tokens), target, n) == expected

    @pytest.mark.parametrize("kind", [PERCEPTRON, LOGISTIC, LINEAR_SVM, MULTINOMIAL_NB])
    def test_predict_at_is_predict_of_the_transformed_window(self, kind, monkeypatch):
        # Vocabulary terms, the non-words ",", "3" and "€" among them, then keys outside it.
        terms = ["ha", "ka", "ọ́", "Ụ", "na-", "n'", "a1", "x̀", "αβ", "мир", ",", "3", "€"]
        pool = terms + ["ha", "ka"] * 4 + [
            "ñ", "12", "1a", ".", "!", "…", "-", "'", "+", "中文", "̀", "Ⅻ", "", "n’", "ọ",
        ]
        rng = random.Random(59)
        idf = [rng.uniform(1.0, 3.0) for _ in terms]
        idf[1] = idf[0]  # so "ha" and "ka" once each weigh the same (see swapped_copy)
        vectorizer = Vectorizer({t: j for j, t in enumerate(terms)}, idf)
        X = [{rng.randrange(len(terms)): rng.random() for _ in range(rng.randrange(1, 6))} for _ in range(90)]
        y = ["ABC"[min(x) % 3] for x in X]
        model = train_classifier(kind, X, y, len(terms), Hyper(epochs=5, seed=4))
        models = [model, tied_copy(model), swapped_copy(model), nan_copy(model, terms.index("Ụ"))]
        # The scores that reach _argmax from predict_at: a NaN among them, or a tie for the top.
        fallbacks = {"tie": 0, "nan": 0}
        argmax = classify._argmax

        def recording(m, scores):
            values = list(scores.values())
            if any(s != s for s in values):
                fallbacks["nan"] += 1
            elif values.count(max(values)) > 1:
                fallbacks["tie"] += 1
            return argmax(m, scores)

        cases = []
        for _ in range(1500):
            keys = tuple(rng.choice(pool) for _ in range(rng.randrange(1, 17)))
            i = rng.choice([0, len(keys) - 1, rng.randrange(len(keys))])
            n = rng.choice([3, 5, 7, 9, 11, 13])
            for m in models:
                expected = outcome(predict, m, vectorizer.transform(extract_window(keys, i, n)))
                cases.append((TextClassifier(n, vectorizer, m), keys, i, expected))
        monkeypatch.setattr(classify, "_argmax", recording)
        for clf, keys, i, expected in cases:
            assert outcome(clf.predict_at, keys, i) == expected
            assert outcome(clf.predict_at, list(keys), i) == expected
        assert fallbacks["tie"] > 100 and fallbacks["nan"] > 100

    def test_naive_bayes_tie_on_an_empty_window_goes_to_argmax(self, monkeypatch):
        """Equal priors and no vocabulary term in the window: the leader pass hands the tie to _argmax."""
        X, y = [{0: 1.0}, {1: 1.0}, {0: 1.0}, {1: 1.0}], ["B", "A", "B", "A"]
        model = train_classifier(MULTINOMIAL_NB, X, y, 2)
        assert model.offsets[0] == model.offsets[1] < 0.0
        clf = TextClassifier(3, Vectorizer({"ha": 0, "ka": 1}, [1.0, 1.0]), model)
        calls = []
        argmax = classify._argmax
        monkeypatch.setattr(classify, "_argmax", lambda m, scores: calls.append(scores) or argmax(m, scores))
        assert clf.predict_at(("oma", "si", "ya"), 1) == "A"  # equal counts too: the first in order
        assert calls == [{"A": model.offsets[0], "B": model.offsets[1]}]


def holds_numpy(value) -> bool:
    """Whether a numpy array or scalar is reachable from value through fields, dicts and sequences."""
    if isinstance(value, (np.ndarray, np.generic)):
        return True
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, dict):
        return any(holds_numpy(k) or holds_numpy(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return any(holds_numpy(v) for v in value)
    return False


def mixed_sets(seed, sizes):
    """Training sets of the given sizes, two or three classes each, as (X, y, n_features, classes)."""
    rng = random.Random(seed)
    sets = []
    for n in sizes:
        labels = "ABC"[: rng.choice([2, 3, 3])]
        n_features = rng.randrange(4, 40)
        X, y = [], []
        for k in range(n):
            label = labels[k % len(labels)] if k < len(labels) else rng.choice(labels)
            home = labels.index(label)
            x = {}  # up to 16 terms, past the 8 where numpy's pairwise sum starts
            for _ in range(rng.randrange(0, 17)):
                cue = rng.random() < 0.6
                i = (home + 3 * rng.randrange(10)) % n_features if cue else rng.randrange(n_features)
                x[i] = x.get(i, 0.0) + rng.random()
            X.append(x)
            y.append(label)
        sets.append((X, y, n_features, sorted(set(y))))
    return sets


def fit_sgd(kind, sets, hyper):
    """classify._fit_sgd over (X, y, n_features, classes) sets, each laid out as train_classifier lays it out."""
    return classify._fit_sgd(kind, [classify._dict_set(kind, X, y, n_features) for X, y, n_features, _ in sets], hyper)


SIZES = [90, 84, 77, 71, 64, 58, 50, 44, 37, 30, 26, 23, 19, 13, 11, 8, 6, 4, 3, 2]


class TestLockstepMatchesSerial:
    """A batched SGD call gives every set the bits of train_classifier on that set alone."""

    @staticmethod
    def recorded_head(monkeypatch):
        calls = []
        head = classify._lockstep_head

        def recording(kind, sets, hyper, *orders):
            step, scale, from_head = head(kind, sets, hyper, *orders)
            calls.append((step, [len(s.truth) for s, fields in zip(sets, from_head) if not isinstance(fields, dict)]))
            return step, scale, from_head

        monkeypatch.setattr(classify, "_lockstep_head", recording)
        return calls

    @pytest.mark.parametrize("kind", [LOGISTIC, LINEAR_SVM])
    @pytest.mark.parametrize("hyper", [Hyper(seed=4), FLOOR], ids=["seed4", "floor"])
    def test_batch_bits(self, kind, hyper, monkeypatch):
        calls = self.recorded_head(monkeypatch)
        sets = mixed_sets(11, SIZES)
        assert len([c for *_, classes in sets for c in classes]) >= classify._HEAD_FLOOR
        fitted = fit_sgd(kind, sets, hyper)
        [(step, handed_over)] = calls
        # The head ran, some sets ended in it, and some took over mid-epoch.
        assert step > 0 and 0 < len(handed_over) < len(sets)
        assert any(step % n for n in handed_over)
        # With FLOOR the L2 scale crossed _SCALE_FLOOR inside the head.
        assert hyper is not FLOOR or (1 - hyper.learning_rate * hyper.l2) ** step < classify._SCALE_FLOOR
        for (X, y, n_features, _), fields in zip(sets, fitted):
            alone = train_classifier(kind, X, y, n_features, hyper)
            assert np.array(fields["rows"]).tobytes() == np.array(alone.rows).tobytes()
            assert np.array(fields["offsets"]).tobytes() == np.array(alone.offsets).tobytes()
            assert np.array(fields["rows"]).shape == np.array(alone.rows).shape
            assert fields["train_errors"] is None and alone.train_errors is None

    def test_perceptron_batch_with_an_early_stop(self, monkeypatch):
        calls = self.recorded_head(monkeypatch)
        X, y, n_features = early_and_late_fixture()
        sets = [(X, y, n_features, sorted(set(y)))] + mixed_sets(12, SIZES)
        hyper = Hyper(epochs=12, seed=2)
        fitted = fit_sgd(PERCEPTRON, sets, hyper)
        assert calls == []
        assert len(fitted[0]["train_errors"]["A"]) < hyper.epochs
        for (X, y, n_features, _), fields in zip(sets, fitted):
            alone = train_classifier(PERCEPTRON, X, y, n_features, hyper)
            assert np.array(fields["rows"]).tobytes() == np.array(alone.rows).tobytes()
            assert np.array(fields["offsets"]).tobytes() == np.array(alone.offsets).tobytes()
            assert fields["train_errors"] == alone.train_errors

    def test_one_set_never_enters_the_head(self, monkeypatch):
        calls = self.recorded_head(monkeypatch)
        X = [{k % 5: 1.0} for k in range(80)]
        y = [f"c{k % 40:02d}" for k in range(80)]
        assert len(set(y)) >= classify._HEAD_FLOOR
        fit_sgd(LOGISTIC, [(X, y, 5, sorted(set(y)))], Hyper(epochs=2))
        assert calls == []

    @pytest.mark.parametrize("kind", [LOGISTIC, PERCEPTRON, MULTINOMIAL_NB])
    def test_first_untrainable_group_raises_train_classifiers_error(self, kind):
        good = TestInstanceInterface().make_instances()
        single = [dataclasses.replace(inst, label="ká") for inst in good]
        other = [dataclasses.replace(inst, label="kà") for inst in good]
        with pytest.raises(ModelError) as alone:
            train_classifier(kind, [{0: 1.0}] * len(single), [i.label for i in single], 1)
        with pytest.raises(ModelError) as batched:
            fit_instances([good, single, other, good], kind, window=5, hyper=Hyper(epochs=2))
        assert str(batched.value) == str(alone.value)
        with pytest.raises(DataError, match="no instances"):
            fit_instances([good, [], single], kind, window=5)

    def test_fit_instances_matches_one_group_at_a_time(self):
        base = TestInstanceInterface().make_instances()
        rng = random.Random(8)
        groups = [rng.sample(base, rng.randrange(6, 20)) for _ in range(20)]
        groups = [g for g in groups if len({i.label for i in g}) == 2]
        assert len(groups) * 2 >= classify._HEAD_FLOOR
        for kind in (LOGISTIC, LINEAR_SVM):
            batched = fit_instances(groups, kind, window=5, hyper=Hyper(seed=3))
            for group, clf in zip(groups, batched):
                alone = fit_instances([group], kind, window=5, hyper=Hyper(seed=3))[0]
                assert clf.vectorizer.vocabulary == alone.vectorizer.vocabulary
                assert np.array(clf.model.rows).tobytes() == np.array(alone.model.rows).tobytes()
                assert np.array(clf.model.offsets).tobytes() == np.array(alone.model.offsets).tobytes()


def reference_epoch_orders(n, hyper):
    """Each epoch's order as one fit drew it alone: its own Random, shuffling in place."""
    rng, order, orders = random.Random(hyper.seed), list(range(n)), []
    for _ in range(hyper.epochs):
        rng.shuffle(order)
        orders.append(list(order))
    return orders


def counted_shuffles(monkeypatch):
    calls = []
    shuffle = random.Random.shuffle

    def counting(self, x):
        calls.append(len(x))
        return shuffle(self, x)

    monkeypatch.setattr(random.Random, "shuffle", counting)
    return calls


class TestEpochOrders:
    """Each set size's epoch orders are drawn once per call, with the bits each fit drew alone."""

    @pytest.mark.parametrize("seed", [0, 4, 977])
    @pytest.mark.parametrize("n", [1, 2, 7, 90])
    def test_orders_are_one_randoms_in_place_shuffles(self, seed, n):
        hyper = Hyper(epochs=6, seed=seed)
        table, [start] = classify._epoch_orders([n], hyper)
        assert table[start:].reshape(hyper.epochs, n).tolist() == reference_epoch_orders(n, hyper)

    def test_one_int32_block_per_distinct_size_at_its_start(self):
        hyper = Hyper(epochs=5, seed=3)
        sizes = [7, 3, 7, 12, 3, 7, 1]
        table, starts = classify._epoch_orders(sizes, hyper)
        assert table.dtype == np.int32
        # The distinct sizes' blocks, in first-seen order, laid end to end.
        assert starts.tolist() == [0, 35, 0, 50, 35, 0, 110]
        assert len(table) == hyper.epochs * (7 + 3 + 12 + 1)
        for n, start in zip(sizes, starts.tolist()):
            block = table[start : start + hyper.epochs * n].reshape(hyper.epochs, n)
            assert block.tolist() == reference_epoch_orders(n, hyper)

    @pytest.mark.parametrize("kind", [PERCEPTRON, LOGISTIC, LINEAR_SVM])
    def test_one_call_shuffles_epochs_times_distinct_sizes(self, kind, monkeypatch):
        head = TestLockstepMatchesSerial.recorded_head(monkeypatch)
        shuffles = counted_shuffles(monkeypatch)
        sizes = [40] * 8 + [25] * 6 + [9, 9, 3]
        hyper = Hyper(epochs=7, seed=5)
        fit_sgd(kind, mixed_sets(13, sizes), hyper)
        # Every size's orders are drawn in full before any set trains, the perceptron's included.
        assert {n: shuffles.count(n) for n in shuffles} == dict.fromkeys(sizes, hyper.epochs)
        assert (head != []) == (kind != PERCEPTRON)

    def test_a_memo_lives_for_one_call(self, monkeypatch):
        shuffles = counted_shuffles(monkeypatch)
        sets = mixed_sets(14, [12, 12])
        fit_sgd(LOGISTIC, sets, Hyper(epochs=3))
        fit_sgd(LOGISTIC, sets, Hyper(epochs=3))
        assert shuffles == [12] * 6

    @pytest.mark.parametrize("kind", [LOGISTIC, LINEAR_SVM, PERCEPTRON])
    def test_equal_and_mixed_sizes_match_train_classifier(self, kind, monkeypatch):
        calls = TestLockstepMatchesSerial.recorded_head(monkeypatch)
        sets = mixed_sets(15, [40] * 8 + [25] * 6 + [26, 24, 9, 9, 9, 3, 3, 2])
        if kind == PERCEPTRON:
            X, y, n_features = early_and_late_fixture()
            sets = [(X, y, n_features, sorted(set(y)))] * 2 + sets
        hyper = Hyper(epochs=9, seed=6)
        fitted = fit_sgd(kind, sets, hyper)
        if kind == PERCEPTRON:
            assert calls == []
            assert len(fitted[0]["train_errors"]["A"]) < hyper.epochs
        else:
            [(step, handed_over)] = calls
            assert 0 < len(handed_over) < len(sets) and any(step % n for n in handed_over)
        for (X, y, n_features, _), fields in zip(sets, fitted):
            alone = train_classifier(kind, X, y, n_features, hyper)
            assert np.array(fields["rows"]).tobytes() == np.array(alone.rows).tobytes()
            assert np.array(fields["offsets"]).tobytes() == np.array(alone.offsets).tobytes()
            assert fields["train_errors"] == alone.train_errors


class TestDecayRule:
    """A logistic or linear-SVM step scales the weights by 1 - rate * l2, which must stay positive."""

    @pytest.mark.parametrize("kind", [LOGISTIC, LINEAR_SVM])
    @pytest.mark.parametrize("hyper", [Hyper(learning_rate=1e4), Hyper(learning_rate=3e4), Hyper(l2=100.0)])
    def test_a_step_that_would_not_shrink_the_weights_is_refused(self, kind, hyper):
        X, y, n_features = three_class_fixture()
        with pytest.raises(ModelError, match="times l2 .* must be below 1"):
            train_classifier(kind, X, y, n_features, hyper)
        below = dataclasses.replace(hyper, learning_rate=0.99 / hyper.l2)
        assert train_classifier(kind, X, y, n_features, below)

    def test_the_perceptron_takes_no_l2(self):
        X, y, n_features = three_class_fixture()
        assert train_classifier(PERCEPTRON, X, y, n_features, Hyper(learning_rate=1e4, epochs=2))


def cv_instances(seed, n):
    """Instances of one wordkey whose width-5 windows repeat terms, hold one term or none, and,
    in the last instance alone, the term "lone"."""
    rng = random.Random(seed)
    pool = ["sun", "moon", "rose", "the", "a", ".", ",", "7"]
    insts = [
        Instance(tokens=(".", "ka", ","), target=1, label="ká", line=0),  # no context word
        Instance(tokens=("moon", "ka"), target=1, label="kà", line=1),  # one
        Instance(tokens=("sun", "sun", "ka", "sun", "rose"), target=2, label="ká", line=2),  # repeated
    ]
    for line in range(3, n - 1):
        left = [rng.choice(pool) for _ in range(rng.randrange(0, 5))]
        right = [rng.choice(pool) for _ in range(rng.randrange(0, 5))]
        label = rng.choice(["ká", "kà", "kā"])
        insts.append(Instance(tokens=(*left, "ka", *right), target=len(left), label=label, line=line))
    insts.append(Instance(tokens=("a", "ka", "lone"), target=1, label="kā", line=n - 1))
    return insts


def same_vector(a, b):
    return [(i, v.hex()) for i, v in a.items()] == [(i, v.hex()) for i, v in b.items()]


def set_rows(training):
    """A training set's rows as {index: weight} dicts, once its padding is checked."""
    rows = []
    for slots, values, k in zip(training.slots.tolist(), training.values.tolist(), training.lengths.tolist()):
        assert slots[k:] == [training.n_features] * (len(slots) - k) and values[k:] == [0.0] * (len(values) - k)
        rows.append(dict(zip(slots[:k], values[:k])))
    return rows


def assert_fold_matches_windows(vectorizer, training, windows, labels):
    """A built fold holds the bits of Vectorizer.fit on its windows and of transform on each."""
    want = Vectorizer.fit(windows)
    assert list(vectorizer.vocabulary.items()) == list(want.vocabulary.items())
    assert [v.hex() for v in vectorizer.idf] == [v.hex() for v in want.idf]
    assert all(same_vector(x, want.transform(w)) for x, w in zip(set_rows(training), windows, strict=True))
    assert (training.classes, training.n_features) == (sorted(set(labels)), len(want.vocabulary))
    assert training.truth.tolist() == [training.classes.index(label) for label in labels]


class TestCvVectorizing:
    """A training set built from a term table holds the bits of fitting and transforming its windows."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_folds_of_a_term_table_match_fit_and_transform_on_their_windows(self, seed):
        rng = random.Random(seed)
        terms = [f"t{i}" for i in range(12)]
        windows = [[], ["t0"], ["t3", "t3", "t1", "t3"], ["rare"], terms + terms[::3]] + [
            [rng.choice(terms) for _ in range(rng.randrange(0, 14))] for _ in range(80)
        ]
        labels = [rng.choice("ab") for _ in windows]
        table = classify._term_table([classify.term_counts(w) for w in windows])
        assert table[0].tolist() == sorted({t for w in windows for t in w})
        everything = list(range(len(windows)))
        folds = [[r for r in everything if r % 5 != held] for held in range(5)]
        # every row, rows in another order, and a row taken twice
        folds += [everything, rng.sample(everything, 60), [0, 1, 2, 2, 5, 7, 9]]
        rare = []
        for rows in folds:
            fold_windows = [windows[r] for r in rows]
            fold_labels = [labels[r] for r in rows]
            classes = sorted(set(fold_labels))
            vectorizer, training = classify._fold_set(table, np.array(rows), fold_labels, classes)
            assert_fold_matches_windows(vectorizer, training, fold_windows, fold_labels)
            rare.append("rare" in vectorizer.vocabulary)
        # The fold that holds out row 3 drops "rare" from the table's terms, as does the last.
        assert rare[:6] == [True, True, True, False, True, True] and not rare[-1]

    @pytest.mark.parametrize("n, df", [(20, 19), (41, 39), (125, 60), (251, 121)])
    def test_idf_keeps_math_logs_bits(self, n, df):
        # (1 + n) / (1 + df) where numpy 2.4's np.log has rounded otherwise than math.log on x86-64
        windows = [["w", "v"]] * df + [["x"]] * (n - df)
        labels = ["a", "b"] * (n // 2) + ["a"] * (n % 2)
        table = classify._term_table([classify.term_counts(w) for w in windows])
        vectorizer, training = classify._fold_set(table, np.arange(n), labels, ["a", "b"])
        assert_fold_matches_windows(vectorizer, training, windows, labels)

    @pytest.mark.parametrize("kind", [LOGISTIC, MULTINOMIAL_NB])
    def test_folds_match_fit_and_transform_on_their_windows(self, kind, monkeypatch):
        trained, vectorizers = [], []
        real_train, real_clf = classify._train_models, classify.TextClassifier
        monkeypatch.setattr(classify, "_train_models", lambda k, sets, h: trained.extend(sets) or real_train(k, sets, h))
        monkeypatch.setattr(classify, "TextClassifier", lambda w, v, m: vectorizers.append(v) or real_clf(w, v, m))
        insts = cv_instances(9, 60)
        rng = random.Random(10)
        folds = [insts[:40], insts[20:], rng.sample(insts, 45), insts[::2]]
        fit = classify.cv_fitter(kind, window=5, hyper=Hyper(epochs=2))
        predictors = [fit(train) for train in folds]
        predictors[0](insts[0])
        assert len(trained) == len(vectorizers) == len(folds)
        for train, training, vectorizer in zip(folds, trained, vectorizers):
            windows = [extract_window(i.tokens, i.target, 5) for i in train]
            assert [] in windows and any(len(w) == 1 for w in windows) and any(len(set(w)) < len(w) for w in windows)
            assert_fold_matches_windows(vectorizer, training, windows, [i.label for i in train])
        # The queue's one term table holds "lone", which only some folds train on.
        assert ["lone" in v.vocabulary for v in vectorizers] == [False, True, insts[-1] in folds[2], False]

    def test_a_group_takes_each_training_window_once_and_a_prediction_none(self, monkeypatch):
        windows = []
        real = classify.extract_window
        monkeypatch.setattr(classify, "extract_window", lambda *a: windows.append(a[:2]) or real(*a))
        insts = cv_instances(11, 30)
        held, train = insts[:10], insts[10:]
        fit = classify.cv_fitter(LOGISTIC, window=5, hyper=Hyper(epochs=2))
        predictor = fit(train)
        fit(insts[5:])  # shares train with the first fold
        assert windows == []  # a fold takes no window until its group trains
        predictions = [predictor(inst) for inst in held + train]
        # the group's 25 distinct training instances, each once, in the order the folds hold them
        assert windows == [(i.tokens, i.target) for i in train + insts[5:10]]
        assert [predictor(inst) for inst in held + train] == predictions
        assert len(windows) == 25


class TestCvSetup:
    """A kind or window that no data could train is refused when cv_fitter is built, before any fold."""

    @pytest.mark.parametrize(
        "kind, window, error, message",
        [
            ("bogus", 9, DataError, "^unknown classifier kind: 'bogus'$"),
            (LOGISTIC, 4, DataError, "window size must be an odd integer >= 3, got 4"),
            (LOGISTIC, 1, DataError, "got 1"),
            (LOGISTIC, True, DataError, "got True"),
        ],
    )
    def test_a_bad_kind_or_window_scores_no_fold(self, kind, window, error, message, monkeypatch):
        fits = []
        real = classify._instance_classes
        monkeypatch.setattr(classify, "_instance_classes", lambda *a: fits.append(a) or real(*a))
        insts = cv_instances(12, 30)
        aset = AmbiguousSet("ka", [(v, sum(i.label == v for i in insts)) for v in ("ká", "kà", "kā")], insts)
        with pytest.raises(error, match=message):
            evaluate.crossval(classify.cv_fitter(kind, window=window), aset, 3, 0)
        assert fits == []

    @pytest.mark.parametrize(
        "field, value", [("epochs", 0), ("l2", -1.0), ("learning_rate", 0.0), ("seed", 1.5), ("alpha", math.nan)]
    )
    def test_a_hyperparameter_the_loader_refuses_is_refused_by_both_training_entries(self, field, value, monkeypatch):
        fits = []
        real = classify._instance_classes
        monkeypatch.setattr(classify, "_instance_classes", lambda *a: fits.append(a) or real(*a))
        hyper = Hyper(**{field: value})
        with pytest.raises(DataError) as owner:
            classify.check_hyper(hyper)
        assert str(owner.value).startswith(f"classifier hyper {field} must be ")
        with pytest.raises(DataError) as at_cv:
            classify.cv_fitter(LOGISTIC, window=5, hyper=hyper)
        with pytest.raises(DataError) as at_fit:
            fit_instances([cv_instances(12, 30)], LOGISTIC, window=5, hyper=hyper)
        assert str(at_cv.value) == str(at_fit.value) == str(owner.value)
        assert fits == []


class TestOneTablePerFitInstances:
    """fit_instances lays out one term table for all its groups, and each group keeps the bits it trains to alone."""

    @pytest.mark.parametrize("kind", classify.KINDS)
    def test_each_group_matches_a_call_of_its_own(self, kind, monkeypatch):
        heads = TestLockstepMatchesSerial.recorded_head(monkeypatch)
        tables = []
        real = classify._term_table
        monkeypatch.setattr(classify, "_term_table", lambda counts: tables.append(len(counts)) or real(counts))
        groups = [cv_instances(seed, 10 + 3 * seed)[:-1] for seed in range(20, 32)]
        groups[4] = cv_instances(40, 25)  # the only group whose windows hold "lone"
        assert sum(len({i.label for i in g}) for g in groups) >= classify._HEAD_FLOOR
        hyper = Hyper(epochs=6, seed=3)
        batched = fit_instances(groups, kind, window=5, hyper=hyper)
        assert tables == [sum(map(len, groups))]
        assert (heads != []) == (kind in (LOGISTIC, LINEAR_SVM))
        for n, (group, clf) in enumerate(zip(groups, batched)):
            alone = fit_instances([group], kind, window=5, hyper=hyper)[0]
            assert list(clf.vectorizer.vocabulary.items()) == list(alone.vectorizer.vocabulary.items())
            assert [v.hex() for v in clf.vectorizer.idf] == [v.hex() for v in alone.vectorizer.idf]
            assert np.array(clf.model.rows).tobytes() == np.array(alone.model.rows).tobytes()
            assert np.array(clf.model.offsets).tobytes() == np.array(alone.model.offsets).tobytes()
            assert clf.model.train_errors == alone.model.train_errors
            assert ("lone" in clf.vectorizer.vocabulary) == (n == 4)
