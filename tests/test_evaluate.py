import random
import weakref

import pytest

from diacritize import evaluate
from diacritize.corpus import corpus_from_lines
from diacritize.datasetgen import AmbiguousSet, Instance
from diacritize.errors import DataError, FoldError, ModelError
from diacritize.evaluate import (
    ConfusionMatrix,
    aggregate,
    crossval,
    fold_plan,
    full_text_eval,
    metrics,
    stratified_folds,
    wordkey_report,
)


def make_set(label_counts, wordkey="ka"):
    variants = sorted(label_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    instances = []
    i = 0
    for label, count in sorted(label_counts.items()):
        for _ in range(count):
            instances.append(
                Instance(tokens=("w", wordkey), target=1, label=label, line=i)
            )
            i += 1
    return AmbiguousSet(wordkey=wordkey, variants=variants, instances=instances)


class TestStratifiedFolds:
    def test_exact_divisibility(self):
        aset = make_set({"a": 60, "b": 40})
        folds = stratified_folds(aset.instances, k=10, seed=0)
        for fold in folds:
            labels = [aset.instances[i].label for i in fold]
            assert labels.count("a") == 6
            assert labels.count("b") == 4

    def test_one_per_fold(self):
        aset = make_set({"a": 10})
        folds = stratified_folds(aset.instances, k=10, seed=0)
        assert all(len(f) == 1 for f in folds)

    def test_partition_contract(self):
        rng = random.Random(3)
        for _ in range(20):
            counts = {f"v{i}": rng.randrange(1, 40) for i in range(rng.randrange(2, 5))}
            aset = make_set(counts)
            if len(aset.instances) < 5:
                continue
            folds = stratified_folds(aset.instances, k=5, seed=rng.randrange(100))
            flat = sorted(i for fold in folds for i in fold)
            assert flat == list(range(len(aset.instances)))

    def test_label_balance_within_one(self):
        aset = make_set({"a": 23, "b": 17, "c": 5})
        folds = stratified_folds(aset.instances, k=4, seed=1)
        for label, total in (("a", 23), ("b", 17), ("c", 5)):
            for fold in folds:
                got = sum(1 for i in fold if aset.instances[i].label == label)
                assert abs(got - total // 4) <= 1

    def test_deterministic(self):
        aset = make_set({"a": 31, "b": 19})
        assert stratified_folds(aset.instances, 10, seed=4) == stratified_folds(
            aset.instances, 10, seed=4
        )
        assert stratified_folds(aset.instances, 10, seed=4) != stratified_folds(
            aset.instances, 10, seed=5
        )

    def test_too_few_instances(self):
        aset = make_set({"a": 3})
        with pytest.raises(FoldError):
            stratified_folds(aset.instances, k=10, seed=0)
        # a fold count outside the rule is no shortage of instances: fold_plan must not fold it train-on-all
        with pytest.raises(DataError, match="k >= 2 folds, got 1$") as refused:
            stratified_folds(aset.instances, k=1, seed=0)
        assert not isinstance(refused.value, FoldError)


class TestCrossval:
    def test_oracle_restorer_is_diagonal(self):
        aset = make_set({"a": 30, "b": 20})
        fit = lambda train: (lambda inst: inst.label)
        result = crossval(fit, aset, k=10, seed=0)
        rep = metrics(result.matrix)
        assert rep["accuracy"] == 1.0
        assert result.matrix.trace == 50
        assert result.matrix.total == 50

    def test_constant_majority_restorer(self):
        aset = make_set({"a": 30, "b": 20})
        fit = lambda train: (lambda inst: "a")
        result = crossval(fit, aset, k=10, seed=0)
        assert metrics(result.matrix)["accuracy"] == pytest.approx(0.6)

    def test_matrix_total_equals_instance_count(self):
        aset = make_set({"a": 17, "b": 13, "c": 7})
        rng = random.Random(9)
        fit = lambda train: (lambda inst: rng.choice(["a", "b", "c"]))
        result = crossval(fit, aset, k=5, seed=0)
        assert result.matrix.total == len(aset.instances)

    def test_small_set_runs_train_on_all_with_warning(self):
        aset = make_set({"a": 2, "b": 1})
        fit = lambda train: (lambda inst: inst.label)
        result = crossval(fit, aset, k=10, seed=0)
        assert result.warnings
        assert result.matrix.total == 3

    @pytest.mark.parametrize("k", [1, 0, -3])
    def test_a_fold_count_below_two_is_refused_before_any_fit(self, k):
        fits = []

        def fit(train):
            fits.append(train)
            return lambda inst: inst.label

        sets = [make_set({"a": 30, "b": 20}, "x"), make_set({"a": 2, "b": 1}, "y")]
        for aset in (sets[0], sets[1], sets):
            with pytest.raises(DataError, match=f"k >= 2 folds, got {k}$"):
                crossval(fit, aset, k=k, seed=0)
        assert fits == []

    def test_failed_fold_scores_majority_fallback(self):
        aset = make_set({"a": 30, "b": 20})

        calls = {"n": 0}

        def fit(train):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ModelError("boom")
            return lambda inst: inst.label

        result = crossval(fit, aset, k=10, seed=0)
        assert result.failed_folds == [0]
        # fold 0 held 3 a + 2 b and was scored all-"a": 2 errors
        assert result.matrix.trace == 48
        assert result.matrix.cells == [[30, 0], [2, 18]]

    def test_failed_fold_majority_ties_go_to_smallest_surface(self):
        aset = make_set({"a": 10, "b": 10})
        aset.instances.reverse()  # "b" comes first in every training fold

        def fit(train):
            raise ModelError("boom")

        result = crossval(fit, aset, k=2, seed=0)
        assert result.failed_folds == [0, 1]
        # every fold trains on a 5/5 tie and predicts "a"
        assert result.matrix.cells == [[10, 0], [10, 0]]

    def test_programming_error_in_fit_propagates(self):
        aset = make_set({"a": 30, "b": 20})

        def fit(train):
            raise AttributeError("a bug, not a data problem")

        with pytest.raises(AttributeError):
            crossval(fit, aset, k=10, seed=0)

    def test_fold_plan_walks_the_stratified_folds(self):
        aset = make_set({"a": 7, "b": 5})
        plan, warning = fold_plan(aset, k=4, seed=2)
        assert warning is None
        folds = stratified_folds(aset.instances, k=4, seed=2)
        assert [fold_no for fold_no, _, _ in plan] == list(range(4))
        for (_, train, test), test_idx in zip(plan, folds):
            assert [id(i) for i in test] == [id(aset.instances[j]) for j in test_idx]
            assert [id(i) for i in train] == [id(inst) for j, inst in enumerate(aset.instances) if j not in test_idx]

    @pytest.mark.parametrize("k", [1, 0, True, 2.0])
    def test_fold_plan_refuses_a_fold_count_outside_the_rule(self, k):
        # never one train-on-all entry, as a set too small to fold gets
        aset = make_set({"a": 2, "b": 1})
        with pytest.raises(DataError, match=f"k >= 2 folds, got {k!r}$") as refused:
            fold_plan(aset, k=k)
        assert not isinstance(refused.value, FoldError)

    def test_fold_plan_of_a_set_too_small_to_fold(self):
        aset = make_set({"a": 2, "b": 1})
        [(fold_no, train, test)], warning = fold_plan(aset, k=5)
        assert fold_no is None and train == test == aset.instances and train is not aset.instances
        assert warning == "ka: 3 instances cannot fill 5 folds; evaluated train-on-all"

    def test_reproducible_with_seed(self):
        aset = make_set({"a": 25, "b": 25})
        rng_fit = lambda seed: (
            lambda train: (lambda inst, r=random.Random(seed): r.choice(["a", "b"]))
        )
        m1 = crossval(rng_fit(7), aset, k=5, seed=3).matrix
        m2 = crossval(rng_fit(7), aset, k=5, seed=3).matrix
        assert m1.cells == m2.cells


def keys(instances):
    return [(i.tokens[1], i.line) for i in instances]


def recording_fit(log, raising=()):
    """A fit that logs ("fit", keys of its training) per call and ("predict", call number) per
    prediction, and raises ModelError on the calls numbered in raising. Each predictor answers
    its training's first label for every third line and the true label otherwise, and checks
    that every predictor of an earlier call has been let go."""
    refs = []

    def fit(train):
        n = len(refs)
        log.append(("fit", keys(train)))
        refs.append(lambda: None)
        if n in raising:
            raise ModelError("no fit")
        first = train[0].label

        def predictor(inst):
            assert all(ref() is None for ref in refs[:n]), "an earlier fold's predictor is still held"
            log.append(("predict", n))
            return first if inst.line % 3 == 0 else inst.label

        refs[n] = weakref.ref(predictor)
        return predictor

    return fit


def fold_trains(aset, k, seed):
    return [("fit", keys(train)) for _, train, _ in fold_plan(aset, k, seed)[0]]


def same_result(got, want):
    return (got.matrix.classes, got.matrix.cells, got.fold_accuracies, got.failed_folds, got.warnings) == (
        want.matrix.classes, want.matrix.cells, want.fold_accuracies, want.failed_folds, want.warnings
    )


class TestCrossvalOverSets:
    """crossval over a list of sets: every fold fit first, in plan order, then each set scored."""

    @staticmethod
    def sets():
        return [
            make_set({"x": 6, "y": 4}, "a"),
            make_set({"x": 5, "y": 5, "z": 3}, "b"),
            make_set({"x": 2, "y": 1}, "c"),  # too small to fold
        ]

    def test_every_fold_is_fit_in_plan_order_before_any_prediction(self):
        a, b, c = self.sets()
        log = []
        results = crossval(recording_fit(log), [a, b, c], k=4, seed=1)
        fits = fold_trains(a, 4, 1) + fold_trains(b, 4, 1) + fold_trains(c, 4, 1)
        assert len(fits) == 9
        assert log[: len(fits)] == fits
        assert all(kind == "predict" for kind, _ in log[len(fits):])
        # the predictions walk the folds in order, each fold's predictor once
        called = [n for _, n in log[len(fits):]]
        assert called == sorted(called) and set(called) == set(range(9))
        assert len(results) == 3

    def test_each_result_equals_crossval_of_its_set_alone(self):
        results = crossval(recording_fit([]), self.sets(), k=4, seed=1)
        for got, aset in zip(results, self.sets()):
            want = crossval(recording_fit([]), aset, k=4, seed=1)
            assert same_result(got, want)
            assert got.matrix.total == len(aset.instances)
        assert "evaluated train-on-all" in results[2].warnings[0]

    def test_a_failed_fold_of_one_set_stays_with_that_set(self):
        a, b, c = self.sets()
        # call 5 is b's fold 1: a takes calls 0-3
        results = crossval(recording_fit([], raising={5}), [a, b, c], k=4, seed=1)
        assert [r.failed_folds for r in results] == [[], [1], []]
        assert results[1].warnings == ["b fold 1: no fit"]
        assert results[0].warnings == [] and len(results[2].warnings) == 1
        assert same_result(results[1], crossval(recording_fit([], raising={1}), b, k=4, seed=1))

    def test_a_train_on_all_error_propagates_before_any_prediction(self):
        a, b, c = self.sets()
        log = []
        with pytest.raises(ModelError, match="no fit"):
            crossval(recording_fit(log, raising={4}), [a, c, b], k=4, seed=1)
        assert [kind for kind, _ in log] == ["fit"] * 5

    def test_a_list_of_one_set_gives_a_list_of_one_result(self):
        a = self.sets()[0]
        [result] = crossval(recording_fit([]), [a], k=4, seed=1)
        assert same_result(result, crossval(recording_fit([]), a, k=4, seed=1))


class TestMetrics:
    def test_reference_binary_matrix(self):
        cm = ConfusionMatrix(classes=["ọ", "o"], cells=[[21293, 1792], [5408, 2907]])
        rep = metrics(cm)
        assert rep["accuracy"] == pytest.approx(0.77, abs=0.005)
        assert rep["per_class"]["ọ"]["precision"] == pytest.approx(0.80, abs=0.005)
        assert rep["per_class"]["ọ"]["recall"] == pytest.approx(0.92, abs=0.005)
        assert rep["per_class"]["ọ"]["f1"] == pytest.approx(0.86, abs=0.005)

    def test_diagonal_matrix_all_ones(self):
        cm = ConfusionMatrix(classes=["a", "b", "c"], cells=[[5, 0, 0], [0, 3, 0], [0, 0, 2]])
        rep = metrics(cm)
        for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
            assert rep[key] == 1.0

    def test_three_class_hand_computed(self):
        cm = ConfusionMatrix(
            classes=["a", "b", "c"],
            cells=[[4, 1, 0], [2, 3, 1], [0, 2, 2]],
        )
        rep = metrics(cm)
        assert rep["accuracy"] == pytest.approx(9 / 15)
        pa, pb, pc = 4 / 6, 3 / 6, 2 / 3
        ra, rb, rc = 4 / 5, 3 / 6, 2 / 4
        assert rep["macro_precision"] == pytest.approx((pa + pb + pc) / 3)
        assert rep["macro_recall"] == pytest.approx((ra + rb + rc) / 3)
        f = lambda p, r: 2 * p * r / (p + r)
        assert rep["macro_f1"] == pytest.approx((f(pa, ra) + f(pb, rb) + f(pc, rc)) / 3)

    def test_zero_over_zero_is_zero(self):
        cm = ConfusionMatrix(classes=["a", "b"], cells=[[3, 0], [2, 0]])
        rep = metrics(cm)
        assert rep["per_class"]["b"]["precision"] == 0.0
        assert rep["per_class"]["b"]["recall"] == 0.0
        assert rep["per_class"]["b"]["f1"] == 0.0

    def test_empty_matrix_errors(self):
        with pytest.raises(DataError):
            metrics(ConfusionMatrix(classes=["a"], cells=[[0]]))

    def test_permutation_invariance(self):
        cells = [[4, 1, 0], [2, 3, 1], [0, 2, 2]]
        cm = ConfusionMatrix(classes=["a", "b", "c"], cells=[row[:] for row in cells])
        rep = metrics(cm)
        perm = [2, 0, 1]
        permuted = [[cells[i][j] for j in perm] for i in perm]
        cm2 = ConfusionMatrix(classes=["c", "a", "b"], cells=permuted)
        rep2 = metrics(cm2)
        for key in ("accuracy", "macro_precision", "macro_recall", "macro_f1"):
            assert rep[key] == pytest.approx(rep2[key])
        for cls in "abc":
            assert rep["per_class"][cls] == rep2["per_class"][cls]

    def test_binary_macro_recall_is_balanced_accuracy(self):
        rng = random.Random(2)
        for _ in range(50):
            cells = [[rng.randrange(1, 50) for _ in range(2)] for _ in range(2)]
            cm = ConfusionMatrix(classes=["a", "b"], cells=cells)
            rep = metrics(cm)
            r0 = cells[0][0] / sum(cells[0])
            r1 = cells[1][1] / sum(cells[1])
            assert rep["macro_recall"] == pytest.approx((r0 + r1) / 2)


class TestAggregate:
    def test_single_wordkey_passthrough(self):
        rep = {"o": {"accuracy": 0.8, "macro_precision": 0.7, "macro_recall": 0.6,
                     "macro_f1": 0.65, "count": 10}}
        out = aggregate(rep)
        assert out.aggregate["accuracy"] == pytest.approx(0.8)
        assert out.unweighted["accuracy"] == pytest.approx(0.8)

    def test_count_weighted_mean(self):
        rep = {
            "a": {"accuracy": 0.5, "macro_precision": 0.5, "macro_recall": 0.5,
                  "macro_f1": 0.5, "count": 100},
            "b": {"accuracy": 0.9, "macro_precision": 0.9, "macro_recall": 0.9,
                  "macro_f1": 0.9, "count": 300},
        }
        out = aggregate(rep)
        assert out.aggregate["accuracy"] == pytest.approx(0.8)
        assert out.unweighted["accuracy"] == pytest.approx(0.7)

    def test_weighted_mean_between_extremes_and_permutation_invariant(self):
        rng = random.Random(8)
        rep = {}
        for i in range(12):
            acc = rng.random()
            rep[f"k{i}"] = {"accuracy": acc, "macro_precision": acc, "macro_recall": acc,
                            "macro_f1": acc, "count": rng.randrange(1, 500)}
        out = aggregate(rep)
        accs = [r["accuracy"] for r in rep.values()]
        assert min(accs) <= out.aggregate["accuracy"] <= max(accs)
        shuffled = dict(reversed(list(rep.items())))
        for key, value in aggregate(shuffled).aggregate.items():
            assert value == pytest.approx(out.aggregate[key], abs=1e-12)


class TestFullTextEval:
    def test_identical_corpora_score_one(self):
        gold = corpus_from_lines(["Ọ na-agba egwu .", "nwanyị áhù 3"])
        result = full_text_eval(gold, gold)
        assert result["accuracy"] == 1.0
        assert result["line_errors"] == [[], []]

    def test_stripped_baseline_two_thirds(self):
        # exactly 1/3 of word tokens carry diacritics
        gold = corpus_from_lines(["ákwa oma ugbo", "àkwa di ya"])
        stripped = gold.stripped()
        result = full_text_eval(stripped, gold)
        assert result["accuracy"] == pytest.approx(2 / 3)
        assert result["baseline_accuracy"] == pytest.approx(2 / 3)

    def test_punctuation_and_digits_not_scored(self):
        gold = corpus_from_lines(["word . 42 !"])
        result = full_text_eval(gold, gold)
        assert result["word_tokens"] == 1

    def test_encoding_variants_count_correct(self):
        gold = corpus_from_lines(["bụ́ oma"])        # u-dot-below + acute
        restored = corpus_from_lines(["bụ́ oma"])     # u-acute + dot-below
        result = full_text_eval(restored, gold)
        assert result["accuracy"] == 1.0

    def test_token_mismatch_names_line(self):
        gold = corpus_from_lines(["a b c", "d e"])
        bad = corpus_from_lines(["a b c", "d e f"])
        with pytest.raises(DataError, match="line 2"):
            full_text_eval(bad, gold)
        with pytest.raises(DataError, match="line count"):
            full_text_eval(corpus_from_lines(["a"]), gold)

    def test_line_error_positions(self):
        gold = corpus_from_lines(["ákwa oma", "di nma"])
        restored = corpus_from_lines(["akwa oma", "di nma"])
        result = full_text_eval(restored, gold)
        assert result["line_errors"] == [[0], []]


class TestComparisonTable:
    def build_reports(self):
        def rep(acc_by_key, counts):
            per = {
                k: {"accuracy": a, "macro_precision": a, "macro_recall": a,
                    "macro_f1": a, "count": counts[k]}
                for k, a in acc_by_key.items()
            }
            return aggregate(per)

        counts = {"o": 100, "bu": 50}
        return {
            "ngram:1": rep({"o": 0.6, "bu": 0.5}, counts),
            "ngram:2": rep({"o": 0.8, "bu": 0.45}, counts),
        }

    def test_best_model_and_error_reduction(self, tmp_path):
        reports = self.build_reports()
        rows = evaluate.comparison_rows(reports, baseline="ngram:1")
        by_key = {r["wordkey"]: r for r in rows}
        assert by_key["o"]["best_model"] == "ngram:2"
        assert by_key["o"]["improvement"] == pytest.approx(0.2)
        assert by_key["o"]["error_reduction"] == pytest.approx(0.5)
        assert by_key["bu"]["best_model"] == "ngram:1"
        assert by_key["bu"]["error_reduction"] == 0.0
        path = tmp_path / "cmp.tsv"
        evaluate.write_comparison_tsv(reports, "ngram:1", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("wordkey\tcount")
        assert len(lines) == 3


def test_wordkey_report_includes_count():
    cm = ConfusionMatrix(classes=["a", "b"], cells=[[3, 1], [0, 2]])
    rep = wordkey_report(cm)
    assert rep["count"] == 6
