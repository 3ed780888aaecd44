import itertools
import math
import random

import numpy as np
import pytest

from diacritize import embed
from diacritize.corpus import corpus_from_lines
from diacritize.datasetgen import AmbiguousSet, Instance
from diacritize.embed import (
    BASIC,
    TWEAK1,
    TWEAK2,
    TWEAK3,
    EmbeddingModel,
    UnrepresentableInstance,
    analogy_mrr,
    build_cowords,
    cosine,
    enhance,
    load_alignment,
    load_vectors,
    odd_word,
    project,
    restore_instance,
    save_vectors,
    wordsim_pearson,
)
from diacritize.errors import DataError, ModelError, ParseError


def model_of(**vectors):
    dim = len(next(iter(vectors.values())))
    return EmbeddingModel(dim=dim, vectors={k: np.array(v, dtype=float) for k, v in vectors.items()})


class TestCosine:
    def test_bounds_and_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.normal(size=4)
            b = rng.normal(size=4)
            c = cosine(a, b)
            assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
            assert cosine(a, a) == pytest.approx(1.0)
            assert cosine(2.5 * a, 7.0 * b) == pytest.approx(c, abs=1e-12)

    def test_zero_vector(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0


class TestVectorIO:
    def test_round_trip(self, tmp_path):
        model = model_of(alpha=[1.0, -2.5, 0.125], beta=[0.0, 3.25, -1.75])
        path = tmp_path / "vecs.txt"
        save_vectors(model, path)
        again = load_vectors(path)
        assert again.dim == 3
        assert set(again.vectors) == {"alpha", "beta"}
        for w in model.vectors:
            assert np.array_equal(again.vectors[w], model.vectors[w])

    def test_short_row_is_parse_error_with_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\nalpha 1.0 2.0 3.0\nbeta 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_vectors(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_component_is_parse_error_with_line(self, tmp_path, value):
        path = tmp_path / "vecs.txt"
        path.write_text(f"3 2\nalpha 1.0 2.0\n\nbeta 1.0 {value}\ngamma 0.5 0.5\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_vectors(path)
        assert err.value.line == 4

    def test_bad_header(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("banana\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_vectors(path)
        assert err.value.line == 1

    def test_negative_dim_is_parse_error(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("0 -1\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            load_vectors(path)
        assert err.value.line == 1

    def test_large_file_vocab_count(self, tmp_path):
        rng = np.random.default_rng(5)
        vectors = {f"w{i}": rng.normal(size=8) for i in range(10_000)}
        model = EmbeddingModel(dim=8, vectors=vectors)
        path = tmp_path / "big.txt"
        save_vectors(model, path)
        assert len(load_vectors(path).vectors) == 10_000


class TestProjection:
    def test_single_alignment_copies(self):
        src = model_of(eggs=[0.5, -1.0, 2.0])
        out = project(src, {"àkwá": [("eggs", 7)]})
        assert np.array_equal(out.vectors["àkwá"], src.vectors["eggs"])

    def test_weighted_average(self):
        src = model_of(e1=[1.0, 0.0], e2=[0.0, 1.0])
        out = project(src, {"w": [("e1", 1), ("e2", 3)]})
        assert np.allclose(out.vectors["w"], [0.25, 0.75])

    def test_unresolvable_targets_omitted(self):
        src = model_of(e1=[1.0, 0.0])
        out = project(src, {"w": [("e1", 2)], "gone": [("zz", 5)]})
        assert "gone" not in out.vectors
        assert "w" in out.vectors

    def test_empty_usable_alignment_errors(self):
        src = model_of(e1=[1.0, 0.0])
        with pytest.raises(ModelError):
            project(src, {"w": [("zz", 1)]})

    def test_random_fixture_matches_hand_computation(self):
        rng = np.random.default_rng(9)
        src_vocab = [f"s{i}" for i in range(300)]
        src = EmbeddingModel(
            dim=10, vectors={w: rng.normal(size=10) for w in src_vocab}
        )
        align = {}
        for i in range(1000):
            n = rng.integers(1, 6)
            align[f"t{i}"] = [
                (src_vocab[int(j)], int(rng.integers(1, 50)))
                for j in rng.choice(len(src_vocab), size=n, replace=False)
            ]
        out = project(src, align)
        for word, pairs in align.items():
            total = sum(c for _, c in pairs)
            expected = np.zeros(10)
            for s, c in pairs:
                expected += src.vectors[s] * c
            expected /= total
            assert np.max(np.abs(out.vectors[word] - expected)) < 1e-9

    def test_projection_is_coordinatewise_convex(self):
        rng = np.random.default_rng(21)
        src = EmbeddingModel(dim=4, vectors={f"s{i}": rng.normal(size=4) for i in range(20)})
        align = {"t": [(f"s{i}", int(rng.integers(1, 9))) for i in range(8)]}
        out = project(src, align)
        stack = np.stack([src.vectors[s] for s, _ in align["t"]])
        assert np.all(out.vectors["t"] >= stack.min(axis=0) - 1e-12)
        assert np.all(out.vectors["t"] <= stack.max(axis=0) + 1e-12)

    def test_alignment_tsv_loader(self, tmp_path):
        path = tmp_path / "align.tsv"
        path.write_text("àkwá\teggs\t7\nw\te1\t2\nw\te2\t3\n", encoding="utf-8")
        align = load_alignment(path)
        assert align["w"] == [("e1", 2), ("e2", 3)]
        bad = tmp_path / "bad.tsv"
        bad.write_text("w\te1\tmany\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_alignment(bad)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("w\te1", "expected 3 tab-separated fields, got 2"),
            ("w\te1\tmany", "count must be an integer"),
            ("w\te1\t0", "count must be positive"),
        ],
    )
    def test_alignment_errors_name_the_line(self, tmp_path, row, message):
        # blank lines are skipped but still counted: the bad row is line 4
        path = tmp_path / "align.tsv"
        path.write_text(f"w\te0\t1\n\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_alignment(path)
        assert exc.value.line == 4
        assert str(exc.value) == f"{path}:4: {message}"

    def test_alignment_skips_blank_lines(self, tmp_path):
        path = tmp_path / "align.tsv"
        path.write_text("\nw\te1\t2\n\n\nw\te2\t3\n\n", encoding="utf-8")
        assert load_alignment(path) == {"w": [("e1", 2), ("e2", 3)]}


class TestCowords:
    def build_sets(self):
        return [
            AmbiguousSet(wordkey="ka", variants=[("ká", 2), ("kà", 2)]),
        ]

    def test_disjoint_contexts_survive_pruning(self):
        corp = corpus_from_lines(["sun ká day", "moon kà night"])
        table = build_cowords(corp, self.build_sets(), top_n=10)
        assert dict(table["ká"]) == {"sun": 1, "day": 1}
        assert dict(table["kà"]) == {"moon": 1, "night": 1}

    def test_shared_words_removed_from_both(self):
        corp = corpus_from_lines(["a ká b", "c ká", "b kà d"])
        table = build_cowords(corp, self.build_sets(), top_n=10)
        assert {w for w, _ in table["ká"]} == {"a", "c"}
        assert {w for w, _ in table["kà"]} == {"d"}

    def test_top_one_keeps_most_frequent(self):
        corp = corpus_from_lines(["x ká y", "x ká", "z kà"])
        table = build_cowords(corp, self.build_sets(), top_n=1)
        assert table["ká"] == [("x", 2)]

    def test_window_limits_cooccurrence(self):
        corp = corpus_from_lines(["far1 far2 near ká close trail1 trail2"])
        table = build_cowords(corp, self.build_sets(), top_n=10, window=3)
        assert {w for w, _ in table["ká"]} == {"near", "close"}

    def test_punctuation_never_counts(self):
        corp = corpus_from_lines([". ká , ; word"])
        table = build_cowords(corp, self.build_sets(), top_n=10)
        assert {w for w, _ in table["ká"]} == {"word"}


class TestEnhance:
    def test_basic_is_identity(self):
        model = model_of(v=[2.0, 0.0], c=[0.0, 2.0])
        out = enhance(model, {"v": [("c", 1)]}, scheme=BASIC)
        for w in model.vectors:
            assert np.array_equal(out.vectors[w], model.vectors[w])

    def test_tweak1_midpoint(self):
        model = model_of(v=[2.0, 0.0], c=[0.0, 2.0])
        out = enhance(model, {"v": [("c", 5)]}, scheme=TWEAK1)
        assert np.allclose(out.vectors["v"], [1.0, 1.0])

    def test_tweak3_replacement(self):
        model = model_of(v=[2.0, 0.0], c=[0.0, 2.0])
        out = enhance(model, {"v": [("c", 5)]}, scheme=TWEAK3)
        assert np.allclose(out.vectors["v"], [0.0, 2.0])

    def test_weighted_coword_mean(self):
        model = model_of(v=[0.0, 0.0], c1=[1.0, 0.0], c2=[0.0, 1.0])
        out = enhance(model, {"v": [("c1", 1), ("c2", 3)]}, scheme=TWEAK3)
        assert np.allclose(out.vectors["v"], [0.25, 0.75])

    def test_non_variant_vectors_untouched(self):
        rng = np.random.default_rng(2)
        model = EmbeddingModel(
            dim=3, vectors={f"w{i}": rng.normal(size=3) for i in range(30)}
        )
        model.vectors["v"] = np.array([1.0, 0.0, 0.0])
        before = {w: vec.tobytes() for w, vec in model.vectors.items() if w != "v"}
        out = enhance(model, {"v": [("w0", 2), ("w1", 1)]}, scheme=TWEAK1)
        after = {w: vec.tobytes() for w, vec in out.vectors.items() if w != "v"}
        assert before == after

    def test_missing_variant_and_missing_cowords_skip(self):
        model = model_of(v=[1.0, 0.0])
        out = enhance(model, {"ghost": [("v", 1)], "v": [("gone", 3)]}, scheme=TWEAK1)
        assert np.array_equal(out.vectors["v"], model.vectors["v"])
        assert "ghost" not in out.vectors

    def test_unknown_scheme(self):
        with pytest.raises(ModelError):
            enhance(model_of(v=[1.0]), {}, scheme="tweak9")


class TestRestore:
    def test_context_matching_candidate_direction(self):
        model = model_of(x=[1.0, 0.0], y=[0.0, 1.0], cx=[1.0, 0.0])
        inst = Instance(tokens=("cx", "t"), target=1, label="")
        assert restore_instance(model, inst, [("x", 1), ("y", 1)], window=None) == "x"

    def test_two_dimensional_fixture(self):
        model = model_of(x=[1.0, 0.0], y=[0.0, 1.0], c1=[0.9, 0.1])
        inst = Instance(tokens=("c1", "t"), target=1, label="")
        assert restore_instance(model, inst, [("x", 1), ("y", 1)], window=None) == "x"

    def test_empty_context_falls_back_to_majority(self):
        model = model_of(x=[1.0, 0.0], y=[0.0, 1.0])
        inst = Instance(tokens=("t",), target=0, label="")
        assert restore_instance(model, inst, [("x", 2), ("y", 5)], window=None) == "y"

    def test_oov_context_words_dropped(self):
        model = model_of(x=[1.0, 0.0], y=[0.0, 1.0], cy=[0.0, 1.0])
        inst = Instance(tokens=("nowhere", "cy", "t"), target=2, label="")
        assert restore_instance(model, inst, [("x", 9), ("y", 1)], window=None) == "y"

    def test_no_candidate_vector_raises(self):
        model = model_of(c=[1.0, 0.0])
        inst = Instance(tokens=("c", "t"), target=1, label="")
        with pytest.raises(UnrepresentableInstance):
            restore_instance(model, inst, [("x", 1), ("y", 1)], window=None)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(8)
        base = {f"w{i}": rng.normal(size=3) for i in range(6)}
        base.update({"x": rng.normal(size=3), "y": rng.normal(size=3)})
        inst = Instance(tokens=("w0", "w1", "t", "w2"), target=2, label="")
        one = restore_instance(
            EmbeddingModel(3, {k: v.copy() for k, v in base.items()}),
            inst, [("x", 1), ("y", 1)], window=None,
        )
        scaled = restore_instance(
            EmbeddingModel(3, {k: 37.0 * v for k, v in base.items()}),
            inst, [("x", 1), ("y", 1)], window=None,
        )
        assert one == scaled

    def test_tweak2_restriction_can_flip_the_basic_choice(self):
        # the full averaged context (1/3, 2/3) favors y, but x's own coword
        # set isolates its perfectly aligned cue and wins under tweak2
        model = model_of(
            x=[1.0, 0.0], y=[0.0, 1.0],
            xcue=[1.0, 0.0], noise1=[0.0, 1.0], noise2=[0.0, 1.0],
        )
        cowords = {"x": [("xcue", 5)], "y": [("absent", 1)]}
        inst = Instance(tokens=("xcue", "noise1", "noise2", "t"), target=3, label="")
        candidates = [("x", 1), ("y", 1)]
        basic = restore_instance(model, inst, candidates, window=None, scheme=BASIC)
        assert basic == "y"
        restricted = restore_instance(
            model, inst, candidates, window=None, scheme=TWEAK2, cowords=cowords
        )
        assert restricted == "x"  # cos 1.0 beats y's empty-context prior 0.5

    def test_tweak2_empty_restricted_context_scores_prior(self):
        model = model_of(x=[1.0, 0.0], y=[0.0, 1.0], xcue=[0.6, 0.8])
        cowords = {"x": [("xcue", 1)], "y": [("absent", 1)]}
        inst = Instance(tokens=("xcue", "t"), target=1, label="")
        # y's restricted context is empty -> prior 9/10 = 0.9 beats cos 0.6
        got = restore_instance(
            model, inst, [("x", 1), ("y", 9)], window=None, scheme=TWEAK2, cowords=cowords
        )
        assert got == "y"

    def test_window_limits_context(self):
        model = model_of(x=[1.0, 0.0], y=[0.0, 1.0], far=[0.0, 1.0], near=[1.0, 0.0])
        tokens = ("far", "pad1", "pad2", "pad3", "near", "t", "pad4")
        inst = Instance(tokens=tokens, target=5, label="")
        got = restore_instance(model, inst, [("x", 1), ("y", 1)], window=3)
        assert got == "x"


class TestOddWord:
    def test_planted_odd_direction(self):
        model = model_of(a=[1.0, 0.0], b=[1.0, 0.1], c=[1.0, -0.1], z=[0.0, 1.0])
        assert odd_word(model, ["a", "b", "z", "c"]) == "z"

    def test_single_oov_is_odd_by_fiat(self):
        model = model_of(a=[1.0, 0.0], b=[1.0, 0.1], c=[1.0, -0.1])
        assert odd_word(model, ["a", "b", "ghost", "c"]) == "ghost"

    def test_two_oov_skips(self):
        model = model_of(a=[1.0, 0.0], b=[1.0, 0.1])
        assert odd_word(model, ["a", "b", "g1", "g2"]) is None

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        model = EmbeddingModel(
            dim=4, vectors={f"w{i}": rng.normal(size=4) for i in range(40)}
        )
        words = [f"w{i}" for i in range(40)]
        pyrng = random.Random(12)
        for _ in range(100):
            quad = pyrng.sample(words, 4)
            answers = {
                odd_word(model, list(perm)) for perm in itertools.permutations(quad)
            }
            assert len(answers) == 1

    def test_wrong_arity(self):
        with pytest.raises(DataError):
            odd_word(model_of(a=[1.0]), ["a", "a", "a"])

    def test_family_terms_smoke(self):
        # smoke only: a toy model answers something sensible for a real-world
        # style quad (three kinship terms plus an adjective); no gold assertion
        rng = np.random.default_rng(14)
        words = ["okpara", "nna", "ogaranya", "nwanne"]
        model = EmbeddingModel(dim=8, vectors={w: rng.normal(size=8) for w in words})
        assert odd_word(model, words) in words


class TestAnalogy:
    def build_rank_model(self, planted_rank):
        # distractors hug the target direction more closely than d does
        a, b, c = np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0.5, 0.5, 0])
        target = b - a + c
        tdir = target / np.linalg.norm(target)
        vectors = {"a": a, "b": b, "c": c}
        for i in range(planted_rank - 1):
            vectors[f"r{i}"] = tdir + np.array([0.0, 0.0, 0.001 * (i + 1)])
        vectors["d"] = tdir + np.array([0.0, 0.0, 0.8])
        vectors["far"] = -tdir
        return EmbeddingModel(dim=3, vectors=vectors)

    def test_rank_one(self):
        model = self.build_rank_model(1)
        assert analogy_mrr(model, [("a", "b", "c", "d")]) == 1.0

    def test_rank_five_scores_point_two(self):
        model = self.build_rank_model(5)
        assert analogy_mrr(model, [("a", "b", "c", "d")]) == pytest.approx(0.2)

    def test_absent_from_short_list_scores_zero(self):
        model = self.build_rank_model(5)
        assert analogy_mrr(model, [("a", "b", "c", "d")], list_len=3) == 0.0

    def test_oov_d_scores_zero_and_mean_over_quads(self):
        model = self.build_rank_model(1)
        score = analogy_mrr(model, [("a", "b", "c", "d"), ("a", "b", "c", "missing")])
        assert score == pytest.approx(0.5)

    def test_question_words_excluded_from_ranking(self):
        # b - a + c is usually closest to b itself; b must not absorb the rank
        model = self.build_rank_model(1)
        assert analogy_mrr(model, [("a", "b", "c", "d")]) == 1.0


class TestWordsim:
    def test_proportional_scores_give_one(self):
        vectors = {}
        rng = np.random.default_rng(4)
        pairs = []
        base = rng.normal(size=6)
        for i, target_cos in enumerate([0.95, 0.8, 0.6, 0.4, 0.2, 0.05]):
            # construct a pair with an exact cosine via rotation in a 2-plane
            u = np.zeros(6)
            u[0] = 1.0
            v = np.zeros(6)
            v[0] = target_cos
            v[1] = math.sqrt(1 - target_cos**2)
            vectors[f"p{i}"] = u
            vectors[f"q{i}"] = v
            pairs.append((f"p{i}", f"q{i}", 10.0 * target_cos))
        model = EmbeddingModel(dim=6, vectors=vectors)
        r, used = wordsim_pearson(model, pairs)
        assert used == 6
        assert r == pytest.approx(1.0, abs=1e-9)
        anti = [(w1, w2, 10.0 - h) for w1, w2, h in pairs]
        r_anti, _ = wordsim_pearson(model, anti)
        assert r_anti == pytest.approx(-1.0, abs=1e-9)

    def test_hand_computed_fixture(self):
        model = model_of(
            a=[1.0, 0.0], b=[0.0, 1.0], c=[1.0, 1.0], d=[1.0, -1.0], e=[2.0, 0.0]
        )
        pairs = [
            ("a", "b", 1.0),
            ("a", "c", 6.0),
            ("a", "d", 3.0),
            ("a", "e", 9.0),
            ("c", "d", 2.0),
        ]
        cos_scores = [0.0, math.sqrt(0.5), math.sqrt(0.5), 1.0, 0.0]
        human = [p[2] for p in pairs]
        n = len(pairs)
        mx = sum(human) / n
        my = sum(cos_scores) / n
        num = sum((x - mx) * (y - my) for x, y in zip(human, cos_scores))
        den = math.sqrt(
            sum((x - mx) ** 2 for x in human) * sum((y - my) ** 2 for y in cos_scores)
        )
        r, used = wordsim_pearson(model, pairs)
        assert used == 5
        assert r == pytest.approx(num / den, abs=1e-12)

    def test_oov_pairs_skipped_and_counted(self):
        model = model_of(a=[1.0, 0.0], b=[0.0, 1.0], c=[1.0, 1.0])
        pairs = [("a", "b", 2.0), ("a", "ghost", 5.0), ("a", "c", 7.0)]
        _, used = wordsim_pearson(model, pairs)
        assert used == 2

    def test_tsv_loaders(self, tmp_path):
        ws = tmp_path / "ws.tsv"
        ws.write_text("a\tb\t7.5\nc\td\t2.0\n", encoding="utf-8")
        assert embed.load_wordsim_tsv(ws) == [("a", "b", 7.5), ("c", "d", 2.0)]
        odd = tmp_path / "odd.tsv"
        odd.write_text("a\tb\tc\td\td\n", encoding="utf-8")
        assert embed.load_oddword_tsv(odd) == [(["a", "b", "c", "d"], "d")]
        an = tmp_path / "an.tsv"
        an.write_text("a\tb\tc\td\n", encoding="utf-8")
        assert embed.load_analogy_tsv(an) == [("a", "b", "c", "d")]
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tb\n", encoding="utf-8")
        with pytest.raises(ParseError):
            embed.load_wordsim_tsv(bad)


class TestRestorerFallback:
    def test_unrepresentable_instance_takes_majority_variant(self):
        restorer = embed.EmbeddingRestorer(
            model=model_of(c=[1.0, 0.0]), variant_index={"t": [("x", 1), ("y", 3)]}
        )
        assert restorer.predict_instance(("c", "t"), 1, ["c"]) == "y"


class TestCvFitter:
    def test_static_predictor_uses_fold_priors(self):
        model = model_of(**{"ká": [1.0, 0.0], "kà": [0.0, 1.0]})
        aset = AmbiguousSet(
            wordkey="ka",
            variants=[("ká", 6), ("kà", 4)],
            instances=[
                Instance(tokens=("oov1", "ka"), target=1, label="ká", line=i)
                for i in range(10)
            ],
        )
        fit = embed.cv_fitter(model, aset, scheme=BASIC, window=None)
        predictor = fit(aset.instances[:6])
        assert predictor(aset.instances[0]) == "ká"
