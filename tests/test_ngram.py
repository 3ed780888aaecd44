import collections
import dataclasses
import json
import random
import weakref
from pathlib import Path

import pytest

from diacritize import corpus, datasetgen, evaluate, ngram, pipeline
from diacritize.corpus import Token, corpus_from_lines, strip_diacritics, token_kind
from diacritize.datasetgen import Instance
from diacritize.errors import ModelError, ParseError


DATA = Path(__file__).parent / "data"


def make_instance(tokens, target, label="", line=0):
    return Instance(tokens=tuple(tokens), target=target, label=label, line=line)


def count(table, ctx, variant):
    """The count of variant after ctx in one level's rows, 0 when unseen."""
    return table.get(ctx, {}).get(variant, 0)


class TestTrain:
    def test_bigram_count_from_single_line(self):
        corp = corpus_from_lines(["nwanyị àhụ̀"])
        model = ngram.train(corp, 2, {"ahu": ["àhụ̀", "áhụ̀"]})
        assert count(model.counts[1], ("nwanyị",), "àhụ̀") == 1
        assert count(model.counts[0], (), "àhụ̀") == 1
        assert count(model.counts[1], ("nwanyị",), "áhụ̀") == 0

    def test_empty_corpus_gives_zero_model(self):
        model = ngram.train(corpus_from_lines([]), 3, {"ab": ["áb", "àb"]})
        assert all(not level for level in model.counts)

    def test_invalid_max_n(self):
        with pytest.raises(ParseError, match="^n-gram order must be an integer >= 1, got 0$"):
            ngram.train(corpus_from_lines(["a b"]), 0, {})

    def test_suffix_context_monotonicity(self, bigram_corpus):
        corp, major, minor = bigram_corpus
        model = ngram.train(corp, 3, {"ko": [major, minor]})
        for ctx, row in model.counts[2].items():
            for variant, c in row.items():
                assert c <= count(model.counts[1], ctx[1:], variant)
        for ctx, row in model.counts[1].items():
            for variant, c in row.items():
                assert c <= count(model.counts[0], (), variant)

    def test_brute_force_bigram_recount(self):
        lines = ["x ká y", "x kà", "z ká x ká"]
        corp = corpus_from_lines(lines)
        model = ngram.train(corp, 2, {"ka": ["ká", "kà"]})
        raw = [l.split() for l in lines]
        for variant in ("ká", "kà"):
            for prev in ("x", "y", "z", "ká"):
                expected = sum(
                    1
                    for line in raw
                    for i in range(1, len(line))
                    if line[i] == variant and line[i - 1] == prev
                )
                assert count(model.counts[1], (prev,), variant) == expected

    def test_occurrences_are_variants_listed_under_their_own_wordkey(self):
        prepared = ngram.prepare(corpus.load_corpus(DATA / "fixture_corpus.txt"))
        sets = datasetgen.read_dataset(DATA / "golden_dataset.jsonl")
        cands = {s.wordkey: [v for v, _ in s.variants] for s in sets}
        # a variant filed under another wordkey is not indexed
        moved = next(iter(cands.values()))[0]
        cands["not-its-key"] = [moved]
        reference = [
            (line_no, t)
            for line_no, surfaces in enumerate(prepared.lines)
            for t, surface in enumerate(surfaces)
            if surface in cands.get(strip_diacritics(surface), ())
        ]
        assert reference
        assert ngram.find_occurrences(prepared, cands) == reference
        assert ngram.find_occurrences(prepared, {"not-its-key": [moved]}) == []

    def test_a_case_kept_preparation_keeps_cased_contexts(self):
        # prepare is the one place to choose case: train lowercases a Corpus.
        corp = corpus_from_lines(["Zur ká", "zur kà"] * 3)
        cands = {"ka": ["ká", "kà"]}
        kept = ngram.train(ngram.prepare(corp, lowercase=False), 2, cands)
        assert kept.counts[1] == {("Zur",): {"ká": 3}, ("zur",): {"kà": 3}}
        assert ngram.restore_instance(kept, make_instance(["Zur", "ka"], 1), 2) == "ká"
        assert ngram.restore_instance(kept, make_instance(["zur", "ka"], 1), 2) == "kà"
        assert ngram.train(corp, 2, cands).counts[1] == {("zur",): {"ká": 3, "kà": 3}}


class TestRestore:
    def test_unigram_majority(self):
        lines = ["ọ x"] * 23 + ["o x"] * 8
        model = ngram.train(corpus_from_lines(lines), 1, {"o": ["ọ", "o"]})
        inst = make_instance(["o", "x"], 0)
        assert ngram.restore_instance(model, inst, 1) == "ọ"

    def test_sentence_start_equals_unigram_choice(self, bigram_corpus):
        corp, major, minor = bigram_corpus
        model = ngram.train(corp, 3, {"ko": [major, minor]})
        inst = make_instance(["ko", "tail"], 0)
        for n in (1, 2, 3):
            assert ngram.restore_instance(model, inst, n) == major

    def test_bigram_follows_trigger(self, bigram_corpus):
        corp, major, minor = bigram_corpus
        model = ngram.train(corp, 2, {"ko": [major, minor]})
        assert ngram.restore_instance(model, make_instance(["zur", "ko"], 1), 2) == minor
        assert ngram.restore_instance(model, make_instance(["pam", "ko"], 1), 2) == major
        # unigram ignores the trigger
        assert ngram.restore_instance(model, make_instance(["zur", "ko"], 1), 1) == major

    def test_left_context_is_pre_restored(self):
        # the marked form of the context word, not its stripped form, carries
        # the signal: "ctxá ká" vs "ctxà kà" in training, stripped at restore
        lines = ["ctxá ká pad pad"] * 10 + ["ctxà kà pad pad"] * 10
        corp = corpus_from_lines(lines)
        cands = {
            "ka": ["ká", "kà"],
            "ctxa": ["ctxá", "ctxà"],
        }
        model = ngram.train(corp, 2, cands)
        # context "ctxa" ties 10/10 at unigram -> lexicographic: ctxà wins
        inst = make_instance(["ctxa", "ka", "pad", "pad"], 1)
        assert ngram.restore_instance(model, inst, 2) == "kà"

    def test_unambiguous_context_replacement(self):
        lines = ["nwanyị ká x"] * 5 + ["oke kà x"] * 5
        corp = corpus_from_lines(lines)
        model = ngram.train(corp, 2, {"ka": ["ká", "kà"]})
        assert model.unambiguous["nwanyi"] == "nwanyị"
        inst = make_instance(["nwanyi", "ka", "x"], 1)
        assert ngram.restore_instance(model, inst, 2) == "ká"

    def test_unrouted_marked_context_echoes_its_key(self):
        # "pad" is neither ambiguous nor mapped (its majority form is bare), so
        # a context "pàd" reads as "pad", as it does in `restore`
        lines = ["pad ká"] * 10 + ["pàd kà"] * 5 + ["zz kà"] * 20
        model = ngram.train(corpus_from_lines(lines), 2, {"ka": ["ká", "kà"]})
        assert "pad" not in model.unambiguous
        as_key = ngram.restore_instance(model, make_instance(["pad", "ka"], 1), 2)
        assert as_key == "ká"
        assert ngram.restore_instance(model, make_instance(["pàd", "ka"], 1), 2) == as_key

    def test_unknown_wordkey_raises(self, bigram_corpus):
        corp, major, minor = bigram_corpus
        model = ngram.train(corp, 2, {"ko": [major, minor]})
        with pytest.raises(ModelError):
            ngram.restore_instance(model, make_instance(["xx", "yy"], 1), 2)

    def test_determinism(self, bigram_corpus):
        corp, major, minor = bigram_corpus
        model_a = ngram.train(corp, 3, {"ko": [major, minor]})
        model_b = ngram.train(corp, 3, {"ko": [major, minor]})
        rng = random.Random(5)
        insts = [
            make_instance([rng.choice(["pam", "zur", "qq"]), "ko"], 1)
            for _ in range(50)
        ]
        assert [ngram.restore_instance(model_a, i, 3) for i in insts] == [
            ngram.restore_instance(model_b, i, 3) for i in insts
        ]


class TestUnigramOracle:
    def test_unigram_equals_corpus_argmax_for_every_wordkey(self, gate_corpus):
        corp, _ = gate_corpus
        sets = datasetgen.generate(corp)
        cands = {s.wordkey: [v for v, _ in s.variants] for s in sets}
        model = ngram.train(corp, 1, cands)
        # independent recount straight off the token stream
        from collections import Counter

        recount = {key: Counter() for key in cands}
        for line in corp.lines:
            for tok in line:
                low = tok.surface.lower()
                key = ngram.strip_diacritics(low)
                if key in recount and low in set(cands[key]):
                    recount[key][low] += 1
        for aset in sets:
            counts = recount[aset.wordkey]
            best = max(counts.values())
            expected = min(v for v, c in counts.items() if c == best)
            inst = make_instance([aset.wordkey], 0)
            assert ngram.restore_instance(model, inst, 1) == expected


class TestBackoff:
    def test_all_zero_backs_off_to_unigram(self, bigram_corpus):
        corp, major, minor = bigram_corpus
        model = ngram.train(corp, 2, {"ko": [major, minor]})
        inst = make_instance(["neverseen", "ko"], 1)
        assert ngram.restore_instance(model, inst, 2) == ngram.restore_instance(
            model, inst, 1
        )

    def test_nonzero_tie_backs_off(self):
        lines = ["tie ká x"] * 3 + ["tie kà x"] * 3 + ["ká y"] * 2
        corp = corpus_from_lines(lines)
        model = ngram.train(corp, 2, {"ka": ["ká", "kà"]})
        inst = make_instance(["tie", "ka", "x"], 1)
        assert model.counts[1][("tie",)]["ká"] == model.counts[1][("tie",)]["kà"] == 3
        # bigram ties at 3-3, so the unigram majority (ká: 5 vs kà: 3) decides
        assert ngram.restore_instance(model, inst, 2) == "ká"
        assert ngram.restore_instance(model, inst, 2) == ngram.restore_instance(model, inst, 1)

    def test_unigram_tie_breaks_lexicographically(self):
        lines = ["ká x"] * 4 + ["kà x"] * 4
        model = ngram.train(corpus_from_lines(lines), 1, {"ka": ["ká", "kà"]})
        inst = make_instance(["ka", "x"], 0)
        # U+00E0 (à) sorts before U+00E1 (á)
        assert ngram.restore_instance(model, inst, 1) == "kà"

    def test_randomized_tie_instances_consistent(self, bigram_corpus):
        corp, major, minor = bigram_corpus
        model = ngram.train(corp, 3, {"ko": [major, minor]})
        rng = random.Random(17)
        for _ in range(1000):
            ctx = [f"unseen{rng.randrange(10_000)}" for _ in range(rng.randrange(0, 4))]
            inst = make_instance(ctx + ["ko"], len(ctx))
            n = rng.choice([2, 3])
            assert ngram.restore_instance(model, inst, n) == ngram.restore_instance(
                model, inst, n - 1
            )


class TestCrossval:
    def test_deterministic_bigram_corpus_accuracies(self, bigram_corpus):
        corp, major, minor = bigram_corpus
        sets = datasetgen.generate(corp)
        aset = next(s for s in sets if s.wordkey == "ko")
        cands = {s.wordkey: [v for v, _ in s.variants] for s in sets}
        res2 = evaluate.crossval(ngram.cv_fitter(corp, aset, cands, 2), aset, k=10, seed=0)
        res1 = evaluate.crossval(ngram.cv_fitter(corp, aset, cands, 1), aset, k=10, seed=0)
        assert evaluate.metrics(res2.matrix)["accuracy"] == 1.0
        assert evaluate.metrics(res1.matrix)["accuracy"] == pytest.approx(0.6, abs=0.02)

    def test_accuracy_plateau_from_bigram_up(self, bigram_corpus):
        corp, major, minor = bigram_corpus
        sets = datasetgen.generate(corp)
        aset = next(s for s in sets if s.wordkey == "ko")
        cands = {s.wordkey: [v for v, _ in s.variants] for s in sets}
        accs = []
        for n in (2, 3, 4):
            res = evaluate.crossval(ngram.cv_fitter(corp, aset, cands, n), aset, k=10, seed=0)
            accs.append(evaluate.metrics(res.matrix)["accuracy"])
        assert accs == sorted(accs)
        assert accs[0] == 1.0

    def test_fold_view_reads_a_recount_without_the_skipped_lines(self):
        prepared = ngram.prepare(corpus.load_corpus(DATA / "fixture_corpus.txt"))
        sets = datasetgen.read_dataset(DATA / "golden_dataset.jsonl")
        cands = {s.wordkey: [v for v, _ in s.variants] for s in sets}
        occurrences = ngram.find_occurrences(prepared, cands)
        shared = ngram.shared_counts(prepared, cands, 5)
        n_lines = len(prepared.lines)
        rng = random.Random(7)
        skips = [set(), set(range(n_lines))] + [
            set(rng.sample(range(n_lines), rng.randint(1, n_lines))) for _ in range(30)
        ]
        for skip in skips:
            kept = [occ for occ in occurrences if occ[0] not in skip]
            fresh = ngram.train_from_occurrences(prepared, kept, 5, cands)
            fold = ngram.fold_model(shared, skip)
            for k in range(1, 6):
                view, table = fold.counts[k - 1], fresh.counts[k - 1]
                full = shared.model.counts[k - 1]
                assert table.keys() <= full.keys()
                for ctx, row in full.items():
                    assert table.get(ctx, {}).keys() <= row.keys()
                    for variant in row:
                        # a count absent from the recount reads as absent, not as 0 or less
                        assert view.get(ctx, {}).get(variant) == table.get(ctx, {}).get(variant)
                        assert count(view, ctx, variant) == count(table, ctx, variant)
                    # a row the held-out lines empty reads as unseen, as in the recount
                    assert view.get(ctx) == table.get(ctx)
                assert count(view, (), "no such variant") == 0

    @staticmethod
    def recorded_fold_models(monkeypatch):
        """A weak reference to each model ngram.fold_model builds, in order."""
        built = []
        real = ngram.fold_model

        def recording(shared, skip_lines):
            model = real(shared, skip_lines)
            built.append(weakref.ref(model))
            return model

        monkeypatch.setattr(ngram, "fold_model", recording)
        return built

    def test_fold_model_is_built_at_the_first_prediction(self, bigram_corpus, monkeypatch):
        corp, major, minor = bigram_corpus
        sets = datasetgen.generate(corp)
        aset = next(s for s in sets if s.wordkey == "ko")
        cands = {s.wordkey: [v for v, _ in s.variants] for s in sets}
        built = self.recorded_fold_models(monkeypatch)
        fit = ngram.cv_fitter(corp, aset, cands, 2)
        plan = evaluate.fold_plan(aset, 10, 0)[0]
        predictors = [(test, fit(train)) for _, train, test in plan]
        assert built == []
        test, predictor = predictors[0]
        for inst in test:
            predictor(inst)
        assert len(built) == 1

    def test_one_fold_model_is_alive_while_crossval_scores(self, bigram_corpus, monkeypatch):
        corp, major, minor = bigram_corpus
        sets = datasetgen.generate(corp)
        aset = next(s for s in sets if s.wordkey == "ko")
        cands = {s.wordkey: [v for v, _ in s.variants] for s in sets}
        expected = evaluate.crossval(ngram.cv_fitter(corp, aset, cands, 2), aset, k=10, seed=0)
        built = self.recorded_fold_models(monkeypatch)
        alive = []
        real = ngram.restore_instance

        def counting(model, inst, n):
            alive.append(sum(ref() is not None for ref in built))
            return real(model, inst, n)

        monkeypatch.setattr(ngram, "restore_instance", counting)
        result = evaluate.crossval(ngram.cv_fitter(corp, aset, cands, 2), aset, k=10, seed=0)
        assert len(built) == 10 and set(alive) == {1}
        assert result == expected

    def test_an_order_above_the_shared_count_is_refused(self, bigram_corpus):
        corp, major, minor = bigram_corpus
        sets = datasetgen.generate(corp)
        aset = next(s for s in sets if s.wordkey == "ko")
        cands = {s.wordkey: [v for v, _ in s.variants] for s in sets}
        shared = ngram.shared_counts(ngram.prepare(corp), cands, 2)
        with pytest.raises(ParseError, match="^n-gram order must be at most 2, got 3$"):
            ngram.cv_fitter(shared, aset, cands, 3)

    def test_restoring_never_reshapes_sentence(self, bigram_corpus):
        corp, major, minor = bigram_corpus
        model = ngram.train(corp, 2, {"ko": [major, minor]})
        inst = make_instance(["pam", "ko", ".", "7"], 1)
        assert ngram.restore_instance(model, inst, 2) == major
        # only the target changes; shape checks live on the pipeline side


# Three wordkeys over few surfaces, so contexts recur, rows tie and held-out
# lines empty rows. "ka" has one variant that is never written.
EQUIV_CANDIDATES = {"ka": ["ka", "kà", "ká"], "o": ["o", "ò", "ọ"], "ne": ["ne", "né"]}
EQUIV_FILLER = ["x", "y"]
EQUIV_MAX_N = 4


def equiv_lines(seed):
    """Seeded lines of 0 to 6 lowercase surfaces, many shorter than the order."""
    rng = random.Random(seed)
    words = [v for v in sum(EQUIV_CANDIDATES.values(), []) if v != "ká"] + EQUIV_FILLER
    return [[rng.choice(words) for _ in range(rng.randrange(7))] for _ in range(60)]


def flat_recount(lines, max_n):
    """(k, context, variant) -> count, straight off every indexed surface of lines."""
    flat = collections.Counter()
    for surfaces in lines:
        for t, surface in enumerate(surfaces):
            if surface in EQUIV_CANDIDATES.get(strip_diacritics(surface), ()):
                for k in range(1, min(t + 1, max_n) + 1):
                    flat[k, tuple(surfaces[t - k + 1 : t]), surface] += 1
    return flat


def top_down_choice(flat, left, variants, n, seen):
    """The back-off walk from the largest order down, reading the flat recount.

    seen collects which of ties and short lines the walk met.
    """
    if len(variants) == 1:
        return variants[0]
    if len(left) + 1 < n:
        seen.add("short line")
    for k in range(min(n, len(left) + 1), 1, -1):
        ctx = tuple(left[len(left) - (k - 1) :])
        scores = [flat[k, ctx, v] for v in variants]
        best = max(scores)
        if best > 0 and scores.count(best) == 1:
            return variants[scores.index(best)]
        if best > 0:
            seen.add("tie")
    scores = [flat[1, (), v] for v in variants]
    return min(v for v, c in zip(variants, scores) if c == max(scores))


def equiv_queries(lines, rng):
    """Left contexts with their wordkey: every corpus prefix, plus random ones."""
    words = sum(EQUIV_CANDIDATES.values(), []) + EQUIV_FILLER + ["unseen"]
    queries = [(surfaces[:t], key) for surfaces in lines for t in range(len(surfaces) + 1) for key in EQUIV_CANDIDATES]
    for _ in range(300):
        left = [rng.choice(words) for _ in range(rng.randrange(6))]
        queries.append((left, rng.choice(list(EQUIV_CANDIDATES))))
    return queries


class TestBottomUpBackoff:
    """`_choose` walks up from order 2 and stops at the first unseen context.

    It must pick what the top-down walk over a flat recount picks, for every
    order, on full models and on fold views alike.
    """

    def check(self, model, flat, queries, seen):
        index = {key: sorted(vs) for key, vs in EQUIV_CANDIDATES.items()}
        for left, key in queries:
            for n in range(1, EQUIV_MAX_N + 1):
                got = ngram._choose(model, left, index[key], n)
                assert got == top_down_choice(flat, left, index[key], n, seen), (left, key, n)

    @pytest.mark.parametrize("seed", range(5))
    def test_full_model_and_fold_views_match_the_top_down_walk(self, seed):
        lines = equiv_lines(seed)
        prepared = ngram.PreparedCorpus(lines=lines, unambiguous={})
        rng = random.Random(seed)
        queries = equiv_queries(lines, rng)
        seen = set()
        full = flat_recount(lines, EQUIV_MAX_N)
        self.check(ngram.train(prepared, EQUIV_MAX_N, EQUIV_CANDIDATES), full, queries, seen)
        shared = ngram.shared_counts(prepared, EQUIV_CANDIDATES, EQUIV_MAX_N)
        for _ in range(5):
            skip = set(rng.sample(range(len(lines)), rng.randrange(1, len(lines))))
            kept = flat_recount([s for i, s in enumerate(lines) if i not in skip], EQUIV_MAX_N)
            if {key[:2] for key in full if key[0] > 1} - {key[:2] for key in kept}:
                seen.add("row emptied by the fold")
            self.check(ngram.fold_model(shared, skip), kept, queries, seen)
        assert seen == {"tie", "short line", "row emptied by the fold"}

    def test_empty_model_and_empty_fold(self):
        index = {key: sorted(vs) for key, vs in EQUIV_CANDIDATES.items()}
        empty = ngram.train(ngram.PreparedCorpus(lines=[], unambiguous={}), EQUIV_MAX_N, EQUIV_CANDIDATES)
        lines = equiv_lines(0)
        shared = ngram.shared_counts(ngram.PreparedCorpus(lines=lines, unambiguous={}), EQUIV_CANDIDATES, EQUIV_MAX_N)
        emptied = ngram.fold_model(shared, set(range(len(lines))))
        queries = equiv_queries(lines, random.Random(1))
        self.check(empty, collections.Counter(), queries, set())
        self.check(emptied, collections.Counter(), queries, set())
        for k in range(EQUIV_MAX_N):
            assert all(emptied.counts[k].get(ctx) is None for ctx in shared.model.counts[k])
        assert ngram._choose(empty, ["x"], index["ka"], 2) == index["ka"][0]

    def test_pipeline_save_load_save_is_byte_identical(self, tmp_path, gate_corpus):
        corp, _ = gate_corpus
        pipe = pipeline.build_ngram_pipeline(corp, datasetgen.generate(corp), n=5)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        pipeline.save_pipeline(pipe, first)
        loaded = pipeline.load_pipeline(first)
        assert loaded.restorer.model.counts == pipe.restorer.model.counts
        pipeline.save_pipeline(loaded, second)
        assert second.read_bytes() == first.read_bytes()


@pytest.fixture(scope="module")
def long_lines(gate_corpus):
    """A 5-gram pipeline and seeded 320-token stripped lines, half of them targets."""
    corp, _ = gate_corpus
    pipe = pipeline.build_ngram_pipeline(corp, datasetgen.generate(corp), n=5)
    words = [ngram.strip_diacritics(tok.surface.lower()) for line in corp.lines for tok in line]
    keys = sorted(pipe.variant_index)
    rng = random.Random(17)
    lines = [
        tuple(rng.choice(keys) if rng.random() < 0.5 else rng.choice(words) for _ in range(320))
        for _ in range(3)
    ]
    return pipe, lines


def targets_of(model, tokens):
    return [t for t, w in enumerate(tokens) if w in model.variant_index]


def restore_keys(pipe, keys):
    """pipeline.restore_line on a line of stripped lowercase keys, as surfaces.

    For such a line the surfaces are the restored forms the pipeline hands
    the restorer: marked forms for words it restores, the key otherwise.
    """
    tokens = [Token(w, token_kind(w)) for w in keys]
    return [tok.surface for tok in pipeline.restore_line(pipe, tokens)]


@pytest.fixture()
def choose_calls(monkeypatch):
    """A list that grows by one item per ngram._choose call."""
    calls = []
    choose = ngram._choose
    monkeypatch.setattr(ngram, "_choose", lambda *a: calls.append(1) or choose(*a))
    return calls


class TestCarriedPrefix:
    """pipeline.restore_line carries a line's restored prefix to the n-gram restorer."""

    def test_every_target_matches_a_fresh_restore(self, long_lines):
        pipe, lines = long_lines
        model = pipe.restorer.model
        for tokens in lines:
            out = restore_keys(pipe, tokens)
            for t in targets_of(model, tokens):
                assert out[t] == ngram.restore_instance(model, make_instance(tokens, t), 5)

    def test_targets_out_of_order(self, long_lines):
        pipe, lines = long_lines
        model = pipe.restorer.model
        rng = random.Random(4)
        for tokens in lines:
            prefix = restore_keys(pipe, tokens)
            targets = targets_of(model, tokens)
            rng.shuffle(targets)
            for t in targets:
                got = pipe.restorer.predict_instance(tokens, t, prefix[:t])
                assert got == ngram.restore_instance(model, make_instance(tokens, t), 5)

    def test_a_key_outside_the_index_leaves_the_rest_of_the_line_intact(self, long_lines):
        # The restorer contract hands over only keys of the index; another key
        # is a KeyError, as in the other two families' restorers.
        pipe, lines = long_lines
        tokens = lines[2]
        expected = restore_keys(pipe, tokens)
        failures = 0
        for t in range(len(tokens)):
            if tokens[t] not in pipe.variant_index:
                with pytest.raises(KeyError):
                    pipe.restorer.predict_instance(tokens, t, expected[:t])
                failures += 1
        assert failures > 0
        assert restore_keys(pipe, tokens) == expected

    def test_one_choice_per_token_not_per_prefix_token(self, long_lines, choose_calls):
        pipe, lines = long_lines
        for tokens in lines:
            choose_calls.clear()
            restore_keys(pipe, tokens)
            targets = targets_of(pipe.restorer.model, tokens)
            assert len(targets) > 100
            assert len(choose_calls) == len(targets)

    def test_restorer_holds_only_its_model_and_order(self):
        assert [f.name for f in dataclasses.fields(ngram.NGramRestorer)] == ["model", "n"]


class TestPersistence:
    def test_round_trip(self, bigram_corpus):
        corp, major, minor = bigram_corpus
        model = ngram.train(corp, 3, {"ko": [major, minor]})
        spec = json.loads(json.dumps(ngram.NGramRestorer(model=model, n=3).to_payload()))
        assert sorted(spec["model"]) == ["levels", "max_n"]
        again = ngram.NGramRestorer.from_payload(spec, {"ko": [(major, 1), (minor, 1)]}).model
        assert len(again.counts) == len(model.counts) == 3
        assert again.counts == model.counts
        assert again.variant_index == model.variant_index
        # the pipeline routes unambiguous words itself; the file holds no copy
        assert again.unambiguous == {}

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        restorer = {"n": 2, "model": {"max_n": 2}}
        path.write_text(
            json.dumps({"family": "ngram", "unambiguous": {}, "variant_index": {}, "restorer": restorer}),
            encoding="utf-8",
        )
        with pytest.raises(ParseError):
            pipeline.load_pipeline(path)
