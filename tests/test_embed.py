import itertools
import logging
import math
import random
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import state

from diacritize import embed, evaluate
from diacritize.corpus import TokenKind, corpus_from_lines, open_text
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


def reference_load_vectors(path) -> EmbeddingModel:
    """The row-by-row loader: every value parsed with float() as its row is read."""
    with open_text(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ParseError("header must be 'vocab_size dim'", line=1, path=path)
        try:
            vocab_size, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ParseError("header must hold two integers", line=1, path=path)
        if dim < 0:
            raise ParseError(f"dim must not be negative, got {dim}", line=1, path=path)
        words, line_nos, values = [], [], []
        for line_no, raw in enumerate(fh, start=2):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            parts = raw.split(" ")
            if len(parts) != dim + 1:
                raise ParseError(
                    f"expected a word and {dim} values, got {len(parts)} fields", line=line_no, path=path
                )
            try:
                values.extend([float(v) for v in parts[1:]])
            except ValueError:
                raise ParseError("non-numeric vector component", line=line_no, path=path)
            words.append(parts[0])
            line_nos.append(line_no)
    matrix = np.array(values, dtype=float).reshape(len(words), dim)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite vector component", line=line_nos[int(finite.argmin())], path=path)
    vectors = dict(zip(words, matrix))
    if len(vectors) != vocab_size:
        raise ParseError(f"header declares {vocab_size} words but file holds {len(vectors)}", path=path)
    return EmbeddingModel(dim=dim, vectors=vectors)


def reference_cowords(corpus, sets, top_n=50, window=None, lowercase=True):
    """build_cowords as one loop over each occurrence's span, for the whole sentence too."""
    siblings = {v: [o for o, _ in aset.variants if o != v] for aset in sets for v, _ in aset.variants}
    counters = {v: Counter() for aset in sets for v, _ in aset.variants}
    half = window // 2 if window else None
    for line in corpus.lines:
        surfaces = [(t.surface.lower() if lowercase else t.surface, t.kind is TokenKind.WORD) for t in line]
        for pos, (surface, is_word) in enumerate(surfaces):
            if not is_word or surface not in counters:
                continue
            lo, hi = (0, len(surfaces)) if half is None else (max(0, pos - half), pos + half + 1)
            for j, (coword, word_kind) in enumerate(surfaces[lo:hi], start=lo):
                if j != pos and word_kind:
                    counters[surface][coword] += 1
    top = {v: sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n] for v, c in counters.items()}
    return {
        v: [(w, c) for w, c in ranked if w not in {s for o in siblings[v] for s, _ in top[o]}]
        for v, ranked in top.items()
    }


def reference_restore(model, inst, candidates, window=11, scheme=BASIC, cowords=None):
    """restore_instance with one mean and two norms computed for every candidate.

    Returns the choice and the number of candidates scored by their prior.
    """
    if window is None:
        context = [w for i, w in enumerate(inst.tokens) if i != inst.target and w in model.vectors]
    else:
        context = [w for w in embed.extract_window(inst.tokens, inst.target, window) if w in model.vectors]
    total = sum(c for _, c in candidates)
    if not context:
        return embed.majority_variant(candidates), 0
    scores, priors = {}, 0
    for v, c in candidates:
        vec = model.vectors.get(v)
        ctx = context
        if scheme in (TWEAK2, TWEAK3):
            allowed = {w for w, _ in cowords.get(v, ())}
            ctx = [w for w in context if w in allowed]
        vec_c = np.mean([model.vectors[w] for w in ctx], axis=0) if vec is not None and ctx else None
        if vec_c is None or not np.any(vec_c):
            scores[v] = c / total if total else 0.0
            priors += 1
            continue
        norm_c, norm = np.linalg.norm(vec_c), np.linalg.norm(vec)
        scores[v] = float(np.dot(vec_c, vec) / (norm_c * norm)) if norm else 0.0
    best = max(scores.values())
    return min(v for v, s in scores.items() if s == best), priors


def reference_project(source, align):
    """project as a loop that sums every usable source into one accumulator, copying a lone source."""
    vectors = {}
    for word in align:
        usable = [(src, c) for src, c in align[word] if src in source.vectors]
        if not usable:
            continue
        if len(usable) == 1:
            vectors[word] = source.vectors[usable[0][0]].copy()
            continue
        total = sum(c for _, c in usable)
        acc = np.zeros(source.dim)
        for src, c in usable:
            acc += source.vectors[src] * c
        vectors[word] = acc / total
    return vectors


def reference_analogy_mrr(model, quads, list_len=100):
    """analogy_mrr that sorts the whole vocabulary for every quad and walks down to d."""
    vocab = sorted(model.vectors)
    matrix = np.stack([model.vectors[w] for w in vocab])
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0] = 1.0
    scores = []
    for a, b, c, d in quads:
        if any(w not in model.vectors for w in (a, b, c)):
            continue
        if d not in model.vectors:
            scores.append(0.0)
            continue
        target = model.vectors[b] - model.vectors[a] + model.vectors[c]
        tnorm = float(np.linalg.norm(target))
        if tnorm == 0.0:
            scores.append(0.0)
            continue
        sims = matrix @ target / (norms * tnorm)
        rank, score = 0, 0.0
        for word, _ in sorted(zip(vocab, sims), key=lambda ws: (-ws[1], ws[0])):
            if word in (a, b, c):
                continue
            rank += 1
            if rank > list_len:
                break
            if word == d:
                score = 1.0 / rank
                break
        scores.append(score)
    return sum(scores) / len(scores)


def outcome(load, path):
    """What a loader makes of a file: its vectors bit for bit, or its ParseError."""
    try:
        model = load(path)
    except ParseError as exc:
        return "error", exc.line, exc.message
    return model.dim, [(w, v.shape, v.tobytes()) for w, v in model.vectors.items()]


# Files the bulk parse reads ("bulk") or hands to float() row by row ("rows"),
# and files refused while they are read ("read"), all compared with the
# row-by-row loader.
VECTOR_FILES = {
    "plain": ("2 2\na 1.5 -2\nb 0.1 3e-5\n", "bulk"),
    "underscore digits": ("1 2\na 1_0 2\n", "rows"),
    "full-width digit": ("1 2\na \uff11 2\n", "rows"),
    "comment sign": ("1 2\na 1#2 2\n", "rows"),
    "doubled space": ("1 2\na 1  2\n", "read"),
    "trailing space": ("1 2\na 1 2 \n", "read"),
    "tab inside a field": ("1 3\na 1\t2 3\n", "rows"),
    "tab beside a field": ("1 2\na 1\t \t2\n", "bulk"),
    "overflow": ("2 2\na 1 2\nb 1e400 2\n", "bulk"),
    "nan": ("2 2\na 1 2\nb 1 nan\n", "bulk"),
    "blank lines": ("2 2\n\na 1 2\n\n\nb 3 4\n\n", "bulk"),
    "crlf": ("2 2\r\na 1 2\r\nb 3 4\r\n", "bulk"),
    "dim 0": ("2 0\na\nb\n", "rows"),
    "no rows": ("0 3\n", "rows"),
    "word with form feed": ("2 2\na\x0cb 1 2\nc 3 4\n", "bulk"),
    "word with line separator": ("2 2\na\u2028b 1 2\nc 3 4\n", "bulk"),
    "word with next line": ("2 2\na\x85b 1 2\nc 3 4\n", "bulk"),
    "word with file separator": ("2 2\na\x1cb 1 2\nc 3 4\n", "bulk"),
    "unit separator beside a value": ("1 2\na 1\x1f 2\n", "rows"),
    "record separator beside a value": ("1 2\na \x1e1 2\n", "rows"),
    "a row with no value": ("2 1\na 1\nb \n", "rows"),
    "bad value before a short row": ("3 2\na 1 2\nb 1 x\nc 1\n", "read"),
    "wrong vocabulary count": ("3 2\na 1 2\nb 3 4\n", "bulk"),
}


@pytest.mark.parametrize("name", sorted(VECTOR_FILES))
def test_bulk_parse_matches_the_row_by_row_loader(name, tmp_path, monkeypatch):
    text, route = VECTOR_FILES[name]
    path = tmp_path / "vecs.txt"
    path.write_bytes(text.encode("utf-8"))
    expected = outcome(reference_load_vectors, path)
    calls = []
    monkeypatch.setattr(embed, "_parse_rows", lambda *a, real=embed._parse_rows: calls.append(1) or real(*a))
    assert outcome(load_vectors, path) == expected
    assert {"bulk": [], "rows": [1], "read": [1]}[route] == calls


def test_a_bad_value_is_reported_before_bad_utf8_read_later(tmp_path):
    # The bad byte sits past the text reader's first 8 KiB chunk.
    path = tmp_path / "vecs.txt"
    path.write_bytes(b"2 2\na 1 x\n" + b"\n" * 9000 + b"\xff\n")
    assert outcome(load_vectors, path) == outcome(reference_load_vectors, path) == (
        "error", 2, "non-numeric vector component"
    )


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

    def test_norm_has_the_bits_of_linalg_norm(self):
        rng = np.random.default_rng(17)
        vectors = [np.zeros(d) for d in (1, 3, 300)]
        for dim in (1, 2, 3, 7, 50, 100, 300):
            for _ in range(200):
                vectors.append(rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]), size=dim))
                vectors.append(np.mean(rng.normal(size=(int(rng.integers(1, 12)), dim)), axis=0))
        assert all(embed._norm(v) == float(np.linalg.norm(v)) for v in vectors)


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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_component_is_refused_and_nothing_is_written(self, tmp_path, value):
        path = tmp_path / "vecs.txt"
        path.write_text("kept\n", encoding="utf-8")
        with pytest.raises(ModelError, match=r"not written: the vectors hold an infinite or NaN component$"):
            save_vectors(model_of(alpha=[1.0, 2.0], beta=[0.5, value]), path)
        assert path.read_text(encoding="utf-8") == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.txt"]

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

    def test_counts_that_sum_past_the_float_range_are_refused(self):
        # their mean would divide by an infinite total and read 0.0
        src = model_of(e1=[1.0, 0.0], e2=[0.0, 1.0])
        with pytest.raises(ModelError, match="sum past the largest float"):
            project(src, {"w": [("e1", 10**308), ("e2", 10**308)]})

    def test_a_mean_past_the_float_range_is_not_finite_and_warns_nothing(self):
        src = model_of(e1=[1e300, 0.0], e2=[0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = project(src, {"w": [("e1", 10**10), ("e2", 1)]})
        assert out.vectors["w"][0] == math.inf

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

    def test_random_alignments_match_the_reference_bit_for_bit(self):
        rng = np.random.default_rng(23)
        src_vocab = [f"s{i}" for i in range(200)]
        src = EmbeddingModel(dim=7, vectors={w: rng.normal(size=7) * 10.0 ** rng.integers(-3, 4) for w in src_vocab})
        # sources drawn from beyond the model too, so some targets keep one usable source and some none
        align = {
            f"t{i}": [(f"s{int(j)}", int(rng.integers(1, 1000))) for j in rng.integers(0, 260, size=rng.integers(1, 6))]
            for i in range(3000)
        }
        out = project(src, align)
        expected = reference_project(src, align)
        assert list(out.vectors) == list(expected)
        assert all(out.vectors[w].tobytes() == v.tobytes() for w, v in expected.items())
        assert any(len([s for s, _ in pairs if s in src.vectors]) == 1 for pairs in align.values())

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
            (f"w\te1\t{10**309}", f"count must be at most {sys.float_info.max}"),
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

    @pytest.mark.parametrize("top_n, window", [(-1, None), (True, None), (10, 4)])
    def test_a_setting_the_loader_refuses_is_refused(self, top_n, window):
        # a negative top_n sliced off each variant's last coword
        corp = corpus_from_lines(["x ká y", "x ká", "z kà"])
        with pytest.raises(ParseError, match=r"^(embedding top_n|window size) must be"):
            build_cowords(corp, self.build_sets(), top_n=top_n, window=window)

    def test_window_limits_cooccurrence(self):
        corp = corpus_from_lines(["far1 far2 near ká close trail1 trail2"])
        table = build_cowords(corp, self.build_sets(), top_n=10, window=3)
        assert {w for w, _ in table["ká"]} == {"near", "close"}

    def test_punctuation_never_counts(self):
        corp = corpus_from_lines([". ká , ; word"])
        table = build_cowords(corp, self.build_sets(), top_n=10)
        assert {w for w, _ in table["ká"]} == {"word"}

    def test_a_variant_twice_on_its_line_counts_the_other(self):
        corp = corpus_from_lines(["ká x ká", "kà"])
        table = build_cowords(corp, self.build_sets(), top_n=10)
        assert table == reference_cowords(corp, self.build_sets(), top_n=10)
        assert table["ká"] == [("ká", 2), ("x", 2)]

    def test_a_variant_alone_on_its_line_ranks_no_zero_count(self):
        corp = corpus_from_lines(["kà", "Ká", "ká y"])
        table = build_cowords(corp, self.build_sets(), top_n=10)
        assert table == reference_cowords(corp, self.build_sets(), top_n=10)
        assert table == {"ká": [("y", 1)], "kà": []}

    @pytest.mark.parametrize("window, lowercase", [(None, True), (None, False), (3, True), (5, False), (11, True)])
    def test_random_corpora_match_the_reference(self, window, lowercase):
        rng = random.Random(11)
        sets = [
            AmbiguousSet(wordkey="ka", variants=[("ká", 2), ("kà", 2), ("ka", 1)]),
            AmbiguousSet(wordkey="o", variants=[("ọ", 2), ("ò", 2)]),
        ]
        vocab = ["ká", "kà", "ka", "Ká", "ọ", "ò", "a", "b", "c", "d", "e", ",", "."]
        for _ in range(20):
            lines = [" ".join(rng.choices(vocab, k=rng.randrange(1, 12))) for _ in range(rng.randrange(1, 15))]
            corp = corpus_from_lines(lines)
            for top_n in (0, 1, 3, 50):
                assert build_cowords(corp, sets, top_n, window, lowercase) == reference_cowords(
                    corp, sets, top_n, window, lowercase
                )


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
        with pytest.raises(ParseError, match="^unknown embedding scheme: 'tweak9'$"):
            enhance(model_of(v=[1.0]), {}, scheme="tweak9")


def restore(model, tokens, target, candidates, window=None, scheme=BASIC, cowords=None):
    """One token through the embedding restorer, as a line's restore calls it."""
    restorer = embed.EmbeddingRestorer(
        model=model, variant_index={tokens[target]: candidates}, scheme=scheme, window=window, cowords=cowords
    )
    return restorer.predict_instance(tokens, target, list(tokens[:target]))


def score(model, context, candidates, allowed=None):
    """restore_instance on a target whose every other key is the context."""
    return restore_instance(model, ("target", *context), candidates, 0, None, allowed)


class TestRestore:
    def test_context_matching_candidate_direction(self):
        model = model_of(x=[1.0, 0.0], y=[0.0, 1.0], cx=[1.0, 0.0])
        assert score(model, ("cx",), [("x", 1), ("y", 1)]) == "x"

    def test_two_dimensional_fixture(self):
        model = model_of(x=[1.0, 0.0], y=[0.0, 1.0], c1=[0.9, 0.1])
        assert score(model, ("c1",), [("x", 1), ("y", 1)]) == "x"

    def test_empty_context_falls_back_to_majority(self):
        model = model_of(x=[1.0, 0.0], y=[0.0, 1.0])
        assert score(model, (), [("x", 2), ("y", 5)]) == "y"

    def test_oov_context_words_dropped(self):
        model = model_of(x=[1.0, 0.0], y=[0.0, 1.0], cy=[0.0, 1.0])
        assert score(model, ("nowhere", "cy"), [("x", 9), ("y", 1)]) == "y"

    def test_no_candidate_vector_raises(self):
        model = model_of(c=[1.0, 0.0])
        with pytest.raises(UnrepresentableInstance):
            score(model, ("c",), [("x", 1), ("y", 1)])

    def test_scaling_invariance(self):
        rng = np.random.default_rng(8)
        base = {f"w{i}": rng.normal(size=3) for i in range(6)}
        base.update({"x": rng.normal(size=3), "y": rng.normal(size=3)})
        context = ("w0", "w1", "w2")
        one = score(
            EmbeddingModel(3, {k: v.copy() for k, v in base.items()}), context, [("x", 1), ("y", 1)]
        )
        scaled = score(
            EmbeddingModel(3, {k: 37.0 * v for k, v in base.items()}), context, [("x", 1), ("y", 1)]
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
        context = ("xcue", "noise1", "noise2")
        candidates = [("x", 1), ("y", 1)]
        assert embed.coword_sets(BASIC, cowords, "xy") is None
        basic = score(model, context, candidates)
        assert basic == "y"
        restricted = score(model, context, candidates, embed.coword_sets(TWEAK2, cowords, "xy"))
        assert restricted == "x"  # cos 1.0 beats y's empty-context prior 0.5

    def test_tweak2_empty_restricted_context_scores_prior(self):
        model = model_of(x=[1.0, 0.0], y=[0.0, 1.0], xcue=[0.6, 0.8])
        cowords = {"x": [("xcue", 1)], "y": [("absent", 1)]}
        # y's restricted context is empty -> prior 9/10 = 0.9 beats cos 0.6
        got = restore(model, ("xcue", "t"), 1, [("x", 1), ("y", 9)], scheme=TWEAK2, cowords=cowords)
        assert got == "y"

    def test_window_limits_context(self):
        model = model_of(x=[1.0, 0.0], y=[0.0, 1.0], far=[0.0, 1.0], near=[1.0, 0.0])
        tokens = ("far", "pad1", "pad2", "pad3", "near", "t", "pad4")
        assert restore(model, tokens, 5, [("x", 1), ("y", 1)], window=3) == "x"

    @pytest.mark.parametrize("scheme", [BASIC, TWEAK1, TWEAK2, TWEAK3])
    def test_random_instances_match_the_reference(self, scheme, caplog):
        """Same choice and the same prior-fallback records; the model is left as it was."""
        rng = np.random.default_rng(21)
        words = [f"w{i}" for i in range(12)]
        variants = ["x", "y", "z"]
        vectors = {w: rng.normal(size=3) for w in words + variants}
        vectors["w0"] = np.zeros(3)  # a context of w0 alone averages to zero
        del vectors["z"]  # a candidate with no vector
        model = EmbeddingModel(3, vectors)
        before = state(model)
        cowords = {v: [(w, 1) for w in rng.choice(words, size=4, replace=False)] for v in variants}
        caplog.set_level(logging.DEBUG, logger="diacritize.embed")
        reasons = set()
        for trial in range(300):
            tokens = tuple(rng.choice(words + ["oov"], size=rng.integers(1, 9)))
            target = int(rng.integers(len(tokens)))
            inst = Instance(tokens=tokens, target=target, label="")
            candidates = [(v, int(rng.integers(0, 4))) for v in variants]
            window = (None, 3, 11)[trial % 3]
            caplog.clear()
            got = restore(model, tokens, target, candidates, window=window, scheme=scheme, cowords=cowords)
            fallbacks = [r.getMessage() for r in caplog.records if "scored by unigram prior" in r.getMessage()]
            expected = reference_restore(model, inst, candidates, window=window, scheme=scheme, cowords=cowords)
            assert (got, len(fallbacks)) == expected
            reasons.update(m.split("(")[1] for m in fallbacks)
        assert reasons >= {"no vector)", "zero context vector)"}
        assert state(model) == before


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

    @pytest.mark.parametrize("list_len", [0, -3, True, 3.0])
    def test_a_list_length_outside_the_rule_is_refused(self, list_len):
        # a list of no words would score every quad 0.0
        model = self.build_rank_model(5)
        with pytest.raises(DataError, match=rf"^analogy list length must be an integer >= 1, got {list_len!r}$"):
            analogy_mrr(model, [("a", "b", "c", "d")], list_len=list_len)

    def test_oov_d_scores_zero_and_mean_over_quads(self):
        model = self.build_rank_model(1)
        score = analogy_mrr(model, [("a", "b", "c", "d"), ("a", "b", "c", "missing")])
        assert score == pytest.approx(0.5)

    def test_question_words_excluded_from_ranking(self):
        # b - a + c is usually closest to b itself; b must not absorb the rank
        model = self.build_rank_model(1)
        assert analogy_mrr(model, [("a", "b", "c", "d")]) == 1.0

    def test_d_among_the_question_words_scores_zero(self):
        model = self.build_rank_model(1)
        assert analogy_mrr(model, [("a", "b", "c", "c"), ("a", "b", "c", "d")]) == pytest.approx(0.5)

    def test_a_tie_goes_to_the_earlier_word(self):
        model = model_of(a=[1.0, 0.0], b=[1.0, 1.0], c=[0.0, 0.0], d1=[0.0, 2.0], d2=[0.0, 1.0])
        assert analogy_mrr(model, [("a", "b", "c", "d1"), ("a", "b", "c", "d2")]) == pytest.approx(0.75)

    @pytest.mark.parametrize("list_len", [1, 3, 100])
    def test_random_models_match_the_sorting_reference(self, list_len):
        rng = np.random.default_rng(list_len)
        for trial in range(60):
            words = [f"w{i}" for i in range(int(rng.integers(4, 40)))]
            # small integer components make ties and zero rows common
            vectors = {w: rng.integers(-2, 3, size=3).astype(float) for w in words}
            model = EmbeddingModel(dim=3, vectors=vectors)
            pool = [*words, "oov"]
            quads = [tuple(pool[int(j)] for j in rng.integers(0, len(pool), size=4)) for _ in range(30)]
            quads.append((words[0], words[1], words[2], words[1]))
            try:
                expected = reference_analogy_mrr(model, quads, list_len)
            except ZeroDivisionError:
                with pytest.raises(DataError, match="no scoreable"):
                    analogy_mrr(model, quads, list_len)
                continue
            assert analogy_mrr(model, quads, list_len) == expected


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

    @pytest.mark.parametrize("scores", [(1e308, -1e308), (1e308, 1e308, -1e308)])
    def test_scores_past_the_float_range_are_refused_without_a_warning(self, scores):
        model = model_of(a=[1.0, 0.0], b=[0.0, 1.0], c=[1.0, 1.0], d=[1.0, -1.0])
        pairs = [("a", w, s) for w, s in zip("bcd", scores)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^similarity scores too large for a Pearson r in floats$"):
                wordsim_pearson(model, pairs)

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

    def test_unrepresentable_instance_takes_no_window(self, monkeypatch):
        def no_window(*args):
            raise AssertionError("a window was taken for an unrepresentable instance")

        monkeypatch.setattr(embed, "extract_window", no_window)
        restorer = embed.EmbeddingRestorer(
            model=model_of(c=[1.0, 0.0]), variant_index={"t": [("x", 1), ("y", 3)]}, window=3
        )
        assert restorer.predict_instance(("c", "t", "c"), 1, ["c"]) == "y"
        with pytest.raises(UnrepresentableInstance, match="no candidate of 't' has a vector"):
            restore_instance(restorer.model, ("c", "t", "c"), [("x", 1), ("y", 3)], 1, 3)


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

    @pytest.mark.parametrize("scheme", ["bogus", None])
    def test_an_unknown_scheme_is_refused_when_built(self, scheme):
        # it used to score as basic
        model = model_of(**{"ká": [1.0, 0.0], "kà": [0.0, 1.0]})
        aset = AmbiguousSet(wordkey="ka", variants=[("ká", 6), ("kà", 4)], instances=[])
        with pytest.raises(ParseError, match=f"^unknown embedding scheme: {scheme!r}$"):
            embed.cv_fitter(model, aset, scheme=scheme, window=None)

    @pytest.mark.parametrize("window", [4, 1, True, 9.0])
    def test_a_bad_window_is_refused_when_built_and_scores_no_fold(self, window, monkeypatch):
        predictions = []
        real = embed.restore_or_majority
        monkeypatch.setattr(embed, "restore_or_majority", lambda *a: predictions.append(a) or real(*a))
        model = model_of(**{"ká": [1.0, 0.0], "kà": [0.0, 1.0], "sun": [1.0, 0.0]})
        aset = AmbiguousSet(
            wordkey="ka",
            variants=[("ká", 6), ("kà", 6)],
            instances=[Instance(tokens=("sun", "ka"), target=1, label=("ká", "kà")[i % 2], line=i) for i in range(12)],
        )
        with pytest.raises(DataError, match=f"window size must be an odd integer >= 3, got {window}"):
            evaluate.crossval(embed.cv_fitter(model, aset, scheme=BASIC, window=window), aset, 3, 0)
        assert predictions == []
        assert evaluate.crossval(embed.cv_fitter(model, aset, scheme=BASIC, window=3), aset, 3, 0).failed_folds == []
        assert len(predictions) == 12

    @pytest.mark.parametrize("scheme", [TWEAK2, TWEAK3])
    def test_a_restricting_scheme_without_cowords_is_refused_when_built(self, scheme):
        model = model_of(**{"ká": [1.0, 0.0], "kà": [0.0, 1.0]})
        aset = AmbiguousSet(wordkey="ka", variants=[("ká", 6), ("kà", 4)], instances=[])
        with pytest.raises(ModelError, match="needs a coword table"):
            embed.cv_fitter(model, aset, scheme=scheme, window=None)
        with pytest.raises(ModelError, match="needs a coword table"):
            embed.EmbeddingRestorer(model=model, variant_index={"ka": aset.variants}, scheme=scheme)
