import random
import re
import unicodedata
from collections import Counter
from pathlib import Path

import pytest

from diacritize import corpus
from diacritize.corpus import (
    Corpus,
    Token,
    TokenKind,
    compute_stats,
    corpus_from_lines,
    normalize,
    strip_diacritics,
    token_kind,
    tokenize,
)
from diacritize.datasetgen import majority_forms, majority_variant
from diacritize.errors import DataError


def random_unicode_strings(count, seed=13):
    rng = random.Random(seed)
    pools = [
        (0x0020, 0x007E),   # ASCII
        (0x00C0, 0x024F),   # Latin-1 supplement + extended
        (0x0300, 0x036F),   # combining marks
        (0x1E00, 0x1EFF),   # Latin extended additional (dotted vowels)
        (0x0400, 0x04FF),   # Cyrillic
    ]
    out = []
    for _ in range(count):
        length = rng.randrange(0, 12)
        chars = []
        for _ in range(length):
            lo, hi = rng.choice(pools)
            chars.append(chr(rng.randrange(lo, hi + 1)))
        out.append("".join(chars))
    return out


class TestNormalize:
    def test_combining_acute_composes(self):
        assert normalize("é") == "é"

    def test_ascii_noop(self):
        assert normalize("abc") == "abc"

    def test_idempotent_on_random_strings(self):
        for s in random_unicode_strings(10_000):
            once = normalize(s)
            assert normalize(once) == once
            assert once == unicodedata.normalize("NFC", s)

    def test_dot_below_and_acute_orderings_agree(self):
        a = "bụ́"  # precomposed u-dot-below + acute
        b = "bụ́"  # precomposed u-acute + dot below
        assert normalize(a) == normalize(b)


class TestStripDiacritics:
    @pytest.mark.parametrize(
        "marked,expected",
        [
            ("ákwà", "akwa"),  # ákwà
            ("ákwá", "akwa"),  # ákwá
            ("àkwá", "akwa"),  # àkwá
            ("Chineke", "Chineke"),
            ("Ọ", "O"),  # Ọ keeps case
            ("sị̀", "si"),
        ],
    )
    def test_wordkey_examples(self, marked, expected):
        assert strip_diacritics(normalize(marked)) == expected

    def test_idempotent_and_no_marks_left(self):
        for s in random_unicode_strings(2_000, seed=29):
            stripped = strip_diacritics(normalize(s))
            assert strip_diacritics(stripped) == stripped
            decomposed = unicodedata.normalize("NFD", stripped)
            assert not any(unicodedata.category(c) == "Mn" for c in decomposed)
            assert len(stripped) <= len(normalize(s))

    def test_commutes_with_normalize(self):
        for s in random_unicode_strings(2_000, seed=31):
            assert strip_diacritics(normalize(s)) == normalize(strip_diacritics(s))

    def test_cache_is_bounded(self):
        words = [f"ákwà{i}" for i in range(corpus.STRING_CACHE_SIZE + 1000)]
        strip_diacritics.cache_clear()
        got = [strip_diacritics(w) for w in words]
        assert strip_diacritics.cache_info().currsize == corpus.STRING_CACHE_SIZE
        assert got == [strip_diacritics.__wrapped__(w) for w in words]
        assert strip_diacritics(words[0]) == "akwa0"  # evicted, computed again

    def test_token_cache_is_bounded(self):
        surfaces = [f"ákwà{i}" for i in range(corpus.STRING_CACHE_SIZE + 1000)]
        corpus.surface_token.cache_clear()
        got = [corpus.surface_token(s) for s in surfaces]
        assert corpus.surface_token.cache_info().currsize == corpus.STRING_CACHE_SIZE
        assert got == [Token(s, TokenKind.WORD) for s in surfaces]
        assert corpus.surface_token(surfaces[-1]) is got[-1]
        again = corpus.surface_token(surfaces[0])  # evicted, built again
        assert again == got[0] and again is not got[0]


class TestTokenize:
    def test_auxiliary_and_punctuation(self):
        toks = tokenize(normalize("Ọ na-agba egwu ."))
        assert [(t.surface, t.kind) for t in toks] == [
            ("Ọ", TokenKind.WORD),
            ("na-", TokenKind.WORD),
            ("agba", TokenKind.WORD),
            ("egwu", TokenKind.WORD),
            (".", TokenKind.PUNCTUATION),
        ]

    def test_apostrophe_contraction_splits(self):
        toks = tokenize("n'ugbo ya")
        assert [t.surface for t in toks] == ["n'", "ugbo", "ya"]

    def test_empty_line(self):
        assert tokenize("") == []

    def test_tokens_are_shared_per_surface(self):
        corpus._chunk_tokens.cache_clear()
        corpus.surface_token.cache_clear()
        toks = tokenize("na-agba ya , na-eje ya")
        assert toks[0] is toks[4] and toks[1] is not toks[5]
        assert toks[2] is toks[6] is corpus.surface_token("ya")

    def test_round_trip_on_whitespace_normalized_lines(self):
        lines = [
            "nwanyị áhù banyere n' ugbo ya .",
            "3 Chineke wee si :",
            "otu , abuo ; ato !",
        ]
        for line in lines:
            toks = tokenize(normalize(line))
            assert " ".join(t.surface for t in toks) == normalize(line)

    def test_kinds(self):
        assert token_kind("3") is TokenKind.DIGIT
        assert token_kind("1979") is TokenKind.DIGIT
        assert token_kind(";") is TokenKind.PUNCTUATION
        assert token_kind("na-") is TokenKind.WORD
        assert token_kind("+") is TokenKind.SYMBOL
        assert token_kind("b2") is TokenKind.WORD  # any letter makes a word


FIXTURE = Path(__file__).parent / "data" / "fixture_corpus.txt"
EDGE_CHUNKS = ["-", "--", "na-", "-na", "n'", "n'ugbo", "’", "a’b’c", "3-4", "!!"]
CACHES = (corpus._chunk_tokens, corpus.token_kind)


def reference_tokenize(line):
    """Split after each attached mark that is not a chunk's last character, then classify."""
    out = []
    for chunk in line.split():
        for piece in re.findall(r".*?[-'’](?=.)|.+", chunk):
            cats = [unicodedata.category(c)[0] for c in piece]
            if "L" in cats:
                kind = TokenKind.WORD
            elif "N" in cats:
                kind = TokenKind.DIGIT
            elif "P" in cats:
                kind = TokenKind.PUNCTUATION
            else:
                kind = TokenKind.SYMBOL
            out.append((piece, kind))
    return out


class TestTokenizeCaches:
    @pytest.fixture(scope="class")
    def lines(self):
        fixture = [normalize(l) for l in FIXTURE.read_text(encoding="utf-8").splitlines()]
        return fixture + [" ".join(EDGE_CHUNKS)] + EDGE_CHUNKS + random_unicode_strings(500)

    def test_matches_reference_cold_and_warm(self, lines):
        for warm in (False, True):
            for line in lines:
                if not warm:
                    for cache in CACHES:
                        cache.cache_clear()
                got = [(t.surface, t.kind) for t in tokenize(line)]
                assert got == reference_tokenize(line), (warm, line)

    def test_edge_chunks(self):
        assert [t.surface for t in tokenize(" ".join(EDGE_CHUNKS))] == [
            "-", "-", "-", "na-", "-", "na", "n'", "n'", "ugbo", "’",
            "a’", "b’", "c", "3-", "4", "!!",
        ]

    def test_mutating_a_result_does_not_leak(self):
        first = tokenize("n'ugbo ya .")
        first.append(Token("x", TokenKind.WORD))
        first[0] = Token("y", TokenKind.WORD)
        assert [t.surface for t in tokenize("n'ugbo ya .")] == ["n'", "ugbo", "ya", "."]

    def test_caches_are_bounded(self):
        for cache in CACHES:
            assert cache.cache_info().maxsize == corpus.STRING_CACHE_SIZE


class TestComputeStats:
    def test_two_line_hand_count(self):
        corp = corpus_from_lines(["ákwà ákwá", "egg"])
        stats = compute_stats(corp)
        assert stats.lines == 2
        assert stats.all_tokens == 3
        assert stats.words_only == 3
        assert stats.vocab_size == 3
        assert stats.all_wordkeys == 2
        assert stats.ambiguous_wordkeys == 1
        assert stats.unique_wordkeys == 1
        assert stats.all_diac_words == 2
        assert stats.amb_diac_words == 2
        assert stats.unique_diac_words == 0
        assert stats.variants_histogram == {2: 1}

    def test_empty_corpus(self):
        stats = compute_stats(corpus_from_lines([]))
        assert stats.lines == 0
        assert stats.all_tokens == 0
        assert stats.all_wordkeys == 0

    def test_histogram_totals_and_identity(self, gate_corpus):
        corp, _ = gate_corpus
        stats = compute_stats(corp)
        assert stats.all_wordkeys == stats.unique_wordkeys + stats.ambiguous_wordkeys
        assert sum(stats.variants_histogram.values()) == stats.ambiguous_wordkeys
        assert stats.words_only <= stats.all_tokens
        assert stats.vocab_size <= stats.words_only

    def test_stripping_preserves_shape_and_wordkeys(self, gate_corpus):
        corp, _ = gate_corpus
        stripped = corp.stripped()
        assert [len(line) for line in stripped.lines] == [len(line) for line in corp.lines]
        marked_stats = compute_stats(corp)
        stripped_stats = compute_stats(stripped)
        assert stripped_stats.all_wordkeys == marked_stats.all_wordkeys
        assert stripped_stats.vocab_size <= marked_stats.vocab_size

    def test_stats_json_round_trips(self):
        import json

        corp = corpus_from_lines(["ákwà ákwá egg"])
        payload = json.loads(compute_stats(corp).to_json())
        assert payload["all_wordkeys"] == 2
        assert payload["variants_histogram"] == {"2": 1}


class TestLoadCorpus:
    def test_load_normalizes_nfc(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("é akwa\n", encoding="utf-8")
        corp = corpus.load_corpus(path)
        assert corp.lines[0][0].surface == "é"

    def test_invalid_utf8_names_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"abc \xff\xfe def")
        with pytest.raises(DataError, match="byte offset 4"):
            corpus.load_corpus(path)

    def test_invalid_utf8_past_the_first_chunk_names_its_file_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        head = "ọ́ akwa\n".encode() * 3000
        path.write_bytes(head + b"\xffbc\n" + "ụ\n".encode() * 10)
        with pytest.raises(DataError, match=f"bad.txt: invalid UTF-8 at byte offset {len(head)}$"):
            corpus.load_corpus(path)

    def test_invalid_utf8_past_the_first_decoded_block_names_its_file_offset(self, tmp_path):
        # The offset is found by decoding 64 KiB blocks; this byte sits in the third.
        path = tmp_path / "bad.txt"
        path.write_bytes(("a" * 72_000 + "\n").encode() * 2 + b"\xff\n")
        with pytest.raises(DataError, match="bad.txt: invalid UTF-8 at byte offset 144002$"):
            corpus.load_corpus(path)


def reference_variant_counts(corp, lowercase):
    """Per-token count of word surfaces by wordkey, as dataset generation once did it."""
    counts = {}
    for line in corp.lines:
        for tok in line:
            if tok.kind is not TokenKind.WORD:
                continue
            surface = tok.surface.lower() if lowercase else tok.surface
            counts.setdefault(strip_diacritics(surface), Counter())[surface] += 1
    return counts


def random_marked_corpus(seed):
    """Lines of cased, marked words mixed with digits and punctuation."""
    rng = random.Random(seed)
    marks = ["", "́", "̀", "̣", "̣́"]
    stems = ["akwa", "oge", "udo", "di", "nwa", "ike", "Ọ", "na-", "n'"]
    others = ["12", "3-4", ",", ".", "!!", "+", "b2", "’"]

    def word():
        chars = []
        for c in rng.choice(stems):
            chars.append(c.upper() if rng.random() < 0.2 else c)
            if c in "aeiou" and rng.random() < 0.4:
                chars.append(rng.choice(marks))
        return "".join(chars)

    lines = [
        " ".join(word() if rng.random() < 0.8 else rng.choice(others) for _ in range(rng.randrange(0, 12)))
        for _ in range(rng.randrange(1, 30))
    ]
    return corpus_from_lines(lines)


# One surface both as a word token and as tokens that carry other kinds, as a
# hand-built Corpus may hold; only its word tokens count.
MIXED_KINDS = Corpus([
    [Token("ákwà", TokenKind.SYMBOL), Token("ọ́ge", TokenKind.WORD), Token("ákwà", TokenKind.WORD)],
    [Token("akwa", TokenKind.PUNCTUATION), Token("ákwà", TokenKind.DIGIT), Token("akwa", TokenKind.WORD)],
])
# Lowered, "ákwà" is first shown by "ÁKWÀ", not by its own surface, and "ÁKWÁ"
# adds to the row that its lowercase surface began.
CASED_FIRST = corpus_from_lines(["AKWÁ ÁKWÀ ákwá ákwà Ákwà", "akwa Ákwà ÁKWÁ"])


class TestVariantCounts:
    @pytest.fixture(scope="class")
    def corpora(self, gate_corpus):
        fixture = corpus.load_corpus(FIXTURE)
        randoms = [random_marked_corpus(seed) for seed in range(50)]
        return [fixture, gate_corpus[0], MIXED_KINDS, CASED_FIRST] + randoms

    @pytest.mark.parametrize("lowercase", [False, True])
    def test_matches_a_per_token_count_in_first_seen_order(self, corpora, lowercase):
        for corp in corpora:
            table = corpus.variant_counts(corp, lowercase)
            reference = reference_variant_counts(corp, lowercase)
            assert list(table) == list(reference)
            for key, counts in reference.items():
                assert list(table[key].items()) == list(counts.items())

    @pytest.mark.parametrize("lowercase", [False, True])
    def test_majority_forms_take_each_keys_vote(self, corpora, lowercase):
        bare_single_keys = 0
        for corp in corpora:
            table = corpus.variant_counts(corp, lowercase)
            forms = majority_forms(table)
            assert set(forms) <= set(table)
            for key, counts in table.items():
                vote = majority_variant(counts.items())
                assert forms.get(key, key) == vote
                assert (key in forms) == (vote != key)
                bare_single_keys += list(counts) == [key]
        assert bare_single_keys

    def test_default_keeps_case(self):
        corp = corpus_from_lines(["Ákwà ákwà , 12"])
        assert corpus.variant_counts(corp) == {"Akwa": {"Ákwà": 1}, "akwa": {"ákwà": 1}}
        assert corpus.variant_counts(corp, lowercase=True) == {"akwa": {"ákwà": 2}}

    @pytest.mark.parametrize("lowercase", [False, True])
    def test_line_keys_strip_each_surface(self, corpora, lowercase):
        for corp in corpora:
            for line in corp.lines:
                expected = tuple(strip_diacritics(t.surface.lower() if lowercase else t.surface) for t in line)
                assert corpus.line_keys(line, lowercase) == expected
