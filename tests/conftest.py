"""Shared fixtures: engineered synthetic corpora for the oracle suites, and `state`."""

import dataclasses
import random
import unicodedata

import numpy as np
import pytest

from diacritize import corpus as corpus_mod

ACUTE = "́"
GRAVE = "̀"
DOT_BELOW = "̣"

CONSONANTS = "bdfgjklmnprstvwz"
VOWELS = "aeiou"


def mark(word: str, accent: str, vowel_pos: int = 0) -> str:
    """Put a combining accent on the vowel_pos-th vowel, NFC-composed."""
    seen = 0
    out = []
    for ch in word:
        out.append(ch)
        if ch in VOWELS:
            if seen == vowel_pos:
                out.append(accent)
            seen += 1
    return unicodedata.normalize("NFC", "".join(out))


def _base_words(count: int, length: int = 3, salt: int = 0):
    """Distinct unmarked CV-syllable words, deterministic."""
    words = []
    rng = random.Random(1000 + salt)
    seen = set()
    while len(words) < count:
        w = "".join(
            rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(length)
        )
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def gate_profiles():
    """40 wordkeys with variant counts straddling the three generation gates.

    Returns {wordkey: [(variant_surface, count), ...]} using raw corpus counts
    (before any pruning).
    """
    keys = _base_words(40, salt=1)
    patterns = [
        # all three variants survive varnt_rep, distrib fine -> kept
        [(ACUTE, 0, 60), (GRAVE, 1, 35), (DOT_BELOW, 2, 5)],
        # third variant at share 0.04 pruned; remaining 96 kept with 2 variants
        [(ACUTE, 0, 60), (GRAVE, 1, 36), (DOT_BELOW, 2, 4)],
        # minimum total on the wdkey_rep boundary (5 of 50k) -> kept
        [(ACUTE, 0, 3), (GRAVE, 1, 2)],
        # one below the wdkey_rep boundary -> dropped
        [(ACUTE, 0, 2), (GRAVE, 1, 2)],
        # dominant share exactly 0.75 -> kept (boundary keeps)
        [(ACUTE, 0, 75), (GRAVE, 1, 25)],
        # dominant share 0.76 -> dropped
        [(ACUTE, 0, 76), (GRAVE, 1, 24)],
        # minor variant pruned to one survivor -> dropped (needs 2 variants)
        [(ACUTE, 0, 96), (GRAVE, 1, 4)],
        # balanced pair, comfortably above every gate
        [(ACUTE, 0, 50), (GRAVE, 1, 50)],
        # variant pruned, survivors rebalanced below distrib cap -> kept
        [(ACUTE, 0, 14), (GRAVE, 1, 6), (DOT_BELOW, 2, 1)],
        # dominant stack with eight sub-5% singles: all pruned, then dropped
        [(ACUTE, 0, 192), (GRAVE, 0, 1), (DOT_BELOW, 0, 1), (ACUTE, 1, 1),
         (GRAVE, 1, 1), (DOT_BELOW, 1, 1), (ACUTE, 2, 1), (GRAVE, 2, 1),
         (DOT_BELOW, 2, 1)],
    ]
    profiles = {}
    for i, key in enumerate(keys):
        pattern = patterns[i % len(patterns)]
        profiles[key] = _merge(
            (mark(key, accent, pos), count) for accent, pos, count in pattern
        )
    return profiles


def _merge(pairs):
    counts = {}
    for surface, count in pairs:
        counts[surface] = counts.get(surface, 0) + count
    return sorted(counts.items())


def build_gate_corpus(total_words: int = 50_000, seed: int = 7):
    """A corpus with exactly total_words word tokens and the engineered profiles."""
    profiles = gate_profiles()
    tokens = []
    for key in profiles:
        for surface, count in profiles[key]:
            tokens.extend([surface] * count)
    filler_words = _base_words(200, length=4, salt=2)
    filler_needed = total_words - len(tokens)
    assert filler_needed > 0
    rng = random.Random(seed)
    tokens.extend(rng.choice(filler_words) for _ in range(filler_needed))
    rng.shuffle(tokens)
    lines = [
        " ".join(tokens[i : i + 10]) for i in range(0, len(tokens), 10)
    ]
    return corpus_mod.corpus_from_lines(lines), profiles


def build_bigram_corpus(n_major: int = 600, n_minor: int = 400, seed: int = 11):
    """Variant of wordkey 'ko' fully determined by the preceding trigger word.

    'pam ko-acute' for the majority trigger, 'zur ko-grave' for the minority.
    Leading and trailing filler words are random but never triggers.
    """
    major = mark("ko", ACUTE)
    minor = mark("ko", GRAVE)
    filler = _base_words(50, length=4, salt=3)
    rng = random.Random(seed)
    lines = []
    for variant, trigger, count in ((major, "pam", n_major), (minor, "zur", n_minor)):
        for _ in range(count):
            lead = [rng.choice(filler) for _ in range(rng.randrange(0, 3))]
            tail = [rng.choice(filler) for _ in range(rng.randrange(1, 4))]
            lines.append(" ".join(lead + [trigger, variant] + tail))
    rng.shuffle(lines)
    return corpus_mod.corpus_from_lines(lines), major, minor


@pytest.fixture(scope="session")
def gate_corpus():
    return build_gate_corpus()


@pytest.fixture(scope="session")
def bigram_corpus():
    return build_bigram_corpus()


def state(value):
    """value as plain data to compare: dataclass fields, dict and sequence items, and array bytes, recursively."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, state(vars(value))
    if isinstance(value, dict):
        return {k: state(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [state(v) for v in value]
    return value
