"""Seeded synthetic inputs for the benchmark.

A fixed *language* seed decides the vocabulary: CV-syllable words, which of
them carry a fixed diacritic, the ambiguous wordkeys with their marked
variants and variant shares, the preceding-word trigger of each variant, the
Zipf rank of every word and the word vectors. The *text* seed only makes
running text in that language, so a held-out text shares the training
vocabulary whatever the seed. In the training corpus each word occurs a
fixed number of times and the seed decides the order; held-out lines are
drawn word by word, in fixed line lengths. So the amount of work per input
stays nearly the same from seed to seed.

Text mixes sentence case, the odd all-caps word, numbers and punctuation.
An ambiguous variant is preceded by its own trigger word most of the time,
as in the bigram oracle corpus of the test suite, so context decides it. In
the vectors each variant lies near its trigger, so the embedding restorer
takes the cosine path and not only the prior fallback.
"""

from __future__ import annotations

import random
import unicodedata
from dataclasses import dataclass

LANG_SEED = 20260117

ACUTE = "́"
GRAVE = "̀"
DOT_BELOW = "̣"
ACCENTS = (ACUTE, GRAVE, DOT_BELOW)

CONSONANTS = "bdfgjklmnprstvwz"
VOWELS = "aeiou"

N_FILLER = 3000
MARKED_SHARE = 0.3
N_AMBIGUOUS = 150
TRIGGER_RATE = 0.85
# Word units (a word, or a variant with its trigger) per training corpus token.
WORDS_PER_TOKEN = 0.74
VECTOR_DIM = 24
VECTORLESS_VARIANT_EVERY = 3
VECTORLESS_KEY_EVERY = 7

# Held-out restore text: line lengths and their line counts per group. Long
# lines are where the n-gram restorer's prefix walk costs most. The median
# line is a 20-token one and the 99th percentile a 320-token one, each well
# inside its block, so neither sits on the edge between two lengths.
LINE_MIX = ((20, 14), (80, 4), (320, 2))


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


@dataclass
class Ambiguous:
    key: str
    variants: list[str]
    shares: list[float]
    triggers: list[str]


@dataclass
class Language:
    """Word types by Zipf rank; each entry is a filler surface or an Ambiguous."""

    ranked: list
    weights: list[float]
    fillers: list[str]
    ambiguous: list[Ambiguous]
    vectors: dict[str, list[float]]


def _vowels(word: str) -> int:
    return sum(word.count(v) for v in VOWELS)


def _cv_words(rng: random.Random, count: int) -> list[str]:
    words, seen = [], set()
    while len(words) < count:
        syllables = rng.choice((2, 2, 3))
        w = "".join(rng.choice(CONSONANTS) + rng.choice(VOWELS) for _ in range(syllables))
        if w not in seen:
            seen.add(w)
            words.append(w)
    return words


def build_language() -> Language:
    rng = random.Random(LANG_SEED)
    bases = _cv_words(rng, N_FILLER + N_AMBIGUOUS)
    filler_bases, amb_bases = bases[:N_FILLER], bases[N_FILLER:]

    fillers = []
    for w in filler_bases:
        if rng.random() < MARKED_SHARE:
            w = mark(w, rng.choice(ACCENTS), rng.randrange(_vowels(w)))
        fillers.append(w)

    # Triggers are unmarked fillers, each owned by one variant.
    unmarked = [w for w in fillers if unicodedata.normalize("NFD", w) == w]
    rng.shuffle(unmarked)
    ambiguous = []
    for key in amb_bases:
        n_var = 2 if rng.random() < 0.7 else 3
        forms = [(a, p) for a in ACCENTS for p in range(_vowels(key))]
        variants = [mark(key, a, p) for a, p in rng.sample(forms, n_var)]
        if n_var == 2:
            major = rng.uniform(0.5, 0.66)
            shares = [major, 1.0 - major]
        else:
            major = rng.uniform(0.4, 0.55)
            minor = rng.uniform(0.12, (1.0 - major) / 2)
            shares = [major, 1.0 - major - minor, minor]
        triggers = [unmarked.pop() for _ in variants]
        ambiguous.append(Ambiguous(key, variants, shares, triggers))

    # Zipf over every type; ambiguous keys spread log-uniformly over ranks
    # 12..1800 so their dataset sets run from a few thousand instances down
    # to the wordkey gate.
    total_types = N_FILLER + N_AMBIGUOUS
    amb_ranks = sorted({int(12 * (150 ** (i / (N_AMBIGUOUS - 1)))) for i in range(N_AMBIGUOUS)})
    while len(amb_ranks) < N_AMBIGUOUS:
        amb_ranks.append(amb_ranks[-1] + 1)
    ranked: list = [None] * total_types
    for r, amb in zip(amb_ranks, ambiguous):
        ranked[r] = amb
    free = iter(fillers)
    for r in range(total_types):
        if ranked[r] is None:
            ranked[r] = next(free)
    weights = [1.0 / (r + 2.7) for r in range(total_types)]

    vectors: dict[str, list[float]] = {}

    def rand_vec():
        return [rng.gauss(0.0, 1.0) for _ in range(VECTOR_DIM)]

    for w in fillers:
        vectors[strip_word(w)] = rand_vec()
    for i, amb in enumerate(ambiguous):
        vectors[amb.key] = rand_vec()
        for v, t in zip(amb.variants, amb.triggers):
            vectors[v] = [x + rng.gauss(0.0, 0.3) for x in vectors[t]]
        # Some variants have no vector, so the embedding restorer also takes
        # its prior fallback, and some wordkeys none, so it meets
        # unrepresentable instances.
        if i % VECTORLESS_KEY_EVERY == 0:
            for v in amb.variants:
                del vectors[v]
        elif i % VECTORLESS_VARIANT_EVERY == 0:
            del vectors[amb.variants[-1]]
    return Language(ranked, weights, fillers, ambiguous, vectors)


def strip_word(word: str) -> str:
    """The wordkey of a word: every combining mark removed."""
    decomposed = unicodedata.normalize("NFD", word)
    return unicodedata.normalize(
        "NFC", "".join(c for c in decomposed if unicodedata.category(c) != "Mn")
    )


class TextSampler:
    """Draws running text from a Language with one text seed."""

    def __init__(self, lang: Language, seed):
        self.lang = lang
        self.rng = random.Random(seed)
        self._cum = []
        acc = 0.0
        for w in lang.weights:
            acc += w
            self._cum.append(acc)

    def line(self, length: int) -> list[str]:
        """One marked line of exactly `length` whitespace-separated tokens."""
        rng = self.rng
        out: list[str] = []
        while len(out) < length - 1:
            r = rng.random()
            if r < 0.02:
                out.append(str(rng.randrange(1, 2100)))
                continue
            if r < 0.07 and out and out[-1] not in ",;":
                out.append(rng.choice(",,,;"))
                continue
            entry = rng.choices(self.lang.ranked, cum_weights=self._cum)[0]
            if isinstance(entry, Ambiguous):
                i = rng.choices(range(len(entry.variants)), weights=entry.shares)[0]
                if rng.random() < TRIGGER_RATE and len(out) < length - 2:
                    out.append(entry.triggers[i])
                out.append(entry.variants[i])
            else:
                out.append(entry)
        return _finish(rng, out[: length - 1])


def _finish(rng: random.Random, out: list[str]) -> list[str]:
    """End a line with a stop, capitalise its first token and the odd word."""
    out.append(rng.choice("...?!"))
    out[0] = out[0][:1].upper() + out[0][1:]
    for i in range(1, len(out)):
        if rng.random() < 0.01:
            out[i] = out[i].upper()
    return out


def _apportion(weights, n: int) -> list[int]:
    """n split in proportion to weights, in whole numbers (largest remainder)."""
    total = sum(weights)
    exact = [w * n / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def corpus_lines(lang: Language, seed, tokens: int) -> list[str]:
    """Marked training text of about `tokens` tokens in lines of 10 to 30.

    How often each word, variant and trigger occurs is fixed by the language
    and `tokens`, not drawn: the text seed orders the words and places the
    numbers, punctuation and capitals. So every seed's dataset holds the same
    wordkey sets with the same variant counts, and the training and cv work
    stays the same from seed to seed.
    """
    rng = random.Random(seed)
    units: list[tuple[str, ...]] = []
    for entry, count in zip(lang.ranked, _apportion(lang.weights, round(tokens * WORDS_PER_TOKEN))):
        if not isinstance(entry, Ambiguous):
            units += [(entry,)] * count
            continue
        for variant, trigger, n in zip(entry.variants, entry.triggers, _apportion(entry.shares, count)):
            paired = round(TRIGGER_RATE * n)
            units += [(trigger, variant)] * paired + [(variant,)] * (n - paired)
    rng.shuffle(units)

    lines, i = [], 0
    while i < len(units):
        length, out = rng.randrange(10, 31), []
        while len(out) < length - 1 and i < len(units):
            r = rng.random()
            if r < 0.02:
                out.append(str(rng.randrange(1, 2100)))
            elif r < 0.07 and out and out[-1] not in ",;":
                out.append(rng.choice(",,,;"))
            else:
                out += units[i]
                i += 1
        lines.append(" ".join(_finish(rng, out)))
    return lines


def heldout_lines(lang: Language, seed, groups: int, mix=None) -> list[str]:
    """Marked held-out text: `groups` times each (length, count) of mix, shuffled.

    The line lengths are fixed, not drawn, so every seed asks the same work.
    """
    sampler = TextSampler(lang, seed)
    lengths = [n for n, count in mix or LINE_MIX for _ in range(count * groups)]
    sampler.rng.shuffle(lengths)
    return [" ".join(sampler.line(n)) for n in lengths]


def strip_line(line: str) -> str:
    return " ".join(strip_word(t) for t in line.split())


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def write_vectors(path, vectors: dict[str, list[float]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(vectors)} {VECTOR_DIM}\n")
        for word, vec in vectors.items():
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")
