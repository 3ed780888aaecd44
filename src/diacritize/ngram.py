"""Back-off n-gram restoration over marked left contexts.

Counts are maximum-likelihood tables over (k-1 marked left tokens, variant)
for k = 1..max_n. Restoration scores the candidates of a wordkey at the
largest context first and backs off one level whenever the counts give no
unique maximum, down to the unigram floor. Context words left of the target
are themselves restored first, left to right, so later decisions see marked
context. Each restored form depends only on the tokens to its left, so a line
is restored in one left-to-right pass, linear in its length: the pipeline
hands `NGramRestorer` the restored forms of the tokens left of each target.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .corpus import Corpus, TokenKind, strip_diacritics
from .datasetgen import AmbiguousSet, Instance, majority_variant
from .errors import ModelError, ParseError


@dataclass
class PreparedCorpus:
    """Corpus lowered to plain surface strings, with the replacement map precomputed."""

    lines: list[list[str]]
    unambiguous: dict[str, str]


@dataclass
class NGramModel:
    max_n: int
    # counts[k] maps (context tuple of k-1 marked tokens, variant) -> count
    counts: list[dict[tuple[tuple[str, ...], str], int]]
    variant_index: dict[str, list[str]]
    # Restores context words in `restore_instance`. A pipeline routes them
    # itself, so a model loaded from a pipeline file leaves it empty.
    unambiguous: dict[str, str] = field(default_factory=dict)

    def count(self, k: int, context: tuple[str, ...], variant: str) -> int:
        return self.counts[k - 1].get((context, variant), 0)

    def unigram_count(self, variant: str) -> int:
        return self.counts[0].get(((), variant), 0)


def prepare(corpus: Corpus, lowercase: bool = True) -> PreparedCorpus:
    lines = []
    word_counts: dict[str, Counter[str]] = {}
    for line in corpus.lines:
        surfaces = []
        for tok in line:
            s = tok.surface.lower() if lowercase else tok.surface
            surfaces.append(s)
            if tok.kind is TokenKind.WORD:
                word_counts.setdefault(strip_diacritics(s), Counter())[s] += 1
        lines.append(surfaces)
    unambiguous = {}
    for key, variants in word_counts.items():
        best = majority_variant(variants.items())
        if best != key:
            unambiguous[key] = best
    return PreparedCorpus(lines=lines, unambiguous=unambiguous)


def find_occurrences(prepared: PreparedCorpus, candidates: dict[str, list[str]]):
    """(line, position) pairs of every indexed-variant occurrence."""
    candidate_sets = {k: set(vs) for k, vs in candidates.items()}
    occurrences = []
    for line_no, surfaces in enumerate(prepared.lines):
        for t, surface in enumerate(surfaces):
            variants = candidate_sets.get(strip_diacritics(surface))
            if variants is not None and surface in variants:
                occurrences.append((line_no, t))
    return occurrences


def train_from_occurrences(
    prepared: PreparedCorpus,
    occurrences,
    max_n: int,
    candidates: dict[str, list[str]],
    skip_lines=(),
) -> NGramModel:
    if max_n < 1:
        raise ModelError(f"max_n must be >= 1, got {max_n}")
    skip = set(skip_lines)
    counts: list[dict] = [dict() for _ in range(max_n)]
    lines = prepared.lines
    for line_no, t in occurrences:
        if line_no in skip:
            continue
        surfaces = lines[line_no]
        surface = surfaces[t]
        for k in range(1, max_n + 1):
            if t - (k - 1) < 0:
                break
            key = (tuple(surfaces[t - k + 1 : t]), surface)
            level = counts[k - 1]
            level[key] = level.get(key, 0) + 1

    index = {k: sorted(vs) for k, vs in candidates.items()}
    return NGramModel(
        max_n=max_n,
        counts=counts,
        variant_index=index,
        unambiguous=dict(prepared.unambiguous),
    )


def train(
    corpus,
    max_n: int,
    candidates: dict[str, list[str]],
    skip_lines=(),
    lowercase: bool = True,
) -> NGramModel:
    """Count (context, variant) tables for every occurrence of an indexed variant.

    candidates maps wordkey -> list of variant surfaces (from the generated
    dataset). Lines whose index is in skip_lines contribute nothing; the
    cross-validation driver uses this to hold out test sentences.
    """
    prepared = corpus if isinstance(corpus, PreparedCorpus) else prepare(corpus, lowercase)
    occurrences = find_occurrences(prepared, candidates)
    return train_from_occurrences(prepared, occurrences, max_n, candidates, skip_lines)


def _choose(model: NGramModel, left: list[str], variants: list[str], n: int) -> str:
    """Back-off walk: unique count maximum wins, ties and zeros step down a level."""
    if len(variants) == 1:
        return variants[0]
    top = min(n, model.max_n, len(left) + 1)
    for k in range(top, 1, -1):
        table = model.counts[k - 1]
        ctx = tuple(left[len(left) - (k - 1) :])
        scores = [table.get((ctx, v), 0) for v in variants]
        best = max(scores)
        if best > 0 and scores.count(best) == 1:
            return variants[scores.index(best)]
    unigrams = model.counts[0]
    return majority_variant([(v, unigrams.get(((), v), 0)) for v in variants])


def _variants(model: NGramModel, wordkey: str) -> list[str]:
    variants = model.variant_index.get(wordkey)
    if variants is None:
        raise ModelError(f"wordkey not in variant index: {wordkey!r}")
    return variants


def restore_instance(model: NGramModel, inst: Instance, n: int) -> str:
    """Restore the instance target, greedily restoring its left context first."""
    if not (1 <= n <= model.max_n):
        raise ModelError(f"n must be in 1..{model.max_n}, got {n}")
    variants = _variants(model, strip_diacritics(inst.tokens[inst.target]))
    restored: list[str] = []
    for w in inst.tokens[: inst.target]:
        key = strip_diacritics(w)
        context_variants = model.variant_index.get(key)
        if context_variants is not None:
            restored.append(_choose(model, restored, context_variants, n))
        else:
            restored.append(model.unambiguous.get(key, w))
    return _choose(model, restored, variants, n)


@dataclass
class NGramRestorer:
    """The n-gram family's restorer: a count model read at order n."""

    model: NGramModel
    n: int

    def predict_instance(self, inst: Instance, restored: list[str]) -> str:
        """restored holds the restored forms of inst.tokens[:inst.target]."""
        variants = _variants(self.model, strip_diacritics(inst.tokens[inst.target]))
        return _choose(self.model, restored, variants, self.n)

    def to_payload(self) -> dict:
        return {"n": self.n, "model": model_payload(self.model)}

    @classmethod
    def from_payload(cls, spec: dict, variant_index) -> "NGramRestorer":
        model = model_from_payload(spec["model"], variant_index)
        n = int(spec["n"])
        if not (1 <= n <= model.max_n):
            raise ParseError(f"n-gram order must be in 1..{model.max_n}, got {n}")
        return cls(model=model, n=n)


def cv_fitter(corpus, aset: AmbiguousSet, candidates: dict[str, list[str]], n: int, lowercase: bool = True):
    """Build a crossval fit function that holds out test-fold sentences.

    Training counts come only from lines holding no held-out instance of the
    evaluated wordkey, so a test sentence never feeds its own counts. Pass a
    PreparedCorpus to share the preparation across wordkeys.
    """
    if any(inst.line < 0 for inst in aset.instances):
        raise ModelError(
            "n-gram cross-validation needs instance line provenance; "
            "regenerate the dataset from the corpus"
        )
    prepared = corpus if isinstance(corpus, PreparedCorpus) else prepare(corpus, lowercase)
    occurrences = find_occurrences(prepared, candidates)

    def fit(train_instances):
        train_keys = {(i.line, i.target) for i in train_instances}
        skip = {
            i.line for i in aset.instances if (i.line, i.target) not in train_keys
        }
        model = train_from_occurrences(prepared, occurrences, n, candidates, skip_lines=skip)
        return lambda inst: restore_instance(model, inst, n)

    return fit


def model_payload(model: NGramModel) -> dict:
    levels = []
    for k in range(1, model.max_n + 1):
        entries = sorted(
            [[list(ctx), v, c] for (ctx, v), c in model.counts[k - 1].items()],
            key=lambda e: (e[0], e[1]),
        )
        levels.append({"k": k, "entries": entries})
    return {"max_n": model.max_n, "levels": levels}


def model_from_payload(payload: dict, variant_index) -> NGramModel:
    """The count model of a pipeline file; its variants come from the pipeline's index.

    Files that still hold `variant_index`, `unambiguous` and `lowercase` in
    the model load too: those keys are not read.
    """
    max_n = payload["max_n"]
    levels = payload["levels"]
    if len(levels) != max_n or sorted(level["k"] for level in levels) != list(range(1, max_n + 1)):
        raise ParseError(f"n-gram model needs one level for each k in 1..{max_n}")
    counts: list[dict] = [dict() for _ in range(max_n)]
    for level in levels:
        table = counts[level["k"] - 1]
        for ctx, v, c in level["entries"]:
            table[(tuple(ctx), v)] = c
    if not all(isinstance(c, int) for table in counts for c in table.values()):
        raise ParseError("n-gram counts must be integers")
    return NGramModel(
        max_n=max_n,
        counts=counts,
        variant_index={k: sorted(v for v, _ in vs) for k, vs in variant_index.items()},
    )
