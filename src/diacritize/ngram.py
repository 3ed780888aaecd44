"""Back-off n-gram restoration over marked left contexts.

Counts are maximum-likelihood tables over (k-1 marked left tokens, variant)
for k = 1..max_n. Restoration scores the candidates of a wordkey at the
largest context first and backs off one level whenever the counts give no
unique maximum, down to the unigram floor. Context words left of the target
are themselves restored first, left to right, so later decisions see marked
context. Each restored form depends only on the tokens to its left, so one
left-to-right walk, `datasetgen.route`, serves both `restore` (which hands
`NGramRestorer` the restored forms left of each target) and `restore_instance`.

Cross-validation counts once per run: `shared_counts` scans the corpus for
candidate occurrences and counts the full tables at the largest order asked
for, and each fold's model (`fold_model`) reads the full count minus the
occurrences on its held-out lines. A fold costs one count of its held-out
occurrences instead of a recount of every occurrence in the corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import Corpus, strip_diacritics, variant_counts
from .datasetgen import AmbiguousSet, Instance, majority_forms, majority_variant, route
from .errors import ModelError, ParseError


@dataclass
class PreparedCorpus:
    """Corpus lowered to plain surface strings, with the replacement map precomputed."""

    lines: list[list[str]]
    unambiguous: dict[str, str]


@dataclass
class NGramModel:
    max_n: int
    # counts[k] maps (context tuple of k-1 marked tokens, variant) -> count;
    # a cross-validation fold holds read-through `_FoldLevel`s instead.
    counts: list[dict[tuple[tuple[str, ...], str], int]]
    variant_index: dict[str, list[str]]
    # The unambiguous map of `restore_instance`'s walk. A pipeline walks with
    # its own map, so a model loaded from a pipeline file leaves it empty.
    unambiguous: dict[str, str] = field(default_factory=dict)


def prepare(corpus: Corpus, lowercase: bool = True) -> PreparedCorpus:
    lines = [[t.surface.lower() if lowercase else t.surface for t in line] for line in corpus.lines]
    unambiguous = majority_forms(variant_counts(corpus, lowercase))
    return PreparedCorpus(lines=lines, unambiguous=unambiguous)


def find_occurrences(prepared: PreparedCorpus, candidates: dict[str, list[str]]):
    """(line, position) pairs of every indexed-variant occurrence.

    A surface is indexed when it is listed among its own wordkey's variants.
    The listed variants are stripped once, instead of every corpus token.
    """
    indexed = {v for key, vs in candidates.items() for v in vs if strip_diacritics(v) == key}
    return [
        (line_no, t)
        for line_no, surfaces in enumerate(prepared.lines)
        for t, surface in enumerate(surfaces)
        if surface in indexed
    ]


def train_from_occurrences(
    prepared: PreparedCorpus,
    occurrences,
    max_n: int,
    candidates: dict[str, list[str]],
) -> NGramModel:
    if max_n < 1:
        raise ModelError(f"max_n must be >= 1, got {max_n}")
    counts: list[dict] = [dict() for _ in range(max_n)]
    _count(prepared.lines, occurrences, counts)
    index = {k: sorted(vs) for k, vs in candidates.items()}
    return NGramModel(
        max_n=max_n,
        counts=counts,
        variant_index=index,
        unambiguous=dict(prepared.unambiguous),
    )


def _count(lines: list[list[str]], occurrences, counts: list[dict]) -> None:
    """Add each (line, position) occurrence's key to every level of counts it reaches."""
    max_n = len(counts)
    for line_no, t in occurrences:
        surfaces = lines[line_no]
        surface = surfaces[t]
        for k in range(1, min(t + 1, max_n) + 1):
            key = (tuple(surfaces[t - k + 1 : t]), surface)
            level = counts[k - 1]
            level[key] = level.get(key, 0) + 1


def train(
    corpus,
    max_n: int,
    candidates: dict[str, list[str]],
    lowercase: bool = True,
) -> NGramModel:
    """Count (context, variant) tables for every occurrence of an indexed variant.

    candidates maps wordkey -> list of variant surfaces (from the generated
    dataset). lowercase applies to a Corpus only: a PreparedCorpus is lowered
    already. `fold_model` counts without a fold's held-out lines.
    """
    prepared = corpus if isinstance(corpus, PreparedCorpus) else prepare(corpus, lowercase)
    occurrences = find_occurrences(prepared, candidates)
    return train_from_occurrences(prepared, occurrences, max_n, candidates)


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
    """Restore the instance target, walking its keys up to it as `restore` does."""
    if not (1 <= n <= model.max_n):
        raise ModelError(f"n must be in 1..{model.max_n}, got {n}")
    keys = [strip_diacritics(w) for w in inst.tokens[: inst.target + 1]]
    _variants(model, keys[-1])  # an unknown target raises ModelError

    def predict(i, restored):
        return _choose(model, restored, model.variant_index[keys[i]], n)

    return route(keys, model.variant_index, model.unambiguous, predict)[-1]


@dataclass
class NGramRestorer:
    """The n-gram family's restorer: a count model read at order n."""

    model: NGramModel
    n: int

    def predict_instance(self, inst: Instance, restored: list[str]) -> str:
        """restored holds the restored forms of inst.tokens[:inst.target]."""
        variants = _variants(self.model, inst.tokens[inst.target])
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


@dataclass
class SharedCounts:
    """The full count tables of a cross-validation run, with its occurrences by line.

    One count at the largest order serves every order up to it: level k's
    table does not depend on max_n, and `_choose` reads at most n levels.
    """

    prepared: PreparedCorpus
    model: NGramModel
    occurrences_by_line: dict[int, list[tuple[int, int]]]


def shared_counts(prepared: PreparedCorpus, candidates: dict[str, list[str]], max_n: int) -> SharedCounts:
    """Scan the corpus for candidate occurrences once and count them at order max_n."""
    occurrences = find_occurrences(prepared, candidates)
    model = train_from_occurrences(prepared, occurrences, max_n, candidates)
    by_line: dict[int, list[tuple[int, int]]] = {}
    for occ in occurrences:
        by_line.setdefault(occ[0], []).append(occ)
    return SharedCounts(prepared=prepared, model=model, occurrences_by_line=by_line)


@dataclass(slots=True)
class _FoldLevel:
    """One level of a fold's table: the full count minus the held-out lines' count.

    A fold reads through to the shared table instead of copying it. A count
    that falls to zero reads as a missing key, which `_choose` scores alike.
    """

    full: dict
    held_out: dict

    def get(self, key, default=None):
        count = self.full.get(key, 0) - self.held_out.get(key, 0)
        return count if count else default


def fold_model(shared: SharedCounts, skip_lines) -> NGramModel:
    """The model counted from every line but skip_lines, read off the shared count."""
    full = shared.model
    held_out: list[dict] = [dict() for _ in range(full.max_n)]
    by_line = shared.occurrences_by_line
    _count(
        shared.prepared.lines,
        (occ for line_no in skip_lines for occ in by_line.get(line_no, ())),
        held_out,
    )
    return NGramModel(
        max_n=full.max_n,
        counts=[_FoldLevel(f, h) for f, h in zip(full.counts, held_out)],
        variant_index=full.variant_index,
        unambiguous=full.unambiguous,
    )


def cv_fitter(corpus, aset: AmbiguousSet, candidates: dict[str, list[str]], n: int, lowercase: bool = True):
    """Build a crossval fit function that holds out test-fold sentences.

    Training counts come only from lines holding no held-out instance of the
    evaluated wordkey, so a test sentence never feeds its own counts. The
    tables are counted once, and each fold subtracts the occurrences on its
    held-out lines: the cost is one count, plus one count of the held-out
    occurrences per fold. Pass a
    `SharedCounts` (counted at any order >= n) to share one count across
    wordkeys and orders; given a corpus or a PreparedCorpus, the fitter
    counts its own at order n.
    """
    if any(inst.line < 0 for inst in aset.instances):
        raise ModelError(
            "n-gram cross-validation needs instance line provenance; "
            "regenerate the dataset from the corpus"
        )
    if isinstance(corpus, SharedCounts):
        shared = corpus
    else:
        prepared = corpus if isinstance(corpus, PreparedCorpus) else prepare(corpus, lowercase)
        shared = shared_counts(prepared, candidates, n)
    if not (1 <= n <= shared.model.max_n):
        raise ModelError(f"n must be in 1..{shared.model.max_n}, got {n}")

    def fit(train_instances):
        train_keys = {(i.line, i.target) for i in train_instances}
        skip = {
            i.line for i in aset.instances if (i.line, i.target) not in train_keys
        }
        model = fold_model(shared, skip)
        return lambda inst: restore_instance(model, inst, n)

    return fit


def model_payload(model: NGramModel) -> dict:
    levels = []
    for k in range(1, model.max_n + 1):
        table = model.counts[k - 1]
        entries = [[list(ctx), v, table[ctx, v]] for ctx, v in sorted(table)]
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
