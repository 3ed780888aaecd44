"""Back-off n-gram restoration over marked left contexts.

Counts are maximum-likelihood tables for k = 1..max_n, indexed by context:
level k maps each context of k-1 marked left tokens to its row, the count of
every variant seen after it. A model's order, max_n, is its level count.
Contexts nest: each context at k >= 2 has its one-word-shorter suffix at
k-1, which `train` guarantees and the loader checks. Restoration scores the
candidates of a wordkey at the largest context first and backs off one level
whenever the counts give no unique maximum, down to the unigram floor. It
finds that largest context from the bottom up, one row lookup per order: by
nesting, no context above the first unseen one is seen either. Context words
left of the target are themselves restored first, left to right, so later
decisions see marked context. Each restored form depends only on the tokens
to its left, so one left-to-right walk, `datasetgen.route`, serves both
`restore` and `restore_instance`, and each hands every ambiguous token to
`NGramRestorer.predict_instance` with the restored forms left of it.
Training lowercases a corpus as `prepare` does by default; to keep case,
pass `prepare(corpus, lowercase=False)` to `train` or `cv_fitter`. Every
entry that takes an order, from the command line to the loader, refuses one
outside the order rule with `check_order`'s message.

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

# The largest order a model is counted at: by `train ngram -n`, `eval cv
# --restorer ngram:N`, the builder and the cv fitter (check_order). The paper
# goes up to 5; an order past the longest line adds only empty levels.
# Pipeline files of any order still load.
MAX_ORDER = 20
# The order `train ngram` uses when -n is not given.
ORDER = 5


def check_order(n, top: int = MAX_ORDER) -> None:
    """The order rule, an integer in 1..top (a bool is not one); ParseError refuses the rest.

    top is MAX_ORDER for an order to count at, and a model's level count for
    an order to read it at: the loader, restore_instance and cv_fitter given
    a SharedCounts pass len(model.counts).
    """
    if type(n) is not int or n < 1:
        raise ParseError(f"n-gram order must be an integer >= 1, got {n!r}")
    if n > top:
        raise ParseError(f"n-gram order must be at most {top}, got {n}")


@dataclass
class PreparedCorpus:
    """Corpus lowered to plain surface strings, with the replacement map precomputed."""

    lines: list[list[str]]
    unambiguous: dict[str, str]


@dataclass
class NGramModel:
    # counts[k - 1] maps each context (a tuple of k - 1 marked tokens) to its
    # row {variant: count}, for k = 1..max_n: the model's order is
    # len(counts). A cross-validation fold holds read-through `_FoldLevel`s
    # instead.
    counts: list[dict[tuple[str, ...], dict[str, int]]]
    variant_index: dict[str, list[str]]
    # The unambiguous map of `restore_instance`'s walk, shared read-only with
    # the PreparedCorpus it was counted from. A pipeline walks with its own
    # map, so a model loaded from a pipeline file leaves it empty.
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
    check_order(max_n)
    counts: list[dict] = [dict() for _ in range(max_n)]
    _count(prepared.lines, occurrences, counts)
    index = {k: sorted(vs) for k, vs in candidates.items()}
    return NGramModel(counts=counts, variant_index=index, unambiguous=prepared.unambiguous)


def _count(lines: list[list[str]], occurrences, counts: list[dict]) -> None:
    """Add each (line, position) occurrence to its context's row at every level it reaches."""
    max_n = len(counts)
    for line_no, t in occurrences:
        surfaces = lines[line_no]
        surface = surfaces[t]
        for k in range(1, min(t + 1, max_n) + 1):
            level = counts[k - 1]
            ctx = tuple(surfaces[t - k + 1 : t])
            row = level.get(ctx)
            if row is None:
                row = level[ctx] = {}
            row[surface] = row.get(surface, 0) + 1


def train(corpus, max_n: int, candidates: dict[str, list[str]]) -> NGramModel:
    """Count the context rows of every occurrence of an indexed variant.

    candidates maps wordkey -> list of variant surfaces (from the generated
    dataset). A Corpus is prepared lowercased; pass a PreparedCorpus to keep
    case. `fold_model` counts without a fold's held-out lines.
    """
    prepared = corpus if isinstance(corpus, PreparedCorpus) else prepare(corpus)
    occurrences = find_occurrences(prepared, candidates)
    return train_from_occurrences(prepared, occurrences, max_n, candidates)


def _choose(model: NGramModel, left: list[str], variants: list[str], n: int) -> str:
    """Back-off walk: unique count maximum wins, ties and zeros step down a level.

    The rows are collected upward from order 2 and stop at the first unseen
    context: contexts nest, so every longer context is unseen too. The
    deepest row collected is scored first.
    """
    if len(variants) == 1:
        return variants[0]
    counts = model.counts
    rows = []
    for k in range(2, min(n, len(counts), len(left) + 1) + 1):
        row = counts[k - 1].get(tuple(left[1 - k :]))
        if row is None:
            break
        rows.append(row)
    for row in reversed(rows):
        best, choice = 0, None
        for v in variants:
            count = row.get(v, 0)
            if count > best:
                best, choice = count, v
            elif count == best:
                choice = None  # a tie at the maximum so far, or nothing above zero
        if choice is not None:
            return choice
    unigrams = counts[0].get((), {})
    return majority_variant([(v, unigrams.get(v, 0)) for v in variants])


def restore_instance(model: NGramModel, inst: Instance, n: int) -> str:
    """Restore the instance target, walking its keys up to it as `restore` does, with `NGramRestorer`.

    A target outside the model's index, the one key the walk does not check, is a ModelError;
    an n above the model's level count breaks the order rule (check_order).
    """
    check_order(n, len(model.counts))
    keys = [strip_diacritics(w) for w in inst.tokens[: inst.target + 1]]
    if keys[-1] not in model.variant_index:
        raise ModelError(f"wordkey not in variant index: {keys[-1]!r}")
    return route(keys, model.variant_index, model.unambiguous, NGramRestorer(model, n).predict_instance)[-1]


@dataclass
class NGramRestorer:
    """The n-gram family's restorer: a count model read at order n."""

    model: NGramModel
    n: int

    def predict_instance(self, keys, i: int, restored: list[str]) -> str:
        """restored holds the restored forms of keys[:i]; keys[i] is a key of the model's index."""
        return _choose(self.model, restored, self.model.variant_index[keys[i]], self.n)

    def to_payload(self) -> dict:
        return {"n": self.n, "model": model_payload(self.model)}

    @classmethod
    def from_payload(cls, spec: dict, variant_index) -> "NGramRestorer":
        model = model_from_payload(spec["model"], variant_index)
        check_order(spec["n"], len(model.counts))
        return cls(model=model, n=spec["n"])


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
    """One level of a fold's table: the full rows minus the held-out lines' rows.

    A fold reads through to the shared table instead of copying it. A row
    reads as the recount without the held-out lines would hold it: a count
    that falls to zero is left out, and a row left empty reads as unseen.
    Every row the fold holds out is a row of the full table, so contexts
    still nest.
    """

    full: dict
    held_out: dict

    def get(self, ctx, default=None):
        row = self.full.get(ctx)
        held = self.held_out.get(ctx)
        if held is None:
            return default if row is None else row
        kept = {}
        for v, count in row.items():
            count -= held.get(v, 0)
            if count:
                kept[v] = count
        return kept or default


def fold_model(shared: SharedCounts, skip_lines) -> NGramModel:
    """The model counted from every line but skip_lines, read off the shared count."""
    full = shared.model
    held_out: list[dict] = [dict() for _ in full.counts]
    by_line = shared.occurrences_by_line
    _count(
        shared.prepared.lines,
        (occ for line_no in skip_lines for occ in by_line.get(line_no, ())),
        held_out,
    )
    return NGramModel(
        counts=[_FoldLevel(f, h) for f, h in zip(full.counts, held_out)],
        variant_index=full.variant_index,
        unambiguous=full.unambiguous,
    )


def cv_fitter(corpus, aset: AmbiguousSet, candidates: dict[str, list[str]], n: int):
    """Build a crossval fit function that holds out test-fold sentences.

    Training counts come only from lines holding no held-out instance of the
    evaluated wordkey, so a test sentence never feeds its own counts. The
    tables are counted once, and each fold subtracts the occurrences on its
    held-out lines: the cost is one count, plus one count of the held-out
    occurrences per fold. Pass a
    `SharedCounts` (counted at any order >= n) to share one count across
    wordkeys and orders; given a corpus or a PreparedCorpus, the fitter
    counts its own at order n, from a Corpus lowercased as `train` counts.

    fit(train) notes the fold's held-out lines and returns a predictor that
    builds the fold's model at its first call. crossval fits every fold of a
    set before it scores any and lets each predictor go once its fold is
    scored, so one fold model is alive at a time.
    """
    if any(inst.line < 0 for inst in aset.instances):
        raise ModelError(
            "n-gram cross-validation needs instance line provenance; "
            "regenerate the dataset from the corpus"
        )
    if isinstance(corpus, SharedCounts):
        shared = corpus
    else:
        prepared = corpus if isinstance(corpus, PreparedCorpus) else prepare(corpus)
        shared = shared_counts(prepared, candidates, n)
    check_order(n, len(shared.model.counts))

    def fit(train_instances):
        train_keys = {(i.line, i.target) for i in train_instances}
        skip = {
            i.line for i in aset.instances if (i.line, i.target) not in train_keys
        }
        model = None

        def predictor(inst: Instance) -> str:
            nonlocal model
            if model is None:
                model = fold_model(shared, skip)
            return restore_instance(model, inst, n)

        return predictor

    return fit


def model_payload(model: NGramModel) -> dict:
    """Each level's entries as [context, variant, count], sorted by context, then variant."""
    levels = []
    for k, table in enumerate(model.counts, 1):
        entries = [[list(ctx), v, c] for ctx in sorted(table) for v, c in sorted(table[ctx].items())]
        levels.append({"k": k, "entries": entries})
    return {"max_n": len(model.counts), "levels": levels}


def _bad_entry(k: int, ctx, v, c) -> str:
    """What is wrong with the refused entry [ctx, v, c] of level k."""
    if type(ctx) is not list or len(ctx) != k - 1 or not all(type(w) is str for w in ctx):
        return f"n-gram level {k} needs contexts of {k - 1} words, got {ctx!r}"
    if type(v) is not str:
        return f"n-gram variants must be strings, got {v!r}"
    if type(c) is not int or c < 1:
        return f"n-gram counts must be positive integers, got {c!r}"
    return f"n-gram context {ctx!r} at level {k} has no suffix at level {k - 1}"


def model_from_payload(payload: dict, variant_index) -> NGramModel:
    """The count model of a pipeline file; its variants come from the pipeline's index.

    Files that still hold `variant_index`, `unambiguous` and `lowercase` in
    the model load too: those keys are not read. Each entry must be a list
    of k-1 context words, a variant and a positive integer count, and each
    context at k >= 2 must have its suffix at k-1, as `_choose` relies on.
    Levels are read from k = 1 up, so that suffix is already in place.
    """
    max_n = payload["max_n"]
    levels = payload["levels"]
    if type(max_n) is not int or max_n < 1:
        raise ParseError(f"n-gram max_n must be a positive integer, got {max_n!r}")
    ks = [level["k"] for level in levels]
    # The count first: max_n may be too large for a list of its ks.
    if len(ks) != max_n or not all(type(k) is int for k in ks) or sorted(ks) != list(range(1, max_n + 1)):
        raise ParseError(f"n-gram model needs one level for each k in 1..{max_n}, got k = {ks!r}")
    counts: list[dict] = [dict() for _ in range(max_n)]
    for level in sorted(levels, key=lambda level: level["k"]):
        k = level["k"]
        table, shorter = counts[k - 1], counts[k - 2] if k > 1 else None
        for ctx, v, c in level["entries"]:
            if type(ctx) is not list or len(ctx) != k - 1 or type(v) is not str or type(c) is not int or c < 1:
                raise ParseError(_bad_entry(k, ctx, v, c))
            key = tuple(ctx)
            row = table.get(key)
            if row is None:
                # the words after the first are the suffix's, checked a level down
                if k > 1 and (type(key[0]) is not str or key[1:] not in shorter):
                    raise ParseError(_bad_entry(k, ctx, v, c))
                row = table[key] = {}
            row[v] = c
    return NGramModel(counts=counts, variant_index={k: sorted(v for v, _ in vs) for k, vs in variant_index.items()})
