"""Embedding-based restoration: projection, variant enhancement, intrinsic tasks.

Pretrained vectors are consumed from word2vec text files, whose values are
parsed in one C pass (`load_vectors`); a header whose dim no float64 array
can shape is refused at line 1. Cross-lingual projection assigns each
target word the count-weighted average of its aligned source words' vectors.
Variant vectors can be enhanced toward the centroid of their exclusive
co-occurring words, counted once per occurrence over its sentence or window
(`build_cowords`). Restoration picks the candidate whose vector is most
cosine-similar to the averaged context vector: each call averages a distinct
context once, and restoring writes nothing into the model. The restorer
and the cross-validation predictor read a line's keys and the token's index
through one function, `restore_or_majority`; each builds its variants' coword
sets when it is built, so a call only scores. An embedding pipeline names its
vectors file by path and records the file's byte size, dim, word count and
sha256, which loading checks. The family's defaults are defined here once:
the restorer's context window (WINDOW), the cowords kept per variant
(TOP_N) and the analogy task's list length (LIST_LEN); the pipeline
builder and the command line read them. Each rule has one home too:
`check_settings` holds the window's and top_n's, `check_scheme` the
scheme's and `check_list_len` the list length's. The command line, the
builder, the cv fitter and the loader apply them, each to the settings it
takes.
"""

from __future__ import annotations

import hashlib
import logging
import math
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, TokenKind, open_text, replace_on_success
from .datasetgen import AmbiguousSet, majority_variant
from .errors import DataError, ModelError, ParseError
from .classify import check_window, extract_window

log = logging.getLogger(__name__)

BASIC = "basic"
TWEAK1 = "tweak1"
TWEAK2 = "tweak2"
TWEAK3 = "tweak3"
SCHEMES = (BASIC, TWEAK1, TWEAK2, TWEAK3)

WINDOW = 11
TOP_N = 50
LIST_LEN = 100


class UnrepresentableInstance(ModelError):
    """No candidate variant of the instance has a vector in the model."""


@dataclass
class EmbeddingModel:
    """Word vectors of one dimension."""

    dim: int
    vectors: dict[str, np.ndarray]


def _norm(a: np.ndarray) -> float:
    """The Euclidean norm of a 1-D vector, by np.linalg.norm's own formula for one, so with its bits."""
    return math.sqrt(a.dot(a))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    return _cosine(a, _norm(a), b, _norm(b))


def _cosine(a: np.ndarray, na: float, b: np.ndarray, nb: float) -> float:
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


# The widest float64 row numpy can shape: even a file with no rows cannot declare more.
_MAX_DIM = sys.maxsize // 8


def load_vectors(path) -> EmbeddingModel:
    """Parse word2vec text format: header 'V D', then V rows 'word f1 .. fD'.

    Rows are checked for their field count as they are read. Their values are
    parsed together in one C pass, and row by row with float() wherever that
    pass could differ: the row-by-row parse names the first bad line. Rows
    read before a read stops on an error are parsed first, so an earlier bad
    value is the error reported, as when every row was parsed as it was read.
    """
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
        if dim > _MAX_DIM:
            raise ParseError(f"dim must be at most {_MAX_DIM}, got {dim}", line=1, path=path)
        words: list[str] = []
        line_nos: list[int] = []
        rows: list[str] = []
        try:
            for line_no, raw in enumerate(fh, start=2):
                raw = raw.rstrip("\n")
                if not raw:
                    continue
                # split(" ") would give dim + 1 fields
                if raw.count(" ") != dim:
                    raise ParseError(
                        f"expected a word and {dim} values, got {raw.count(' ') + 1} fields",
                        line=line_no,
                        path=path,
                    )
                word, _, values = raw.partition(" ")
                words.append(word)
                line_nos.append(line_no)
                rows.append(values)
        except (ParseError, UnicodeDecodeError):
            _parse_rows(rows, dim, line_nos, path)
            raise
    matrix = _bulk_parse(rows, dim)
    if matrix is None:
        matrix = _parse_rows(rows, dim, line_nos, path)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite vector component", line=line_nos[int(finite.argmin())], path=path)
    vectors = dict(zip(words, matrix))
    if len(vectors) != vocab_size:
        raise ParseError(
            f"header declares {vocab_size} words but file holds {len(vectors)}",
            path=path,
        )
    return EmbeddingModel(dim=dim, vectors=vectors)


def _bulk_parse(rows: list[str], dim: int) -> np.ndarray | None:
    """The rows' values as one (rows, dim) array, or None to parse them row by row.

    numpy reads a number with the correctly rounded strtod that float() uses.
    It refuses some forms that float() takes, such as '1_0' and non-ASCII
    digits; None sends those to float(). The one form it takes and float()
    refuses is a number beside the ASCII separators \\x1c-\\x1f, which numpy
    strips as whitespace: such rows go to float() too.
    """
    if not (rows and dim):
        return None
    for values in rows:
        if "\x1c" in values or "\x1d" in values or "\x1e" in values or "\x1f" in values:
            return None
    try:
        # Without comments=None numpy would cut '1#x' down to 1.
        matrix = np.loadtxt(rows, dtype=float, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    # A row with no values at all is skipped by numpy, not refused.
    return matrix if matrix.shape == (len(rows), dim) else None


def _parse_rows(rows: list[str], dim: int, line_nos: list[int], path) -> np.ndarray:
    """The rows' values parsed one by one with float(); the first bad one is a ParseError."""
    values: list[float] = []
    for line_no, row in zip(line_nos, rows):
        try:
            values.extend([float(v) for v in row.split(" ")] if dim else ())
        except ValueError:
            raise ParseError("non-numeric vector component", line=line_no, path=path)
    # One array for the whole file: a finiteness check per row would cost
    # more than parsing it.
    return np.array(values, dtype=float).reshape(len(rows), dim)


def vectors_fingerprint(path, model: EmbeddingModel) -> dict:
    """What a pipeline records of its vectors file: byte size, dim, word count and sha256."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
        size = fh.tell()
    return {"bytes": size, "dim": model.dim, "words": len(model.vectors), "sha256": digest.hexdigest()}


def save_vectors(model: EmbeddingModel, path) -> None:
    """Write the model in word2vec text format, replacing path only on success.

    A non-finite component (an overflowed mean) is a ModelError that writes
    nothing, as in save_pipeline: load_vectors would refuse the file.
    """
    if not all(np.isfinite(vec).all() for vec in model.vectors.values()):
        raise ModelError(f"{path}: not written: the vectors hold an infinite or NaN component")
    with replace_on_success(path) as fh:
        fh.write(f"{len(model.vectors)} {model.dim}\n")
        for word in model.vectors:
            row = " ".join(repr(float(v)) for v in model.vectors[word])
            fh.write(f"{word} {row}\n")


def load_alignment(path) -> dict[str, list[tuple[str, int]]]:
    """TSV alignment dictionary: target_word <TAB> source_word <TAB> count."""
    def parse(fields):
        try:
            count = int(fields[2])
        except ValueError:
            raise ValueError("count must be an integer")
        if count <= 0:
            raise ValueError("count must be positive")
        if count > sys.float_info.max:  # a weight of coword_mean, which is a float
            raise ValueError(f"count must be at most {sys.float_info.max}")
        return fields[0], fields[1], count

    entries: dict[str, list[tuple[str, int]]] = {}
    for target, source, count in _load_tsv(path, 3, parse):
        entries.setdefault(target, []).append((source, count))
    return entries


def project(source: EmbeddingModel, align: dict[str, list[tuple[str, int]]]) -> EmbeddingModel:
    """Count-weighted average of aligned source vectors for every target word.

    Target entries whose aligned source words are all missing from the source
    model are omitted from the output.
    """
    vectors: dict[str, np.ndarray] = {}
    for word, pairs in align.items():
        usable = [(src, c) for src, c in pairs if src in source.vectors]
        if len(usable) == 1:
            # the weighted average of one vector is that vector, bit for bit
            vectors[word] = source.vectors[usable[0][0]].copy()
        elif usable:
            vectors[word] = coword_mean(source, usable)
    if not vectors:
        raise ModelError("no alignment entry resolved to a source vector")
    return EmbeddingModel(dim=source.dim, vectors=vectors)


def check_settings(window, top_n) -> None:
    """The embedding window and top_n rules; ParseError refuses the first setting that breaks its rule.

    A window is None, the whole sentence, or a classifier window
    (classify.check_window); a top_n is an integer >= 0. The command line, the
    builder, build_cowords and the loader apply both; cv_fitter, which takes no
    top_n, passes TOP_N.
    """
    if window is not None:
        check_window(window)
    if type(top_n) is not int or top_n < 0:
        raise ParseError(f"embedding top_n must be a non-negative integer, got {top_n!r}")


def check_scheme(scheme) -> None:
    """The scheme rule, one of SCHEMES; ParseError refuses the rest."""
    if scheme not in SCHEMES:
        raise ParseError(f"unknown embedding scheme: {scheme!r}")


def build_cowords(
    corpus: Corpus,
    sets,
    top_n: int = TOP_N,
    window: int | None = None,
    lowercase: bool = True,
) -> dict[str, list[tuple[str, int]]]:
    """Top-n co-occurring words per variant, minus any word shared with a sibling.

    Co-occurrences are counted over word tokens in the marked corpus, within
    the whole sentence by default or a symmetric window of the given width.
    """
    check_settings(window, top_n)
    siblings = {v: [o for o, _ in aset.variants if o != v] for aset in sets for v, _ in aset.variants}
    counters: dict[str, Counter[str]] = {v: Counter() for aset in sets for v, _ in aset.variants}
    word_kind = TokenKind.WORD
    for line in corpus.lines:
        # A window past either end of the line is the whole sentence.
        half = window // 2 if window else len(line)
        positions, words = [], []
        for pos, t in enumerate(line):
            if t.kind is word_kind:
                positions.append(pos)
                words.append(t.surface.lower() if lowercase else t.surface)
        for pos, word in zip(positions, words):
            counter = counters.get(word)
            if counter is not None:
                # Every word of the span but the occurrence itself.
                counter.update(words[bisect_left(positions, pos - half) : bisect_right(positions, pos + half)])
                counter[word] -= 1

    top: dict[str, list[tuple[str, int]]] = {}
    for variant, counter in counters.items():
        # A variant alone on its line leaves itself a count of 0.
        ranked = sorted(((w, c) for w, c in counter.items() if c), key=lambda kv: (-kv[1], kv[0]))[:top_n]
        top[variant] = ranked

    pruned: dict[str, list[tuple[str, int]]] = {}
    for variant, ranked in top.items():
        shared = set()
        for sibling in siblings.get(variant, ()):
            shared.update(w for w, _ in top.get(sibling, ()))
        pruned[variant] = [(w, c) for w, c in ranked if w not in shared]
    return pruned


@np.errstate(over="ignore", invalid="ignore")
def coword_mean(model: EmbeddingModel, cowords):
    """Count-weighted average of the coword vectors present in the model.

    A component past the float range is infinite or NaN, which save_vectors
    refuses, with no numpy warning; counts that sum past it are a ModelError,
    for the mean would read 0.0.
    """
    acc = np.zeros(model.dim)
    total = 0.0
    for word, count in cowords:
        vec = model.vectors.get(word)
        if vec is None:
            continue
        acc += vec * count
        total += count
    if total == 0.0:
        return None
    if total == math.inf:
        raise ModelError("the counts weighting a vector mean sum past the largest float")
    return acc / total


def enhance(
    model: EmbeddingModel,
    cowords: dict[str, list[tuple[str, int]]],
    scheme: str = BASIC,
) -> EmbeddingModel:
    """Move variant vectors toward (or onto) their exclusive-coword centroid.

    basic copies the model unchanged; tweak1 and tweak2 replace each variant
    vector with the midpoint of itself and the coword mean; tweak3 replaces it
    with the coword mean outright. Every non-variant vector is untouched. The
    variants skipped, for want of a vector or of a coword with one, are
    logged as one warning per call: a pipeline enhances on every load.
    """
    check_scheme(scheme)
    vectors = dict(model.vectors)
    if scheme == BASIC:
        return EmbeddingModel(dim=model.dim, vectors=vectors)
    skipped = {"not in model": [], "with no coword vector": []}
    for variant in cowords:
        old = vectors.get(variant)
        if old is None:
            skipped["not in model"].append(variant)
            continue
        mean = coword_mean(model, cowords[variant])
        if mean is None:
            skipped["with no coword vector"].append(variant)
            continue
        if scheme == TWEAK3:
            vectors[variant] = mean
        else:
            vectors[variant] = 0.5 * old + 0.5 * mean
    reasons = [
        f"{len(names)} {reason} ({', '.join(map(repr, names[:3]))}{', ...' if len(names) > 3 else ''})"
        for reason, names in skipped.items()
        if names
    ]
    if reasons:
        log.warning("enhance: skipped variants: %s", "; ".join(reasons))
    return EmbeddingModel(dim=model.dim, vectors=vectors)


def coword_sets(scheme: str, cowords, variants) -> dict[str, frozenset[str]] | None:
    """Each variant's allowed context words under tweak2/tweak3, built once per restorer; else None."""
    if scheme not in (TWEAK2, TWEAK3):
        return None
    if cowords is None:
        raise ModelError(f"scheme {scheme} needs a coword table")
    return {v: frozenset([w for w, _ in cowords.get(v, ())]) for v in variants}


def restore_instance(
    model: EmbeddingModel,
    keys,
    candidates,
    i: int,
    window: int | None,
    allowed: dict[str, frozenset[str]] | None = None,
) -> str:
    """Pick the candidate of keys[i] most cosine-similar to its averaged context vector.

    keys is the line's key tuple and candidates a nonempty list of (variant,
    unigram count). When some candidate has a vector, the context is taken:
    the window around i, or every other key when window is None.
    Out-of-vocabulary context words are dropped; with `allowed`
    (tweak2/tweak3) each candidate sees only the context words in its own
    coword set. A candidate without a usable context vector scores its
    unigram prior; an entirely empty context falls back to the most frequent
    candidate.
    """
    if not any(v in model.vectors for v, _ in candidates):
        raise UnrepresentableInstance(f"no candidate of {keys[i]!r} has a vector")
    context = keys[:i] + keys[i + 1 :] if window is None else extract_window(keys, i, window)
    context = tuple([w for w in context if w in model.vectors])
    if not context:
        return majority_variant(candidates)
    total = sum(c for _, c in candidates)

    # Each distinct context's mean and norm, or None for an all-zero mean.
    means: dict[tuple[str, ...], tuple[np.ndarray, float] | None] = {}
    scores = {}
    for v, c in candidates:
        vec = model.vectors.get(v)
        ctx = context if allowed is None else tuple([w for w in context if w in allowed[v]])
        if vec is not None and ctx and ctx not in means:
            vec_c = np.mean([model.vectors[w] for w in ctx], axis=0)
            means[ctx] = (vec_c, _norm(vec_c)) if np.any(vec_c) else None
        if vec is None or not ctx or means[ctx] is None:
            scores[v] = c / total if total else 0.0
            reason = "no vector" if vec is None else "zero context vector" if ctx else "empty restricted context"
            log.debug("candidate %r scored by unigram prior (%s)", v, reason)
        else:
            vec_c, norm_c = means[ctx]
            scores[v] = _cosine(vec_c, norm_c, vec, _norm(vec))
    best = max(scores.values())
    return min(v for v, s in scores.items() if s == best)


def restore_or_majority(model: EmbeddingModel, keys, candidates, i: int, window, allowed) -> str:
    """keys[i] restored by restore_instance, or the majority candidate when no candidate has a vector."""
    try:
        return restore_instance(model, keys, candidates, i, window, allowed)
    except UnrepresentableInstance:
        log.debug("unrepresentable instance for %r, unigram fallback", keys[i])
        return majority_variant(candidates)


@dataclass
class EmbeddingRestorer:
    """The embedding family's restorer, which builds its coword sets once; its payload names the vectors file."""

    model: EmbeddingModel
    variant_index: dict[str, list[tuple[str, int]]]
    scheme: str = BASIC
    window: int | None = WINDOW
    cowords: dict[str, list[tuple[str, int]]] | None = None
    vectors_path: str | None = None
    top_n: int = TOP_N
    vectors_fingerprint: dict | None = None
    allowed: dict[str, frozenset[str]] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        variants = [v for pairs in self.variant_index.values() for v, _ in pairs]
        self.allowed = coword_sets(self.scheme, self.cowords, variants)

    def predict_instance(self, keys, i: int, restored: list[str]) -> str:
        candidates = self.variant_index[keys[i]]
        return restore_or_majority(self.model, keys, candidates, i, self.window, self.allowed)

    def to_payload(self) -> dict:
        return {
            "vectors_path": self.vectors_path,
            "vectors_fingerprint": self.vectors_fingerprint,
            "scheme": self.scheme,
            "window": self.window,
            "top_n": self.top_n,
            "cowords": {
                v: [list(p) for p in pairs] for v, pairs in sorted((self.cowords or {}).items())
            },
        }

    @classmethod
    def from_payload(cls, spec: dict, variant_index) -> "EmbeddingRestorer":
        vectors_path = spec.get("vectors_path")
        if not vectors_path:
            raise ParseError("embedding pipeline lacks a vectors_path")
        if not isinstance(vectors_path, str):
            raise ParseError("embedding vectors_path must be a string")
        scheme, window, top_n = spec["scheme"], spec["window"], spec.get("top_n", TOP_N)
        check_scheme(scheme)
        check_settings(window, top_n)
        cowords = {v: [(w, c) for w, c in pairs] for v, pairs in spec["cowords"].items()} or None
        entries = [entry for pairs in (cowords or {}).values() for entry in pairs]
        if not all(isinstance(w, str) and type(c) is int and c >= 0 for w, c in entries):
            raise ParseError("embedding cowords must be [word, non-negative integer count] pairs")
        if scheme in (TWEAK2, TWEAK3) and cowords is None:
            raise ParseError(f"scheme {scheme} needs a coword table")
        # Pipelines written before the fingerprint have none (or null), and load unchecked.
        recorded = spec.get("vectors_fingerprint")
        if recorded is not None and not (
            type(recorded) is dict
            and sorted(recorded) == ["bytes", "dim", "sha256", "words"]
            and all(type(recorded[key]) is int for key in ("bytes", "dim", "words"))
            and type(recorded["sha256"]) is str
        ):
            raise ParseError(
                "embedding vectors_fingerprint must hold integer bytes, dim and words and a sha256 string"
            )
        model = load_vectors(vectors_path)
        if recorded is not None:
            found = vectors_fingerprint(vectors_path, model)
            for key in ("dim", "words", "bytes", "sha256"):
                if found[key] != recorded[key]:
                    raise ParseError(
                        f"not the vectors file the pipeline was trained with: {key} {found[key]}, "
                        f"trained with {recorded[key]}",
                        path=vectors_path,
                    )
        if scheme != BASIC and cowords:
            model = enhance(model, cowords, scheme=scheme)
        return cls(
            model=model, variant_index=variant_index, scheme=scheme, window=window,
            cowords=cowords, vectors_path=vectors_path, top_n=top_n, vectors_fingerprint=recorded,
        )


def cv_fitter(
    model: EmbeddingModel,
    aset: AmbiguousSet,
    scheme: str = BASIC,
    window: int | None = WINDOW,
    cowords: dict[str, list[tuple[str, int]]] | None = None,
):
    """Static predictor for crossval; only the prior counts come from the folds. A bad scheme or window is refused here."""
    check_scheme(scheme)
    check_settings(window, TOP_N)
    allowed = coword_sets(scheme, cowords, [v for v, _ in aset.variants])

    def fit(train_instances):
        counts = Counter(inst.label for inst in train_instances)
        candidates = [(v, counts.get(v, 0)) for v, _ in aset.variants]
        return lambda inst: restore_or_majority(model, inst.tokens, candidates, inst.target, window, allowed)

    return fit


def odd_word(model: EmbeddingModel, words):
    """The word least cosine-similar on average to the other three.

    Exactly one out-of-vocabulary word is the odd one by fiat; more than one
    makes the question unanswerable and returns None.
    """
    words = list(words)
    if len(words) != 4:
        raise DataError(f"odd_word expects 4 words, got {len(words)}")
    missing = [w for w in words if w not in model.vectors]
    if len(missing) == 1:
        return missing[0]
    if missing:
        return None
    means = {}
    for w in words:
        others = [o for o in words if o != w]
        means[w] = sum(cosine(model.vectors[w], model.vectors[o]) for o in others) / 3.0
    worst = min(means.values())
    return min(w for w, m in means.items() if m == worst)


def check_list_len(list_len) -> None:
    """The analogy list length rule, an integer >= 1; DataError refuses the rest."""
    if type(list_len) is not int or list_len < 1:
        raise DataError(f"analogy list length must be an integer >= 1, got {list_len!r}")


def analogy_mrr(model: EmbeddingModel, quads, list_len: int = LIST_LEN):
    """Mean reciprocal rank of d among neighbors of b - a + c, or 0 past list_len (check_list_len)."""
    check_list_len(list_len)
    if not model.vectors:
        raise DataError("no word vectors to rank")
    vocab = sorted(model.vectors)
    index = {w: j for j, w in enumerate(vocab)}
    matrix = np.stack([model.vectors[w] for w in vocab])
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0] = 1.0

    scores = []
    for a, b, c, d in quads:
        if any(w not in model.vectors for w in (a, b, c)):
            continue
        target = model.vectors[b] - model.vectors[a] + model.vectors[c]
        tnorm = _norm(target)
        if d not in model.vectors or d in (a, b, c) or tnorm == 0.0:
            scores.append(0.0)
            continue
        sims = matrix @ target / (norms * tnorm)
        # d's place in the vocabulary ranked by similarity, ties by vocabulary order,
        # with a, b and c left out: the words above it, counted.
        j = index[d]
        ahead = sims > sims[j]
        ahead[:j] |= sims[:j] == sims[j]
        ahead[[index[a], index[b], index[c]]] = False
        rank = int(np.count_nonzero(ahead)) + 1
        scores.append(1.0 / rank if rank <= list_len else 0.0)
    if not scores:
        raise DataError("no scoreable analogy quads")
    return sum(scores) / len(scores)


def wordsim_pearson(model: EmbeddingModel, pairs):
    """Pearson r between cosine and human scores over in-vocabulary pairs.

    Returns (r, usable_pair_count).
    """
    xs, ys = [], []
    for w1, w2, human in pairs:
        if w1 in model.vectors and w2 in model.vectors:
            xs.append(float(human))
            ys.append(cosine(model.vectors[w1], model.vectors[w2]))
    if len(xs) < 2:
        raise DataError(f"only {len(xs)} usable pairs; need at least 2")
    x = np.array(xs)
    y = np.array(ys)
    with np.errstate(all="ignore"):  # scores past the float range give a non-finite r, refused below
        xd = x - x.mean()
        yd = y - y.mean()
        denom = math.sqrt(float(np.dot(xd, xd)) * float(np.dot(yd, yd)))
        if denom == 0.0:
            raise DataError("zero variance in similarity scores")
        r = float(np.dot(xd, yd) / denom)
    if not (math.isfinite(denom) and math.isfinite(r)):
        raise DataError("similarity scores too large for a Pearson r in floats")
    return r, len(xs)


def load_oddword_tsv(path):
    return _load_tsv(path, 5, lambda f: (f[:4], f[4]))


def load_analogy_tsv(path):
    return _load_tsv(path, 4, tuple)


def load_wordsim_tsv(path):
    def parse(fields):
        try:
            score = float(fields[2])
        except ValueError:
            raise ValueError("score must be numeric")
        if not math.isfinite(score):
            raise ValueError("score must be finite")
        return fields[0], fields[1], score

    return _load_tsv(path, 3, parse)


def _load_tsv(path, n_fields, build):
    rows = []
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            fields = raw.split("\t")
            if len(fields) != n_fields:
                raise ParseError(
                    f"expected {n_fields} tab-separated fields, got {len(fields)}",
                    line=line_no,
                    path=path,
                )
            try:
                rows.append(build(fields))
            except ValueError as exc:
                raise ParseError(str(exc), line=line_no, path=path)
    return rows
