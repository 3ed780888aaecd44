"""Sticky-window features, tf-idf vectorization, and per-wordkey linear classifiers.

The window centers the target when it can and clamps at sentence boundaries;
only word tokens inside it (minus the target) become features. Classifier
kinds: perceptron, logistic regression via SGD, linear SVM via SGD hinge, and
multinomial naive Bayes. Multi-class is one-vs-rest: the SGD kinds train every
class in one seeded pass over the examples, and training is deterministic for a
fixed seed. A set's epoch orders are the successive in-place shuffles of its
example indices by one random.Random(seed), so they depend only on the seed and
the set's size: a training call draws them once per distinct size, into one
int32 table (_epoch_orders) that the lockstep head and the serial loop both
read, and every set of that size walks the same rows.

One training path serves `train clf` and `eval cv`: `fit_instances` hands
_train_folds every wordkey's instances, and `cv_fitter` the folds of a group of
sets (cv_groups), all of which crossval fits before it scores any. _train_folds
lays out the term_counts of the call's distinct windows once (_term_table),
builds each fold from its rows with the bits of Vectorizer.fit on its windows
and transform on each (_fold_set), and trains them all in one call. A training
set (_TrainingSet) holds its rows as padded numpy arrays, which the lockstep
head, the serial loop and the naive Bayes fit read directly. The logistic and
linear-SVM models of such a call advance together in a numpy lockstep head,
one step of every live (model, class) pair at a time, while at least
_HEAD_FLOOR pairs are live; each model then finishes on the serial loop from
the step the head reached. The weights are the serial loop's, bit for bit:
every elementwise float64 operation rounds as a Python float does, margins add
left to right, and the logistic residual keeps math.exp (see _lockstep_head).
A call with one model never enters the head, so `train_classifier` trains
serially. So does the perceptron, which updates only on mistakes and stops
classes early, and naive Bayes, which does not iterate.

A trained or loaded classifier holds its numbers once, as plain Python floats:
the vectorizer's idf list, and the model's rows and offsets (the weight rows and
biases, or naive Bayes's log-probability rows and log priors). Scoring reads
them with no numpy scalar boxed; numpy works only inside the training-set
builder, the naive Bayes fit, the lockstep head and the load check, each
handing its result over once with tolist(). Every kind scores in one loop:
each class sums left to right from its start, 0.0 or naive Bayes's prior, in
the order the numpy-scalar formula took, then adds its end, the bias or 0.0
(LinearModel.starts and ends), so scores keep their bits. No scoring or
training loop calls sum(): from Python 3.12 it rounds a sum of floats in
another way. Nor does the builder or SGD call a numpy reduction (sum, dot, @,
einsum, norm, add.reduce), which adds in pairwise or BLAS order.

Restoring a token is one walk over its window's keys (TextClassifier.predict_at),
with the plain definition's values and float operations in the same order. It
reads the classifier's vocabulary first and asks the word test only of a hit,
which keeps the terms, and their first-seen order, that extract_window and
transform keep; it weighs their counts with _unit_tfidf in the dict it filled,
and keeps the leader while it sums each class's score, sending a tie or a NaN
score to _argmax over the full scores. CV scores each held-out instance with
the same step (cv_fitter), so it checks the code that restores.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import sys
from dataclasses import dataclass, field

import numpy as np

from .corpus import TokenKind, token_kind
from .datasetgen import Instance, majority_variant
from .errors import DataError, ModelError, ParseError

PERCEPTRON = "perceptron"
LOGISTIC = "logistic"
LINEAR_SVM = "linear_svm"
MULTINOMIAL_NB = "multinomial_nb"

KINDS = (PERCEPTRON, LOGISTIC, LINEAR_SVM, MULTINOMIAL_NB)

_WORD = TokenKind.WORD

_SCALE_FLOOR = 1e-9


@dataclass
class Hyper:
    learning_rate: float | None = None  # resolved per kind when None
    epochs: int = 20
    l2: float = 1e-4
    alpha: float = 1.0  # Laplace smoothing for naive Bayes
    seed: int = 0

    def rate_for(self, kind: str) -> float:
        if self.learning_rate is not None:
            return self.learning_rate
        return 0.1 if kind == PERCEPTRON else 0.01


def odd_window(n) -> bool:
    """The window rule: an odd integer of at least 3 (a bool is not one)."""
    return type(n) is int and n >= 3 and n % 2 == 1


def check_window(n) -> None:
    """Refuse, with DataError, a window size that breaks the window rule (odd_window)."""
    if not odd_window(n):
        raise DataError(f"window size must be an odd integer >= 3, got {n}")


def _sticky(tokens, i: int, n: int):
    """The width-n sticky window around i, less tokens[i]: min(n, len) contiguous
    tokens, centered on i when possible and pushed inward at sentence boundaries."""
    size = min(n, len(tokens))
    start = min(max(i - n // 2, 0), len(tokens) - size)
    return tokens[start:i] + tokens[i + 1 : start + size]


def extract_window(tokens, target_index: int, n: int = 9) -> list[str]:
    """Context words from the width-n sticky window around the target (_sticky).

    Punctuation, digit and symbol tokens are excluded.
    """
    check_window(n)
    if not (0 <= target_index < len(tokens)):
        raise DataError(f"target index {target_index} out of range")
    # A string of letters is a word: isalpha() settles most tokens at once.
    return [t for t in _sticky(tokens, target_index, n) if t.isalpha() or token_kind(t) is _WORD]


@dataclass
class Vectorizer:
    vocabulary: dict[str, int]
    idf: list[float]

    @classmethod
    def fit(cls, windows) -> "Vectorizer":
        """Build the vocabulary and smoothed idf from training windows only.

        Training builds its vectorizers with _fold_set, which gives these bits.
        """
        windows = list(windows)
        if not windows:
            raise DataError("cannot fit a vectorizer on zero windows")
        df: dict[str, int] = {}
        for window in windows:
            for term in set(window):
                df[term] = df.get(term, 0) + 1
        terms = sorted(df)
        n_docs = len(windows)
        idf = [math.log((1 + n_docs) / (1 + df[term])) + 1.0 for term in terms]
        return cls(vocabulary={term: i for i, term in enumerate(terms)}, idf=idf)

    def transform(self, window) -> dict[int, float]:
        """tf-idf the window into a unit-length sparse vector; unknown terms drop.

        One dict is filled in place: term counts in first-seen order, then
        _unit_tfidf.
        """
        vec: dict[int, float] = {}
        vocabulary = self.vocabulary
        for term in window:
            idx = vocabulary.get(term)
            if idx is not None:
                vec[idx] = vec.get(idx, 0) + 1
        return _unit_tfidf(vec, self.idf)


def term_counts(window) -> dict[str, int]:
    """Each term of the window and its count, in first-seen order."""
    counts: dict[str, int] = {}
    for term in window:
        counts[term] = counts.get(term, 0) + 1
    return counts


def _unit_tfidf(vec: dict[int, int], idf: list[float]) -> dict[int, float]:
    """Weigh term counts in place: count * idf, then unit length (a zero vector stays zero).

    The norm is summed left to right from 0.0 in the dict's order, the terms'
    first-seen order in their window.
    """
    total = 0.0
    for idx, count in vec.items():  # replacing a value keeps the keys and their order
        vec[idx] = v = count * idf[idx]
        total += v * v
    norm = math.sqrt(total)
    if norm > 0:
        for idx, v in vec.items():
            vec[idx] = v / norm
    return vec


@dataclass
class _TrainingSet:
    """One model's checked training rows, as padded arrays.

    Row r of slots and values holds example r's feature indices and weights in
    its terms' first-seen order, padded to the widest row with the spare index
    n_features and 0.0; lengths counts each row's features, and truth gives
    each example's class as an index into classes.
    """

    classes: list[str]
    truth: np.ndarray
    slots: np.ndarray
    values: np.ndarray
    lengths: np.ndarray
    n_features: int


def _padded(rows: list[dict], pad: int, index: dict | None = None):
    """Dicts as padded arrays (keys, values, lengths).

    Row r holds dict r's keys (mapped through index, if given) and values in
    order, then pad and 0.0 up to the longest dict's length.
    """
    sizes = list(map(len, rows))
    lengths = np.array(sizes, np.intp)
    filled = np.arange(max(sizes, default=0) or 1) < lengths[:, None]  # row by row, as the flat keys run
    keys = np.empty(filled.shape, np.intp)
    keys.fill(pad)
    values = np.zeros(filled.shape)
    flat = itertools.chain.from_iterable(rows)
    keys[filled] = np.fromiter(flat if index is None else map(index.__getitem__, flat), np.intp)
    values[filled] = np.fromiter(itertools.chain.from_iterable(map(dict.values, rows)), float)
    return keys, values, lengths


def _truth(labels: list[str], classes: list[str]) -> np.ndarray:
    """Each label's index in classes."""
    return np.fromiter(map({cls: c for c, cls in enumerate(classes)}.__getitem__, labels), np.intp, len(labels))


def _term_table(counts: list[dict[str, int]]):
    """Windows' term_counts laid out once, for every fold that trains on them: (terms, ids, tallies, lengths).

    terms is their sorted union, as an object array. Row r of ids and tallies
    holds window r's term ids and counts in first-seen order, padded to the
    widest window with the id len(terms) and the count 0.0.
    """
    terms = sorted(set().union(*counts))
    ids, tallies, lengths = _padded(counts, len(terms), dict(zip(terms, range(len(terms)))))
    return np.array(terms, dtype=object), ids, tallies, lengths


def _fold_set(table, rows: np.ndarray, labels: list[str], classes: list[str]):
    """The vectorizer and training set of a term table's windows at rows, labelled labels.

    They hold the bits of Vectorizer.fit on those windows and of transform on
    each. The fold's df counts its rows that hold each term, its vocabulary
    is the terms with df > 0 in their sorted order, and a term's feature index
    is its rank among them. idf calls math.log once per distinct df, since
    np.log may round otherwise. Each weight is count * idf, the padding's
    0.0 * 0.0 at the spare index n_features. A row's squares are added left to
    right in first-seen order by np.add.accumulate, as _unit_tfidf adds them
    from 0.0 (the padding adds +0.0); np.sqrt rounds as math.sqrt does, and a
    row with a zero norm stays zero. No numpy reduction is called: sum and
    norm add pairwise.
    """
    terms, ids, tallies, lengths = table
    ids = ids.take(rows, axis=0)
    n = len(rows)
    df = np.bincount(ids.ravel(), minlength=len(terms) + 1)
    df[-1] = 0  # the padding: no term, with idf_of[0] = 0.0
    present = df.nonzero()[0]
    distinct = np.bincount(df[present]).nonzero()[0]
    idf_of = np.zeros(n + 1)
    idf_of[distinct] = [math.log((1 + n) / (1 + d)) + 1.0 for d in distinct.tolist()]
    idf = idf_of.take(df)
    values = tallies.take(rows, axis=0) * idf.take(ids)
    norm = np.sqrt(np.add.accumulate(values * values, axis=1)[:, -1:])
    np.divide(values, norm, out=values, where=norm > 0)
    slot = np.empty(len(df), np.intp)
    slot[-1] = len(present)
    slot[present] = np.arange(len(present))
    vectorizer = Vectorizer(dict(zip(terms[present].tolist(), range(len(present)))), idf[present].tolist())
    training = _TrainingSet(classes, _truth(labels, classes), slot.take(ids), values, lengths.take(rows), len(present))
    return vectorizer, training


@dataclass
class LinearModel:
    kind: str
    classes: list[str]
    class_counts: list[int]
    n_features: int
    hyper: Hyper
    # The weight rows (n_classes x n_features) and biases, or for naive Bayes
    # the feature log-probability rows and class log priors.
    rows: list[list[float]]
    offsets: list[float]
    train_errors: dict[str, list[float]] | None = None  # perceptron epoch errors
    # Derived once, here: a class scores its start plus row[i] * v over the
    # terms, left to right, plus its end. A linear kind starts from 0.0 and
    # ends with the bias; naive Bayes starts from the log prior and ends with
    # 0.0, which changes only the sign of a -0.0 score.
    starts: list[float] = field(init=False, repr=False, compare=False)
    ends: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        zeros = [0.0] * len(self.offsets)
        self.starts, self.ends = (self.offsets, zeros) if self.kind == MULTINOMIAL_NB else (zeros, self.offsets)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _dot(w: np.ndarray, x: dict[int, float]) -> float:
    return sum(w[i] * v for i, v in x.items())


def logistic_example_loss(w, b, x, y, l2) -> float:
    """Per-example regularized logistic loss (y in {0, 1}, x sparse)."""
    z = _dot(w, x) + b
    # log(1 + exp(-z)) for y=1, log(1 + exp(z)) for y=0, stably
    margin = z if y == 1 else -z
    loss = math.log1p(math.exp(-abs(margin))) + max(-margin, 0.0)
    return loss + 0.5 * l2 * float(np.dot(w, w))


def _logistic_residual(z: float, t: int) -> float:
    """d loss / d z of the logistic loss at margin z, for a target t in {0, 1}."""
    return _sigmoid(z) - t


def logistic_example_grad(w, b, x, y, l2):
    """Analytic gradient of logistic_example_loss: returns (grad_w, grad_b)."""
    err = _logistic_residual(_dot(w, x) + b, y)
    gw = l2 * np.asarray(w, dtype=float).copy()
    for i, v in x.items():
        gw[i] += err * v
    return gw, err


def train_classifier(kind: str, X, y, n_features: int, hyper: Hyper | None = None) -> LinearModel:
    """Train one model on sparse vectors X ({index: weight} dicts) with string labels y."""
    return _train_models(kind, [_dict_set(kind, X, y, n_features)], hyper)[0]


def _dict_set(kind: str, X, y, n_features: int) -> _TrainingSet:
    """The checked training set of sparse vectors X with labels y, laid out as _fold_set lays out a fold."""
    classes = _classes(kind, X, y)
    slots, values, lengths = _padded(X, n_features)
    return _TrainingSet(classes, _truth(y, classes), slots, values, lengths, n_features)


def _classes(kind: str, X, y) -> list[str]:
    """The sorted classes of one training set, once the set is known to be trainable."""
    if kind not in KINDS:
        raise ModelError(f"unknown classifier kind: {kind!r}")
    if len(X) != len(y) or not X:
        raise DataError("X and y must be nonempty and the same length")
    classes = sorted(set(y))
    if len(classes) < 2:
        raise ModelError(f"training data has a single class: {classes[0]!r}")
    return classes


def _instance_classes(kind: str, instances: list[Instance]) -> list[str]:
    """_classes of a group of instances and their labels; no instances is a DataError."""
    if not instances:
        raise DataError("no instances to train on")
    return _classes(kind, instances, [i.label for i in instances])


def _train_models(kind: str, sets: list[_TrainingSet], hyper: Hyper | None) -> list[LinearModel]:
    """One model per training set; the SGD kinds share one call."""
    hyper = hyper or Hyper()
    counts = [np.bincount(training.truth, minlength=len(training.classes)).tolist() for training in sets]
    if kind == MULTINOMIAL_NB:
        fitted = [_fit_nb(training, class_counts, hyper) for training, class_counts in zip(sets, counts)]
    else:
        fitted = _fit_sgd(kind, sets, hyper)
    return [
        LinearModel(
            kind=kind,
            classes=training.classes,
            class_counts=class_counts,
            n_features=training.n_features,
            hyper=hyper,
            **fields,
        )
        for training, class_counts, fields in zip(sets, counts, fitted)
    ]


def _fit_nb(training: _TrainingSet, class_counts: list[int], hyper: Hyper) -> dict:
    """The fitted fields of a naive Bayes model: feature log-probability rows, class log priors.

    np.add.at adds every weight into its class's totals unbuffered, row by row
    and in first-seen order within a row, as a loop over the rows would; the
    padding adds 0.0 to a spare column, which is dropped.
    """
    totals = np.zeros((len(training.classes), training.n_features + 1))
    np.add.at(totals, (training.truth[:, None], training.slots), training.values)
    smoothed = totals[:, :-1] + hyper.alpha
    return {
        "rows": (np.log(smoothed) - np.log(smoothed.sum(axis=1, keepdims=True))).tolist(),
        "offsets": np.log(np.array(class_counts, dtype=float) / len(training.truth)).tolist(),
    }


# The lockstep head runs while at least this many (fit, class) pairs are live.
# A numpy step costs about what 20 pairs of the serial loop cost. Measured with
# logistic fits on a 12k-token bench dataset (Python 3.11, numpy 2.4, 2-vCPU
# host), head against serial loop: the 10 CV folds of one set broke even at 20
# pairs (50 ms against 52 ms) and won at 30 (82 ms against 114 ms); two fits
# of 6 and 4 instances took 4.4 ms against 1.3 ms; one fit of 83 instances x 3
# classes took 56 ms against 12 ms. On the whole dataset, floors of 16 to 32
# timed alike and 48 or more slower; 32 keeps clear of the break-even. The ten
# two-class folds of one CV set make 20 pairs, so CV gains only where a call
# holds the folds of several sets (see _CV_BATCH_ROWS).
_HEAD_FLOOR = 32

# `eval cv` hands each group of sets (cv_groups) to one crossval call, whose
# folds cv_fitter trains in one call; a group takes sets until it holds this
# many training rows (fold training instances, summed over the folds) or more.
# A group that stopped at or below a cap would leave a set of more than half
# the cap to train alone, its ten two-class folds 20 pairs, below _HEAD_FLOOR.
# Measured with `eval cv --restorer clf:logistic -k 10` on a 200k-token bench
# corpus of 126 sets (Python 3.11, numpy 2.4, 2-vCPU shared host; cold runs,
# interleaved, every report the same bytes), with folds held as padded arrays:
# 15k rows took 14.6-16.8 s at 115-116 MB peak RSS, 30k rows 10.6-16.1 s at
# 129 MB, faster than 15k in each of the 6 rounds that ran both, and 60k rows
# 9.2-13.1 s at 161 MB. Folds held as dicts had peaked at 126 MB with 15k rows.
# Those peaks predate the dataset read that shares one token tuple per line;
# since it, an in-process run of the same CV peaks at 87.7 MB with 30k rows.
_CV_BATCH_ROWS = 30_000


def cv_groups(sets: list, k: int):
    """The sets, in order, in groups of _CV_BATCH_ROWS training rows or more (the last may hold fewer).

    A set counts (k - 1) x its instances, its k folds' training rows, or more
    if it is too small to fold. Grouping changes no bit of any result.
    """
    group, rows = [], 0
    for aset in sets:
        group.append(aset)
        rows += (k - 1) * len(aset.instances)
        if rows >= _CV_BATCH_ROWS:
            yield group
            group, rows = [], 0
    if group:
        yield group


def _fit_sgd(kind: str, sets: list[_TrainingSet], hyper: Hyper) -> list[dict]:
    """One-vs-rest SGD for each training set: the fitted fields of each.

    Within a set every class trains in the same seeded pass over the examples.
    All classes see one shuffle order per epoch and share the lazy L2 scale
    (true weights = scale * stored weights; the perceptron keeps scale 1.0), so
    each example updates every class still in training by one rule, from a step
    g that each kind picks. A perceptron class stops after its first error-free
    epoch.

    Each logistic or linear-SVM step scales the weights by 1 - rate * l2, so
    that product must be below 1. Those sets first advance together in
    `_lockstep_head`, while enough (set, class) pairs are live; a set the head
    did not finish goes on in `_serial_sgd` from the step it reached, with the
    weights and biases it handed over. Both give the same bits. A single set,
    and every perceptron, takes the serial loop alone. The epoch orders are
    drawn once per call, before any training (_epoch_orders). Returns, per
    set, its weight rows, biases (offsets) and, for the perceptron,
    train_errors.
    """
    rate = hyper.rate_for(kind)
    if kind != PERCEPTRON and not rate * hyper.l2 < 1:
        raise ModelError(f"{kind} learning rate {rate!r} times l2 {hyper.l2!r} must be below 1")
    table, order_start = _epoch_orders([len(training.truth) for training in sets], hyper)
    step, scale, from_head = 0, 1.0, [None] * len(sets)
    if kind != PERCEPTRON and len(sets) > 1 and len([c for training in sets for c in training.classes]) >= _HEAD_FLOOR:
        step, scale, from_head = _lockstep_head(kind, sets, hyper, table, order_start)
    return [
        fields if isinstance(fields, dict) else _serial_sgd(kind, training, hyper, step, scale, table, start, fields)
        for training, start, fields in zip(sets, order_start.tolist(), from_head)
    ]


def _epoch_orders(sizes: list[int], hyper: Hyper):
    """Every epoch order of a call's sets in one int32 table, and where each set's orders start in it.

    A set's orders are hyper.epochs in-place shuffles of list(range(n)) by one
    random.Random(hyper.seed), so they depend only on its size n: each distinct
    size is drawn once, as hyper.epochs rows of n laid end to end. The table is
    allocated before any shuffle, so an epoch count whose table numpy cannot
    allocate raises ModelError before anything trains.
    """
    first: dict[int, int] = {}
    length = 0
    for n in sizes:
        if n not in first:
            first[n] = length
            length += hyper.epochs * n
    try:
        table = np.empty(length, dtype=np.int32)
    except (MemoryError, ValueError):
        raise ModelError(f"{hyper.epochs} epochs are too many: their example orders do not fit in memory") from None
    for n, start in first.items():
        rng, order = random.Random(hyper.seed), list(range(n))
        # shuffle returns None, so each epoch yields the one list, shuffled again in place
        orders = itertools.chain.from_iterable(rng.shuffle(order) or order for _ in range(hyper.epochs))
        table[start : start + hyper.epochs * n] = np.fromiter(orders, np.int32, hyper.epochs * n)
    return table, np.array([first[n] for n in sizes])


def _serial_sgd(kind: str, examples: _TrainingSet, hyper: Hyper, step: int, scale: float, table, order_start: int,
                handed: tuple | None = None) -> dict:
    """One set's SGD pass from its `step`-th example on, at L2 scale `scale`, from the weights and biases handed.

    Unhanded, they start at 0.0. The set's epoch orders are the rows of the
    _epoch_orders table from order_start on. Weights stay plain floats and each
    margin is summed left to right from 0.0, never with sum(), whose rounding
    differs between Pythons.
    """
    rate = hyper.rate_for(kind)
    decay = 1.0 if kind == PERCEPTRON else 1.0 - rate * hyper.l2
    # Made here, just before the pass, so that only the sets in the serial loop
    # hold rows as tuples, and each set's rows are still in cache when it runs.
    slots, values, lengths = examples.slots.tolist(), examples.values.tolist(), examples.lengths.tolist()
    rows = [tuple(zip(s[:k], v[:k])) for s, v, k in zip(slots, values, lengths)]
    truth = examples.truth.tolist()
    n = len(rows)
    classes = range(len(examples.classes))
    weights, bias = handed or ([[0.0] * examples.n_features for _ in classes], [0.0] * len(classes))
    errors = [[] for _ in classes]
    training = list(classes)
    # The orders from the step's epoch on (with no head, step is 0), made lists
    # in one call: walked as numpy rows, the smallest fits ran slower.
    epoch, start = divmod(step, n)
    for order in table[order_start + epoch * n : order_start + hyper.epochs * n].reshape(-1, n).tolist():
        mistakes = [0] * len(classes)
        for j in order[start:] if start else order:
            x = rows[j]
            next_scale = scale * decay
            for c in training:
                w = weights[c]
                z = 0.0
                for i, v in x:
                    z += w[i] * v
                z = scale * z + bias[c]
                t = 1 if truth[j] == c else 0
                if kind == PERCEPTRON:
                    pred = 1 if z > 0 else 0
                    mistakes[c] += pred != t
                    g = rate * (t - pred)
                elif kind == LOGISTIC:
                    g = -(rate * _logistic_residual(z, t))
                else:  # linear SVM, hinge loss
                    sign = 1.0 if t == 1 else -1.0
                    g = rate * sign if sign * z < 1.0 else 0.0
                if g:  # a zero step would leave every weight as it is
                    for i, v in x:
                        w[i] += g * v / next_scale
                    bias[c] += g
            scale = next_scale
            if scale < _SCALE_FLOOR:
                weights = [[wi * scale for wi in w] for w in weights]
                scale = 1.0
        start = 0
        if kind == PERCEPTRON:
            for c in training:
                errors[c].append(mistakes[c] / n)
            training = [c for c in training if mistakes[c]]
            if not training:
                break
    if scale != 1.0:
        weights = [[wi * scale for wi in w] for w in weights]
    return {
        "rows": weights,
        "offsets": bias,
        "train_errors": dict(zip(examples.classes, errors)) if kind == PERCEPTRON else None,
    }


@np.errstate(over="ignore", invalid="ignore")  # an overflow makes inf and NaN silently, as Python floats do
def _lockstep_head(kind: str, sets: list[_TrainingSet], hyper: Hyper, table, order_start):
    """Step every live (fit, class) pair of a logistic or linear-SVM call together, in numpy.

    Every fit of the call starts at step 0 under the same hyper, so all live
    fits share one L2 scale; a fit that ends in the head takes the scale of its
    last step. The head stops once fewer than _HEAD_FLOOR pairs or two fits are
    live. It returns the step and scale it reached and, per fit, its fitted
    fields (a dict) or the weights and biases it hands over (lists). Fit f's
    step-th example is its example number table[order_start[f] + step], so one
    take of the table gives every live pair's example at a step.

    Each step keeps the serial loop's bits. Elementwise float64 + - * / round
    like Python floats. A margin is summed left to right by np.add.accumulate
    (never sum, dot or @, which add in another order); it can differ from the
    serial sum from 0.0 only in the sign of a zero, which adding the bias
    erases, since no bias is ever -0.0. The logistic residual takes math.exp of
    each -|z|, because np.exp rounds differently. Each fit's rows come padded
    from its training set and are copied into one array as they are, widened to
    the widest fit's rows: the padding is value 0.0 at a spare weight slot per
    pair, which adds +0.0 to a margin and +0.0 to that slot. A zero step is
    applied unmasked: a weight starts at +0.0 and an IEEE sum is -0.0 only when
    both addends are, so no weight is ever -0.0, and adding +-0.0 leaves it as
    it is.
    """
    rate = hyper.rate_for(kind)
    decay = 1.0 - rate * hyper.l2
    sizes = np.array([len(training.truth) for training in sets])
    ends = (hyper.epochs * sizes).tolist()
    first_example = np.cumsum(sizes) - sizes
    # Every example of every fit, in fit order: its class and its sparse
    # vector, each fit's rows widened to the widest with its spare slot and 0.0.
    truth = np.concatenate([training.truth for training in sets])
    widths = np.array([training.n_features + 1 for training in sets])
    slots = np.repeat(widths - 1, sizes)[:, None].repeat(max(training.slots.shape[1] for training in sets), axis=1)
    values = np.zeros(slots.shape)
    for training, start in zip(sets, first_example.tolist()):
        block = slice(start, start + len(training.truth)), slice(training.slots.shape[1])
        slots[block] = training.slots
        values[block] = training.values
    # Pair (f, c) is number first_pair[f] + c, and owns the weights from
    # first_weight[f] + c * (n_features + 1) on, the last one spare.
    n_classes = np.array([len(training.classes) for training in sets])
    first_pair = np.cumsum(n_classes) - n_classes
    first_weight = np.cumsum(n_classes * widths) - n_classes * widths
    weights = np.zeros(first_weight[-1] + n_classes[-1] * widths[-1])
    bias = np.zeros(first_pair[-1] + n_classes[-1])

    def block(f):  # fit f's weights, less the spare slots
        start, n_weights = first_weight[f], n_classes[f] * widths[f]
        return weights[start : start + n_weights].reshape(n_classes[f], widths[f])[:, :-1]

    def biases(f):
        return bias[first_pair[f] : first_pair[f] + n_classes[f]]

    step, scale = 0, 1.0
    from_head = [None] * len(sets)
    live = list(range(len(sets)))
    while len(live) >= 2:
        pair_fit = np.repeat(live, n_classes[live])
        if len(pair_fit) < _HEAD_FLOOR:
            break
        pair_class = _positions(n_classes[live])
        pairs = first_pair[pair_fit] + pair_class
        pair_start = order_start[pair_fit]
        pair_first = first_example[pair_fit]
        pair_base = (first_weight[pair_fit] + pair_class * widths[pair_fit])[:, None]
        live_bias = bias[pairs]
        stop = min(ends[f] for f in live)
        while step < stop:
            example = table.take(pair_start + step) + pair_first
            idx = slots.take(example, axis=0)
            idx += pair_base
            val = values.take(example, axis=0)
            w = weights.take(idx)
            z = np.add.accumulate(w * val, axis=1)[:, -1]
            z *= scale
            z += live_bias
            target = truth.take(example) == pair_class
            if kind == LOGISTIC:
                e = np.fromiter(map(math.exp, np.negative(np.abs(z)).tolist()), float, len(z))
                # -(rate * (sigmoid(z) - t)) == rate * (t - sigmoid(z)), exactly
                g = target - np.where(z >= 0, 1.0, e) / (1.0 + e)
                g *= rate
            else:  # linear SVM, hinge loss
                sign = np.where(target, 1.0, -1.0)
                g = np.where(sign * z < 1.0, rate * sign, 0.0)
            next_scale = scale * decay
            w += g[:, None] * val / next_scale
            weights[idx] = w
            live_bias += g
            scale = next_scale
            if scale < _SCALE_FLOOR:
                weights *= scale
                scale = 1.0
            step += 1
        bias[pairs] = live_bias
        for f in live:
            if ends[f] == step:
                from_head[f] = {  # x * 1.0 is x, bit for bit
                    "rows": (block(f) * scale).tolist(),
                    "offsets": biases(f).tolist(),
                    "train_errors": None,
                }
        live = [f for f in live if ends[f] > step]
    for f in live:
        from_head[f] = block(f).tolist(), biases(f).tolist()
    return step, scale, from_head


def _positions(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., count - 1 for each count in turn."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) - np.repeat(ends - counts, counts)


def _check_indices(model: LinearModel, x: dict[int, float]) -> None:
    """Raise DataError naming the first feature index of x outside the model."""
    if x and (min(x) < 0 or max(x) >= model.n_features):
        i = next(i for i in x if not 0 <= i < model.n_features)
        raise DataError(f"feature index {i} outside model dimension {model.n_features}")


def predict_scores(model: LinearModel, x: dict[int, float]) -> dict[str, float]:
    """Per-class decision values (linear kinds) or joint log-probabilities (NB)."""
    _check_indices(model, x)
    scores = {}
    terms = x.items()
    for cls, row, z, end in zip(model.classes, model.rows, model.starts, model.ends):
        for i, v in terms:
            z += row[i] * v
        scores[cls] = z + end
    return scores


def predict(model: LinearModel, x: dict[int, float]) -> str:
    """_argmax over predict_scores, in one pass over the scores.

    A tie or a NaN score goes to _argmax over the full scores.
    """
    _check_indices(model, x)
    return _leader(model, x)


def _leader(model: LinearModel, x: dict[int, float]) -> str:
    """predict of an x whose indices lie in the model."""
    terms = x.items()
    top, winner, tied = -math.inf, None, False
    for cls, row, z, end in zip(model.classes, model.rows, model.starts, model.ends):
        for i, v in terms:
            z += row[i] * v
        s = z + end
        if s > top:
            top, winner, tied = s, cls, False
        elif s == top:
            tied = True
        elif s != s:  # NaN
            return _argmax(model, predict_scores(model, x))
    if tied:
        return _argmax(model, predict_scores(model, x))
    return winner


def _argmax(model: LinearModel, scores: dict[str, float]) -> str:
    best = max(scores.values())
    tied = [cls for cls, s in scores.items() if s == best]
    if len(tied) == 1:
        return tied[0]
    counts = dict(zip(model.classes, model.class_counts))
    return majority_variant([(cls, counts.get(cls, 0)) for cls in tied])


def posterior(model: LinearModel, x: dict[int, float]) -> dict[str, float]:
    """Exp-normalized class scores (softmax over the joint log-probabilities)."""
    scores = predict_scores(model, x)
    peak = max(scores.values())
    exp = {cls: math.exp(s - peak) for cls, s in scores.items()}
    z = sum(exp.values())
    return {cls: v / z for cls, v in exp.items()}


@dataclass
class TextClassifier:
    """A trained wordkey restorer: window extraction + vectorizer + linear model."""

    window: int
    vectorizer: Vectorizer
    model: LinearModel

    def predict_at(self, keys, i: int) -> str:
        """predict(model, transform(extract_window(keys, i, window))), in one walk over the window's keys.

        A key counts when it is in the vocabulary and is a word. The
        vocabulary is asked first, and the word test only of a hit, which
        keeps the terms that extract_window and transform keep, in their
        first-seen order; the counts, weights and scores are transform's and
        predict's. The loader or cv_fitter checked the window, the loader or
        _fold_set the vocabulary's indices, and restore and CV pass only an i
        inside keys, so nothing is checked again.
        """
        vocabulary = self.vectorizer.vocabulary
        vec: dict[int, float] = {}
        for t in _sticky(keys, i, self.window):
            idx = vocabulary.get(t)
            if idx is not None and (t.isalpha() or token_kind(t) is _WORD):
                vec[idx] = vec.get(idx, 0) + 1
        return _leader(self.model, _unit_tfidf(vec, self.vectorizer.idf))


def fit_instances(groups, kind: str, window: int = 9, hyper: Hyper | None = None) -> list[TextClassifier]:
    """Fit one classifier per group of instances, all in one _train_folds call (so one term table).

    The first group that cannot train raises train_classifier's error for it.
    """
    return _train_folds(kind, list(map(list, groups)), window, hyper)


def _train_folds(kind: str, folds: list[list[Instance]], window: int, hyper: Hyper | None) -> list[TextClassifier]:
    """One classifier per fold of training instances, each with the bits it would get alone.

    Every fold is checked before anything is built. The term_counts of each
    distinct instance's window make one term table, dropped before training;
    _fold_set builds each fold from its rows, and _train_models trains all.
    """
    classes = [_instance_classes(kind, fold) for fold in folds]
    distinct = {id(inst): inst for fold in folds for inst in fold}
    table = _term_table([term_counts(extract_window(i.tokens, i.target, window)) for i in distinct.values()])
    row = dict(zip(distinct, range(len(distinct))))
    built = [
        _fold_set(table, np.array([row[id(i)] for i in fold]), [i.label for i in fold], fold_classes)
        for fold, fold_classes in zip(folds, classes)
    ]
    del table, distinct, row
    models = _train_models(kind, [training for _, training in built], hyper)
    return [TextClassifier(window, vectorizer, model) for (vectorizer, _), model in zip(built, models)]


def cv_fitter(kind: str, window: int = 9, hyper: Hyper | None = None):
    """A per-fold fit for CV, over any number of wordkeys; the folds train together.

    An unknown kind (ModelError) or a bad window (DataError) is refused here,
    before any fold. fit(train) checks the fold at once, so an untrainable
    fold raises there, then queues it and returns a predictor. The first
    prediction from any queued fold trains the whole queue, every fold of the
    group of sets that crossval was given, in one _train_folds call. Each
    held-out instance is scored as restore scores a token: predict_at over
    its tokens, which are the keys its window is taken from.
    """
    if kind not in KINDS:
        raise ModelError(f"unknown classifier kind: {kind!r}")
    check_window(window)
    queue: list[tuple[list[Instance], list]] = []  # each fold's training instances, and a list for its classifier

    def fit(train_instances):
        _instance_classes(kind, train_instances)
        trained: list[TextClassifier] = []
        queue.append((train_instances, trained))

        def predictor(inst: Instance) -> str:
            if not trained:
                clfs = _train_folds(kind, [train for train, _ in queue], window, hyper)
                for (_, fold), clf in zip(queue, clfs):
                    fold.append(clf)
                queue.clear()
            return trained[0].predict_at(inst.tokens, inst.target)

        return predictor

    return fit


def classifier_payload(clf: TextClassifier) -> dict:
    m = clf.model
    payload = {
        "kind": m.kind,
        "window": clf.window,
        "classes": m.classes,
        "class_counts": m.class_counts,
        "vocabulary": clf.vectorizer.vocabulary,
        "idf": clf.vectorizer.idf,
        "hyper": dataclasses.asdict(m.hyper),
    }
    if m.kind == MULTINOMIAL_NB:
        payload["nb_params"] = {"class_log_prior": m.offsets, "feature_log_prob": m.rows}
    else:
        payload["weights"] = m.rows
        payload["bias"] = m.offsets
    return payload


# The types of a JSON number: a bool is not one, nor a numeric string.
_NUMBER = {int, float}


def _finite_array(source: dict, name: str, shape: tuple) -> list:
    """source[name] as plain floats, once it is checked to hold finite JSON numbers of the shape.

    numpy checks the shape and finiteness; the element types are checked apart,
    because numpy would read true or "1.5" as a number.
    """
    value = source[name]
    array = np.array(value, dtype=float)
    elements = itertools.chain.from_iterable(value) if len(shape) == 2 else value  # iterated only if the shape holds
    if array.shape != shape or not np.isfinite(array).all() or not set(map(type, elements)) <= _NUMBER:
        raise ParseError(f"classifier {name} must hold finite JSON numbers, of shape {shape}")
    return array.tolist()


def _finite_number(value) -> bool:
    """A JSON number, not a bool, that a float holds finitely (NaN fails the comparison)."""
    return type(value) in _NUMBER and abs(value) <= sys.float_info.max


def checked_hyper(fields: dict) -> Hyper:
    """Hyperparameters, each checked before Hyper is built: a classifier file's, or `train clf`'s flags'.

    A rate steps down the gradient only when it is positive, and a negative
    L2 term would grow the weights it should shrink.
    """
    for name, value in fields.items():
        if name == "epochs":
            ok, rule = type(value) is int and value >= 1, "an integer >= 1"
        elif name == "seed":
            ok, rule = type(value) is int, "an integer"
        elif name == "learning_rate":
            ok, rule = value is None or _finite_number(value), "null or a finite number"
            if ok and value is not None:
                ok, rule = value > 0, "null or a number > 0"
        else:
            ok, rule = _finite_number(value), "a finite number"
            if ok and name == "l2":
                ok, rule = value >= 0, "a number >= 0"
        if not ok:
            raise ParseError(f"classifier hyper {name} must be {rule}, got {value!r}")
    return Hyper(**fields)


def classifier_from_payload(payload: dict) -> TextClassifier:
    kind = payload["kind"]
    if kind not in KINDS:
        raise ParseError(f"unknown classifier kind: {kind!r}")
    window = payload["window"]
    if not odd_window(window):
        raise ParseError(f"classifier window must be an odd integer >= 3, got {window!r}")
    vocabulary = payload["vocabulary"]
    indices = vocabulary.values()
    if not set(map(type, indices)) <= {int} or sorted(indices) != list(range(len(vocabulary))):
        raise ParseError("classifier vocabulary indices must be the integers 0..V-1, each once")
    # A list, not any iterable: an object would give its keys, a string its characters.
    classes = payload["classes"]
    if type(classes) is not list or not classes or not all(isinstance(c, str) for c in classes):
        raise ParseError("classifier classes must be a nonempty list of strings")
    class_counts = payload["class_counts"]
    counts_ok = type(class_counts) is list and len(class_counts) == len(classes)
    if not counts_ok or not all(type(c) is int and c >= 0 for c in class_counts):
        raise ParseError("classifier class_counts must be a list of one non-negative integer per class")
    hyper = checked_hyper(payload["hyper"])
    n_classes, n_features = len(classes), len(vocabulary)
    nb = kind == MULTINOMIAL_NB
    source = payload["nb_params"] if nb else payload
    idf = _finite_array(payload, "idf", (n_features,))
    if nb:
        offsets = _finite_array(source, "class_log_prior", (n_classes,))
        rows = _finite_array(source, "feature_log_prob", (n_classes, n_features))
    else:
        rows = _finite_array(source, "weights", (n_classes, n_features))
        offsets = _finite_array(source, "bias", (n_classes,))
    model = LinearModel(kind, classes, class_counts, n_features, hyper, rows, offsets)
    return TextClassifier(window=window, vectorizer=Vectorizer(vocabulary, idf), model=model)


@dataclass
class ClassifierBank:
    """The classifier family's restorer: one trained classifier per wordkey."""

    classifiers: dict[str, TextClassifier]

    def predict_instance(self, keys, i: int, restored: list[str]) -> str:
        return self.classifiers[keys[i]].predict_at(keys, i)

    def to_payload(self) -> dict:
        return {"models": {key: classifier_payload(clf) for key, clf in sorted(self.classifiers.items())}}

    @classmethod
    def from_payload(cls, spec: dict, variant_index) -> "ClassifierBank":
        classifiers = {key: classifier_from_payload(p) for key, p in spec["models"].items()}
        for key, variants in variant_index.items():
            if key not in classifiers:
                raise ParseError(f"no classifier for wordkey {key!r}")
            stray = set(classifiers[key].model.classes).difference(v for v, _ in variants)
            if stray:
                raise ParseError(f"classifier for wordkey {key!r} has classes not among its variants: {sorted(stray)}")
        return cls(classifiers=classifiers)
