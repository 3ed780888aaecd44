"""Sticky-window features, tf-idf vectorization, and per-wordkey linear classifiers.

The window centers the target when it can and clamps at sentence boundaries;
only word tokens inside it (minus the target) become features. Classifier
kinds: perceptron, logistic regression via SGD, linear SVM via SGD hinge, and
multinomial naive Bayes. Multi-class is one-vs-rest: the SGD kinds train every
class in one seeded pass over the examples, and training is deterministic for a
fixed seed.

Scoring reads plain Python floats. The numpy arrays of a vectorizer and a model
are their stored form; each also keeps plain-float copies (the idf list; the
weight rows and biases, or naive Bayes's log-probability rows and log priors),
made once when it is built, since each read from a numpy array would box a numpy
scalar. Every sum runs left to right from 0.0 (naive Bayes from the prior), in
the order the numpy-scalar formula took, so scores keep their bits. No scoring
or training loop calls sum(): from Python 3.12 it rounds a sum of floats in
another way.
"""

from __future__ import annotations

import math
import random
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


def extract_window(tokens, target_index: int, n: int = 9) -> list[str]:
    """Context words from the width-n sticky window around the target.

    The window holds min(n, len) contiguous tokens, centered on the target
    when possible and pushed inward at sentence boundaries; the target itself
    and any punctuation/digit/symbol tokens are excluded.
    """
    if n < 3 or n % 2 == 0:
        raise DataError(f"window size must be an odd integer >= 3, got {n}")
    if not (0 <= target_index < len(tokens)):
        raise DataError(f"target index {target_index} out of range")
    size = min(n, len(tokens))
    start = min(max(target_index - n // 2, 0), len(tokens) - size)
    window = range(start, start + size)
    return [
        tokens[i]
        for i in window
        if i != target_index and token_kind(tokens[i]) is TokenKind.WORD
    ]


@dataclass
class Vectorizer:
    vocabulary: dict[str, int]
    idf: np.ndarray
    idf_values: list[float] = field(init=False, repr=False)  # idf as plain floats

    def __post_init__(self):
        self.idf_values = self.idf.tolist()

    @classmethod
    def fit(cls, windows) -> "Vectorizer":
        """Build the vocabulary and smoothed idf from training windows only."""
        windows = list(windows)
        if not windows:
            raise DataError("cannot fit a vectorizer on zero windows")
        df: dict[str, int] = {}
        for window in windows:
            for term in set(window):
                df[term] = df.get(term, 0) + 1
        vocabulary = {term: i for i, term in enumerate(sorted(df))}
        n_docs = len(windows)
        idf = np.zeros(len(vocabulary))
        for term, i in vocabulary.items():
            idf[i] = math.log((1 + n_docs) / (1 + df[term])) + 1.0
        return cls(vocabulary=vocabulary, idf=idf)

    def transform(self, window) -> dict[int, float]:
        """tf-idf the window into a unit-length sparse vector; unknown terms drop."""
        tf: dict[int, int] = {}
        for term in window:
            idx = self.vocabulary.get(term)
            if idx is not None:
                tf[idx] = tf.get(idx, 0) + 1
        idf = self.idf_values
        vec = {idx: count * idf[idx] for idx, count in tf.items()}
        total = 0.0
        for v in vec.values():
            total += v * v
        norm = math.sqrt(total)
        if norm > 0:
            vec = {idx: v / norm for idx, v in vec.items()}
        return vec


@dataclass
class LinearModel:
    kind: str
    classes: list[str]
    class_counts: list[int]
    n_features: int
    hyper: Hyper
    weights: np.ndarray | None = None  # (n_classes, n_features)
    bias: np.ndarray | None = None
    class_log_prior: np.ndarray | None = None  # naive Bayes
    feature_log_prob: np.ndarray | None = None
    train_errors: dict[str, list[float]] | None = None  # perceptron epoch errors
    # Plain-float copies that scoring reads: weights and bias, or for naive
    # Bayes feature_log_prob and class_log_prior.
    rows: list[list[float]] = field(init=False, repr=False)
    offsets: list[float] = field(init=False, repr=False)

    def __post_init__(self):
        nb = self.kind == MULTINOMIAL_NB
        self.rows = (self.feature_log_prob if nb else self.weights).tolist()
        self.offsets = (self.class_log_prior if nb else self.bias).tolist()


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
    """Train one model on sparse vectors X with string labels y."""
    if kind not in KINDS:
        raise ModelError(f"unknown classifier kind: {kind!r}")
    if len(X) != len(y) or not X:
        raise DataError("X and y must be nonempty and the same length")
    hyper = hyper or Hyper()
    classes = sorted(set(y))
    if len(classes) < 2:
        raise ModelError(f"training data has a single class: {classes[0]!r}")
    class_counts = [sum(1 for label in y if label == cls) for cls in classes]
    if kind == MULTINOMIAL_NB:
        fitted = _fit_nb(classes, class_counts, n_features, hyper, X, y)
    else:
        fitted = _fit_sgd(kind, classes, n_features, hyper, X, y)
    return LinearModel(
        kind=kind,
        classes=classes,
        class_counts=class_counts,
        n_features=n_features,
        hyper=hyper,
        **fitted,
    )


def _fit_nb(classes, class_counts, n_features: int, hyper: Hyper, X, y) -> dict:
    """The fitted fields of a naive Bayes model: class log priors and feature log-probabilities."""
    index = {cls: i for i, cls in enumerate(classes)}
    totals = np.zeros((len(classes), n_features))
    for x, label in zip(X, y):
        row = totals[index[label]]
        for i, v in x.items():
            row[i] += v
    smoothed = totals + hyper.alpha
    return {
        "class_log_prior": np.log(np.array(class_counts, dtype=float) / len(y)),
        "feature_log_prob": np.log(smoothed) - np.log(smoothed.sum(axis=1, keepdims=True)),
    }


def _fit_sgd(kind: str, classes, n_features: int, hyper: Hyper, X, y) -> dict:
    """One-vs-rest SGD: every class trains in the same seeded pass over the examples.

    All classes see one shuffle order per epoch and share the lazy L2 scale
    (true weights = scale * stored weights; the perceptron keeps scale 1.0), so
    each example updates every class still in training by one rule, from a step
    g that each kind picks. A perceptron class stops after its first error-free
    epoch. Weights stay plain floats until the end and each margin is summed left
    to right from 0.0, never with sum(), whose rounding differs between Pythons.
    Returns the fitted fields: weights, bias and, for the perceptron, train_errors.
    """
    rate = hyper.rate_for(kind)
    decay = 1.0 if kind == PERCEPTRON else 1.0 - rate * hyper.l2
    n = len(X)
    rows = [tuple((i, float(v)) for i, v in x.items()) for x in X]
    index = {cls: c for c, cls in enumerate(classes)}
    truth = [index[label] for label in y]
    weights = [[0.0] * n_features for _ in classes]
    bias = [0.0] * len(classes)
    errors = [[] for _ in classes]
    training = list(range(len(classes)))
    scale = 1.0
    order = list(range(n))
    rng = random.Random(hyper.seed)
    for _ in range(hyper.epochs):
        rng.shuffle(order)
        mistakes = [0] * len(classes)
        for j in order:
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
        if kind == PERCEPTRON:
            for c in training:
                errors[c].append(mistakes[c] / n)
            training = [c for c in training if mistakes[c]]
            if not training:
                break
    if scale != 1.0:
        weights = [[wi * scale for wi in w] for w in weights]
    return {
        "weights": np.array(weights, dtype=float),
        "bias": np.array(bias, dtype=float),
        "train_errors": dict(zip(classes, errors)) if kind == PERCEPTRON else None,
    }


def predict_scores(model: LinearModel, x: dict[int, float]) -> dict[str, float]:
    """Per-class decision values (linear kinds) or joint log-probabilities (NB)."""
    for i in x:
        if not (0 <= i < model.n_features):
            raise DataError(f"feature index {i} outside model dimension {model.n_features}")
    scores = {}
    terms = x.items()
    if model.kind == MULTINOMIAL_NB:
        for cls, row, s in zip(model.classes, model.rows, model.offsets):
            for i, v in terms:
                s += v * row[i]
            scores[cls] = s
    else:
        for cls, row, bias in zip(model.classes, model.rows, model.offsets):
            z = 0.0
            for i, v in terms:
                z += row[i] * v
            scores[cls] = z + bias
    return scores


def predict(model: LinearModel, x: dict[int, float]) -> str:
    scores = predict_scores(model, x)
    return _argmax(model, scores)


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

    def predict_instance(self, inst: Instance) -> str:
        return self.predict_window(extract_window(inst.tokens, inst.target, self.window))

    def predict_window(self, window: list[str]) -> str:
        return predict(self.model, self.vectorizer.transform(window))


def fit_instances(
    instances, kind: str, window: int = 9, hyper: Hyper | None = None, *, windows=None
) -> TextClassifier:
    """Fit a classifier; `windows`, when given, are the instances' extracted windows."""
    instances = list(instances)
    if not instances:
        raise DataError("no instances to train on")
    if windows is None:
        windows = [extract_window(i.tokens, i.target, window) for i in instances]
    vectorizer = Vectorizer.fit(windows)
    X = [vectorizer.transform(w) for w in windows]
    y = [i.label for i in instances]
    model = train_classifier(kind, X, y, len(vectorizer.vocabulary), hyper)
    return TextClassifier(window=window, vectorizer=vectorizer, model=model)


def cv_fitter(kind: str, window: int = 9, hyper: Hyper | None = None):
    """A per-fold fit for one wordkey's CV; each instance's window is extracted once.

    Windows are cached by instance identity for all the folds; only the
    vocabulary, idf and model depend on the fold.
    """
    cache: dict[int, tuple[Instance, list[str]]] = {}

    def window_of(inst: Instance) -> list[str]:
        entry = cache.get(id(inst))
        if entry is None:
            entry = cache[id(inst)] = (inst, extract_window(inst.tokens, inst.target, window))
        return entry[1]

    def fit(train_instances):
        windows = [window_of(inst) for inst in train_instances]
        clf = fit_instances(train_instances, kind, window=window, hyper=hyper, windows=windows)
        return lambda inst: clf.predict_window(window_of(inst))

    return fit


def classifier_payload(clf: TextClassifier) -> dict:
    m = clf.model
    payload = {
        "kind": m.kind,
        "window": clf.window,
        "classes": m.classes,
        "class_counts": m.class_counts,
        "vocabulary": clf.vectorizer.vocabulary,
        "idf": clf.vectorizer.idf.tolist(),
        "hyper": {
            "learning_rate": m.hyper.learning_rate,
            "epochs": m.hyper.epochs,
            "l2": m.hyper.l2,
            "alpha": m.hyper.alpha,
            "seed": m.hyper.seed,
        },
    }
    if m.kind == MULTINOMIAL_NB:
        payload["nb_params"] = {
            "class_log_prior": m.class_log_prior.tolist(),
            "feature_log_prob": m.feature_log_prob.tolist(),
        }
    else:
        payload["weights"] = m.weights.tolist()
        payload["bias"] = m.bias.tolist()
    return payload


def _finite_array(source: dict, name: str, shape: tuple) -> np.ndarray:
    array = np.array(source[name], dtype=float)
    if array.shape != shape or not np.isfinite(array).all():
        raise ParseError(f"classifier {name} must be finite, of shape {shape}")
    return array


def classifier_from_payload(payload: dict) -> TextClassifier:
    kind = payload["kind"]
    if kind not in KINDS:
        raise ParseError(f"unknown classifier kind: {kind!r}")
    window = int(payload["window"])
    if window < 3 or window % 2 == 0:
        raise ParseError(f"classifier window must be an odd integer >= 3, got {window}")
    vocabulary = {t: int(i) for t, i in payload["vocabulary"].items()}
    if sorted(vocabulary.values()) != list(range(len(vocabulary))):
        raise ParseError("classifier vocabulary indices must be 0..V-1, each once")
    classes = list(payload["classes"])
    if not classes or not all(isinstance(c, str) for c in classes):
        raise ParseError("classifier classes must be a nonempty list of strings")
    class_counts = [int(c) for c in payload["class_counts"]]
    hyper = Hyper(**payload["hyper"])
    n_classes, n_features = len(classes), len(vocabulary)
    if kind == MULTINOMIAL_NB:
        source = payload["nb_params"]
        shapes = {"class_log_prior": (n_classes,), "feature_log_prob": (n_classes, n_features)}
    else:
        source = payload
        shapes = {"weights": (n_classes, n_features), "bias": (n_classes,)}
    vectorizer = Vectorizer(vocabulary=vocabulary, idf=_finite_array(payload, "idf", (n_features,)))
    model = LinearModel(
        kind=kind,
        classes=classes,
        class_counts=class_counts,
        n_features=n_features,
        hyper=hyper,
        **{name: _finite_array(source, name, shape) for name, shape in shapes.items()},
    )
    return TextClassifier(window=window, vectorizer=vectorizer, model=model)


@dataclass
class ClassifierBank:
    """The classifier family's restorer: one trained classifier per wordkey."""

    classifiers: dict[str, TextClassifier]

    def predict_instance(self, inst: Instance, restored: list[str]) -> str:
        return self.classifiers[inst.tokens[inst.target]].predict_instance(inst)

    def to_payload(self) -> dict:
        return {"models": {key: classifier_payload(clf) for key, clf in sorted(self.classifiers.items())}}

    @classmethod
    def from_payload(cls, spec: dict, variant_index) -> "ClassifierBank":
        classifiers = {key: classifier_from_payload(p) for key, p in spec["models"].items()}
        for key in variant_index:
            if key not in classifiers:
                raise ParseError(f"no classifier for wordkey {key!r}")
        return cls(classifiers=classifiers)
