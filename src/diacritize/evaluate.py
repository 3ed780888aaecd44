"""Stratified cross-validation, confusion matrices, and score aggregation.

Per-wordkey results are macro-averaged over variants; model-level scores are
the count-weighted means of the wordkey scores (the unweighted means are
reported alongside, labeled separately).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .corpus import Corpus, TokenKind, normalize, replace_on_success, strip_diacritics
from .datasetgen import AmbiguousSet, majority_variant
from .errors import DataError, FoldError, ModelError


@dataclass
class ConfusionMatrix:
    classes: list[str]
    cells: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.cells:
            self.cells = [[0] * len(self.classes) for _ in self.classes]

    def _index(self, label: str) -> int:
        try:
            return self.classes.index(label)
        except ValueError:
            self.classes.append(label)
            for row in self.cells:
                row.append(0)
            self.cells.append([0] * len(self.classes))
            return len(self.classes) - 1

    def add(self, true: str, predicted: str) -> None:
        i = self._index(true)
        j = self._index(predicted)
        self.cells[i][j] += 1

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.cells)

    @property
    def trace(self) -> int:
        return sum(self.cells[i][i] for i in range(len(self.classes)))


@dataclass
class CrossvalResult:
    matrix: ConfusionMatrix
    fold_accuracies: list[float]
    failed_folds: list[int] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def stratified_folds(instances, k: int = 10, seed: int = 0) -> list[list[int]]:
    """Partition instance indices into k folds with near-identical label mixes.

    Within each fold every label's count differs from floor(label_total / k)
    by at most one. Deterministic for a given seed.
    """
    if k < 2:
        raise FoldError(f"k must be >= 2, got {k}")
    if len(instances) < k:
        raise FoldError(f"{len(instances)} instances cannot fill {k} folds")
    by_label: dict[str, list[int]] = {}
    for idx, inst in enumerate(instances):
        by_label.setdefault(inst.label, []).append(idx)
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for label in sorted(by_label):
        indices = by_label[label]
        rng.shuffle(indices)
        for pos, idx in enumerate(indices):
            folds[(offset + pos) % k].append(idx)
        offset += len(indices)
    return folds


def fold_plan(aset: AmbiguousSet, k: int = 10, seed: int = 0):
    """The folds crossval walks, as a list of (fold_no, train, test), and its warning.

    A set too small to fold is one train-on-all entry, with fold_no None and a
    warning; a set that folds has no warning (None).
    """
    try:
        folds = stratified_folds(aset.instances, k=k, seed=seed)
    except FoldError as exc:
        return [(None, list(aset.instances), aset.instances)], f"{aset.wordkey}: {exc}; evaluated train-on-all"
    plan = []
    for fold_no, test_idx in enumerate(folds):
        test_set = set(test_idx)
        train = [inst for i, inst in enumerate(aset.instances) if i not in test_set]
        plan.append((fold_no, train, [aset.instances[i] for i in test_idx]))
    return plan, None


def crossval(fit, aset: AmbiguousSet | list[AmbiguousSet], k: int = 10, seed: int = 0):
    """k-fold evaluation of one ambiguous set, as a CrossvalResult, or of each set of a list, as a list.

    fit(train_instances) must return a predictor: instance -> variant surface.
    It is called for every fold of every set, in fold_plan order, before any
    fold is scored, and each predictor goes once its fold is scored:
    classify.cv_fitter and ngram.cv_fitter build a fold's model at its first
    prediction. A set too small to fold is scored train-on-all with a warning,
    and an error from that fit propagates; a fold whose training raises
    DataError or ModelError is scored against the majority variant of its
    training data and recorded as failed.
    """
    walks = []
    for one in aset if isinstance(aset, list) else [aset]:
        result = CrossvalResult(matrix=ConfusionMatrix(classes=[v for v, _ in one.variants]), fold_accuracies=[])
        plan, warning = fold_plan(one, k, seed)
        if warning is not None:
            result.warnings.append(warning)
        folds = []
        for fold_no, train, test in plan:
            try:
                folds.append((test, fit(train)))
            except (DataError, ModelError) as exc:
                if fold_no is None:  # train-on-all: an error here is the set's own
                    raise
                labels = [i.label for i in train]
                majority = majority_variant([(v, labels.count(v)) for v in set(labels)])
                result.failed_folds.append(fold_no)
                result.warnings.append(f"{one.wordkey} fold {fold_no}: {exc}")
                folds.append((test, lambda inst, m=majority: m))
        walks.append((result, folds))
    for result, folds in walks:
        while folds:  # popped, so each predictor goes once its fold is scored
            test, predictor = folds.pop(0)
            correct = 0
            for inst in test:
                pred = predictor(inst)
                result.matrix.add(inst.label, pred)
                correct += pred == inst.label
            result.fold_accuracies.append(correct / len(test) if test else 0.0)
    return [result for result, _ in walks] if isinstance(aset, list) else walks[0][0]


def metrics(cm: ConfusionMatrix) -> dict:
    """Accuracy plus per-class and macro precision/recall/F1 (0/0 counts as 0)."""
    total = cm.total
    if total == 0:
        raise DataError("cannot score an empty confusion matrix")
    n = len(cm.classes)
    per_class = {}
    for i, cls in enumerate(cm.classes):
        tp = cm.cells[i][i]
        fp = sum(cm.cells[r][i] for r in range(n)) - tp
        fn = sum(cm.cells[i]) - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[cls] = {"precision": precision, "recall": recall, "f1": f1}
    return {
        "accuracy": cm.trace / total,
        "macro_precision": sum(v["precision"] for v in per_class.values()) / n,
        "macro_recall": sum(v["recall"] for v in per_class.values()) / n,
        "macro_f1": sum(v["f1"] for v in per_class.values()) / n,
        "per_class": per_class,
    }


_METRIC_KEYS = ("accuracy", "macro_precision", "macro_recall", "macro_f1")


@dataclass
class MetricReport:
    per_wordkey: dict[str, dict]
    aggregate: dict[str, float]
    unweighted: dict[str, float]


def aggregate(per_wordkey: dict[str, dict]) -> MetricReport:
    """Count-weighted means of wordkey scores, plus the plain unweighted means."""
    if not per_wordkey:
        raise DataError("no wordkey reports to aggregate")
    total = sum(rep["count"] for rep in per_wordkey.values())
    if total == 0:
        raise DataError("wordkey reports carry zero total count")
    weighted = {}
    simple = {}
    for key in _METRIC_KEYS:
        weighted[key.replace("macro_", "")] = (
            sum(rep[key] * rep["count"] for rep in per_wordkey.values()) / total
        )
        simple[key.replace("macro_", "")] = sum(
            rep[key] for rep in per_wordkey.values()
        ) / len(per_wordkey)
    return MetricReport(per_wordkey=dict(per_wordkey), aggregate=weighted, unweighted=simple)


def wordkey_report(cm: ConfusionMatrix) -> dict:
    rep = metrics(cm)
    rep["count"] = cm.total
    return rep


def full_text_eval(restored: Corpus, gold: Corpus) -> dict:
    """Token-aligned comparison of a restored corpus against its marked original.

    Only word tokens are scored; surfaces are NFC-normalized first so encoding
    variants of the same marks compare equal. Precision/recall/F1 are the
    count-weighted macro scores over wordkey-level confusion matrices, and the
    stripped-text baseline (gold against strip(gold)) is reported alongside.
    """
    if len(restored.lines) != len(gold.lines):
        raise DataError(
            f"line count mismatch: restored {len(restored.lines)} vs gold {len(gold.lines)}"
        )
    per_key: dict[str, ConfusionMatrix] = {}
    line_errors = []
    scored = 0
    correct = 0
    baseline_correct = 0
    word_kind = TokenKind.WORD
    for line_no, (rline, gline) in enumerate(zip(restored.lines, gold.lines)):
        if len(rline) != len(gline):
            raise DataError(
                f"token count mismatch on line {line_no + 1}: "
                f"{len(rline)} restored vs {len(gline)} gold"
            )
        errors = []
        for pos, (rtok, gtok) in enumerate(zip(rline, gline)):
            if gtok.kind is not word_kind:
                continue
            scored += 1
            gsurf = normalize(gtok.surface)
            rsurf = normalize(rtok.surface)
            key = strip_diacritics(gsurf).lower()
            per_key.setdefault(key, ConfusionMatrix(classes=[])).add(gsurf, rsurf)
            if rsurf == gsurf:
                correct += 1
            else:
                errors.append(pos)
            if strip_diacritics(gsurf) == gsurf:
                baseline_correct += 1
        line_errors.append(errors)
    if scored == 0:
        raise DataError("no word tokens to score")

    per_wordkey = {key: wordkey_report(cm) for key, cm in per_key.items()}
    report = aggregate(per_wordkey)
    return {
        "accuracy": correct / scored,
        "precision": report.aggregate["precision"],
        "recall": report.aggregate["recall"],
        "f1": report.aggregate["f1"],
        "baseline_accuracy": baseline_correct / scored,
        "word_tokens": scored,
        "line_errors": line_errors,
    }


def comparison_rows(reports: dict[str, MetricReport], baseline: str) -> list[dict]:
    """Per-wordkey comparison table: best score/model, improvement, error reduction."""
    if baseline not in reports:
        raise DataError(f"baseline model {baseline!r} missing from reports")
    base = reports[baseline].per_wordkey
    model_names = list(reports)
    rows = []
    for wordkey in base:
        scores = {m: reports[m].per_wordkey[wordkey]["accuracy"] for m in model_names}
        best_model = max(model_names, key=lambda m: (scores[m], m == baseline))
        best = scores[best_model]
        base_acc = scores[baseline]
        base_err = 1.0 - base_acc
        rows.append(
            {
                "wordkey": wordkey,
                "count": base[wordkey]["count"],
                "scores": scores,
                "best_score": best,
                "best_model": best_model,
                "improvement": best - base_acc,
                "error_reduction": (base_err - (1.0 - best)) / base_err if base_err else 0.0,
            }
        )
    rows.sort(key=lambda r: (-r["count"], r["wordkey"]))
    return rows


def write_comparison_tsv(reports: dict[str, MetricReport], baseline: str, path) -> None:
    rows = comparison_rows(reports, baseline)
    model_names = list(reports)
    with replace_on_success(path) as fh:
        header = ["wordkey", "count"] + model_names + [
            "best_score",
            "best_model",
            "improvement",
            "error_reduction",
        ]
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fields = [row["wordkey"], str(row["count"])]
            fields += [f"{row['scores'][m]:.4f}" for m in model_names]
            fields += [
                f"{row['best_score']:.4f}",
                row["best_model"],
                f"{row['improvement']:.4f}",
                f"{row['error_reduction']:.4f}",
            ]
            fh.write("\t".join(fields) + "\n")
