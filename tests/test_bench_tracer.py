"""The benchmark's tracer (bench/spans.py) still finds every function it swaps.

The tracer wraps toolkit functions by module attribute name. A rename or
removal in src/ would only show as a crash of the traced benchmark run; these
tests install the tracer around one small restore, one small `eval cv` of each
restorer family, and each command of the bench's train job, and check
that it finds every attribute, records the calls, changes no output byte, and
puts every attribute back.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from diacritize import classify, cli, corpus, datasetgen, embed, evaluate, ngram, pipeline
from diacritize.corpus import corpus_from_lines

BENCH = Path(__file__).resolve().parents[1] / "bench"
DATA = Path(__file__).resolve().parent / "data"
SWAPPED = (cli, corpus, datasetgen, ngram, classify, classify.Vectorizer, embed, evaluate, pipeline)

LINES = ["nwanyị kwuru sì ya oma"] * 6 + ["ha kwera sí ya oma"] * 4
STRIPPED = "Nwanyi kwuru si ya oma , ha kwera SI ya ."


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans as module

    yield module
    sys.modules.pop("spans", None)


@pytest.mark.parametrize("family", ["ngram", "clf"])
def test_traced_restore_is_byte_identical(spans, tmp_path, family):
    corp = corpus_from_lines(LINES)
    sets = datasetgen.generate(corp)
    if family == "ngram":
        pipe = pipeline.build_ngram_pipeline(corp, sets, n=3)
    else:
        pipe = pipeline.build_classifier_pipeline(corp, sets, window=5, hyper=classify.Hyper(epochs=3))
    path = tmp_path / "pipe.json"
    pipeline.save_pipeline(pipe, path)

    def restore():
        loaded = pipeline.load_pipeline(path)
        tokens = corpus.tokenize(corpus.normalize(STRIPPED))
        return " ".join(t.surface for t in pipeline.restore_line(loaded, tokens)).encode()

    plain = restore()
    before = {(m, a): m.__dict__[a] for m in (corpus, pipeline, classify, embed) for a in vars(m)}
    tracer = spans.Tracer()
    tracer.label = family
    tracer.install()
    try:
        traced = restore()
    finally:
        tracer.uninstall()
    assert traced == plain
    recorded = tracer.summary()["spans"]
    expected = ["corpus.tokenize"] + [
        f"pipeline.{step}.{family}"
        for step in ("load_pipeline", "restore_line", "predict_instance", "match_case")
    ]
    for name in expected:
        assert recorded[name]["calls"] >= 1, name
    assert all(m.__dict__[a] is fn for (m, a), fn in before.items())
    assert restore() == plain


# Each cv restorer the tracer follows: the spans it must record.
CV_SPANS = {
    "clf:logistic": ["classify.extract_window"],
    "ngram:2": ["ngram.prepare", "ngram.find_occurrences", "ngram.train_from_occurrences",
                "ngram.restore_instance"],
    "emb:tweak2": ["embed.load_vectors", "embed.build_cowords", "embed.enhance",
                   "embed.restore_instance", "classify.extract_window"],
}


@pytest.fixture()
def vectors(tmp_path):
    rng = np.random.default_rng(3)
    words = ["ákwà", "ákwá", "ógè", "ògè", "dị", "di", "ùdó", "údó", "oma", "nwa", "ya", "ha", "na", "oke"]
    path = tmp_path / "toy.vec"
    embed.save_vectors(embed.EmbeddingModel(dim=4, vectors={w: rng.normal(size=4) for w in words}), path)
    return str(path)


@pytest.mark.parametrize("restorer", sorted(CV_SPANS))
def test_traced_cv_is_byte_identical(spans, tmp_path, capsys, vectors, restorer):
    family = restorer.split(":")[0]

    def cv(report):
        argv = [
            "eval", "cv", "--corpus", str(DATA / "fixture_corpus.txt"),
            "--dataset", str(DATA / "golden_dataset.jsonl"), "--vectors", vectors,
            "--restorer", restorer, "-k", "3", "--report", str(report),
        ]
        assert cli.main(argv) == 0
        return report.read_bytes()

    plain = cv(tmp_path / "plain.json")
    before = {(m, a): m.__dict__[a] for m in SWAPPED for a in vars(m)}
    tracer = spans.Tracer()
    tracer.label = f"eval_cv_{family}"
    tracer.install()
    try:
        traced = cv(tmp_path / "traced.json")
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert traced == plain
    summary = tracer.summary()
    for name in (
        f"cli.main.eval_cv_{family}", *CV_SPANS[restorer],
        "evaluate.crossval", f"evaluate.fit.{family}", f"evaluate.predict.{family}",
    ):
        assert summary["spans"][name]["calls"] >= 1, name
    if family == "emb":
        # two candidates for each instance restore_instance scored
        assert summary["counts"]["embed.candidates"] == 2 * summary["spans"]["embed.restore_instance"]["calls"]
    assert all(m.__dict__[a] is fn for (m, a), fn in before.items())
    assert cv(tmp_path / "again.json") == plain


# The bench's train job, one command at a time: its arguments (less -o), the
# spans it must record, and the spans it must not.
CORPUS, DATASET = str(DATA / "fixture_corpus.txt"), str(DATA / "golden_dataset.jsonl")
TRAIN_JOB = {
    "dataset": (
        ["dataset", CORPUS],
        ["datasetgen.generate", "datasetgen.write_dataset"],
        [],
    ),
    "train_ngram": (
        ["train", "ngram", CORPUS, "--dataset", DATASET, "-n", "5"],
        ["datasetgen.read_dataset", "pipeline.build_maps", "ngram.prepare",
         "ngram.train_from_occurrences", "ngram.model_payload", "pipeline.save_pipeline"],
        [],
    ),
    "train_clf": (
        ["train", "clf", CORPUS, "--dataset", DATASET, "--kind", "logistic"],
        ["datasetgen.read_dataset", "pipeline.build_maps", "classify.fit_instances",
         "classify.classifier_payload", "pipeline.save_pipeline"],
        ["ngram.prepare"],
    ),
}


@pytest.mark.parametrize("label", sorted(TRAIN_JOB))
def test_traced_train_job_is_byte_identical(spans, tmp_path, capsys, label):
    argv, expected, absent = TRAIN_JOB[label]

    def run(out):
        assert cli.main([*argv, "-o", str(out)]) == 0
        return out.read_bytes()

    plain = run(tmp_path / "plain")
    before = {(m, a): m.__dict__[a] for m in SWAPPED for a in vars(m)}
    tracer = spans.Tracer()
    tracer.label = label
    tracer.install()
    try:
        traced = run(tmp_path / "traced")
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert traced == plain
    recorded = tracer.summary()["spans"]
    for name in [f"cli.main.{label}", "corpus.load_corpus", *expected]:
        assert recorded[name]["calls"] >= 1, name
    for name in absent:
        assert name not in recorded, name
    assert all(m.__dict__[a] is fn for (m, a), fn in before.items())
    assert run(tmp_path / "again") == plain
