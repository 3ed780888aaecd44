"""The benchmark's own tests, on inputs of the small size: a few seconds each.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import jobs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    return line


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == [p[:3] for p in metrics.PER_LAYER]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_run_prints_every_end_to_end_metric(workload):
    line = result_line(bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0", "--size", "small"))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert all(v["value"] > 0 for v in line["metrics"].values())


def test_small_traced_run_prints_every_per_layer_metric():
    proc = bench("--workload", "cv", "--seed", "5", "--seconds", "0", "--trace", "1", "--size", "small")
    line = result_line(proc)
    assert line["correct"] and line["failed"] == 0
    units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    values = {k: v["value"] for k, v in line["metrics"].items()}
    # Every layer did work in the traced round.
    for name in ("corpus.tokenize.calls", "ngram.restore_instance.calls", "classify.fit_instances.calls",
                 "embed.restore_instance.calls", "evaluate.crossval.calls",
                 "pipeline.predict_instance.ngram.calls", "pipeline.predict_instance.clf.calls"):
        assert values[name] > 0, name
    # Every cv fold extracts its training windows again.
    assert values["classify.windows_per_instance"] > 1.5
    out = ROOT / ".bench_out" / "cv-seed5"
    assert (out / "trace.json").is_file() and (out / "spans.npz").is_file()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "restore", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_inputs_follow_the_seed_and_share_one_vocabulary():
    lang = gen.build_language()
    a = gen.corpus_lines(lang, "corpus-1", 2000)
    assert a == gen.corpus_lines(lang, "corpus-1", 2000)
    assert a != gen.corpus_lines(lang, "corpus-2", 2000)
    held = gen.heldout_lines(lang, "heldout-1", 2)
    assert sorted(len(line.split()) for line in held) == sorted([20] * 28 + [80] * 8 + [320] * 4)
    vocabulary = {w for w in lang.fillers} | {v for amb in lang.ambiguous for v in amb.variants}
    for text in (a, held):
        assert {w.lower() for line in text for w in line.split() if w.isalpha()} <= vocabulary


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    run.write_inputs(work, 7, "small")
    ops = jobs.Ops()
    jobs.train_job(work, False, jobs.NoTracer(), ops)
    assert ops.failed == 0
    return work


def test_restore_checks_catch_a_broken_restorer(trained, monkeypatch):
    ops = jobs.Ops()
    jobs.restore_job(trained, "side", True, jobs.NoTracer(), ops)
    assert ops.failed == 0

    original = jobs.pipeline.restore_line
    monkeypatch.setattr(jobs.pipeline, "restore_line", lambda pipe, tokens: original(pipe, tokens)[:-1])
    ops = jobs.Ops()
    jobs.restore_job(trained, "side", True, jobs.NoTracer(), ops)
    lines = len((trained / "heldout_short.txt").read_text(encoding="utf-8").splitlines())
    # every line of both pipelines, and both pipelines' scoring against gold
    assert ops.failed >= 2 * lines + 2


def test_cv_checks_count_failed_folds(trained, monkeypatch):
    real = jobs.cli.classify.cv_fitter

    def failing_fitter(kind, window=9, hyper=None):
        fit = real(kind, window=window, hyper=hyper)

        def fit_small_only(train):
            # Folds fail; sets too small to fold still train on all instances.
            if len(train) >= 9:
                raise jobs.pipeline.ModelError("no fit")
            return fit(train)

        return fit_small_only

    monkeypatch.setattr(jobs.cli.classify, "cv_fitter", failing_fitter)
    ops = jobs.Ops()
    result = jobs.cv_job(trained, "full", 7, False, jobs.NoTracer(), ops)
    assert result["info"]["failed_folds"] > 0 and ops.failed > 0


def test_cv_sample_has_fixed_sizes_and_repeats_short_commands(trained):
    sets = jobs.datasetgen.read_dataset(str(trained / "dataset.jsonl"))
    for scale, wanted in jobs.CV_SAMPLE.items():
        sample = jobs.cv_sample(sets, scale)
        assert [len(s.instances) for s in sample] == [size for _, size in wanted]
        assert all(sum(c for _, c in s.variants) == len(s.instances) for s in sample)
    ops = jobs.Ops()
    result = jobs.cv_job(trained, "side", 7, True, jobs.NoTracer(), ops)
    assert ops.failed == 0
    assert {fam: len(ts) for fam, ts in result["times"].items()} == {"ngram": 3, "clf": 3, "emb": 3}


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.active = True

    def inner():
        sum(range(20000))

    inner_span = tracer.wrap("inner", inner)

    def outer():
        inner_span()
        inner_span()
        sum(range(20000))

    tracer.wrap("outer", outer)()
    spans = tracer.summary()["spans"]
    assert spans["inner"]["calls"] == 2 and spans["outer"]["calls"] == 1
    assert spans["outer"]["self_s"] == pytest.approx(spans["outer"]["s"] - spans["inner"]["s"])
    assert spans["inner"]["self_s"] == pytest.approx(spans["inner"]["s"])


def test_strip_cache_tally_spans_the_clears():
    cache = jobs.StripCache()
    cache.take()
    jobs.corpus.strip_diacritics("kàlo")
    jobs.corpus.strip_diacritics("kàlo")
    cache.clear()
    jobs.corpus.strip_diacritics("kàlo")
    assert cache.take() == {"hits": 1, "misses": 2, "entries": 1}
    assert cache.take() == {"hits": 0, "misses": 0, "entries": 0}
