"""Metric tables of the benchmark and their computation from job results.

BENCHMARK.json lists the same names, units, directions and bounds; a test
keeps the two in step. The last field of each `PER_LAYER` entry records the
end-to-end metrics and the workload it should move: BENCHMARK.json has no
field for that. "(train)" there means the train job, which runs at full size
in both workloads; "(restore)" and "(cv)" mean the workload that runs that
job at full size. Per-layer figures sum over the three jobs of the traced
round.
"""

from __future__ import annotations

import statistics

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("restore_ngram_tok_per_s", "tok/s", "higher", 0.25),
    ("restore_ngram_line_ms_p50", "ms", "lower", 0.25),
    ("restore_ngram_line_ms_p99", "ms", "lower", 0.25),
    ("restore_clf_tok_per_s", "tok/s", "higher", 0.25),
    ("restore_clf_line_ms_p50", "ms", "lower", 0.25),
    ("restore_clf_line_ms_p99", "ms", "lower", 0.25),
    ("dataset_s", "s", "lower", 0.25),
    ("train_ngram_s", "s", "lower", 0.25),
    ("train_clf_s", "s", "lower", 0.25),
    ("cv_ngram_s", "s", "lower", 0.25),
    ("cv_clf_s", "s", "lower", 0.25),
    ("cv_emb_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("pipeline_mb", "MB", "lower", 0.1),
)

FAMILIES = ("ngram", "clf", "emb")
RESTORE_FAMILIES = ("ngram", "clf")
# CLI command label -> the end-to-end metric timing it
CLI_COMMANDS = {
    "dataset": "dataset_s",
    "train_ngram": "train_ngram_s",
    "train_clf": "train_clf_s",
    "eval_cv_ngram": "cv_ngram_s",
    "eval_cv_clf": "cv_clf_s",
    "eval_cv_emb": "cv_emb_s",
}

# name, unit, better, what it should move (end-to-end metric and workload)
PER_LAYER = [
    ("corpus.load_corpus.s", "s", "lower", "dataset_s, train_*_s (train); cv_*_s (cv)"),
    ("corpus.tokenize.s", "s", "lower", "restore_*_tok_per_s, restore_*_line_ms_p50 (restore)"),
    ("corpus.tokenize.calls", "count", "lower", "restore_*_tok_per_s, restore_*_line_ms_p50 (restore)"),
    ("corpus.strip_diacritics.hit_ratio", "ratio", "higher", "every workload; peak_rss_mb"),
    ("corpus.strip_diacritics.entries", "count", "lower", "every workload; peak_rss_mb"),
    ("datasetgen.generate.s", "s", "lower", "dataset_s (train)"),
    ("datasetgen.write_dataset.s", "s", "lower", "dataset_s (train)"),
    ("datasetgen.read_dataset.s", "s", "lower", "train_*_s (train); cv_*_s (cv)"),
    ("datasetgen.sets", "count", "lower", "work count: dataset_s (train)"),
    ("datasetgen.instances", "count", "lower", "work count: dataset_s, train_clf_s (train)"),
    ("ngram.prepare.s", "s", "lower", "train_ngram_s, train_clf_s (train); cv_ngram_s (cv)"),
    ("ngram.prepare.calls", "count", "lower", "train_ngram_s, train_clf_s (train); cv_ngram_s (cv)"),
    ("ngram.find_occurrences.s", "s", "lower", "train_ngram_s (train); cv_ngram_s (cv)"),
    ("ngram.train_from_occurrences.s", "s", "lower", "train_ngram_s (train); cv_ngram_s (cv)"),
    ("ngram.train_from_occurrences.calls", "count", "lower", "train_ngram_s (train, 1 call); cv_ngram_s (cv, folds x wordkeys)"),
    ("ngram.restore_instance.s", "s", "lower", "restore_ngram_tok_per_s, restore_ngram_line_ms_p99 (restore); cv_ngram_s (cv)"),
    ("ngram.restore_instance.calls", "count", "lower", "restore_ngram_tok_per_s, restore_ngram_line_ms_p99 (restore); cv_ngram_s (cv)"),
    ("ngram.restore_instance.prefix_tokens_per_call", "tok", "lower", "restore_ngram_tok_per_s, restore_ngram_line_ms_p99 (restore); cv_ngram_s (cv)"),
    ("ngram.model_payload.s", "s", "lower", "train_ngram_s (train)"),
    ("ngram.model_from_payload.s", "s", "lower", "setup_s (restore)"),
    ("classify.fit_instances.s", "s", "lower", "train_clf_s (train); cv_clf_s (cv)"),
    ("classify.fit_instances.calls", "count", "lower", "train_clf_s (train, one per wordkey); cv_clf_s (cv, one per fold)"),
    ("classify.train_classifier.s", "s", "lower", "train_clf_s (train); cv_clf_s (cv)"),
    ("classify.Vectorizer.fit.s", "s", "lower", "train_clf_s (train); cv_clf_s (cv)"),
    ("classify.Vectorizer.transform.s", "s", "lower", "train_clf_s (train); cv_clf_s (cv)"),
    ("classify.extract_window.calls", "count", "lower", "cv_clf_s (cv)"),
    ("classify.windows_per_instance", "ratio", "lower", "cv_clf_s (cv)"),
    ("classify.predict.s", "s", "lower", "restore_clf_tok_per_s (restore); cv_clf_s (cv)"),
    ("classify.predict.calls", "count", "lower", "restore_clf_tok_per_s (restore); cv_clf_s (cv)"),
    ("classify.classifier_payload.s", "s", "lower", "train_clf_s (train)"),
    ("classify.classifier_from_payload.s", "s", "lower", "setup_s (restore)"),
    ("embed.load_vectors.s", "s", "lower", "cv_emb_s (cv)"),
    ("embed.build_cowords.s", "s", "lower", "cv_emb_s (cv)"),
    ("embed.enhance.s", "s", "lower", "cv_emb_s (cv)"),
    ("embed.restore_instance.s", "s", "lower", "cv_emb_s (cv)"),
    ("embed.restore_instance.calls", "count", "lower", "cv_emb_s (cv)"),
    ("embed.prior_fallback_ratio", "ratio", "lower", "cv_emb_s (cv): guards against falling back more"),
    ("embed.unrepresentable", "count", "lower", "cv_emb_s (cv): guards against falling back more"),
    ("evaluate.crossval.self_s", "s", "lower", "cv_*_s (cv)"),
    ("evaluate.crossval.calls", "count", "lower", "cv_*_s (cv)"),
]
PER_LAYER += [(f"evaluate.fit.{f}.s", "s", "lower", f"cv_{f}_s (cv)") for f in FAMILIES]
PER_LAYER += [(f"evaluate.predict.{f}.s", "s", "lower", f"cv_{f}_s (cv)") for f in FAMILIES]
PER_LAYER += [
    ("evaluate.stratified_folds.s", "s", "lower", "cv_*_s (cv)"),
    ("evaluate.failed_folds", "count", "lower", "failed operations (cv)"),
    ("pipeline.build_maps.s", "s", "lower", "train_*_s, pipeline_mb (train)"),
    ("pipeline.save_pipeline.s", "s", "lower", "train_*_s, pipeline_mb (train)"),
]
PER_LAYER += [(f"pipeline.load_pipeline.{f}.s", "s", "lower", "setup_s (restore)") for f in RESTORE_FAMILIES]
for _f in RESTORE_FAMILIES:
    _moves = f"restore_{_f}_tok_per_s, restore_{_f}_line_ms_* (restore)"
    PER_LAYER += [
        (f"pipeline.restore_line.{_f}.self_s", "s", "lower", _moves),
        (f"pipeline.predict_instance.{_f}.s", "s", "lower", _moves),
        (f"pipeline.predict_instance.{_f}.calls", "count", "lower", _moves),
        (f"pipeline.match_case.{_f}.s", "s", "lower", _moves),
        (f"pipeline.restorer_calls_per_word.{_f}", "ratio", "lower", _moves),
    ]
PER_LAYER += [(f"cli.main.{c}.self_s", "s", "lower", m) for c, m in CLI_COMMANDS.items()]
# Tracing overhead: the traced run's end-to-end figure minus the untraced one.
PER_LAYER += [
    (f"overhead.{name}", unit, better, f"tracing cost on {name}")
    for name, unit, better, _ in END_TO_END
]


# A fixed reference time for the calibration loop (jobs.probe), near its
# fastest on an Intel Xeon vCPU under CPython 3.11 (1.5-1.8 ms): scaled
# times are seconds at that reference speed.
CAL_NOMINAL_S = 0.0015


def scaled(rnd: dict, raw: bool = False) -> dict:
    """A round's wall times, each scaled to the host's idle speed by its own probes.

    A sample's time is multiplied by CAL_NOMINAL_S over the mean of the probe
    just before it and the probe just after it; with `raw` it is left as is.
    On a shared host the wall times of one and the same run move by up to
    1.8x with the other tenants' load; the scaled times hold within a few
    percent. One factor for the whole run, from its median probe, tracks the
    load less closely: over five seeds on a busy host its figures spread two
    to four times as much.
    """

    def scale(walls, pairs):
        if raw:
            return list(walls)
        return [w * CAL_NOMINAL_S / ((b + a) / 2.0) for w, (b, a) in zip(walls, pairs)]

    restore = rnd["restore"]
    latencies = {}
    for fam, walls in restore["latencies"].items():
        pairs = [(b, a) for b, a, n in restore["chunk_probes"][fam] for _ in range(n)]
        latencies[fam] = scale(walls, pairs)
    return {
        "train": {k: scale(v, rnd["train"]["probes"][k]) for k, v in rnd["train"]["times"].items()},
        "cv": {k: scale(v, rnd["cv"]["probes"][k]) for k, v in rnd["cv"]["times"].items()},
        "loads": scale(restore["loads"], restore["load_probes"]),
        "latencies": latencies,
    }


def end_to_end(rounds: list[dict], run: dict, raw: bool = False) -> tuple[dict, dict]:
    """Every end-to-end figure, and its sample count, from rounds of job results.

    Timings are scaled to the host's idle speed (see `scaled`), or with `raw`
    left as wall-clock times. A command's time is the median of its runs over
    the rounds, set-up the median of every load, and a restored line's
    latency the median of its rounds; the p50 and p99 are over those lines.
    """
    scaled_rounds = [scaled(r, raw) for r in rounds]
    n = len(rounds)
    values, samples = {}, {}
    for label in ("dataset", "train_ngram", "train_clf"):
        runs = [x for r in scaled_rounds for x in r["train"][label]]
        values[f"{label}_s"] = statistics.median(runs)
        samples[f"{label}_s"] = f"median of {len(runs)} runs"
    loads = [x for r in scaled_rounds for x in r["loads"]]
    values["setup_s"] = statistics.median(loads)
    samples["setup_s"] = f"median of {len(loads)} loads of both pipelines"
    tokens = rounds[0]["restore"]["tokens"]
    for fam in RESTORE_FAMILIES:
        line_ms = [
            statistics.median(ts) * 1000.0
            for ts in zip(*(r["latencies"][fam] for r in scaled_rounds))
        ]
        values[f"restore_{fam}_tok_per_s"] = tokens / (sum(line_ms) / 1000.0)
        values[f"restore_{fam}_line_ms_p50"] = statistics.median(line_ms)
        values[f"restore_{fam}_line_ms_p99"] = statistics.quantiles(line_ms, n=100, method="inclusive")[98]
        for name in ("tok_per_s", "line_ms_p50", "line_ms_p99"):
            samples[f"restore_{fam}_{name}"] = f"{len(line_ms)} lines, each the median of {n}"
    for fam in FAMILIES:
        runs = [x for r in scaled_rounds for x in r["cv"][fam]]
        values[f"cv_{fam}_s"] = statistics.median(runs)
        samples[f"cv_{fam}_s"] = f"median of {len(runs)} runs"
    values["peak_rss_mb"] = run["peak_rss_mb"]
    samples["peak_rss_mb"] = f"the {run['workload']} workload's process"
    values["pipeline_mb"] = rounds[0]["train"]["pipeline_bytes"] / 1e6
    samples["pipeline_mb"] = "both pipeline files of round 1"
    return values, samples


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: dict, trace: dict, overhead: dict) -> dict:
    """Every per-layer figure from the traced round and its span summary."""
    spans, counts = trace["spans"], trace["counts"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    values = {}
    for name, _, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls"):
            values[name] = span(base, field)
    cache = traced["cache"]
    values["corpus.strip_diacritics.hit_ratio"] = _ratio(cache["hits"], cache["hits"] + cache["misses"])
    values["corpus.strip_diacritics.entries"] = cache["entries"]
    values["datasetgen.sets"] = counts.get("datasetgen.sets", 0)
    values["datasetgen.instances"] = counts.get("datasetgen.instances", 0)
    values["ngram.restore_instance.prefix_tokens_per_call"] = _ratio(
        counts.get("ngram.prefix_tokens", 0), span("ngram.restore_instance", "calls")
    )
    values["classify.windows_per_instance"] = _ratio(
        counts.get("extract_window.calls.eval_cv_clf", 0),
        counts.get("extract_window.distinct.eval_cv_clf", 0),
    )
    values["embed.prior_fallback_ratio"] = _ratio(
        counts.get("embed.prior_fallbacks", 0), counts.get("embed.candidates", 0)
    )
    values["embed.unrepresentable"] = counts.get(
        "raised.embed.restore_instance.UnrepresentableInstance", 0
    )
    values["evaluate.failed_folds"] = traced["cv"]["info"]["failed_folds"]
    for f in RESTORE_FAMILIES:
        values[f"pipeline.restorer_calls_per_word.{f}"] = _ratio(
            span(f"pipeline.predict_instance.{f}", "calls"), traced["restore"]["words"]
        )
    for name, value in overhead.items():
        values[f"overhead.{name}"] = value
    return values
