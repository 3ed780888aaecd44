"""One workload of the benchmark, run in a process of its own.

    python3 bench/jobs.py {restore,cv} WORKDIR --result FILE --seconds S
        [--seed N] [--min-rounds R] [--trace]

The process runs rounds of the benchmark's three jobs in-process, one
caller in a closed loop:

    train    dataset, train ngram -n 5, train clf --kind logistic (cli.main)
    restore  load both pipelines, restore a stripped text line by line with
             the calls `diacritize restore` makes, timing each line
    cv       eval cv -k 10 once per restorer family on a sample of wordkeys

The workload names the job that runs at full size; the other of restore and
cv runs at side size, and train at full size, because restore and cv use what
it writes. The first round is the warm-up: it is not timed for the metrics,
and it checks the outputs (restored text against the CLI and the gold text,
cv folds). Timed rounds follow until --seconds have gone by, and at least
--min-rounds of them; their outputs must have the warm-up's digests. With
--trace one untimed round runs plain and one traced, instead. Every round and
the operation counts, output digests and peak memory go to the result file.

Each CLI command starts from an empty `strip_diacritics` cache, as it does in
a process of its own; the cache's hits and misses are tallied across those
clears.

Every timed sample (a CLI command, a pipeline load, a chunk of restored
lines) is bracketed by two probes of the host's speed (see `probe`). The
result file holds the wall times (`times`, `loads`, `latencies`) and the
probes (`probes`, `load_probes`, `chunk_probes`); metrics.py scales the one
by the other.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, so BLAS and OpenMP stay single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import json
import logging
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from diacritize import cli, corpus, datasetgen, evaluate, pipeline  # noqa: E402
from diacritize.errors import DataError  # noqa: E402

import gen  # noqa: E402

# Pipeline loads per restore pass; `setup_s` is the median of them all.
SETUP_PER_PASS = 3
CHUNK_LINES = 100
# Runs of a CLI command per timed round. A command of a tenth of a second
# moves by 15-20% from one run to the next on a shared host, so the short
# ones are timed three times; the warm-up and the --trace rounds run each
# command once.
REPEATS = 3
CV_FOLDS = "10"
CV_RESTORERS = (("ngram", "ngram:5"), ("clf", "clf:logistic"), ("emb", "emb:tweak1"))
# The cv sample: (index into gen's ambiguous wordkeys, most frequent first;
# instances kept) per set. A full cv spans mid-size down to small sets, a
# side cv takes two sets too small to fold. Each set holds more instances
# than it keeps and is cut to its size, so every seed asks the same cv work.
CV_SAMPLE = {
    "full": ((0, 56), (4, 40), (13, 28), (24, 18), (39, 12), (50, 10)),
    "side": ((57, 6), (59, 4)),
}


class Ops:
    """Counts operations attempted and failed, keeping the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def calibration_loop() -> int:
    """A fixed pure-Python loop of dict updates and string sorting."""
    counts: dict = {}
    for i in range(12_000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
    words = sorted([str(i * 7919 % 1009) for i in range(3_000)])
    return len("".join(words)) + len(counts)


def probe() -> float:
    """The calibration loop's median time over three runs, in seconds.

    On a shared host the other tenants slow every instruction by up to 1.8x,
    for spells of a fraction of a second to minutes. The loop slows with
    them; it is the benchmark's own code, so a change to the program moves
    the samples and not the loop.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class StripCache:
    """Hits, misses and peak entries of `corpus.strip_diacritics`'s cache over a round."""

    def __init__(self):
        self.tally = {"hits": 0, "misses": 0, "entries": 0}

    def clear(self) -> None:
        """Fold the cache's counts into the tally and empty it."""
        info = getattr(corpus.strip_diacritics, "cache_info", None)
        if info is None:
            return
        now = info()
        self.tally["hits"] += now.hits
        self.tally["misses"] += now.misses
        self.tally["entries"] = max(self.tally["entries"], now.currsize)
        corpus.strip_diacritics.cache_clear()

    def take(self) -> dict:
        """The tally since the last take; the cache starts empty again."""
        self.clear()
        tally, self.tally = self.tally, {"hits": 0, "misses": 0, "entries": 0}
        return tally


CACHE = StripCache()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class NoTracer:
    """Stands in for the tracer in the untraced run."""

    active = False
    label = "-"

    def begin_op(self, op):
        pass


@contextlib.contextmanager
def paused(tracer):
    """Checks run the program too; keep their calls out of the spans."""
    was = tracer.active
    tracer.active = False
    try:
        yield
    finally:
        tracer.active = was


def run_cli(tracer, ops: Ops, label: str, argv, runs: int = 1) -> tuple[list, list]:
    """A CLI command in-process, `runs` times: wall times in seconds, and probes."""
    tracer.label = label
    walls, probes = [], []
    for _ in range(runs):
        tracer.begin_op(label)
        CACHE.clear()
        gc.collect()
        before = probe()
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
        probes.append([before, probe()])
        ops.check(code == 0, f"{label}: exit {code}")
    return walls, probes


def train_job(work: Path, repeat: bool, tracer, ops: Ops) -> dict:
    corpus_path, ds = str(work / "corpus.txt"), str(work / "dataset.jsonl")
    ng, clf = str(work / "ngram.json"), str(work / "clf.json")
    commands = (
        ("dataset", ["dataset", corpus_path, "-o", ds], REPEATS),
        ("train_ngram", ["train", "ngram", corpus_path, "--dataset", ds, "-o", ng, "-n", "5"], REPEATS),
        ("train_clf", ["train", "clf", corpus_path, "--dataset", ds, "-o", clf, "--kind", "logistic"], 1),
    )
    measured = {
        label: run_cli(tracer, ops, label, argv, runs if repeat else 1)
        for label, argv, runs in commands
    }
    return {
        "times": {label: walls for label, (walls, _) in measured.items()},
        "probes": {label: probes for label, (_, probes) in measured.items()},
        "pipeline_bytes": os.path.getsize(ng) + os.path.getsize(clf),
        "digests": {"dataset": sha256(ds), "ngram_pipeline": sha256(ng), "clf_pipeline": sha256(clf)},
    }


def restore_pass(pipes: dict, raw_lines, tracer, keep: bool = False):
    """Restore every line with each pipeline as `diacritize restore` does, timing each line.

    The pipelines take turns every CHUNK_LINES lines, so the samples of each
    are spread over the whole pass rather than bunched in one stretch of it.
    Each chunk is one calibrated sample: a pair of probes brackets its lines.
    A restored line is kept as its text, as `diacritize restore` writes it
    out; with `keep` its tokens too, for the checks. Holding every token of
    the pass would grow the heap that the garbage collector walks.
    """
    latencies = {fam: [] for fam in pipes}
    chunk_probes = {fam: [] for fam in pipes}
    texts = {fam: [] for fam in pipes}
    kept = {fam: [] for fam in pipes}
    tokens_seen = words = 0
    for start in range(0, len(raw_lines), CHUNK_LINES):
        for fam, pipe in pipes.items():
            tracer.label = fam
            chunk = raw_lines[start : start + CHUNK_LINES]
            before = probe()
            for i, raw in enumerate(chunk, start=start):
                tracer.begin_op(f"restore_{fam}:{i}")
                t0 = time.perf_counter()
                tokens = corpus.tokenize(corpus.normalize(raw))
                out = pipeline.restore_line(pipe, tokens)
                latencies[fam].append(time.perf_counter() - t0)
                texts[fam].append(" ".join(t.surface for t in out))
                if keep:
                    kept[fam].append((tokens, out))
                if fam == "ngram":
                    tokens_seen += len(tokens)
                    words += sum(t.kind is corpus.TokenKind.WORD for t in tokens)
            chunk_probes[fam].append([before, probe(), len(chunk)])
    return {
        "latencies": latencies, "chunk_probes": chunk_probes, "texts": texts,
        "kept": kept, "tokens": tokens_seen, "words": words,
    }


def restore_bytes(texts) -> bytes:
    return "".join(line + "\n" for line in texts).encode("utf-8")


def check_lines(restored, ops: Ops, fam: str) -> None:
    """Shape and letters survive: same token count, tokens strip back to the input."""
    for i, (tokens, out) in enumerate(restored):
        ok = len(out) == len(tokens) and all(
            gen.strip_word(o.surface).lower() == t.surface.lower()
            for t, o in zip(tokens, out)
        )
        ops.check(ok, f"restore {fam} line {i + 1}: output does not strip back to the input")


def restore_job(work: Path, scale: str, check: bool, tracer, ops: Ops) -> dict:
    text = "mixed" if scale == "full" else "short"
    stripped, gold = work / f"heldout_{text}.txt", work / f"gold_{text}.txt"
    paths = {"ngram": work / "ngram.json", "clf": work / "clf.json"}
    with open(stripped, encoding="utf-8") as fh:
        raw_lines = [raw.rstrip("\n") for raw in fh]

    tracer.label = "setup"
    tracer.begin_op("setup")
    loads, load_probes = [], []
    for _ in range(SETUP_PER_PASS):
        pipes = None
        gc.collect()
        before = probe()
        t0 = time.perf_counter()
        pipes = {fam: pipeline.load_pipeline(str(p)) for fam, p in paths.items()}
        loads.append(time.perf_counter() - t0)
        load_probes.append([before, probe()])

    done = restore_pass(pipes, raw_lines, tracer, keep=check)
    result = {
        "loads": loads,
        "load_probes": load_probes,
        "latencies": done["latencies"],
        "chunk_probes": done["chunk_probes"],
        "tokens": done["tokens"],
        "words": done["words"],
        "digests": {
            f"restored_{text}_{fam}": hashlib.sha256(restore_bytes(texts)).hexdigest()
            for fam, texts in done["texts"].items()
        },
    }
    if not check:
        # Later passes are checked by their digests matching the first pass.
        return result

    info = result["info"] = {}
    with paused(tracer):
        gold_corpus = corpus.load_corpus(str(gold))
        for fam, restored in done["kept"].items():
            check_lines(restored, ops, fam)
            cli_out = work / f"cli_restored_{fam}.txt"
            code = cli.main(["restore", "--model", str(paths[fam]), "--in", str(stripped), "--out", str(cli_out)])
            ops.check(
                code == 0 and cli_out.read_bytes() == restore_bytes(done["texts"][fam]),
                f"restore {fam}: bytes differ from `diacritize restore`",
            )
            try:
                scores = evaluate.full_text_eval(corpus.Corpus([out for _, out in restored]), gold_corpus)
            except DataError as exc:
                ops.check(False, f"restore {fam}: cannot score against the gold text: {exc}")
                continue
            info[f"accuracy_{fam}"] = scores["accuracy"]
            info["baseline_accuracy"] = scores["baseline_accuracy"]
        if "accuracy_ngram" in info:
            ops.check(
                info["accuracy_ngram"] > info["baseline_accuracy"],
                f"restore ngram: accuracy {info['accuracy_ngram']:.4f} does not beat "
                f"the stripped baseline {info['baseline_accuracy']:.4f}",
            )
    return result


def cv_sample(sets, scale: str):
    """The cv sample's sets, each cut to its first `size` instances.

    A wordkey whose set is missing from the seed's dataset, too small, or
    left with one variant after the cut gives way to the next more frequent
    one.
    """
    by_key = {s.wordkey: s for s in sets}
    keys = [amb.key for amb in gen.build_language().ambiguous]
    sample = []
    for start, size in CV_SAMPLE[scale]:
        for key in keys[start::-1]:
            aset = by_key.pop(key, None)
            if aset is None or len(aset.instances) < size:
                continue
            kept = aset.instances[:size]
            counts = Counter(inst.label for inst in kept)
            if len(counts) < 2:
                continue
            variants = [(v, counts[v]) for v, _ in aset.variants if counts[v]]
            sample.append(datasetgen.AmbiguousSet(aset.wordkey, variants, kept))
            break
        else:
            raise DataError(f"no wordkey set of {size} instances for the {scale} cv sample")
    return sample


def cv_job(work: Path, scale: str, seed: int, repeat: bool, tracer, ops: Ops) -> dict:
    corpus_path, vectors = str(work / "corpus.txt"), str(work / "vectors.txt")
    cv_ds = work / f"cv_{scale}.jsonl"
    with paused(tracer):
        sample = cv_sample(datasetgen.read_dataset(str(work / "dataset.jsonl")), scale)
        datasetgen.write_dataset(sample, str(cv_ds))
    times, probes, digests, failed_folds = {}, {}, {"cv_dataset": sha256(cv_ds)}, 0
    for fam, spec in CV_RESTORERS:
        report = work / f"cv_{fam}.json"
        report.unlink(missing_ok=True)
        argv = ["eval", "cv", "--corpus", corpus_path, "--dataset", str(cv_ds),
                "--restorer", spec, "-k", CV_FOLDS, "--seed", str(seed), "--report", str(report)]
        if fam == "emb":
            argv += ["--vectors", vectors]
        # The full logistic cv takes a few tenths of a second; it runs twice.
        runs = 1 if not repeat else 2 if (fam, scale) == ("clf", "full") else REPEATS
        times[fam], probes[fam] = run_cli(tracer, ops, f"eval_cv_{fam}", argv, runs)
        if not report.exists():
            ops.check(False, f"eval cv {spec}: no report")
            continue
        folds = json.loads(report.read_text(encoding="utf-8")).get(spec, {}).get("folds", {})
        for aset in sample:
            fails = folds.get(aset.wordkey, {}).get("failed_folds")
            failed_folds += len(fails or ())
            ops.check(fails == [], f"eval cv {spec} {aset.wordkey}: failed folds {fails}")
        digests[f"cv_{scale}_{fam}_report"] = sha256(report)
    return {
        "times": times,
        "probes": probes,
        "digests": digests,
        "info": {
            "cv_wordkeys": [s.wordkey for s in sample],
            "cv_set_sizes": [len(s.instances) for s in sample],
            "failed_folds": failed_folds,
        },
    }


def run_round(work: Path, workload: str, seed: int, check: bool, tracer, ops: Ops, repeat: bool = False) -> dict:
    """One pass of each job; `workload` names the one of restore and cv at full size.

    With `repeat` the short CLI commands run REPEATS times.
    """
    CACHE.take()
    rnd = {
        "train": train_job(work, repeat, tracer, ops),
        "restore": restore_job(work, "full" if workload == "restore" else "side", check, tracer, ops),
        "cv": cv_job(work, "full" if workload == "cv" else "side", seed, repeat, tracer, ops),
    }
    rnd["cache"] = CACHE.take()
    return rnd


def run_workload(work: Path, workload: str, seed: int, seconds: float, min_rounds: int, traced: bool) -> dict:
    ops = Ops()
    warmup = run_round(work, workload, seed, True, NoTracer(), ops)
    result = {"warmup": warmup}
    if traced:
        from spans import Tracer

        plain = run_round(work, workload, seed, False, NoTracer(), ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced_round = run_round(work, workload, seed, False, tracer, ops)
        finally:
            tracer.uninstall()
        result["rounds"] = [plain, traced_round]
        result["trace"] = tracer.summary()
        tracer.save(work / "spans.npz")
    else:
        rounds = result["rounds"] = []
        t0 = time.monotonic()
        while len(rounds) < min_rounds or time.monotonic() - t0 < seconds:
            rounds.append(run_round(work, workload, seed, False, NoTracer(), ops, repeat=True))
    result.update(
        workload=workload, attempted=ops.attempted, failed=ops.failed, failures=ops.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, numpy=np.__version__,
    )
    return result


def main(argv=None) -> int:
    # The embedding code warns about every variant without a vector; the
    # counts that matter come from the traced run.
    logging.getLogger("diacritize").addHandler(logging.NullHandler())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workload", choices=("restore", "cv"))
    parser.add_argument("work", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-rounds", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run_workload(args.work, args.workload, args.seed, args.seconds, args.min_rounds, args.trace)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
