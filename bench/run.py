"""Benchmark of the diacritize toolkit: restore and cv workloads.

    python3 bench/run.py --workload {restore,cv} --seed N --seconds S --trace {0,1}
        [--size full|small]

Run from the root of a source checkout; the program is imported from
`src/`. The seed makes the inputs (see gen.py); the program receives only
the generated files. The workload runs in a process of its own (jobs.py):
a checked warm-up round of the train, restore and cv jobs, then timed rounds
until --seconds have gone by, and at least MIN_ROUNDS of them.

The workload names the job that runs at full size; the other of restore and
cv runs at side size. The side restore text has 20-token lines only, so the
n-gram prefix walk stays short; the side cv takes two small wordkey sets.
`train` runs at full size in both workloads, because restore and cv use what
it writes.

Timings are scaled to the host's idle speed: each sample is bracketed by two
probes of a fixed calibration loop and multiplied by the loop's nominal time
over its measured one (jobs.probe, metrics.scaled). On this shared host the
wall time of one and the same run moves by up to 1.8x with the other
tenants' load, for minutes at a time; the scaled time holds within a few
percent. A command's time is the median of its runs (the short commands run
three times a round), `setup_s` the median of every pipeline load, and a
restored line's latency the median of its rounds. The unscaled figures are
printed on the `wall_clock` line.

With --trace 0 the last stdout line holds every end-to-end metric. With
--trace 1 one plain round and one traced round follow the warm-up: the last
line holds the per-layer metrics of the traced round and the tracing overhead
(traced minus plain end-to-end figures), and the output digests of both
rounds must match the warm-up's. Spans and a summary go to .bench_out/. The
lines before the last give the environment, sample counts, output digests
and failed checks. --size small shrinks the restore texts for the
benchmark's own tests.
"""

from __future__ import annotations

import os

# Pinned before anything imports numpy; the workload's process inherits them.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = ("restore", "cv")
JOBS = ("train", "restore", "cv")
# Tokens of training corpus, groups of gen.LINE_MIX lines of held-out text
# (20 lines, 1240 tokens each), and lines of the 20-token held-out text.
SIZES = {
    "full": {"corpus": 12_000, "mixed_groups": 51, "short_lines": 1100},
    "small": {"corpus": 12_000, "mixed_groups": 2, "short_lines": 40},
}
MIN_ROUNDS = 3
DEADLINE_S = 170


class BenchError(Exception):
    pass


def write_inputs(work: Path, seed: int, size: str) -> None:
    """Generate every input file of one run from its seed."""
    sizes = SIZES[size]
    lang = gen.build_language()
    gen.write_lines(work / "corpus.txt", gen.corpus_lines(lang, f"corpus-{seed}", sizes["corpus"]))
    mixed = gen.heldout_lines(lang, f"heldout-{seed}", sizes["mixed_groups"])
    short = gen.heldout_lines(lang, f"short-{seed}", sizes["short_lines"], mix=((20, 1),))
    for name, lines in (("mixed", mixed), ("short", short)):
        gen.write_lines(work / f"gold_{name}.txt", lines)
        gen.write_lines(work / f"heldout_{name}.txt", [gen.strip_line(line) for line in lines])
    gen.write_vectors(work / "vectors.txt", lang.vectors)


def run_workload(work: Path, args, deadline: float) -> dict:
    """The workload's process: its rounds, operation counts and peak memory."""
    result = work / "result.json"
    argv = [sys.executable, str(HERE / "jobs.py"), args.workload, str(work), "--result", str(result),
            "--seconds", str(args.seconds), "--seed", str(args.seed), "--min-rounds", str(MIN_ROUNDS)]
    if args.trace:
        argv.append("--trace")
    # One hash seed for every run, so dict and set layouts do not differ
    # from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, env=env, timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError("the workload ran past the deadline")
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"the workload exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def digests(rnd: dict) -> dict:
    return {k: v for job in JOBS for k, v in rnd[job]["digests"].items()}


def tally(run: dict) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over the whole run, and what failed.

    The warm-up checks every restored line; a later round's lines pass when
    its outputs have the warm-up's digests.
    """
    attempted, failed, failures = run["attempted"], run["failed"], list(run["failures"])
    first = digests(run["warmup"])
    for i, rnd in enumerate(run["rounds"], start=1):
        lines = sum(len(ts) for ts in rnd["restore"]["latencies"].values())
        attempted += lines
        if digests(rnd) != first:
            failed += lines
            failures.append(f"round {i}: outputs differ from the warm-up round")
    return attempted, failed, failures


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(work: Path, args, env: dict, deadline: float) -> tuple[dict, dict]:
    """The result line's metrics and the run they came from."""
    run = run_workload(work, args, deadline)
    if not args.trace:
        values, samples = metrics.end_to_end(run["rounds"], run)
        raw, _ = metrics.end_to_end(run["rounds"], run, raw=True)
        units = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        print("samples " + json.dumps(samples), flush=True)
        print("wall_clock " + json.dumps(raw), flush=True)
        return {name: {"value": values[name], "unit": units[name]} for name in units}, run

    plain, traced = run["rounds"]
    e2e, _ = metrics.end_to_end([plain], run)
    e2e_traced, _ = metrics.end_to_end([traced], run)
    overhead = {name: e2e_traced[name] - e2e[name] for name in e2e}
    values = metrics.per_layer(traced, run["trace"], overhead)

    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    shutil.move(str(work / "spans.npz"), str(out / "spans.npz"))
    summary = {"env": env, "trace": run["trace"], "untraced": e2e, "traced": e2e_traced}
    (out / "trace.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"trace written to {out}", flush=True)
    units = {name: unit for name, unit, _, _ in metrics.PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]} for name in units}, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "diacritize" / "__init__.py").is_file():
        print(f"bench: no diacritize sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "size": args.size,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        write_inputs(work, args.seed, args.size)
        result_metrics, run = measure(work, args, env, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, failures = tally(run)
    env.update(rounds=len(run["rounds"]), numpy=run["numpy"])
    print("env " + json.dumps(env), flush=True)
    print("info " + json.dumps({job: run["warmup"][job].get("info", {}) for job in JOBS}, ensure_ascii=False), flush=True)
    print("digests " + json.dumps(digests(run["warmup"])), flush=True)
    for failure in failures:
        print(f"FAILED {failure}", flush=True)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result_metrics}
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
