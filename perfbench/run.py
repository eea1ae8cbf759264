"""Benchmark dpvideo through its public Python API.

    python3 perfbench/run.py --workload video_k8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, untraced then traced

Run from the root of a checkout: dpvideo is imported from its src/ directory.
With --trace 0 a run prints every end-to-end metric; with --trace 1 it runs the
workload once untraced and once with spans around dpvideo's public functions,
and prints the per-layer metrics. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Details (machine, report
digests, per-round figures) go to perfbench/results/, spans to *.spans.tsv.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("video_k8", "sweep_short", "peft_transfer")
BLAS_THREADS = 1  # one thread per process: steadier timings, and at most nproc on any machine
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARIABLES},
    }


def measure(workload, seconds: float) -> list:
    """Whole rounds until another round would run past `seconds`; at least one."""
    started = time.perf_counter()
    rounds, took = [], []
    while True:
        begun = time.perf_counter()
        rounds.append(workload.round())
        took.append(time.perf_counter() - begun)
        if time.perf_counter() - started + statistics.median(took) > seconds:
            return rounds


def end_to_end(workload, setups: list[float], rounds: list) -> dict:
    evals = [s for r in rounds for s in r.eval_s]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "calibrate_s": (statistics.median(r.calibrate_s for r in rounds), "s"),
        "train_clips_per_s": (sum(r.train_clips for r in rounds) / sum(r.train_s for r in rounds), "1/s"),
        "eval_videos_per_s": (len(workload.videos["eval"]) / statistics.median(evals), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(workload, spans_path: Path):
    """One set-up and round untraced, then the same with spans; returns (setups, rounds, metrics, failures)."""
    import layers
    from spans import Tracer

    started = time.perf_counter()
    setups = [workload.setup()]
    rounds = [workload.round()]
    untraced_s = time.perf_counter() - started
    tracer = Tracer()
    with tracer.installed(layers.POINTS):
        started = time.perf_counter()
        setups.append(workload.setup())
        rounds.append(workload.round())
        traced_s = time.perf_counter() - started
    tracer.write(str(spans_path))

    totals = tracer.totals(layers.ROOT_SPAN)
    metrics = layers.metrics(totals, tracer.counts)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["trace.spans"] = (len(tracer.names), "count")
    # fixed by the seed, or made only by peft_transfer: taken from the untraced pass
    plain = rounds[0]
    metrics["trainer.final_accuracy"] = (
        sum(rep.final_accuracy for rep in plain.reports) / len(plain.reports), "fraction")
    metrics["trainer.pretrain_clips_per_s"] = (
        plain.pretrain_clips / plain.pretrain_s if plain.pretrain_s else 0.0, "1/s")
    failures = []
    layer_sum, train_ns = sum(totals["layer_self_ns"].values()), totals["total_ns"][layers.ROOT_SPAN]
    if layer_sum != train_ns:
        failures.append(f"trace: layer self times sum to {layer_sum} ns, trainer.train spans to {train_ns} ns")
    return setups, rounds, metrics, failures


def run_one(args) -> int:
    for variable in BLAS_VARIABLES:  # read by the BLAS library when numpy loads it
        os.environ[variable] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    import oracles
    import workloads

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)  # inputs are named relative to here, so reports do not depend on where the checkout is
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        failures = [f"oracle self-check: {f}" for f in oracles.self_check()]
        if args.trace:
            setups, rounds, metrics, trace_failures = traced(workload, results / f"{stem}.spans.tsv")
            failures += trace_failures
        else:
            setups = [workload.setup() for _ in range(workloads.SETUP_REPS)]
            rounds = measure(workload, args.seconds)
            metrics = end_to_end(workload, setups, rounds)

        ledger: dict = {}
        digests = [r.report_digest() for r in rounds]
        if len(set(digests)) != 1:
            failures.append(f"determinism: report bytes differ between rounds: {digests}")
        for r in rounds:
            failures += workload.check(r, ledger)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail = {
        "machine": machine(), "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "report_sha256": digests[0], "failures": failures, "setups_s": setups,
        "rounds": [{"calibrate_s": r.calibrate_s, "train_s": r.train_s, "train_clips": r.train_clips,
                    "eval_s": r.eval_s, "pretrain_s": r.pretrain_s, "pretrain_clips": r.pretrain_clips,
                    "final_accuracy": [rep.final_accuracy for rep in r.reports],
                    "source_accuracy": r.notes.get("source_accuracy"),
                    "attempted": r.attempted, "failed": r.failed} for r in rounds],
        "metrics": reported,
    }
    with open(results / f"{stem}-trace{args.trace}.json", "w") as f:
        json.dump(detail, f, indent=1)

    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} report_sha256={digests[0]} attempted={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed, "metrics": reported}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so its peak memory is its own; untraced, then traced."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(child.stderr)
            lines = child.stdout.splitlines()
            if child.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exited with code {child.returncode}")
                status = 1
                continue
            print("\n".join(lines[:-1]))
            summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    if status == 0:
        print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
