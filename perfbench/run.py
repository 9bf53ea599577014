"""Benchmark of the ginet CLI: closed-loop jobs, one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload approx-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

A job is one ``ginet.cli.main(argv)`` call on group and polynomial
files generated from the seed (see ``workloads.py``).  Each run starts a
fresh worker process, so peak RSS belongs to that workload alone, plus
a few set-up-only workers whose spawn-to-ready times give ``setup_s``.

Every metric is printed by name with its unit and sample count; the
last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the metrics
that ``BENCHMARK.json`` lists: ``end_to_end`` with ``--trace 0`` and
``per_layer`` with ``--trace 1``.  The exit code is non-zero, with no
JSON line, when a worker cannot run (for instance without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = list(workloads.WORKLOADS)
SETUP_SAMPLES = 11         # the measuring worker plus ten set-up-only workers
WORKER_TIMEOUT_S = 170
BLAS_THREADS = "1"


class BenchError(RuntimeError):
    """A worker could not produce measurements."""


def _spawn(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with its spawn-to-READY seconds."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _setup_only(base: list[str]) -> float:
    proc, ready = _spawn([*base, "--setup-only"])
    _finish(proc)
    return ready


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One measuring worker, with set-up-only workers before and after it,
    so that set-up samples both ends of the run."""
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    before = (SETUP_SAMPLES - 1) // 2
    setups = [_setup_only(base) for _ in range(before)]
    proc, ready = _spawn(base)
    setups.append(ready)
    raw = json.loads(_finish(proc).strip().splitlines()[-1])
    setups += [_setup_only(base) for _ in range(SETUP_SAMPLES - 1 - before)]
    raw["setup_s"] = setups
    return raw


def end_to_end(raw: dict) -> dict:
    """name -> (value, samples)."""
    return {"job_s": (raw["job_s"], len(raw["job_walls"])),
            "jobs_per_s": (raw["jobs_per_s"], 1),
            "peak_rss_mb": (raw["peak_rss_mb"], 1),
            "setup_s": (statistics.median(raw["setup_s"]), len(raw["setup_s"]))}


def tail_percentile(values: list[float], min_tail: int = 10):
    """Highest of p50/p90/p99/p99.9 with at least min_tail samples above
    it, as (p, value), or None when there are too few samples."""
    ordered = sorted(values)
    best = None
    for p in (50, 90, 99, 99.9):
        rank = math.ceil(p * len(ordered) / 100)
        if rank >= 1 and len(ordered) - rank >= min_tail:
            best = (p, ordered[rank - 1])
    return best


def report(workload: str, raw: dict, spec: dict, trace: int) -> dict:
    """Print every metric by name; return the result object."""
    env = raw["env"]
    print(f"== {workload}: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"blas threads {env['blas_threads']}, nproc {env['nproc']}")
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"jobs attempted {attempted}, failed {failed}, failed_frac "
          f"{failed / attempted:.4g}, rounds {raw['rounds']}, timed {raw['timed_s']:.3f} s")
    tail = tail_percentile(raw["job_walls"])
    if tail is None:
        print(f"no job-time percentile has 10 samples beyond it "
              f"({len(raw['job_walls'])} jobs)")
    else:
        print(f"job wall p{tail[0]:g} = {tail[1]:.6g} s ({len(raw['job_walls'])} jobs)")
    if trace:
        traced_jobs = len(raw["job_walls"])
        values = {k: (v, traced_jobs) for k, v in raw["per_layer"].items()}
        wanted = spec["per_layer"]
    else:
        values = end_to_end(raw)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value, samples = values[m["name"]]
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']:<12} n={samples}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            raw = run_workload(name, args.seed, seconds, args.trace)
            results[name] = report(name, raw, spec, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
