"""One workload run, in a process of its own.

Started by ``run.py``; not meant to be run by hand.  The worker imports
``ginet`` from the checkout's ``src``, builds the first round's inputs,
prints ``READY`` (the parent's set-up clock stops there) and, unless
``--setup-only`` is given, runs that round once as an untimed warm-up
and then times rounds in a closed loop until the next round would end
after ``--seconds``.  Its last stdout line is a JSON
object with the raw measurements.

With ``--trace 1`` every round runs twice on the same inputs, once with
the tracer installed and once without, in alternating order; the two
reports of each job must be byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"


def run_job(cli, job, report: str, tracer=None, job_id=None):
    """One CLI call; returns (wall seconds, problem or None)."""
    captured = io.StringIO()
    problem = None
    if tracer is not None:
        tracer.job = job_id
        tracer.install()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main([*job.argv, "--report", report])
    except Exception:  # a crash is a failed job, not a failed benchmark
        code = None
        problem = traceback.format_exc()
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if problem is None and code != 0:
        problem = f"exit code {code}"
    if problem is None:
        try:
            with open(report, encoding="utf-8") as fh:
                problem = job.check(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable report: {exc!r}"
    if problem is not None:
        print(f"job {job.kind} {job.argv} failed: {problem}\n{captured.getvalue()}",
              file=sys.stderr)
    return wall, problem


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "nproc": len(os.sched_getaffinity(0))}


def kind_median(walls: list[float], kinds: list[str]) -> float:
    """Mean over job kinds of each kind's median wall time: the typical
    cost of one job, every command of the workload weighted equally.
    For a single-command workload it is the median job time."""
    by_kind: dict[str, list[float]] = {}
    for wall, kind in zip(walls, kinds):
        by_kind.setdefault(kind, []).append(wall)
    return statistics.mean(statistics.median(v) for v in by_kind.values())


def per_layer(tracer, traced_walls: list[float], job_s_traced: float,
              job_s_plain: float) -> dict:
    """Per-job means of self times and counters, plus run-wide ratios."""
    import tracing
    jobs = len(traced_walls)
    wall = sum(traced_walls)
    counts = tracer.counts
    selfs = tracer.self_times()
    out = {}
    for name in tracing.SPAN_NAMES:
        out[f"{name}.self_s"] = selfs.get(name, 0.0) / jobs
        out[f"{name}.calls"] = counts.get(f"{name}.calls", 0.0) / jobs
    for key in tracing.COUNTERS:
        out[key] = counts.get(key, 0.0) / jobs

    def ratio(num, den):
        return num / den if den else 0.0
    orbit_calls = (counts.get("orbits.layer_classes.calls", 0.0)
                   + counts.get("orbits.poly_classes.calls", 0.0))
    out["orbits.reuse_ratio"] = ratio(len(tracer.orbit_keys), orbit_calls)
    out["net.support_ratio"] = ratio(counts.get("net.support.class_tuples", 0.0),
                                     counts.get("net.support.term_tuples", 0.0))
    out["analysis.supergroup_distinct_ratio"] = ratio(
        counts.get("analysis.supergroups.distinct", 0.0),
        counts.get("analysis.supergroups.built", 0.0))
    for module in tracing.MODULES:
        out[f"share.{module}"] = sum(v for k, v in selfs.items()
                                     if k.split(".")[0] == module) / wall
    out["trace.coverage"] = tracer.covered() / wall
    out["trace.job_s"] = job_s_traced
    out["trace.untraced_job_s"] = job_s_plain
    out["trace.overhead_frac"] = job_s_traced / job_s_plain - 1.0
    return out


def measure(cli, rounds, first, workdir: Path, seconds: float, trace: bool,
            workload: str, seed: int) -> dict:
    """Run the first round once untimed, as warm-up, then time at least
    one round, and more until the next one would end more than
    ``seconds`` after the start of the warm-up."""
    import tracing
    tracer = tracing.Tracer() if trace else None
    walls = {False: [], True: []}    # per timed job, by traced
    kinds = {False: [], True: []}
    round_walls = []
    attempted = failed = 0
    start = time.perf_counter()
    for j, job in enumerate(first):
        _wall, problem = run_job(cli, job, str(workdir / f"warmup-{j}.json"))
        attempted += 1
        failed += problem is not None
    round_walls.append(time.perf_counter() - start)
    timed_start = time.perf_counter()
    timed_jobs = timed_failed = 0
    for index in itertools.count():
        if index and time.perf_counter() - start + statistics.median(round_walls) > seconds:
            break
        jobs = next(rounds)
        round_start = time.perf_counter()
        modes = [False, True] if index % 2 == 0 else [True, False]
        for traced in (modes if trace else [False]):
            for j, job in enumerate(jobs):
                gc.collect()
                report = str(workdir / f"r{index}-{j}.{'traced' if traced else 'plain'}.json")
                wall, problem = run_job(cli, job, report,
                                        tracer if traced else None, f"{index}-{j}")
                walls[traced].append(wall)
                kinds[traced].append(job.kind)
                timed_jobs += 1
                timed_failed += problem is not None
        if trace:
            for j in range(len(jobs)):
                pair = [workdir / f"r{index}-{j}.{m}.json" for m in ("plain", "traced")]
                if all(p.exists() for p in pair) and \
                        pair[0].read_bytes() != pair[1].read_bytes():
                    timed_failed += 1
                    print(f"job {jobs[j].kind}: traced report differs", file=sys.stderr)
        round_walls.append(time.perf_counter() - round_start)
    timed = time.perf_counter() - timed_start
    job_s = kind_median(walls[False], kinds[False])
    result = {"attempted": attempted + timed_jobs, "failed": failed + timed_failed,
              "timed_s": timed, "rounds": len(round_walls) - 1, "job_s": job_s,
              "job_walls": walls[False], "jobs_per_s": (timed_jobs - timed_failed) / timed,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        result["per_layer"] = per_layer(tracer, walls[True],
                                        kind_median(walls[True], kinds[True]), job_s)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(str(OUT_DIR / f"spans-{workload}-{seed}.jsonl"))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        cli = importlib.import_module("ginet.cli")
    except ImportError as exc:
        print(f"cannot import ginet from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ginet imported from {cli.__file__}, not from this checkout",
              file=sys.stderr)
        return 3
    import workloads

    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        build = workloads.WORKLOADS[args.workload]
        rounds = (build(str(workdir), f"r{i}", workloads.round_rng(args.workload, args.seed, i))
                  for i in itertools.count())
        first = next(rounds)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = measure(cli, rounds, first, workdir, args.seconds, bool(args.trace),
                         args.workload, args.seed)
        result["env"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only when no other worker is using it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
