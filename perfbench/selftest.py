"""Checks of the benchmark's own machinery.

    python3 perfbench/selftest.py

1. Inputs are a pure function of (workload, seed, round), and differ
   between seeds.
2. The independent oracles (Burnside, Polya, multiset orbits) agree
   with ginet's class counts on small groups.
3. The tracer wraps every binding of every traced function, including
   names imported with ``from ... import`` and methods, and uninstalling
   restores every binding.
4. A traced and an untraced run of one round of every workload write
   byte-identical reports and pass their output checks.

Prints one line per check and exits non-zero on the first failure.
Takes about a minute, mostly in check 4.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fixtures as fx  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import WORK_DIR, run_job  # noqa: E402

import ginet  # noqa: E402
import ginet.cli as cli  # noqa: E402


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def _tempdir():
    """A temporary directory inside the checkout's work directory."""
    WORK_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK_DIR)


def _round_files(workload: str, seed: int, workdir: str) -> tuple[list, dict]:
    jobs = workloads.WORKLOADS[workload](workdir, "r0", workloads.round_rng(workload, seed, 0))
    argvs = [[a.replace(workdir, "<dir>") for a in job.argv] for job in jobs]
    files = {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir())}
    return argvs, files


def check_determinism() -> None:
    for name in workloads.WORKLOADS:
        with _tempdir() as a, _tempdir() as b, _tempdir() as c:
            first = _round_files(name, 7, a)
            expect(first == _round_files(name, 7, b), f"{name}: seed 7 not reproducible")
            expect(first != _round_files(name, 8, c), f"{name}: seeds 7 and 8 agree")
    print("ok  inputs are a pure function of the seed")


def check_oracles() -> None:
    from ginet.orbits import layer_classes, poly_classes
    from ginet.permgroup import Permutation, PermGroup
    for gens in (fx.cyclic_gens(5), fx.dihedral_gens(4), fx.dihedral_gens(6),
                 fx.symmetric_gens(4)):
        n = len(gens[0])
        elements = fx.closure(gens)
        G = PermGroup.generate(n, [Permutation(g) for g in gens])
        expect(G.order == len(elements), f"closure of {gens} differs")
        for k in range(1, 5):
            where = f"group {gens}, k={k}"
            expect(fx.burnside_layer_count(elements, k) == layer_classes(G, k).num_classes,
                   f"Burnside count differs, {where}")
            want = poly_classes(G, k).num_classes
            expect(fx.polya_poly_count(elements, k) == want, f"Polya count differs, {where}")
            expect(len(fx.multiset_classes(elements, n, k)) == want,
                   f"multiset orbits differ, {where}")
    print("ok  Burnside, Polya and multiset orbits match ginet's class counts")


def _bindings() -> dict:
    return {(mod.__name__, key): value for mod in tracing._ginet_modules()
            for key, value in vars(mod).items()}


def check_bindings() -> None:
    before = _bindings()
    methods = {(cls, meth): cls.__dict__[meth] for cls, meth in
               ((getattr(sys.modules[m], c), meth) for _n, m, c, meth, _f in tracing.METHODS)}
    originals = {id(getattr(sys.modules[m], a)) for _n, m, a, _f in tracing.FUNCTIONS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        after = _bindings()
        stale = [k for k, v in after.items() if id(v) in originals]
        expect(not stale, f"unwrapped bindings remain: {stale}")
        for site in (("ginet.net", "poly_classes"), ("ginet.net", "expand_in_basis"),
                     ("ginet.cli", "layer_space"), ("ginet.analysis", "layer_classes"),
                     ("ginet", "layer_classes"), ("ginet.polybasis", "poly_classes")):
            expect(after[site] is not before[site], f"{site} not wrapped")
        for (cls, meth), raw in methods.items():
            expect(cls.__dict__[meth] is not raw, f"{cls.__name__}.{meth} not wrapped")
    finally:
        tracer.uninstall()
    after = _bindings()
    expect(all(after[k] is v for k, v in before.items()), "uninstall left wrappers")
    expect(all(cls.__dict__[meth] is raw for (cls, meth), raw in methods.items()),
           "uninstall left wrapped methods")
    print("ok  tracer wraps every binding site and restores them")


def check_trace_identity() -> None:
    for name, build in workloads.WORKLOADS.items():
        with _tempdir() as work:
            tracer = tracing.Tracer()
            for j, job in enumerate(build(work, "r0", workloads.round_rng(name, 3, 0))):
                plain, traced = f"{work}/{j}.plain.json", f"{work}/{j}.traced.json"
                for report, tr in ((plain, None), (traced, tracer)):
                    _wall, problem = run_job(cli, job, report, tr, str(j))
                    expect(problem is None, f"{name} {job.kind}: {problem}")
                expect(Path(plain).read_bytes() == Path(traced).read_bytes(),
                       f"{name} {job.kind}: traced report differs")
            expect(tracer.spans, f"{name}: no spans recorded")
        print(f"ok  {name}: traced and untraced reports are identical")


def main() -> int:
    expect(Path(ginet.__file__).resolve().is_relative_to(HERE.parent / "src"),
           f"ginet imported from {ginet.__file__}, not from this checkout")
    check_determinism()
    check_oracles()
    check_bindings()
    check_trace_identity()
    return 0


if __name__ == "__main__":
    sys.exit(main())
