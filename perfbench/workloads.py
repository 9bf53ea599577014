"""The benchmark workloads: seeded CLI jobs and their output checks.

A workload builds *rounds*.  A round is a list of jobs, one of each
command the workload mixes; a job is one ``ginet.cli.main(argv)`` call
on files written from the round's random stream, plus a check of the
report it writes.  Every job gets its own relabelled group, so two jobs
never share a group, polynomial or seed.

Checks never compare floating-point sums against a reference computed
in another order: they use exact class counts (Burnside, Polya), exit
codes and verdicts, an absolute error ceiling for exact gadgets, and
the basis coefficients the polynomial was generated from.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable

import fixtures as fx

# At epsilon 0.05 the degree-2 gadget target for a unit-l1 polynomial on S7
# (0.05 / 7^2) is missed by the closed-form fit for about 1 in 15 training
# seeds, and such a job then trains for over a minute and fails; at 0.1 the fit
# met the target for 400 of 400 seeds.
EPSILON = "0.1"
EXACT_EVAL_POINTS = "1000"
EXACT_ERROR_CEILING = 1e-10
ALPHA_TOL = 1e-12


@dataclass
class Job:
    kind: str
    argv: list[str]  # without --report, which the runner appends
    check: Callable[[dict], str | None]  # returns a problem, or None if correct


def _check_alphas(results: dict, expected: dict[tuple[int, ...], float],
                  constant: float) -> str | None:
    """The report's per-class alphas against the generating coefficients,
    matched by the class of each term's representative."""
    if abs(results["constant_term"] - constant) > ALPHA_TOL * max(1.0, abs(constant)):
        return f"constant {results['constant_term']!r} != {constant!r}"
    seen = set()
    for term in results["terms"]:
        rep = tuple(sorted(i - 1 for i in term["representative"]))
        if rep not in expected:
            return f"term with representative {term['representative']} not generated"
        want = expected[rep]
        if abs(term["alpha"] - want) > ALPHA_TOL * max(1.0, abs(want)):
            return f"alpha {term['alpha']!r} != {want!r} for class of {rep}"
        seen.add(rep)
    if len(seen) != len(results["terms"]) or len(seen) != len(expected):
        return f"{len(results['terms'])} terms reported, {len(expected)} generated"
    return None


def _approx_job(kind, workdir, tag, rng, gens, classes, extra,
                trained: bool) -> Job:
    """approx on the given group; alphas drawn per class, in class order.
    Trained jobs add a constant and scale to unit l1 norm, which keeps
    every gadget's accuracy target reachable."""
    n = len(gens[0])
    alphas = [fx.draw_alpha(rng) for _ in classes]
    constant = 0.0
    if trained:
        constant = fx.draw_alpha(rng)
        l1 = sum(abs(a) for a in alphas) + abs(constant)
        alphas = [a / l1 for a in alphas]
        constant /= l1
    grp, poly = (os.path.join(workdir, f"{tag}.{ext}") for ext in ("grp", "poly"))
    fx.write_group(grp, gens)
    fx.write_poly(poly, n, fx.basis_sum(n, classes, alphas), constant)
    # each class is keyed by its smallest multiset, the CLI's representative
    expected = {orbit[0]: a for orbit, a in zip(classes, alphas)}

    def check(report: dict) -> str | None:
        res = report["results"]
        if not res["within_epsilon"]:
            return "not within epsilon"
        if not trained and res["achieved_max_error"] > EXACT_ERROR_CEILING:
            return f"exact-gadget error {res['achieved_max_error']!r} over ceiling"
        return _check_alphas(res, expected, constant)

    argv = ["approx", "--group", grp, "--poly", poly, "--epsilon", EPSILON,
            "--seed", str(rng.randrange(2**31)), *extra]
    return Job(kind, argv, check)


def approx_exact_round(workdir: str, tag: str, rng: random.Random) -> list[Job]:
    """D7, relabelled; every polynomial class of degree 1..3 (13 terms)."""
    gens = fx.relabel(fx.dihedral_gens(7), rng)
    elements = fx.closure(gens)
    classes = [c for k in (1, 2, 3) for c in fx.multiset_classes(elements, 7, k)]
    return [_approx_job("approx-exact", workdir, tag, rng, gens, classes,
                        ["--exact-mul", "--eval-points", EXACT_EVAL_POINTS], False)]


def approx_trained_round(workdir: str, tag: str, rng: random.Random) -> list[Job]:
    """S7, relabelled; a constant plus every class of degree 1 and 2."""
    n = 7
    gens = fx.relabel(fx.symmetric_gens(n), rng)
    classes = [[(i,) for i in range(n)],
               [(i, i) for i in range(n)],
               [(i, j) for i in range(n) for j in range(i + 1, n)]]
    return [_approx_job("approx-trained", workdir, tag, rng, gens, classes, [], True)]


def approx_round(workdir: str, tag: str, rng: random.Random) -> list[Job]:
    """One approx-exact job and one approx-trained job."""
    return [*approx_exact_round(workdir, f"{tag}-exact", rng),
            *approx_trained_round(workdir, f"{tag}-trained", rng)]


def _orbits_job(workdir, tag, rng, base_gens, k, kind) -> Job:
    gens = fx.relabel(base_gens, rng)
    elements = fx.closure(gens)
    n = len(gens[0])
    if kind == "layer":
        want = fx.burnside_layer_count(elements, k)
    else:
        want = fx.polya_poly_count(elements, k)
    grp = os.path.join(workdir, f"{tag}-{kind}{k}.grp")
    fx.write_group(grp, gens)

    def check(report: dict) -> str | None:
        res = report["results"]
        if res["group_order"] != len(elements):
            return f"group order {res['group_order']} != {len(elements)}"
        if res["num_classes"] != want or len(res["class_sizes"]) != want:
            return f"{res['num_classes']} {kind} classes, expected {want}"
        if sum(res["class_sizes"]) != n ** k:
            return f"class sizes sum to {sum(res['class_sizes'])}, not {n}^{k}"
        return None

    argv = ["orbits", "--group", grp, "--k", str(k), "--kind", kind]
    return Job(f"orbits-{kind}", argv, check)


def orbits_round(workdir: str, tag: str, rng: random.Random) -> list[Job]:
    """D8, relabelled: layer classes at k=7 and polynomial classes at k=6."""
    d8 = fx.dihedral_gens(8)
    return [_orbits_job(workdir, tag, rng, d8, 7, "layer"),
            _orbits_job(workdir, tag, rng, d8, 6, "poly")]


def verify_round(workdir: str, tag: str, rng: random.Random) -> list[Job]:
    """necessary on a relabelled C6, vandermonde at n=7 / order 2, closure
    on a relabelled C8.  C_n is 2-closed; 2*2 <= 7-2 guarantees equality."""
    jobs = []
    c6 = fx.relabel(fx.cyclic_gens(6), rng)
    grp = os.path.join(workdir, f"{tag}-c6.grp")
    fx.write_group(grp, c6)

    def check_necessary(report):
        res = report["results"]
        if res["group_order"] != 6 or not res["holds"] or not res["two_closed_cross_check"]:
            return f"necessary: order {res['group_order']}, holds {res['holds']}, " \
                   f"two_closed {res['two_closed_cross_check']}"
        return None
    jobs.append(Job("verify-necessary", ["verify", "necessary", "--group", grp],
                    check_necessary))

    def check_vandermonde(report):
        res = report["results"]
        if not (res["all_equal"] and res["guaranteed"]):
            return f"vandermonde: all_equal {res['all_equal']}, guaranteed {res['guaranteed']}"
        return None
    jobs.append(Job("verify-vandermonde",
                    ["verify", "vandermonde", "--n", "7", "--max-order", "2",
                     "--seed", str(rng.randrange(2**31))],
                    check_vandermonde))

    c8 = fx.relabel(fx.cyclic_gens(8), rng)
    grp = os.path.join(workdir, f"{tag}-c8.grp")
    fx.write_group(grp, c8)

    def check_closure(report):
        res = report["results"]
        if not res["is_two_closed"] or res["closure_order"] != 8 or res["group_order"] != 8:
            return f"closure: {res['closure_order']} vs {res['group_order']}"
        return None
    jobs.append(Job("closure", ["closure", "--group", grp], check_closure))
    return jobs


WORKLOADS = {
    "approx": approx_round,
    "approx-exact": approx_exact_round,
    "approx-trained": approx_trained_round,
    "orbits": orbits_round,
    "verify": verify_round,
}


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    """The random stream of one round: a pure function of its arguments."""
    return random.Random(f"{workload}:{seed}:{index}")
