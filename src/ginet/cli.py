"""Command-line front end: file parsing, verifier dispatch, JSON reports.

Exit codes: 0 success, 1 a verified property failed (CI can consume the
verifiers directly), 2 usage or parse errors, 3 a resource limit was
exceeded (tuple cap, group-size cap, or memory).

Reports are byte-stable for a fixed seed: the ``timings`` section holds
deterministic work counters, and wall-clock time goes to stderr only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from typing import Sequence

from . import analysis, net, orbits, polybasis
from .equivlayers import layer_space
from .permgroup import (DEFAULT_GROUP_CAP, GroupTooLargeError, PermGroup, Permutation,
                        named_group)

VERSION = "0.1.0"


class ParseError(ValueError):
    """Malformed input file; message carries the offending line number."""


class VerificationFailure(RuntimeError):
    """A checked property did not hold."""


# ------------------------------------------------------------- file formats

def parse_group_file(path: str, cap: int = DEFAULT_GROUP_CAP) -> PermGroup:
    """Group file: ``n = <int>`` plus ``gen: <cycles>`` lines, or a named
    shortcut (``name = symmetric|alternating|cyclic|dihedral|trivial`` with
    ``n``, or ``name = grid`` with ``dims = 2 3``).  ``#`` comments and
    blank lines are ignored."""
    n = None
    name = None
    dims = None
    gens: list[tuple[int, str]] = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, value = line.partition(sep)
                break
        else:
            raise ParseError(f"{path} line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key == "n":
                n = int(value)
            elif key == "name":
                name = value.lower()
            elif key == "dims":
                dims = [int(v) for v in value.split()]
            elif key == "gen":
                gens.append((lineno, value))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ParseError(f"{path} line {lineno}: {exc}") from None
    if name is not None:
        try:
            return named_group(name, n=n, dims=dims, cap=cap)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if n is None:
        raise ParseError(f"{path}: missing 'n = <int>' line")
    perms = []
    for lineno, text in gens:
        try:
            perms.append(Permutation.parse(n, text))
        except ValueError as exc:
            raise ParseError(f"{path} line {lineno}: {exc}") from None
    return PermGroup.generate(n, perms, cap=cap)


def write_group_file(path: str, G: PermGroup) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n = {G.n}\n")
        for g in G.generators:
            fh.write(f"gen: {g.cycle_string()}\n")


def parse_poly_file(path: str, n: int) -> polybasis.Polynomial:
    """Polynomial file: ``<coeff>: e1 e2 ... en`` term lines, or a named
    form ``name: vandermonde`` / ``name: powersum <d>``."""
    terms: dict[tuple[int, ...], float] = {}
    named: polybasis.Polynomial | None = None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError(f"{path} line {lineno}: expected '<coeff>: exponents'")
        head = head.strip()
        tail = tail.strip()
        if head == "name":
            parts = tail.split()
            try:
                if parts[0] == "vandermonde":
                    named = polybasis.vandermonde(n)
                elif parts[0] == "powersum":
                    d = int(parts[1]) if len(parts) > 1 else 2
                    named = polybasis.Polynomial(
                        n, {tuple(d if j == i else 0 for j in range(n)): 1.0
                            for i in range(n)})
                else:
                    raise ValueError(f"unknown named polynomial {parts[0]!r}")
            except (IndexError, ValueError) as exc:
                raise ParseError(f"{path} line {lineno}: {exc}") from None
            continue
        try:
            coeff = float(head)
            exps = tuple(int(v) for v in tail.split())
        except ValueError as exc:
            raise ParseError(f"{path} line {lineno}: {exc}") from None
        if len(exps) != n:
            raise ParseError(
                f"{path} line {lineno}: exponent vector has length "
                f"{len(exps)}, expected {n}")
        terms[exps] = terms.get(exps, 0.0) + coeff
    poly = polybasis.Polynomial(n, terms)
    if named is not None:
        poly = poly + named
    return poly


def write_poly_file(path: str, p: polybasis.Polynomial) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for exps, coeff in sorted(p.terms.items()):
            fh.write(f"{coeff!r}: {' '.join(str(e) for e in exps)}\n")


# ------------------------------------------------------------------ reports

def _emit(args, config: dict, results: dict, work: dict, lines: list[str]) -> None:
    report = {"version": VERSION, "config": config, "results": results,
              "timings": work}
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(text)
    else:
        for line in lines:
            print(line)


def _config_dict(args, keys: Sequence[str]) -> dict:
    out = {"command": args.command}
    if getattr(args, "verify_what", None):
        out["verify"] = args.verify_what
    for k in keys:
        out[k] = getattr(args, k)
    return out


# ----------------------------------------------------------------- commands

def _cmd_orbits(args) -> int:
    G = parse_group_file(args.group)
    kind = args.kind
    cap = args.cap
    P = (orbits.poly_classes if kind == "poly" else orbits.layer_classes)(
        G, args.k, cap=cap)
    lines = [f"group order: {G.order}", f"num_classes: {P.num_classes}"]
    if args.dump or args.format == "csv":
        csv_lines = ["code,class_id"] + [f"{c},{int(P.class_id[c])}"
                                         for c in range(G.n**args.k)]
        if args.dump:
            with open(args.dump, "w", encoding="utf-8") as fh:
                fh.write("\n".join(csv_lines) + "\n")
        if args.format == "csv":
            print("\n".join(csv_lines))
            lines = []
    results = {"n": G.n, "k": args.k, "kind": kind,
               "group_order": G.order, "num_classes": P.num_classes,
               "class_sizes": P.sizes().tolist()}
    _emit(args, _config_dict(args, ["group", "k", "kind", "seed"]),
          results, {"tuples": G.n**args.k}, lines)
    return 0


def _cmd_basis(args) -> int:
    G = parse_group_file(args.group)
    k, l = args.order
    a, b = args.features
    sp = layer_space(G, k, l, a, b, cap=args.cap)
    lines = [f"group order: {G.order}",
             f"linear_dim: {sp.linear_dim}",
             f"bias_dim: {sp.bias_dim}"]
    if args.dump_dense:
        n = G.n
        cid = sp.linear_partition.class_id.reshape(n**l, n**k)
        rows = ["out_code,in_code,class_id"]
        for o in range(n**l):
            for i in range(n**k):
                rows.append(f"{o},{i},{int(cid[o, i])}")
        with open(args.dump_dense, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    results = {"n": G.n, "k": k, "l": l, "a": a, "b": b,
               "group_order": G.order,
               "linear_classes": sp.linear_partition.num_classes,
               "bias_classes": sp.bias_partition.num_classes,
               "linear_dim": sp.linear_dim, "bias_dim": sp.bias_dim}
    _emit(args, _config_dict(args, ["group", "order", "features", "seed"]),
          results, {"tuples": G.n**(k + l)}, lines)
    return 0


def _cmd_approx(args) -> int:
    G = parse_group_file(args.group)
    p = parse_poly_file(args.poly, G.n)
    cfg = net.TrainConfig(seed=args.seed, epochs=args.train_epochs)
    try:
        network, report = net.approximate_polynomial(
            G, p, args.epsilon, (args.box[0], args.box[1]), cfg,
            exact_mul=args.exact_mul, eval_points=args.eval_points)
    except net.TargetNotReachedError as exc:
        raise VerificationFailure(str(exc)) from None
    ok = report.achieved_max_error <= args.epsilon
    results = report.to_dict()
    results["within_epsilon"] = ok
    gadget_epochs = sum(t["gadget"].get("epochs", 0) for t in report.terms)
    lines = [f"group order: {G.order}",
             f"terms: {len(report.terms)} (+ constant {report.constant_term:g})",
             f"alpha_l1: {report.alpha_l1:g}",
             f"achieved_max_error: {report.achieved_max_error:.3e}",
             f"epsilon: {args.epsilon:g}",
             f"within_epsilon: {str(ok).lower()}"]
    _emit(args, _config_dict(args, ["group", "poly", "epsilon", "box", "seed",
                                    "exact_mul", "eval_points", "train_epochs"]),
          results,
          {"eval_points": report.eval_points, "gadget_epochs": gadget_epochs},
          lines)
    if not ok:
        raise VerificationFailure(
            f"achieved error {report.achieved_max_error:g} exceeds epsilon")
    return 0


def _cmd_closure(args) -> int:
    G = parse_group_file(args.group)
    rep = analysis.is_two_closed(G)
    results = asdict(rep)
    results["witnesses"] = list(rep.witnesses)
    lines = [f"group order: {rep.group_order}",
             f"closure order: {rep.closure_order}",
             f"orbit_count_squared: {rep.orbit_count_squared}",
             f"is_two_closed: {str(rep.is_two_closed).lower()}"]
    _emit(args, _config_dict(args, ["group", "seed"]), results,
          {"permutations_scanned": math.factorial(G.n)}, lines)
    return 0


def _cmd_verify_an_sn(args) -> int:
    rep = analysis.an_sn_layer_equality(args.n, args.max_order, cap=args.cap)
    rows = [asdict(r) for r in rep.rows]
    lines = ["order  sn_classes  an_classes  identical"]
    for r in rep.rows:
        lines.append(f"{r.total_order:>5}  {r.sn_classes:>10}  "
                     f"{r.an_classes:>10}  {str(r.identical).lower()}")
    lines.append(f"holds for all orders <= n-2: {str(rep.holds_in_range).lower()}")
    _emit(args, _config_dict(args, ["n", "max_order", "seed"]),
          {"n": rep.n, "rows": rows, "holds_in_range": rep.holds_in_range},
          {"orders_checked": args.max_order}, lines)
    if not rep.holds_in_range:
        raise VerificationFailure("layer partitions differ within the asserted range")
    return 0


def _cmd_verify_vandermonde(args) -> int:
    rep = analysis.vandermonde_obstruction(args.n, args.max_order,
                                           seed=args.seed, trials=args.trials)
    results = asdict(rep)
    results["x0"] = list(rep.x0)
    lines = [f"trials: {rep.trials}",
             f"max_deviation: {rep.max_deviation:.3e}",
             f"all_equal: {str(rep.all_equal).lower()}",
             f"vandermonde_gap: {rep.vandermonde_gap:g}"]
    _emit(args, _config_dict(args, ["n", "max_order", "seed", "trials"]),
          results, {"trials": rep.trials}, lines)
    if not rep.all_equal:
        raise VerificationFailure(
            "a low-order alternating-invariant network separated the swapped point")
    return 0


def _cmd_verify_necessary(args) -> int:
    G = parse_group_file(args.group)
    supers = None
    if args.supergroup:
        supers = [parse_group_file(p) for p in args.supergroup]
    rep = analysis.necessary_condition_check(G, supergroups=supers)
    rows = [asdict(r) for r in rep.rows]
    lines = [f"group order: {rep.group_order}",
             f"orbit_count_squared: {rep.orbit_count}",
             f"supergroups checked: {len(rep.rows)}",
             f"condition_holds: {str(rep.holds).lower()}",
             f"two_closed: {str(rep.two_closed_cross_check).lower()}"]
    _emit(args, _config_dict(args, ["group", "supergroup", "seed"]),
          {"group_order": rep.group_order, "orbit_count": rep.orbit_count,
           "rows": rows, "holds": rep.holds,
           "two_closed_cross_check": rep.two_closed_cross_check},
          {"supergroups_checked": len(rep.rows)}, lines)
    return 0


# -------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginet",
        description="Invariant networks over permutation groups: orbits, "
                    "layer bases, constructive approximation, verifiers.")
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--report", help="write the JSON report to this path")
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--cap", type=int, default=None,
                       help="override the tuple cap (also GINET_CAP_TUPLES)")

    p = sub.add_parser("orbits", help="enumerate index-tuple classes")
    p.add_argument("--group", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=["layer", "poly"], default="layer")
    p.add_argument("--dump", help="write code,class_id CSV here")
    common(p)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("basis", help="equivariant layer space dimensions")
    p.add_argument("--group", required=True)
    p.add_argument("--order", type=int, nargs=2, metavar=("K", "L"), required=True)
    p.add_argument("--features", type=int, nargs=2, metavar=("A", "B"),
                   default=[1, 1])
    p.add_argument("--dump-dense", help="write the class-id table as CSV")
    common(p)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("approx", help="build an invariant network approximating "
                                      "an invariant polynomial")
    p.add_argument("--group", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--box", type=float, nargs=2, metavar=("LO", "HI"),
                   default=[-1.0, 1.0])
    p.add_argument("--exact-mul", action="store_true",
                   help="use exact multiplication gadgets (structural check)")
    p.add_argument("--eval-points", type=int, default=10_000)
    p.add_argument("--train-epochs", type=int, default=5000,
                   help="gradient-refinement budget per gadget")
    common(p)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("closure", help="2-closure of a group")
    p.add_argument("--group", required=True)
    common(p)
    p.set_defaults(func=_cmd_closure)

    v = sub.add_parser("verify", help="run a structural verifier")
    vsub = v.add_subparsers(dest="verify_what", required=True)

    p = vsub.add_parser("an-sn", help="alternating/symmetric layer coincidence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-order", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_verify_an_sn)

    p = vsub.add_parser("vandermonde", help="low-order alternating networks "
                                            "cannot separate a swapped point")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    common(p)
    p.set_defaults(func=_cmd_verify_vandermonde)

    p = vsub.add_parser("necessary", help="strict orbit-count drop over "
                                          "strict supergroups")
    p.add_argument("--group", required=True)
    p.add_argument("--supergroup", action="append",
                   help="explicit supergroup file (repeatable)")
    common(p)
    p.set_defaults(func=_cmd_verify_necessary)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 1
    except (orbits.CapExceededError, GroupTooLargeError, MemoryError) as exc:
        print(f"resource limit exceeded: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {time.perf_counter() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
