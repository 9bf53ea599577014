"""Command-line front end: file parsing, verifier dispatch, JSON reports.

Exit codes: 0 success, 1 a verified property failed (CI can consume the
verifiers directly), 2 usage or parse errors, 3 a resource limit was
exceeded (a tuple kernel's memory estimate or int64 limit, the group
listing limit, or memory).

Reports are byte-stable for a fixed seed: the ``timings`` section holds
deterministic work counters, and wall-clock time goes to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict
from typing import Sequence

import numpy as np

from . import __version__ as VERSION
from . import analysis, net, orbits, polybasis
from .equivlayers import layer_space
from .permgroup import GroupTooLargeError, PermGroup, Permutation, named_group

_CSV_CHUNK = 1 << 14  # rows formatted per write of a CSV table


class ParseError(ValueError):
    """Malformed input file; message carries the offending line number."""


class VerificationFailure(RuntimeError):
    """A checked property did not hold."""


# ------------------------------------------------------------- file formats

def parse_group_file(path: str) -> PermGroup:
    """Group file: ``n = <int>`` (n >= 1) plus ``gen: <cycles>`` lines, or
    a named shortcut (``name = symmetric|alternating|cyclic|dihedral|trivial``
    with ``n``, or ``name = grid`` with ``dims = 2 3``); a named group
    takes no ``gen`` lines, only ``grid`` takes ``dims``, and a grid's
    ``n``, if given, is the product of its dims.  ``#``
    comments and blank lines are ignored."""
    n = None
    n_line = None
    name = None
    dims = None
    dims_line = None
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
                n_line = lineno
                if n < 1:
                    raise ValueError(f"n must be >= 1, got {n}")
            elif key == "name":
                name = value.lower()
            elif key == "dims":
                dims = [int(v) for v in value.split()]
                dims_line = lineno
            elif key == "gen":
                gens.append((lineno, value))
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ParseError(f"{path} line {lineno}: {exc}") from None
    if dims is not None and name != "grid":
        raise ParseError(f"{path} line {dims_line}: 'dims' applies only to "
                         f"name = grid, not {name or 'a generator list'}")
    if name == "grid" and n is not None and dims and n != math.prod(dims):
        raise ParseError(f"{path} line {n_line}: n = {n} differs from "
                         f"{math.prod(dims)}, the product of dims")
    if name is not None:
        if gens:
            raise ParseError(f"{path} line {gens[0][0]}: a named group "
                             f"({name}) takes no 'gen' lines")
        try:
            return named_group(name, n=n, dims=dims)
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
    return PermGroup.generate(n, perms)


def write_group_file(path: str, G: PermGroup) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n = {G.n}\n")
        for g in G.generators:
            fh.write(f"gen: {g.cycle_string()}\n")


def parse_poly_file(path: str, n: int) -> polybasis.Polynomial:
    """Polynomial file: ``<coeff>: e1 e2 ... en`` term lines and named
    forms ``name: vandermonde`` / ``name: powersum <d>`` (d >= 1); the
    file's polynomial is the sum of all of them."""
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
                    form = polybasis.vandermonde(n)
                elif parts[0] == "powersum":
                    d = int(parts[1]) if len(parts) > 1 else 2
                    if d < 1:
                        raise ValueError(f"powersum degree must be >= 1, got {d}")
                    form = polybasis.Polynomial(
                        n, {tuple(d if j == i else 0 for j in range(n)): 1.0
                            for i in range(n)})
                else:
                    raise ValueError(f"unknown named polynomial {parts[0]!r}")
            except (IndexError, ValueError) as exc:
                raise ParseError(f"{path} line {lineno}: {exc}") from None
            named = form if named is None else named + form
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


def _write_csv(fh, header: str, classes_of, shape: tuple[int, ...]) -> None:
    """The header, then a row per code: its index into shape, its class."""
    fh.write(header + "\n")
    size = math.prod(shape)
    for start in range(0, size, _CSV_CHUNK):
        at = np.arange(start, min(start + _CSV_CHUNK, size))
        table = np.column_stack(np.unravel_index(at, shape) + (classes_of(at),))
        fh.write(("%d," * len(shape) + "%d\n") * len(at) % tuple(table.ravel().tolist()))


# ----------------------------------------------------------------- commands

def _cmd_orbits(args) -> int:
    G = parse_group_file(args.group)
    kind = args.kind
    if (args.dump or args.format == "csv") and G.n**args.k >= 2**63:
        raise orbits.CapExceededError(f"the code,class_id CSV of [{G.n}]^{args.k} needs n^k < 2^63")
    P = (orbits.poly_classes if kind == "poly" else orbits.layer_classes)(G, args.k)
    lines = [f"group order: {G.order}", f"num_classes: {P.num_classes}"]
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            _write_csv(fh, "code,class_id", P.classes_of, (G.n**args.k,))
    if args.format == "csv":
        _write_csv(sys.stdout, "code,class_id", P.classes_of, (G.n**args.k,))
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
    sp = layer_space(G, k, l, a, b)
    lines = [f"group order: {G.order}",
             f"linear_dim: {sp.linear_dim}",
             f"bias_dim: {sp.bias_dim}"]
    if args.dump_dense:
        with open(args.dump_dense, "w", encoding="utf-8") as fh:
            _write_csv(fh, "out_code,in_code,class_id", sp.linear_partition.classes_of,
                       (G.n**l, G.n**k))
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
            gadget=args.gadget, eval_points=args.eval_points)
    except net.TargetNotReachedError as exc:
        raise VerificationFailure(str(exc)) from None
    ok = report.achieved_max_error <= args.epsilon
    results = asdict(report)
    if report.class_bound is None:   # trained gadgets: no class bound
        del results["class_bound"]
    results["within_epsilon"] = ok
    gadget_epochs = sum(t["gadget"].get("epochs", 0) for t in report.terms)
    lines = [f"group order: {G.order}",
             f"terms: {len(report.terms)} (+ constant {report.constant_term:g})",
             f"alpha_l1: {report.alpha_l1:g}",
             f"achieved_max_error: {report.achieved_max_error:.3e}",
             f"epsilon: {args.epsilon:g}",
             f"within_epsilon: {str(ok).lower()}"]
    _emit(args, _config_dict(args, ["group", "poly", "epsilon", "box", "seed",
                                    "gadget", "eval_points", "train_epochs"]),
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
    rep = analysis.an_sn_layer_equality(args.n, args.max_order)
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
             f"guaranteed: {str(rep.guaranteed).lower()}",
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
    if rep.two_closed_cross_check is None:
        two_closed = (f"not computed (the 2-closure is capped at "
                      f"n <= {analysis.TWO_CLOSURE_MAX_N})")
    else:
        two_closed = str(rep.two_closed_cross_check).lower()
    lines = [f"group order: {rep.group_order}",
             f"orbit_count_squared: {rep.orbit_count}",
             f"supergroups checked: {len(rep.rows)}",
             f"condition_holds: {str(rep.holds).lower()}",
             f"two_closed: {two_closed}"]
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

    def common(p, formats=("text", "json")):
        # csv only where there is a table to print: the orbits command's
        # code,class_id rows
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--report", help="write the JSON report to this path")
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("orbits", help="enumerate index-tuple classes")
    p.add_argument("--group", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=["layer", "poly"], default="layer")
    p.add_argument("--dump", help="write code,class_id CSV here")
    common(p, formats=("text", "json", "csv"))
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
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--gadget", choices=net.GADGETS, default="constructive",
                      help="product gadgets: closed-form relu nets with a proven "
                           "bound (default), trained sigmoid nets, or exact products")
    kind.add_argument("--exact-mul", dest="gadget", action="store_const", const="exact",
                      help="the same as --gadget exact")
    p.add_argument("--eval-points", type=int, default=10_000)
    p.add_argument("--train-epochs", type=int, default=5000,
                   help="gradient-refinement budget per trained gadget")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then reused: parse_args keeps
    no state between calls, and building it takes milliseconds."""
    return _build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    parser = _parser()
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
