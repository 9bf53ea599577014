"""Spans around the public functions of ``ginet``, recorded from outside.

``Tracer.install`` replaces every traced function at every place it is
bound: the defining module, every module that imported it with
``from ... import``, and the package namespace.  Methods are replaced on
their class.  ``Tracer.uninstall`` puts the originals back, so untraced
jobs run the unmodified program.

A span is ``(name, start, end, parent, job)``; spans stay in memory and
``Tracer.dump`` writes them out at the end.  A span's self time is its
duration minus the durations of its direct children (calls are nested
and single-threaded, so the children never overlap).  Counters are
taken at the same boundaries, after the wrapped call returns.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict


def _count_orbits(kind):
    def count(tr, args, kwargs, result):
        G, k = args[0], args[1] if len(args) > 1 else kwargs["k"]
        tr.add(f"orbits.{kind}_classes.tuples", G.n ** k)
        tr.orbit_keys.add((G, k, kind))
    return count


def _count_generate(tr, args, kwargs, result):
    tr.add("permgroup.generate.elements", result.order)


def _count_reynolds(tr, args, kwargs, result):
    tr.add("polybasis.reynolds.elements", args[1].order)


def _count_apply_flat(tr, args, kwargs, result):
    """Computed from shapes, not measured: the float64 bytes of the
    weight-sharing gather linear_coeffs[class_id], summed over all row
    chunks, plus the output it is contracted into."""
    sp = args[0].space
    n = sp.group.n
    gathered = n ** sp.l * n ** sp.k * sp.a * sp.b + result.size
    tr.add("equivlayers.apply_flat.gathered_mb", gathered * 8 / 2**20)


def _count_feature_map(tr, args, kwargs, result):
    B, N, _ = args[1].shape
    tr.add("net.feature_map.gadget_rows", B * N * len(args[0].blocks))


def _count_forward_many(tr, args, kwargs, result):
    tr.add("net.forward_many.points", len(result))


def _count_train(tr, args, kwargs, result):
    tr.add("net.train_product_mlp.epochs", getattr(result, "epochs_trained", 0))


def _count_floats(tr, args, kwargs, result):
    tr.add("rng.floats.values", result.size)


def _count_term(tr, args, kwargs, result):
    partition, class_index = args[1], args[2]
    tr.add("net.support.class_tuples", int(partition.sizes()[class_index]))


def _count_unified(tr, args, kwargs, result):
    tr.add("net.support.term_tuples", len(args[0]) * result.n ** result.order)


def _count_two_closure(tr, args, kwargs, result):
    tr.add("analysis.two_closure.perms_scanned", math.factorial(args[0].n))


def _count_supergroups(tr, args, kwargs, result):
    G = args[0]
    tr.add("analysis.supergroups.distinct", len(result))
    tr.add("analysis.supergroups.built", math.factorial(G.n) - G.order)


# (span name, module, attribute, counter): module-level functions
FUNCTIONS = [
    ("cli.main", "ginet.cli", "main", None),
    ("orbits.layer_classes", "ginet.orbits", "layer_classes", _count_orbits("layer")),
    ("orbits.poly_classes", "ginet.orbits", "poly_classes", _count_orbits("poly")),
    ("polybasis.expand_in_basis", "ginet.polybasis", "expand_in_basis", None),
    ("polybasis.is_invariant", "ginet.polybasis", "is_invariant", None),
    ("polybasis.reynolds", "ginet.polybasis", "reynolds", _count_reynolds),
    ("polybasis.basis_polynomials", "ginet.polybasis", "basis_polynomials", None),
    ("equivlayers.layer_space", "ginet.equivlayers", "layer_space", None),
    ("equivlayers.monomial_factors_layer", "ginet.equivlayers",
     "monomial_factors_layer", None),
    ("net.approximate_polynomial", "ginet.net", "approximate_polynomial", None),
    ("net.train_product_mlp", "ginet.net", "train_product_mlp", _count_train),
    ("net.build_term_network", "ginet.net", "build_term_network", _count_term),
    ("net.build_unified", "ginet.net", "build_unified", _count_unified),
    ("analysis.necessary_condition_check", "ginet.analysis",
     "necessary_condition_check", None),
    ("analysis.enumerate_supergroups", "ginet.analysis", "enumerate_supergroups",
     _count_supergroups),
    ("analysis.is_two_closed", "ginet.analysis", "is_two_closed", None),
    ("analysis.two_closure", "ginet.analysis", "two_closure", _count_two_closure),
    ("analysis.vandermonde_obstruction", "ginet.analysis",
     "vandermonde_obstruction", None),
]

# (span name, module, class, method, counter)
METHODS = [
    ("permgroup.generate", "ginet.permgroup", "PermGroup", "generate", _count_generate),
    ("polybasis.evaluate_many", "ginet.polybasis", "Polynomial", "evaluate_many", None),
    ("equivlayers.apply_flat", "ginet.equivlayers", "EquivariantLayer", "apply_flat",
     _count_apply_flat),
    ("net.concat_lift", "ginet.net", "ConcatLiftStage", "forward", None),
    ("net.feature_map", "ginet.net", "FeatureMapStage", "forward", _count_feature_map),
    ("net.invariant_sum", "ginet.net", "SumStage", "forward", None),
    ("net.forward_many", "ginet.net", "GInvariantNetwork", "forward_many",
     _count_forward_many),
    ("net.MLP.forward", "ginet.net", "MLP", "forward", None),
    ("rng.floats", "ginet.rng", "SplitMix64", "floats", _count_floats),
]

SPAN_NAMES = [t[0] for t in FUNCTIONS] + [t[0] for t in METHODS]
# work counters reported per job; the ratios are assembled by the caller
COUNTERS = ["orbits.layer_classes.tuples", "orbits.poly_classes.tuples",
            "permgroup.generate.elements", "polybasis.reynolds.elements",
            "equivlayers.apply_flat.gathered_mb", "net.feature_map.gadget_rows",
            "net.forward_many.points", "net.train_product_mlp.epochs",
            "rng.floats.values", "analysis.two_closure.perms_scanned"]
MODULES = ["permgroup", "orbits", "polybasis", "equivlayers", "net", "analysis",
           "rng", "cli"]


def _ginet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ginet" or name.startswith("ginet."))]


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.job = None
        self.counts: dict[str, float] = defaultdict(float)
        self.orbit_keys: set = set()
        self._restore: list = []

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.job)
            tracer.add(f"{name}.calls", 1)
            if count is not None:
                count(tracer, args, kwargs, return_value)
            return return_value
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _ginet_modules()
        for name, modname, attr, count in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, modname, clsname, meth, count in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(name, raw.__func__, count))
            else:
                wrapper = self._wrap(name, raw, count)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over every recorded span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _job) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def covered(self) -> float:
        """Time inside spans called directly by cli.main, summed."""
        return sum(end - start
                   for _n, start, end, parent, _j in self.spans
                   if parent >= 0 and self.spans[parent][0] == "cli.main")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
