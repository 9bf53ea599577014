"""Seeded inputs for the benchmark jobs, and the oracles that check them.

Everything here is independent of the ``ginet`` package: groups are
closed by a plain breadth-first search over image tuples, class counts
come from Burnside's lemma and the Polya cycle index, and polynomial
classes are orbits of multisets.  The CLI only ever sees the ``.grp``
and ``.poly`` files written by ``write_group`` and ``write_poly``.

Permutations are 0-based image tuples: ``g[i]`` is the image of ``i``.
"""

from __future__ import annotations

import math
import random
from itertools import combinations_with_replacement


# ------------------------------------------------------------------ groups

def cyclic_gens(n: int) -> list[tuple[int, ...]]:
    return [tuple((i + 1) % n for i in range(n))]


def dihedral_gens(n: int) -> list[tuple[int, ...]]:
    return cyclic_gens(n) + [tuple((n - i) % n for i in range(n))]


def symmetric_gens(n: int) -> list[tuple[int, ...]]:
    swap = tuple([1, 0] + list(range(2, n)))
    return [swap] + cyclic_gens(n)


def relabel(gens: list[tuple[int, ...]], rng: random.Random) -> list[tuple[int, ...]]:
    """Conjugate every generator by one seeded permutation s: s g s^-1."""
    n = len(gens[0])
    s = list(range(n))
    rng.shuffle(s)
    out = []
    for g in gens:
        h = [0] * n
        for i in range(n):
            h[s[i]] = s[g[i]]
        out.append(tuple(h))
    return out


def closure(gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """All elements of the group the generators span, identity first."""
    n = len(gens[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                h = tuple(g[e[i]] for i in range(n))
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return sorted(seen)


def cycle_lengths(g: tuple[int, ...]) -> list[int]:
    seen = [False] * len(g)
    out = []
    for start in range(len(g)):
        length = 0
        p = start
        while not seen[p]:
            seen[p] = True
            p = g[p]
            length += 1
        if length:
            out.append(length)
    return out


def cycle_string(g: tuple[int, ...]) -> str:
    seen = [False] * len(g)
    parts = []
    for start in range(len(g)):
        if seen[start] or g[start] == start:
            continue
        cyc = []
        p = start
        while not seen[p]:
            seen[p] = True
            cyc.append(str(p + 1))
            p = g[p]
        parts.append("(" + " ".join(cyc) + ")")
    return "".join(parts) or "()"


def write_group(path: str, gens: list[tuple[int, ...]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n = {len(gens[0])}\n")
        for g in gens:
            fh.write(f"gen: {cycle_string(g)}\n")


# ----------------------------------------------------------------- oracles

def burnside_layer_count(elements: list[tuple[int, ...]], k: int) -> int:
    """Number of G-orbits on [n]^k: (1/|G|) sum_g fix(g)^k."""
    total = sum(sum(1 for i, gi in enumerate(g) if i == gi) ** k for g in elements)
    assert total % len(elements) == 0
    return total // len(elements)


def polya_poly_count(elements: list[tuple[int, ...]], k: int) -> int:
    """Number of G-orbits on size-k multisets of [n] (the polynomial
    classes): (1/|G|) sum_g [t^k] prod_cycles 1/(1 - t^len)."""
    total = 0
    for g in elements:
        series = [1] + [0] * k
        for length in cycle_lengths(g):
            for d in range(length, k + 1):
                series[d] += series[d - length]
        total += series[k]
    assert total % len(elements) == 0
    return total // len(elements)


def multiset_classes(elements: list[tuple[int, ...]], n: int,
                     k: int) -> list[list[tuple[int, ...]]]:
    """G-orbits of sorted k-tuples, each sorted, listed by smallest member."""
    seen: set[tuple[int, ...]] = set()
    classes = []
    for m in combinations_with_replacement(range(n), k):
        if m in seen:
            continue
        orbit = sorted({tuple(sorted(g[i] for i in m)) for g in elements})
        seen.update(orbit)
        classes.append(orbit)
    return classes


def arrangements(m: tuple[int, ...]) -> int:
    """Number of distinct tuples that sort to the multiset m."""
    out = math.factorial(len(m))
    for v in set(m):
        out //= math.factorial(m.count(v))
    return out


# ------------------------------------------------------------- polynomials

def draw_alpha(rng: random.Random) -> float:
    """A basis coefficient of magnitude in [0.5, 1.5) with a random sign."""
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.5)


def basis_sum(n: int, classes: list[list[tuple[int, ...]]],
              alphas: list[float]) -> dict[tuple[int, ...], float]:
    """Exponent-vector terms of sum_c alpha_c * (monomial sum over the
    tuples of class c); a multiset m carries alpha_c * arrangements(m)."""
    terms = {}
    for orbit, alpha in zip(classes, alphas):
        for m in orbit:
            exps = [0] * n
            for i in m:
                exps[i] += 1
            terms[tuple(exps)] = alpha * arrangements(m)
    return terms


def write_poly(path: str, n: int, terms: dict[tuple[int, ...], float],
               constant: float = 0.0) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if constant:
            fh.write(f"{constant!r}: {' '.join('0' * n)}\n")
        for exps, coeff in sorted(terms.items()):
            fh.write(f"{coeff!r}: {' '.join(str(e) for e in exps)}\n")
