"""Invariant polynomials: sparse polynomials and the class-indexed basis
of homogeneous invariants.

A homogeneous degree-k polynomial is p(x) = sum_t W_t x_{t_1}...x_{t_k}
over index tuples t, with W its coefficient tensor; choosing W symmetric
makes it unique.  p is invariant under the group exactly when W is a
fixed point of the tuple action, which forces W constant on the
polynomial classes of the index space.  Summing the monomials of one
class therefore gives a basis element, and every invariant expands over
these with coefficients read off its representative monomials.

A class holds every ordering of each of its multisets, so
basis_polynomials and expand_in_basis read it as its multisets (the
partition's rows and their labels), each monomial once with its
multinomial multiplicity, and never walk the n^k tuples.

Invariance itself is decided exactly: p is G-invariant iff every
generator of G fixes it, so the check compares p.permute(g) with p for
each generator and never enumerates the group or samples points.  The
Reynolds average over all of G stays as the reference those checks are
tested against.

Polynomials are stored sparsely, keyed by exponent vector; only the
tests' oracles build the dense tensors W (oracles.coeff_tensor).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .orbits import OrbitPartition, multiplicities, poly_classes
from .permgroup import PermGroup, Permutation

INVARIANCE_TOL = 1e-9

# Full expansion of the pairwise-difference product has n! terms; past
# n=7 callers should evaluate it instead.
VANDERMONDE_EXPANSION_LIMIT = 7

Monomial = tuple[int, ...]  # exponent vector of length n


class NotInvariantError(ValueError):
    """The polynomial failed the group-invariance validation."""


class Polynomial:
    """Sparse multivariate polynomial over n variables."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, float] | None = None):
        self.n = n
        clean: dict[Monomial, float] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} has length != {n}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff != 0.0:
                clean[exps] = clean.get(exps, 0.0) + float(coeff)
        self.terms = {e: c for e, c in clean.items() if c != 0.0}

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c: float) -> "Polynomial":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        exps = [0] * n
        exps[i] = 1
        return cls(n, {tuple(exps): 1.0})

    @property
    def degree(self) -> int:
        """Max term degree; the zero polynomial has degree 0."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def coefficient(self, exponents: Sequence[int]) -> float:
        return self.terms.get(tuple(exponents), 0.0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.n != other.n:
            raise ValueError("variable counts differ")
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return Polynomial(self.n, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def scale(self, a: float) -> "Polynomial":
        return Polynomial(self.n, {e: a * c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.n != other.n:
            raise ValueError("variable counts differ")
        terms: dict[Monomial, float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0.0) + c1 * c2
        return Polynomial(self.n, terms)

    def evaluate(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.n},)")
        total = 0.0
        for exps, coeff in self.terms.items():
            term = coeff
            for xi, e in zip(x, exps):
                if e:
                    term *= xi**e
            total += term
        return total

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """Evaluate at every row of X, shape (B, n).  Each power X[:, i] ** e
        is computed once and shared by the terms that hold it; a term is
        its coefficient times its powers, left to right, and the terms are
        summed in order."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"points have shape {X.shape}, expected (B, {self.n})")
        powers: dict[tuple[int, int], np.ndarray] = {}
        out = np.zeros(X.shape[0])
        for exps, coeff in self.terms.items():
            term = np.full(X.shape[0], coeff)
            for i, e in enumerate(exps):
                if e:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[(i, e)] = X[:, i] ** e
                    term *= power
            out += term
        return out

    def permute(self, g: Permutation) -> "Polynomial":
        """p(g.x): monomial exponents are pulled back through g."""
        if g.n != self.n:
            raise ValueError("permutation acts on wrong number of variables")
        terms: dict[Monomial, float] = {}
        for exps, coeff in self.terms.items():
            new = tuple(exps[g(j)] for j in range(self.n))
            terms[new] = terms.get(new, 0.0) + coeff
        return Polynomial(self.n, terms)

    def allclose(self, other: "Polynomial", tol: float = 1e-12) -> bool:
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(e, 0.0) - other.terms.get(e, 0.0)) <= tol
                   for e in keys)

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        parts = [f"{c:g}*x^{e}" for e, c in sorted(self.terms.items())]
        return "Polynomial(" + " + ".join(parts[:6]) + (" + ..." if len(parts) > 6 else "") + ")"


def homogeneous_decompose(p: Polynomial) -> dict[int, Polynomial]:
    """Bucket terms by degree; the sum of the parts reproduces p."""
    buckets: dict[int, dict[Monomial, float]] = {}
    for exps, coeff in p.terms.items():
        buckets.setdefault(sum(exps), {})[exps] = coeff
    return {d: Polynomial(p.n, t) for d, t in sorted(buckets.items())}


@dataclass(frozen=True)
class BasisPolynomial:
    """One invariant-basis element: the monomial sum over one class."""

    degree: int
    class_index: int
    representative: tuple[int, ...]
    size: int
    polynomial: Polynomial


def _multiset_table(partition: OrbitPartition) -> tuple[list[int], list[Monomial], list[int]]:
    """The degree-k monomials of a polynomial partition, one per multiset
    in code order: each one's class, exponent vector and multiplicity
    (the number of tuples that produce it)."""
    digits, classes = partition.rows, partition.labels
    exps = (digits[:, :, None] == np.arange(partition.n)).sum(axis=1)
    return classes.tolist(), list(map(tuple, exps.tolist())), multiplicities(digits).tolist()


def basis_polynomials(G: PermGroup, k: int,
                      partition: OrbitPartition | None = None) -> list[BasisPolynomial]:
    """One basis element per polynomial class of [n]^k, in class order."""
    if partition is None:
        partition = poly_classes(G, k)
    terms: list[dict[Monomial, float]] = [{} for _ in range(partition.num_classes)]
    for c, exps, mult in zip(*_multiset_table(partition)):
        terms[c][exps] = float(mult)
    return [BasisPolynomial(degree=k, class_index=c, representative=partition.representative(c),
                            size=size, polynomial=Polynomial(G.n, t))
            for c, (t, size) in enumerate(zip(terms, partition.sizes().tolist()))]


def reynolds(p: Polynomial, G: PermGroup) -> Polynomial:
    """Group average (1/|G|) sum_g p(g.x); always invariant."""
    acc = Polynomial.zero(p.n)
    for g in G:
        acc = acc + p.permute(g)
    return acc.scale(1.0 / G.order)


def is_invariant(p: Polynomial, G: PermGroup, tol: float = INVARIANCE_TOL) -> bool:
    """Exact invariance check on the generators of G.

    The elements fixing p form a subgroup, so p is G-invariant exactly
    when every generator fixes it.  Coefficients are compared term by
    term within tol * max(1, max |coefficient|).
    """
    if p.n != G.n:
        raise ValueError("polynomial and group disagree on n")
    scale = max([abs(c) for c in p.terms.values()], default=1.0)
    return all(p.permute(g).allclose(p, tol * max(1.0, scale)) for g in G.generators)


def expand_in_basis(p: Polynomial, G: PermGroup,
                    tol: float = INVARIANCE_TOL,
                    partitions: Mapping[int, OrbitPartition] | None = None,
                    ) -> dict[tuple[int, int], float]:
    """Coordinates of an invariant p over the class basis.

    Returns {(degree, class_index): alpha} with
    p = sum alpha * basis_polynomial.  The coefficient for a class is the
    coefficient in p of the class's representative monomial divided by
    its multinomial multiplicity, and the span check asks every monomial
    for alpha * multiplicity within 1e-12 * max(1, max |coefficient|).
    A degree's polynomial partition is taken from partitions when given
    there, and computed otherwise.
    """
    if p.n != G.n:
        raise ValueError("polynomial and group disagree on n")
    if not is_invariant(p, G, tol=tol):
        raise NotInvariantError("polynomial is not invariant under the group")
    scale = max([abs(c) for c in p.terms.values()], default=1.0)
    coeffs: dict[tuple[int, int], float] = {}
    for k, p_k in homogeneous_decompose(p).items():
        partition = (partitions or {}).get(k) or poly_classes(G, k)
        classes, exps, mult = _multiset_table(partition)
        coeff = [p_k.coefficient(e) for e in exps]
        alpha = np.zeros(partition.num_classes)
        for c, row in enumerate(partition.least.tolist()):
            if coeff[row] != 0.0:
                alpha[c] = coeffs[(k, c)] = coeff[row] / mult[row]
        if np.any(np.abs(alpha[classes] * mult - coeff) > 1e-12 * max(1.0, scale)):
            raise NotInvariantError("polynomial is not in the span of the invariant basis")
    return coeffs


def vandermonde(n: int) -> Polynomial:
    """Expanded product of all pairwise differences prod_{i<j} (x_i - x_j).

    Sign flips under odd permutations, fixed under even ones.  Expansion
    has n! terms; beyond n=7 use vandermonde_value instead.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > VANDERMONDE_EXPANSION_LIMIT:
        raise ValueError(
            f"expansion for n={n} has {math.factorial(n)} terms; "
            "use vandermonde_value for evaluation only")
    acc = Polynomial.constant(n, 1.0)
    for i in range(n):
        for j in range(i + 1, n):
            acc = acc * (Polynomial.variable(n, i) - Polynomial.variable(n, j))
    return acc


def vandermonde_value(x: Sequence[float]) -> float:
    """Direct product evaluation of prod_{i<j} (x_i - x_j)."""
    x = np.asarray(x, dtype=np.float64)
    total = 1.0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            total *= x[i] - x[j]
    return total
