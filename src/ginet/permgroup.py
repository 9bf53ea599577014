"""Permutations of {1..n} and finitely generated subgroups of S_n.

Indices are 0-based internally; cycle notation at the I/O boundary is
1-based, matching the usual mathematical convention.  The vector action
is (g.x)_i = x_{g^-1(i)} and the tensor action applies g^-1 to every
index axis, features untouched.

A group is held as a stabilizer chain, built from its generators by
incremental Schreier-Sims (Sims 1970; Seress, Permutation Group
Algorithms, 2003), so its order is a product of orbit lengths and
membership is a sift, one composition per level, with no element listed.
The elements themselves are listed only on demand, by breadth-first
closure of the generators, and only up to order LISTING_LIMIT (desk
scale); the chain itself has no order limit.

Every PermGroup is the closure of its own generators, so equality,
hashing and subgroup tests use only the order and the generators, never
the element lists: G <= H iff every generator of G lies in H (|G|
dividing |H|, by Lagrange, is checked first), G == H iff both act on
the same n, |G| == |H| and G <= H, and the hash is that of (n, |G|).
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, Sequence

import numpy as np

LISTING_LIMIT = 10**6

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class GroupTooLargeError(RuntimeError):
    """Raised, before the first element, on listing a group of order above LISTING_LIMIT."""


class Permutation:
    """A bijection of {0,...,n-1} stored as its image sequence."""

    __slots__ = ("n", "images")

    def __init__(self, images: Sequence[int]):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        self.n = len(images)
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple already known to be a permutation of
        0..len-1 (a product of permutations), skipping __init__'s checks."""
        p = object.__new__(cls)
        p.n = len(images)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build from 1-based cycles, e.g. from_cycles(5, [(1,2,3),(4,5)])."""
        images = list(range(n))
        for cycle in cycles:
            pts = [int(p) - 1 for p in cycle]
            for p in pts:
                if not 0 <= p < n:
                    raise ValueError(f"cycle point {p + 1} out of range 1..{n}")
            if len(set(pts)) != len(pts):
                raise ValueError(f"repeated point in cycle {tuple(cycle)}")
            for i, p in enumerate(pts):
                images[p] = pts[(i + 1) % len(pts)]
        return cls(images)

    @classmethod
    def parse(cls, n: int, text: str) -> "Permutation":
        """Parse 1-based cycle notation like ``(1 2 3)(4 5)``; ``()`` is the identity."""
        text = text.strip()
        if text in ("", "()", "e", "id"):
            return cls.identity(n)
        stripped = _CYCLE_RE.sub("", text)
        if stripped.strip():
            raise ValueError(f"malformed cycle notation: {text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(text):
            pts = body.replace(",", " ").split()
            if not pts:
                continue
            try:
                cycles.append([int(p) for p in pts])
            except ValueError:
                raise ValueError(f"malformed cycle notation: {text!r}") from None
        return cls.from_cycles(n, cycles)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, n={self.n})"

    def inverse(self) -> "Permutation":
        return Permutation._trusted(_invert(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, 0-based, each starting at its smallest point."""
        seen = [False] * self.n
        out = []
        for start in range(self.n):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            p = start
            while not seen[p]:
                seen[p] = True
                cyc.append(p)
                p = self.images[p]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)

    def is_even(self) -> bool:
        """Parity via cycle structure: even iff n minus #cycles is even."""
        seen = [False] * self.n
        ncycles = 0
        for start in range(self.n):
            if seen[start]:
                continue
            ncycles += 1
            p = start
            while not seen[p]:
                seen[p] = True
                p = self.images[p]
        return (self.n - ncycles) % 2 == 0

    def apply_vector(self, x: np.ndarray) -> np.ndarray:
        """(g.x)_i = x_{g^-1(i)}, realized by scattering x through the image map."""
        x = np.asarray(x)
        if x.shape[0] != self.n:
            raise ValueError(f"vector length {x.shape[0]} != domain size {self.n}")
        out = np.empty_like(x)
        out[list(self.images)] = x
        return out

    def apply_tensor(self, X: np.ndarray, k: int | None = None) -> np.ndarray:
        """Permute the first k axes of X by g^-1; trailing axes are features.

        (g.X)_{i1..ik,j} = X_{g^-1(i1)..g^-1(ik),j}.
        """
        X = np.asarray(X)
        if k is None:
            k = X.ndim
        if k > X.ndim:
            raise ValueError(f"k={k} exceeds tensor rank {X.ndim}")
        for ax in range(k):
            if X.shape[ax] != self.n:
                raise ValueError(f"axis {ax} has size {X.shape[ax]}, expected {self.n}")
        inv = self.inverse().images
        for ax in range(k):
            X = np.take(X, inv, axis=ax)
        return X


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p*q)(i) = p(q(i)): apply q first, then p."""
    if p.n != q.n:
        raise ValueError(f"domain sizes differ: {p.n} vs {q.n}")
    return Permutation._trusted(tuple(map(p.images.__getitem__, q.images)))


def _breadth_first(n: int, gen_images: Sequence[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """The closure of the generators as image tuples, identity first, in
    breadth-first discovery order (deterministic given the generator order)."""
    identity = tuple(range(n))
    yield identity
    seen = {identity}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in gen_images:
                h = tuple(map(g.__getitem__, e))    # the images of g * e
                if h not in seen:
                    seen.add(h)
                    yield h
                    new_frontier.append(h)
        frontier = new_frontier


def _invert(images: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(images)
    for i, image in enumerate(images):
        inv[image] = i
    return tuple(inv)


class _Level:
    """One level of a stabilizer chain: the stabilizer of the earlier base
    points, given by its strong generators, and the orbit of this level's
    base point with a coset representative u (u(base) = point) and its
    inverse for every orbit point."""

    __slots__ = ("base", "gens", "applied", "orbit", "reps", "inverses")

    def __init__(self, base: int, identity: tuple[int, ...]):
        self.base = base
        self.gens: list[tuple[int, ...]] = []
        self.applied = 0        # gens[:applied] have been applied to every orbit point
        self.orbit = [base]
        self.reps = {base: identity}
        self.inverses = {base: identity}


class _ChainComplete(Exception):
    """The orbit lengths of a chain under construction reached n!."""


class _StabilizerChain:
    """A base and strong generating set, built by incremental
    Schreier-Sims; permutations are image tuples.

    The order is kept as the product of the orbit lengths.  Every level's
    orbit lies inside the true basic orbit of its stabilizer, so that
    product never exceeds the group order, which divides n!.  The build
    stops as soon as the product reaches n!: every orbit is then a full
    basic orbit and the chain is already complete (Seress 2003), so a
    group that is all of S_n skips the Schreier generators that could add
    nothing.
    """

    __slots__ = ("identity", "levels", "order", "full_order")

    def __init__(self, n: int, gen_images: Iterable[tuple[int, ...]]):
        self.identity = tuple(range(n))
        self.levels: list[_Level] = []
        self.order = 1
        self.full_order = math.factorial(n)
        try:
            for g in gen_images:
                self._add(g, 0)
        except _ChainComplete:
            pass

    def sift(self, g: tuple[int, ...], start: int = 0) -> tuple[tuple[int, ...], int]:
        """Strip g by the representatives of levels start, start+1, ...;
        return the residual and the level where it left the orbit
        (len(levels) if it passed every level)."""
        for j in range(start, len(self.levels)):
            level = self.levels[j]
            inverse = level.inverses.get(g[level.base])
            if inverse is None:
                return g, j
            g = tuple(map(inverse.__getitem__, g))
        return g, len(self.levels)

    def _add(self, g: tuple[int, ...], start: int) -> None:
        """Extend levels start.. (g fixes the earlier base points) to a
        chain for the group they generate together with g."""
        h, j = self.sift(g, start)
        if h == self.identity:
            return
        if j == len(self.levels):
            moved = next(i for i, image in enumerate(h) if i != image)
            self.levels.append(_Level(moved, self.identity))
        # h fixes the base points of levels start..j-1, so it belongs to the
        # stabilizer at each of them, not only at the level where it stopped
        for level in self.levels[start:j + 1]:
            level.gens.append(h)
        for i in range(j, start - 1, -1):
            self._close(i)

    def _close(self, i: int) -> None:
        """Grow level i's orbit under its generators and sift every new
        Schreier generator into the levels below it."""
        level = self.levels[i]
        old_points, old_gens = len(level.orbit), level.applied
        k = 0
        while k < len(level.orbit):
            u = level.reps[level.orbit[k]]
            for s in level.gens[old_gens if k < old_points else 0:]:
                su = tuple(map(s.__getitem__, u))
                point = su[level.base]
                inverse = level.inverses.get(point)
                if inverse is None:
                    level.orbit.append(point)
                    level.reps[point] = su
                    level.inverses[point] = _invert(su)
                    self.order = self.order // (len(level.orbit) - 1) * len(level.orbit)
                    if self.order == self.full_order:
                        raise _ChainComplete
                else:
                    self._add(tuple(map(inverse.__getitem__, su)), i + 1)
            k += 1
        level.applied = len(level.gens)

    def __contains__(self, g: tuple[int, ...]) -> bool:
        return self.sift(g)[0] == self.identity


class PermGroup:
    """A finitely generated subgroup of S_n, held as a stabilizer chain.

    The order and membership come from the chain.  The elements are
    listed on first use, in breadth-first discovery order (identity
    first), which is deterministic given the generator order; iteration
    yields the same sequence lazily, so a consumer that stops early runs
    only part of the search.  Every group is the closure of its own
    generators: equality and subgroup tests read only the order and the
    generators.
    """

    __slots__ = ("n", "generators", "_chain", "_elements")

    def __init__(self, n: int, generators: Sequence[Permutation]):
        self.n = n
        self.generators = tuple(generators)
        self._chain = _StabilizerChain(n, (g.images for g in self.generators))
        self._elements: tuple[Permutation, ...] | None = None

    @classmethod
    def generate(cls, n: int, generators: Iterable[Permutation]) -> "PermGroup":
        """The group generated by the generators."""
        gens = []
        for g in generators:
            if g.n != n:
                raise ValueError(f"generator acts on {g.n} points, expected {n}")
            gens.append(g)
        return cls(n, gens)

    @property
    def order(self) -> int:
        return self._chain.order

    @property
    def elements(self) -> tuple[Permutation, ...]:
        if self._elements is None:
            self._elements = tuple(self._list())
        return self._elements

    def _list(self) -> Iterator[Permutation]:
        """List the elements lazily; a listing that runs to the end is cached."""
        if self.order > LISTING_LIMIT:
            raise GroupTooLargeError(f"order {self.order} exceeds the listing limit of "
                                     f"{LISTING_LIMIT} elements")
        listed = []
        for images in _breadth_first(self.n, [g.images for g in self.generators]):
            g = Permutation._trusted(images)
            listed.append(g)
            yield g
        self._elements = tuple(listed)

    def __len__(self) -> int:
        return self.order

    def __iter__(self) -> Iterator[Permutation]:
        if self._elements is not None:
            return iter(self._elements)
        return self._list()

    def __contains__(self, g: Permutation) -> bool:
        return (isinstance(g, Permutation) and g.n == self.n
                and g.images in self._chain)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, PermGroup) and self.n == other.n
                and self.order == other.order
                and all(g in other for g in self.generators))

    def __hash__(self) -> int:
        return hash((self.n, self.order))

    def __repr__(self) -> str:
        gens = " ".join(g.cycle_string() for g in self.generators) or "()"
        return f"PermGroup(n={self.n}, order={self.order}, <{gens}>)"

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        if self.n != other.n:
            raise ValueError("groups act on different point counts")
        return (other.order % self.order == 0
                and all(g in other for g in self.generators))


def trivial(n: int) -> PermGroup:
    return PermGroup.generate(n, [])


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return trivial(1)
    gens = [Permutation.from_cycles(n, [(1, 2)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
    return PermGroup.generate(n, gens)


def alternating(n: int) -> PermGroup:
    """Even permutations of S_n, via the standard generating pair."""
    if n < 1:
        raise ValueError("n must be positive")
    if n <= 2:
        return trivial(n)
    gens = [Permutation.from_cycles(n, [(1, 2, 3)])]
    if n > 3:
        if n % 2 == 1:
            gens.append(Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
        else:
            gens.append(Permutation.from_cycles(n, [tuple(range(2, n + 1))]))
    return PermGroup.generate(n, gens)


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return trivial(1)
    return PermGroup.generate(n, [Permutation.from_cycles(n, [tuple(range(1, n + 1))])])


def dihedral(n: int) -> PermGroup:
    """Rotations plus the reflection i -> -i (mod n); order 2n for n >= 3."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return trivial(1)
    rot = Permutation([(i + 1) % n for i in range(n)])
    refl = Permutation([(n - i) % n for i in range(n)])
    return PermGroup.generate(n, [rot, refl])


def grid(dims: Sequence[int]) -> PermGroup:
    """Independent cyclic shifts per axis of a grid, acting on the flat index set."""
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError("grid dimensions must be positive")
    n = math.prod(dims)
    gens = []
    for axis, d in enumerate(dims):
        if d == 1:
            continue
        images = np.arange(n).reshape(dims)
        images = np.roll(images, 1, axis=axis)
        gens.append(Permutation(images.reshape(-1)))
    return PermGroup.generate(n, gens)


def named_group(kind: str, n: int | None = None,
                dims: Sequence[int] | None = None) -> PermGroup:
    """Dispatch on a group family name; ``grid`` takes dims, the rest take n."""
    kind = kind.strip().lower()
    if kind == "grid":
        if not dims:
            raise ValueError("grid needs dims")
        return grid(dims)
    if n is None:
        raise ValueError(f"{kind} needs n")
    builders = {
        "symmetric": symmetric,
        "alternating": alternating,
        "cyclic": cyclic,
        "dihedral": dihedral,
        "trivial": trivial,
    }
    if kind not in builders:
        raise ValueError(f"unknown group name {kind!r}")
    return builders[kind](n)
