"""Permutations of {1..n} and finitely generated subgroups of S_n.

Indices are 0-based internally; cycle notation at the I/O boundary is
1-based, matching the usual mathematical convention.  The vector action
is (g.x)_i = x_{g^-1(i)} and the tensor action applies g^-1 to every
index axis, features untouched.

Groups are fully materialized by breadth-first closure of their
generators, so membership is a dict lookup.  This is meant for desk
scale (|G| <= n! <= 40320 in the verifier suite), not for large-degree
group theory.

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

DEFAULT_GROUP_CAP = 10**6

_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class GroupTooLargeError(RuntimeError):
    """Raised when closure enumeration exceeds the element cap."""


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
        inv = [0] * self.n
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == img for i, img in enumerate(self.images))

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


class PermGroup:
    """A finitely generated subgroup of S_n, fully materialized.

    Elements are listed in breadth-first discovery order (identity
    first), which is deterministic given the generator order.  The
    elements must be the closure of the generators (as generate builds
    them): equality and subgroup tests read only the order and the
    generators.
    """

    __slots__ = ("n", "generators", "elements", "_index")

    def __init__(self, n: int, generators: Sequence[Permutation],
                 elements: Sequence[Permutation]):
        self.n = n
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self._index = {g.images: i for i, g in enumerate(self.elements)}
        assert Permutation.identity(n).images in self._index

    @classmethod
    def generate(cls, n: int, generators: Iterable[Permutation],
                 cap: int = DEFAULT_GROUP_CAP) -> "PermGroup":
        """Closure of the generators under composition, breadth-first."""
        if cap < 1:
            raise ValueError("cap must be >= 1")
        gens = []
        for g in generators:
            if g.n != n:
                raise ValueError(f"generator acts on {g.n} points, expected {n}")
            gens.append(g)
        identity = Permutation.identity(n)
        elements = [identity]
        seen = {identity.images}
        frontier = [identity.images]
        gen_images = [g.images for g in gens]
        while frontier:
            new_frontier = []
            for e in frontier:
                for g in gen_images:
                    h = tuple(map(g.__getitem__, e))    # the images of g * e
                    if h not in seen:
                        seen.add(h)
                        elements.append(Permutation._trusted(h))
                        new_frontier.append(h)
                        if len(elements) > cap:
                            raise GroupTooLargeError(
                                f"group closure exceeds cap of {cap} elements")
            frontier = new_frontier
        return cls(n, gens, elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, g: Permutation) -> bool:
        return isinstance(g, Permutation) and g.images in self._index

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


def trivial(n: int, cap: int = DEFAULT_GROUP_CAP) -> PermGroup:
    return PermGroup.generate(n, [], cap=cap)


def symmetric(n: int, cap: int = DEFAULT_GROUP_CAP) -> PermGroup:
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return trivial(1, cap)
    gens = [Permutation.from_cycles(n, [(1, 2)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
    return PermGroup.generate(n, gens, cap=cap)


def alternating(n: int, cap: int = DEFAULT_GROUP_CAP) -> PermGroup:
    """Even permutations of S_n, via the standard generating pair."""
    if n < 1:
        raise ValueError("n must be positive")
    if n <= 2:
        return trivial(n, cap)
    gens = [Permutation.from_cycles(n, [(1, 2, 3)])]
    if n > 3:
        if n % 2 == 1:
            gens.append(Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
        else:
            gens.append(Permutation.from_cycles(n, [tuple(range(2, n + 1))]))
    return PermGroup.generate(n, gens, cap=cap)


def cyclic(n: int, cap: int = DEFAULT_GROUP_CAP) -> PermGroup:
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return trivial(1, cap)
    return PermGroup.generate(
        n, [Permutation.from_cycles(n, [tuple(range(1, n + 1))])], cap=cap)


def dihedral(n: int, cap: int = DEFAULT_GROUP_CAP) -> PermGroup:
    """Rotations plus the reflection i -> -i (mod n); order 2n for n >= 3."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return trivial(1, cap)
    rot = Permutation([(i + 1) % n for i in range(n)])
    refl = Permutation([(n - i) % n for i in range(n)])
    return PermGroup.generate(n, [rot, refl], cap=cap)


def grid(dims: Sequence[int], cap: int = DEFAULT_GROUP_CAP) -> PermGroup:
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
    return PermGroup.generate(n, gens, cap=cap)


def named_group(kind: str, n: int | None = None, dims: Sequence[int] | None = None,
                cap: int = DEFAULT_GROUP_CAP) -> PermGroup:
    """Dispatch on a group family name; ``grid`` takes dims, the rest take n."""
    kind = kind.strip().lower()
    if kind == "grid":
        if not dims:
            raise ValueError("grid needs dims")
        return grid(dims, cap=cap)
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
    return builders[kind](n, cap=cap)
