"""Equivalence classes of index tuples [n]^k under a permutation group.

Two relations matter here.  The *layer* relation identifies
(i1,...,ik) with (g(i1),...,g(ik)) for g in the group; solution tensors
of the equivariant-layer fixed-point equation are constant on its
classes.  The *polynomial* relation additionally quotients by
permutations of the tuple positions, which is what makes monomials with
reordered factors identical; its classes index the invariant-polynomial
basis.

Tuples are encoded as base-n integers, first digit most significant, so
code order equals lexicographic order on digits.  Classes are computed
by union-find driven only by the group's generators and relabeled so
class ids ascend with their representatives' codes; the result is
deterministic and independent of generator order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .permgroup import PermGroup

LAYER = "layer"
POLYNOMIAL = "polynomial"
EQUALITY = "equality"

DEFAULT_TUPLE_CAP = 10**8
_CAP_ENV = "GINET_CAP_TUPLES"


class CapExceededError(RuntimeError):
    """The flat tuple space n^k does not fit under the configured cap."""


def tuple_cap() -> int:
    """Active cap on n^k, overridable via the GINET_CAP_TUPLES env var."""
    raw = os.environ.get(_CAP_ENV)
    return int(raw) if raw else DEFAULT_TUPLE_CAP


def encode(digits: Sequence[int], n: int) -> int:
    code = 0
    for d in digits:
        if not 0 <= d < n:
            raise ValueError(f"digit {d} out of range 0..{n - 1}")
        code = code * n + d
    return code


def decode(code: int, n: int, k: int) -> tuple[int, ...]:
    digits = [0] * k
    for pos in range(k - 1, -1, -1):
        code, digits[pos] = divmod(code, n)
    if code:
        raise ValueError("code out of range for n^k")
    return tuple(digits)


class UnionFind:
    """Disjoint sets over 0..n-1; path halving, union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]


@dataclass(frozen=True)
class OrbitPartition:
    """A partition of [n]^k; class ids ascend with representative codes."""

    n: int
    k: int
    kind: str
    class_id: np.ndarray
    num_classes: int
    representatives: tuple[tuple[int, ...], ...]

    def class_of(self, t) -> int:
        """Class id of a tuple given as a digit sequence or a code."""
        if isinstance(t, (int, np.integer)):
            code = int(t)
        else:
            code = encode(t, self.n)
        if not 0 <= code < self.class_id.shape[0]:
            raise ValueError(f"tuple code {code} out of range for n^k")
        return int(self.class_id[code])

    def members(self, class_index: int) -> np.ndarray:
        """Codes of all tuples in the class, ascending."""
        return np.flatnonzero(self.class_id == class_index)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.class_id, minlength=self.num_classes)


def _check_cap(n: int, k: int, cap: int | None) -> int:
    limit = tuple_cap() if cap is None else cap
    total = n**k
    if total > limit:
        raise CapExceededError(
            f"n^k = {n}^{k} = {total} exceeds the tuple cap {limit} "
            f"(override with {_CAP_ENV} or an explicit cap)")
    return total


def _digit_table(n: int, k: int) -> np.ndarray:
    """(n^k, k) array whose row c holds decode(c); row order is code order."""
    if k == 0:
        return np.zeros((1, 0), dtype=np.int64)
    return np.indices((n,) * k).reshape(k, -1).T.astype(np.int64)


def _code_weights(n: int, k: int) -> np.ndarray:
    return np.array([n ** (k - 1 - j) for j in range(k)], dtype=np.int64)


def _finish(n: int, k: int, kind: str, uf: UnionFind, total: int) -> OrbitPartition:
    class_id = np.empty(total, dtype=np.int64)
    reps: list[tuple[int, ...]] = []
    root_label: dict[int, int] = {}
    for code in range(total):
        root = uf.find(code)
        label = root_label.get(root)
        if label is None:
            label = len(reps)
            root_label[root] = label
            reps.append(decode(code, n, k))
        class_id[code] = label
    class_id.flags.writeable = False
    return OrbitPartition(n=n, k=k, kind=kind, class_id=class_id,
                          num_classes=len(reps), representatives=tuple(reps))


def _union_generator_maps(uf: UnionFind, digits: np.ndarray, weights: np.ndarray,
                          image_maps: list[np.ndarray]) -> None:
    total = digits.shape[0]
    for images in image_maps:
        if digits.shape[1] == 0:
            continue
        mapped = (images[digits] * weights).sum(axis=1)
        for code in range(total):
            uf.union(code, int(mapped[code]))


def layer_classes(G: PermGroup, k: int, cap: int | None = None) -> OrbitPartition:
    """Orbits of [n]^k under the diagonal action of G's generators."""
    total = _check_cap(G.n, k, cap)
    digits = _digit_table(G.n, k)
    weights = _code_weights(G.n, k)
    uf = UnionFind(total)
    maps = [np.array(g.images, dtype=np.int64) for g in G.generators]
    _union_generator_maps(uf, digits, weights, maps)
    return _finish(G.n, k, LAYER, uf, total)


def poly_classes(G: PermGroup, k: int, cap: int | None = None) -> OrbitPartition:
    """Orbits of [n]^k under G jointly with permutations of tuple positions.

    Position permutations are generated by the k-1 adjacent
    transpositions, added as extra union-find moves.
    """
    total = _check_cap(G.n, k, cap)
    digits = _digit_table(G.n, k)
    weights = _code_weights(G.n, k)
    uf = UnionFind(total)
    maps = [np.array(g.images, dtype=np.int64) for g in G.generators]
    _union_generator_maps(uf, digits, weights, maps)
    for j in range(k - 1):
        cols = list(range(k))
        cols[j], cols[j + 1] = cols[j + 1], cols[j]
        swapped = (digits[:, cols] * weights).sum(axis=1)
        for code in range(total):
            uf.union(code, int(swapped[code]))
    return _finish(G.n, k, POLYNOMIAL, uf, total)


def equality_pattern_partition(n: int, k: int, cap: int | None = None) -> OrbitPartition:
    """Tuples identified iff their coordinates share the same equality pattern.

    (i_a = i_b <-> j_a = j_b for all positions a,b.)  For n >= k this is
    exactly the S_n layer partition, with one class per set partition of
    the k positions.
    """
    total = _check_cap(n, k, cap)
    digits = _digit_table(n, k)
    class_id = np.empty(total, dtype=np.int64)
    reps: list[tuple[int, ...]] = []
    pattern_label: dict[tuple[int, ...], int] = {}
    for code in range(total):
        row = digits[code]
        first_seen: dict[int, int] = {}
        pattern = []
        for d in row:
            d = int(d)
            if d not in first_seen:
                first_seen[d] = len(first_seen)
            pattern.append(first_seen[d])
        key = tuple(pattern)
        label = pattern_label.get(key)
        if label is None:
            label = len(reps)
            pattern_label[key] = label
            reps.append(tuple(int(d) for d in row))
        class_id[code] = label
    class_id.flags.writeable = False
    return OrbitPartition(n=n, k=k, kind=EQUALITY, class_id=class_id,
                          num_classes=len(reps), representatives=tuple(reps))


def orbit_count_squared(G: PermGroup) -> int:
    """|[n]^2 / G|: the number of G-orbits of ordered pairs."""
    return layer_classes(G, 2).num_classes


def tuple_action_codes(g, n: int, k: int) -> np.ndarray:
    """m with m[code(t)] = code(g(t)): the generator move on flat codes."""
    digits = _digit_table(n, k)
    weights = _code_weights(n, k)
    images = np.array(g.images, dtype=np.int64)
    if k == 0:
        return np.zeros(1, dtype=np.int64)
    return (images[digits] * weights).sum(axis=1)
