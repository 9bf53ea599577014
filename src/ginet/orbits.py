"""Equivalence classes of index tuples [n]^k under a permutation group.

Two relations matter here.  The *layer* relation identifies
(i1,...,ik) with (g(i1),...,g(ik)) for g in the group; solution tensors
of the equivariant-layer fixed-point equation are constant on its
classes.  The *polynomial* relation additionally quotients by
permutations of the tuple positions, which is what makes monomials with
reordered factors identical; its classes index the invariant-polynomial
basis.

Tuples are encoded as base-n integers, first digit most significant, so
code order equals lexicographic order on digits.  Each generator (and,
for the polynomial relation, each adjacent swap of positions) acts on
the codes as one permutation array, its code map.  Classes are found by
min-label propagation over the code maps: every code's label falls to
the least label among its images, then jumps to its label's label,
until nothing changes.  The labels are then the least codes of their
classes, which serve as representatives, and class ids ascend with
them; the result is deterministic and independent of generator order.
"""

from __future__ import annotations

import itertools
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
        elif len(t) != self.k:
            raise ValueError(f"tuple {tuple(t)} has length {len(t)}, expected k = {self.k}")
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


def _check_cap(size: int, cap: int | None, what: str) -> int:
    """size, once the cap (default tuple_cap()) is >= 1 and size is within it."""
    limit = tuple_cap() if cap is None else cap
    if limit < 1:
        raise ValueError(f"the tuple cap must be >= 1, got {limit}")
    if size > limit:
        raise CapExceededError(
            f"{what} = {size} exceeds the tuple cap {limit} "
            f"(override with {_CAP_ENV} or an explicit cap)")
    return size


def _num_tuples(n: int, k: int, cap: int | None) -> int:
    """n^k, once k >= 0 and n^k is within the cap."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return _check_cap(n**k, cap, f"n^k = {n}^{k}")


def _orbit_partition(n: int, k: int, kind: str, maps: list[np.ndarray]) -> OrbitPartition:
    """Classes of the codes 0..n^k-1 under the code permutations in maps."""
    codes = np.arange(n**k, dtype=np.int64)
    label = codes
    while True:
        before = label
        for m in maps:
            label = np.minimum(label, label[m])
        label = label[label]
        if np.array_equal(label, before):
            break
    # label[c] is now the least code in c's class
    is_least = label == codes
    class_id = (np.cumsum(is_least, dtype=np.int64) - 1)[label]
    class_id.flags.writeable = False
    least = np.flatnonzero(is_least)
    # the digit columns of the least codes, most significant first; with
    # k = 0 the one class is the empty tuple's, and zip would yield nothing
    columns = (least // n ** np.arange(k - 1, -1, -1, dtype=np.int64)[:, None] % n).tolist()
    reps = tuple(zip(*columns)) if k else ((),)
    return OrbitPartition(n=n, k=k, kind=kind, class_id=class_id,
                          num_classes=len(reps), representatives=reps)


def layer_classes(G: PermGroup, k: int, cap: int | None = None) -> OrbitPartition:
    """Orbits of [n]^k under the diagonal action of G's generators."""
    _num_tuples(G.n, k, cap)
    maps = [tuple_action_codes(g, G.n, k) for g in G.generators]
    return _orbit_partition(G.n, k, LAYER, maps)


def poly_classes(G: PermGroup, k: int, cap: int | None = None) -> OrbitPartition:
    """Orbits of [n]^k under G jointly with permutations of tuple positions.

    Position permutations are generated by the k-1 adjacent
    transpositions, added as extra code maps.
    """
    n = G.n
    total = _num_tuples(n, k, cap)
    maps = [tuple_action_codes(g, n, k) for g in G.generators]
    maps += [np.arange(total).reshape(n**j, n, n, -1).swapaxes(1, 2).reshape(-1)
             for j in range(k - 1)]
    return _orbit_partition(n, k, POLYNOMIAL, maps)


def equality_pattern_partition(n: int, k: int, cap: int | None = None) -> OrbitPartition:
    """Tuples identified iff their coordinates share the same equality pattern.

    (i_a = i_b <-> j_a = j_b for all positions a,b.)  This is exactly
    the S_n layer partition for every n, with one class per set
    partition of the k positions into at most n blocks.  It walks the
    tuples in Python, independently of the code maps, as a reference.
    """
    total = _num_tuples(n, k, cap)
    class_id = np.empty(total, dtype=np.int64)
    reps: list[tuple[int, ...]] = []
    pattern_label: dict[tuple[int, ...], int] = {}
    for code, row in enumerate(itertools.product(range(n), repeat=k)):
        first_seen: dict[int, int] = {}
        pattern = []
        for d in row:
            if d not in first_seen:
                first_seen[d] = len(first_seen)
            pattern.append(first_seen[d])
        key = tuple(pattern)
        label = pattern_label.get(key)
        if label is None:
            label = len(reps)
            pattern_label[key] = label
            reps.append(row)
        class_id[code] = label
    class_id.flags.writeable = False
    return OrbitPartition(n=n, k=k, kind=EQUALITY, class_id=class_id,
                          num_classes=len(reps), representatives=tuple(reps))


def orbit_count_squared(G: PermGroup) -> int:
    """|[n]^2 / G|: the number of G-orbits of ordered pairs."""
    return layer_classes(G, 2).num_classes


def tuple_action_codes(g, n: int, k: int) -> np.ndarray:
    """m with m[code(t)] = code(g(t)): the generator move on flat codes."""
    images = np.asarray(g.images, dtype=np.int64)
    m = np.zeros(1, dtype=np.int64)
    for _ in range(k):
        m = (m[:, None] * n + images).reshape(-1)
    return m
