"""Equivalence classes of index tuples [n]^k under a permutation group.

Two relations matter here.  The *layer* relation identifies
(i1,...,ik) with (g(i1),...,g(ik)) for g in the group; solution tensors
of the equivariant-layer fixed-point equation are constant on its
classes.  The *polynomial* relation additionally quotients by
permutations of the tuple positions, which is what makes monomials with
reordered factors identical; its classes index the invariant-polynomial
basis.

Tuples are encoded as base-n integers, first digit most significant, so
code order equals lexicographic order on digits.  Classes are found by
min-label propagation over one permutation array per generator
(min_labels): every point's label falls to the least label among its
images, then jumps to its label's label, until nothing changes.  The
layer relation's points are the n^k codes; the polynomial relation's
are the multisets, held as nondecreasing rows in code order, and a tuple
takes the class of its sorted digits in a view built when first read.
The least points of the classes serve as representatives, and class ids
ascend with them; the result is deterministic and independent of
generator order.

Before it builds a partition of [n]^k or a tuple view, each function here
estimates its peak bytes and raises CapExceededError when the estimate is
over the physical memory.  Nothing sets this limit.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .permgroup import PermGroup

LAYER = "layer"
POLYNOMIAL = "polynomial"
EQUALITY = "equality"

# physical memory in bytes, or None where sysconf does not report it
try:
    _PHYSICAL_MEMORY: int | None = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):
    _PHYSICAL_MEMORY = None


class CapExceededError(RuntimeError):
    """A kernel's estimated peak memory exceeds the physical memory."""


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
    """A partition of [n]^k; class ids ascend with representative codes.
    labels holds the class of each kernel point: each n^k tuple code, or,
    for a polynomial partition, each multiset, kept as its nondecreasing
    digit row in rows (code order; at k = 0 the one empty row)."""

    n: int
    k: int
    kind: str
    labels: np.ndarray
    num_classes: int
    representatives: tuple[tuple[int, ...], ...]
    rows: np.ndarray | None = None

    @functools.cached_property
    def class_id(self) -> np.ndarray:
        """The class of each n^k tuple code; a polynomial partition builds
        this view on first read, each tuple in the class of its sorted digits."""
        if self.rows is None:
            return self.labels
        n, k, rows = self.n, self.k, self.rows
        _check_view(n, k)
        # after j < k digits a tuple stands at the rank of its multiset's
        # row padded with k - j zeros; rows led by 0 come first, so their
        # ranks index tails, and a step replaces that 0 by the next digit
        class_id = np.zeros(1, dtype=np.int64)
        if k:
            tails = rows[rows[:, 0] == 0, 1:]
            step = np.column_stack([_rank(rows, n, np.insert(tails, 0, d, 1)) for d in range(n)])
            for table in [step] * (k - 1) + [self.labels[step]]:
                class_id = table[class_id].reshape(-1)
        class_id.flags.writeable = False
        return class_id

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


def _check_memory(nbytes: int, what: str) -> None:
    """Raise CapExceededError when an estimated peak of nbytes exceeds
    the physical memory; called before the kernel allocates anything."""
    if _PHYSICAL_MEMORY is not None and nbytes > _PHYSICAL_MEMORY:
        raise CapExceededError(
            f"{what} would take an estimated {nbytes} bytes, more than the "
            f"{_PHYSICAL_MEMORY} bytes of physical memory")


def _representative_bytes(n: int, k: int, order: int, kind: str) -> int:
    """A bound on the bytes of the representatives of [n]^k under a group
    of the given order: 64 + 48k bytes per k-tuple of Python ints (its
    code, digit columns, lists, ints and tuple), times _class_bound."""
    return _class_bound(n, k, order, kind) * (64 + 48 * k)


def _class_bound(n: int, k: int, order: int, kind: str) -> int:
    """A bound on Burnside's class count (1/|G|) sum_g fix(g) for a group
    of the given order on [n]^k.

    POLYNOMIAL: the multiset count C(n+k-1, k).
    LAYER: a k-tuple is fixed by g when all its entries are, so fix(g) =
    f^k for g with f fixed points.  At most C(n, f) * D(n - f) elements of
    S_n fix exactly f points (D the derangement numbers), and the bound
    gives the order's elements the most fixed points those counts allow,
    largest f first; for S_n it is the exact count.
    """
    if kind == POLYNOMIAL:
        return math.comb(n + k - 1, k)
    derangements = [1, 0]
    for m in range(2, n + 1):
        derangements.append((m - 1) * (derangements[-1] + derangements[-2]))
    left, total = order, 0
    for f in range(n, -1, -1):
        count = min(left, math.comb(n, f) * derangements[n - f])
        total += count * f**k
        left -= count
    return -(-total // order)


def _check_orbits(G: PermGroup, k: int, kind: str) -> None:
    """k >= 0, and the orbit kernel's estimated peak fits in memory: the
    representatives plus, at 8 bytes each, for LAYER a code map per
    generator and six working arrays per code; for POLYNOMIAL maps + 2k + 8
    arrays per multiset, whose codes and multiplicities stay exact in int64
    while k n^k < 2^63."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n, maps = G.n, len(G.generators)
    if kind == POLYNOMIAL and k * n**k >= 2**63:
        raise CapExceededError(f"the polynomial classes of [{n}]^{k} need k * n^k < 2^63 "
                               f"for exact int64 codes")
    nbytes = 8 * math.comb(n + k - 1, k) * (maps + 2 * k + 8) \
        if kind == POLYNOMIAL else 8 * n**k * (maps + 6)
    _check_memory(nbytes + _representative_bytes(n, k, G.order, kind),
                  f"the {kind} classes of [{n}]^{k}")


def _check_view(n: int, k: int) -> None:
    """The polynomial tuple view's estimated peak fits in memory: at 8
    bytes each, its last step (n^k + n^(k-1) codes) and three copies of its
    step table (at most min(n^k, n m) entries, m the multisets)."""
    nbytes = 8 * (n**k + n**k // n + 3 * min(n**k, n * math.comb(n + k - 1, k)))
    _check_memory(nbytes, f"the tuple view of the polynomial classes of [{n}]^{k}")


def min_labels(size: int, maps: Sequence[np.ndarray]) -> np.ndarray:
    """label[p] = the least point of p's orbit, for the points 0..size-1
    under the group generated by the permutation arrays in maps."""
    points = np.arange(size, dtype=np.int64)
    label = points
    while True:
        before = label
        for m in maps:
            label = np.minimum(label, label[m])
        label = label[label]
        if np.array_equal(label, before):
            return label


def _classes(label: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class ids ascending with the least points, and those points."""
    is_least = label == np.arange(label.shape[0])
    return (np.cumsum(is_least, dtype=np.int64) - 1)[label], np.flatnonzero(is_least)


def layer_classes(G: PermGroup, k: int) -> OrbitPartition:
    """Orbits of [n]^k under the diagonal action of G's generators."""
    _check_orbits(G, k, LAYER)
    maps = [tuple_action_codes(g, G.n, k) for g in G.generators]
    labels, least = _classes(min_labels(G.n**k, maps))
    labels.flags.writeable = False
    # the digits of the least codes, most significant first
    least = least[:, None] // G.n ** np.arange(k - 1, -1, -1, dtype=np.int64) % G.n
    return OrbitPartition(G.n, k, LAYER, labels, len(least), tuple(map(tuple, least.tolist())))


def _nondecreasing_rows(n: int, k: int) -> np.ndarray:
    """The nondecreasing rows of [n]^k, one per multiset, in code order."""
    rows = list(itertools.combinations_with_replacement(range(n), k))
    return np.array(rows, dtype=np.int64).reshape(len(rows), k)


def _rank(rows: np.ndarray, n: int, digits: np.ndarray) -> np.ndarray:
    """The index among the nondecreasing rows of each row of digits, sorted."""
    weights = n ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    return np.searchsorted(rows @ weights, np.sort(digits, axis=1) @ weights)


def poly_classes(G: PermGroup, k: int) -> OrbitPartition:
    """Orbits of [n]^k under G jointly with permutations of tuple positions.

    These are G's orbits on the multisets, each a nondecreasing row; a
    generator maps a row to its sorted images, ranked among the row codes.
    The partition keeps the rows and their classes; its n^k tuple view,
    class_id, is built only when read.
    """
    _check_orbits(G, k, POLYNOMIAL)
    rows = _nondecreasing_rows(G.n, k)
    maps = [_rank(rows, G.n, np.asarray(g.images)[rows]) for g in G.generators]
    labels, least = _classes(min_labels(rows.shape[0], maps))
    rows.flags.writeable = labels.flags.writeable = False
    return OrbitPartition(G.n, k, POLYNOMIAL, labels, len(least),
                          tuple(map(tuple, rows[least].tolist())), rows)


def multiplicities(digits: np.ndarray) -> np.ndarray:
    """k! / (e_1! ... e_r!) for each nondecreasing row whose values occur
    e_1, ..., e_r times: the number of its orderings.  Built prefix by
    prefix, M_j = M_{j-1} * j / (the run length at column j), so every
    step is an exact integer."""
    mult = np.ones(digits.shape[0], dtype=np.int64)
    run = np.ones_like(mult)
    for j in range(1, digits.shape[1]):
        run = np.where(digits[:, j] == digits[:, j - 1], run + 1, 1)
        mult = mult * (j + 1) // run
    return mult


def equality_pattern_partition(n: int, k: int) -> OrbitPartition:
    """Tuples identified iff their coordinates share the same equality pattern.

    (i_a = i_b <-> j_a = j_b for all positions a,b.)  This is exactly
    the S_n layer partition for every n, with one class per set
    partition of the k positions into at most n blocks.  It walks the
    tuples in Python, independently of the code maps, as a reference.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    _check_memory(8 * n**k + _representative_bytes(n, k, math.factorial(n), LAYER),
                  f"the equality patterns of [{n}]^{k}")
    class_id = np.empty(n**k, dtype=np.int64)
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
    return OrbitPartition(n=n, k=k, kind=EQUALITY, labels=class_id,
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
