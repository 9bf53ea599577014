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
are the multisets, held as nondecreasing rows in code order and ranked
in closed form, and a tuple takes the class of its sorted digits.  Each
class is held by its least point (a tuple code, or a row index for the
polynomial relation), and class ids ascend with those points; the
result is deterministic and independent of generator order.

Before it builds a partition of [n]^k, each function here estimates its
peak bytes and raises CapExceededError when the estimate is over the
physical memory.  Nothing sets this limit.
"""

from __future__ import annotations

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
    """A partition of [n]^k.  labels holds the class of each kernel point:
    each n^k tuple code, or, for a polynomial partition, each multiset,
    kept as its nondecreasing digit row in rows (code order; at k = 0 the
    one empty row).  least holds each class's least point, strictly
    ascending with the class id: a tuple code, or an index into rows."""

    n: int
    k: int
    kind: str
    labels: np.ndarray
    least: np.ndarray
    rows: np.ndarray | None = None

    @property
    def num_classes(self) -> int:
        return len(self.least)

    def representative(self, class_index: int) -> tuple[int, ...]:
        """The digits of the class's least point, as Python ints."""
        if self.rows is None:
            return decode(int(self.least[class_index]), self.n, self.k)
        return tuple(self.rows[self.least[class_index]].tolist())

    def classes_of(self, codes: np.ndarray) -> np.ndarray:
        """The class of each tuple code in an int64 array; a polynomial
        partition ranks the sorted digits of each among its rows."""
        if self.rows is None:
            return self.labels[codes]
        digits = codes[:, None] // self.n ** np.arange(self.k - 1, -1, -1, dtype=np.int64)
        digits %= self.n
        return self.labels[_rank(self.n, digits)]

    def class_of(self, t) -> int:
        """Class id of a tuple given as a digit sequence or a code."""
        if isinstance(t, (int, np.integer)):
            t = decode(int(t), self.n, self.k)
        elif len(t) != self.k:
            raise ValueError(f"tuple {tuple(t)} has length {len(t)}, expected k = {self.k}")
        code = encode(t, self.n)  # checks every digit
        if self.rows is not None:
            code = _rank(self.n, np.array([t], dtype=np.int64))[0]
        return int(self.labels[code])

    def members(self, class_index: int) -> np.ndarray:
        """Codes of all tuples in the class, ascending (3 int64s per code at
        the peak, 2k + 6 for a polynomial partition)."""
        n, k = self.n, self.k
        _check_memory(8 * n**k * (2 * k + 6 if self.rows is not None else 3),
                      f"the members of a {self.kind} class of [{n}]^{k}")
        return np.flatnonzero(self.classes_of(np.arange(n**k)) == class_index)

    def sizes(self) -> np.ndarray:
        """Tuples per class, as Python ints once n^k >= 2^63 (S5 has such a class at k = 29)."""
        if self.rows is None:
            return np.bincount(self.labels, minlength=self.num_classes)
        sizes = np.zeros(self.num_classes, dtype=np.int64 if self.n**self.k < 2**63 else object)
        np.add.at(sizes, self.labels, multiplicities(self.rows).astype(sizes.dtype))
        return sizes


def _check_memory(nbytes: int, what: str) -> None:
    """Raise CapExceededError when an estimated peak of nbytes exceeds
    the physical memory; called before the kernel allocates anything."""
    if _PHYSICAL_MEMORY is not None and nbytes > _PHYSICAL_MEMORY:
        raise CapExceededError(
            f"{what} would take an estimated {nbytes} bytes, more than the "
            f"{_PHYSICAL_MEMORY} bytes of physical memory")


def _check_orbits(G: PermGroup, k: int, kind: str) -> None:
    """k >= 0, and the orbit kernel's estimated peak fits in memory.  At 8
    bytes each, LAYER needs a code map per generator and six working
    arrays per code.  POLYNOMIAL needs, per multiset, its row's k columns,
    k more for the shorter rows while the rows are built or for the
    generators' image digits and their sorted copies while they are
    ranked, a map per generator and six working arrays.  Its rows'
    multiplicities stay exact in int64 while k M < 2^63, M = k! /
    ((q+1)!^r q!^(n-r)) the largest, q, r = divmod(k, n)."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    n, maps = G.n, len(G.generators)
    if kind == POLYNOMIAL:
        q, r = divmod(k, n)
        largest = math.factorial(k) // (math.factorial(q + 1)**r * math.factorial(q)**(n - r))
        if k * largest >= 2**63:
            raise CapExceededError(f"the polynomial classes of [{n}]^{k} need k * M < 2^63, "
                                   f"M = {largest} the largest multinomial")
    nbytes = 8 * math.comb(n + k - 1, k) * (maps + 2 * k + 6) \
        if kind == POLYNOMIAL else 8 * n**k * (maps + 6)
    _check_memory(nbytes, f"the {kind} classes of [{n}]^{k}")


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
    labels.flags.writeable = least.flags.writeable = False
    return OrbitPartition(G.n, k, LAYER, labels, least)


def _nondecreasing_rows(n: int, k: int) -> np.ndarray:
    """The nondecreasing rows of [n]^k, one per multiset, in code order.
    They are built length by length: the rows of length j + 1 that start
    with v are v followed by the C(n-v+j-1, j) rows of length j with no
    digit below v, which are the last ones in code order."""
    rows = np.empty((1, 0), dtype=np.int64)
    for j in range(k):
        longer = np.empty((math.comb(n + j, j + 1), j + 1), dtype=np.int64)
        start = 0
        for v in range(n):
            tail = math.comb(n - v + j - 1, j)
            longer[start:start + tail, 0] = v
            longer[start:start + tail, 1:] = rows[len(rows) - tail:]
            start += tail
        rows = longer
    return rows


def _rank(n: int, digits: np.ndarray) -> np.ndarray:
    """The index among the nondecreasing rows of [n]^k, in code order, of
    each row of digits, sorted.  The rows before a sorted row s agree with
    it up to some column i and hold a digit in [s_(i-1), s_i) there
    (s_(-1) = 0): B_i[s_(i-1)] - B_i[s_i] of them, B_i[v] = C(n-v+k-i-1, k-i)
    the nondecreasing rows of length k - i with no digit below v."""
    digits = np.sort(digits, axis=1)
    k = digits.shape[1]
    rank = np.zeros(digits.shape[0], dtype=np.int64)
    for i in range(k):
        B = np.array([math.comb(n - v + k - i - 1, k - i) for v in range(n + 1)], dtype=np.int64)
        rank += (B[digits[:, i - 1]] if i else B[0]) - B[digits[:, i]]
    return rank


def poly_classes(G: PermGroup, k: int) -> OrbitPartition:
    """Orbits of [n]^k under G jointly with permutations of tuple positions.

    These are G's orbits on the multisets, each a nondecreasing row; a
    generator maps a row to the rank of its sorted images (in the least
    integer type that holds n).  The partition keeps the rows and labels.
    """
    _check_orbits(G, k, POLYNOMIAL)
    rows = _nondecreasing_rows(G.n, k)
    maps = [_rank(G.n, np.asarray(g.images, np.min_scalar_type(G.n))[rows]) for g in G.generators]
    labels, least = _classes(min_labels(rows.shape[0], maps))
    rows.flags.writeable = labels.flags.writeable = least.flags.writeable = False
    return OrbitPartition(G.n, k, POLYNOMIAL, labels, least, rows)


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
    # at most Bell(k) patterns, the set partitions of the k positions; each
    # takes a key tuple of k ints (56 + 8k bytes), its dictionary slot,
    # label and least code (152 bytes)
    bell = [1]
    for m in range(k):
        bell.append(sum(math.comb(m, i) * b for i, b in enumerate(bell)))
    _check_memory(8 * n**k + bell[k] * (208 + 8 * k), f"the equality patterns of [{n}]^{k}")
    class_id = np.empty(n**k, dtype=np.int64)
    least: list[int] = []
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
            label = len(least)
            pattern_label[key] = label
            least.append(code)
        class_id[code] = label
    least_codes = np.array(least, dtype=np.int64)
    class_id.flags.writeable = least_codes.flags.writeable = False
    return OrbitPartition(n=n, k=k, kind=EQUALITY, labels=class_id, least=least_codes)


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
