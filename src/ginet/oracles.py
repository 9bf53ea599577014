"""Reference forms that check the paper's statements; the tests' oracles.

The pipeline (orbit classes, the invariant-polynomial basis, equivariant
layers, product gadgets, one network) never reads the n^k tuples of a
polynomial class, a dense weight matrix or a coefficient tensor.  The
functions here build exactly those, by the definitions, so the tests can
compare the pipeline with them:

- coefficient tensors: the symmetric tensor of a homogeneous polynomial,
  its fixed-point check under the tuple action, the tensor's polynomial
  and value, and the 0/1 tensor of one polynomial class;
- the tuple codes of one class (members), and the equality-pattern
  partition, which is the S_n layer partition found by a Python walk;
- a layer's dense matrix and bias, and the feature-wise concatenation of
  two layers;
- k-transitivity, and a network's largest change under the generators
  at random points.

No module of the pipeline and no CLI command imports this one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .equivlayers import EquivariantLayer, LayerSpace
from .net import GInvariantNetwork
from .orbits import OrbitPartition, _check_memory, decode, layer_classes
from .permgroup import PermGroup
from .polybasis import Monomial, Polynomial
from .rng import SplitMix64

EQUALITY = "equality"


# ------------------------------------------------------- coefficient tensors

@dataclass(frozen=True)
class CoeffTensor:
    """Dense coefficient tensor of a homogeneous degree-k polynomial."""

    n: int
    k: int
    values: np.ndarray  # shape (n,)*k

    def __post_init__(self):
        expected = (self.n,) * self.k
        if self.values.shape != expected:
            raise ValueError(f"tensor shape {self.values.shape} != {expected}")


def coeff_tensor(p_k: Polynomial, k: int | None = None) -> CoeffTensor:
    """Unique symmetric W with p_k(x) = sum_t W_t x_{t1}...x_{tk}.

    Each monomial's coefficient is split equally among the distinct
    orderings of its index multiset.
    """
    if k is None:
        k = p_k.degree
    n = p_k.n
    values = np.zeros((n,) * k)
    for exps, coeff in p_k.terms.items():
        if sum(exps) != k:
            raise ValueError(f"term {exps} has degree {sum(exps)}, expected {k}")
        indices = [i for i, e in enumerate(exps) for _ in range(e)]
        orderings = set(itertools.permutations(indices))
        share = coeff / len(orderings)
        for t in orderings:
            values[t] += share
    return CoeffTensor(n=n, k=k, values=values)


def polynomial_from_tensor(W: CoeffTensor) -> Polynomial:
    """Reconstruct sum_t W_t x_{t1}...x_{tk} as a sparse polynomial."""
    terms: dict[Monomial, float] = {}
    flat = W.values.reshape(-1)
    for code in np.flatnonzero(flat):
        digits = decode(int(code), W.n, W.k)
        exps = [0] * W.n
        for d in digits:
            exps[d] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, 0.0) + float(flat[code])
    return Polynomial(W.n, terms)


def tensor_evaluate(W: CoeffTensor, x: Sequence[float]) -> float:
    """Contract W against x on every axis: the polynomial's value."""
    x = np.asarray(x, dtype=np.float64)
    acc = W.values
    for _ in range(W.k):
        acc = np.tensordot(acc, x, axes=([acc.ndim - 1], [0]))
    return float(acc)


def check_fixed_point(W: CoeffTensor, G: PermGroup, tol: float = 0.0) -> bool:
    """True iff the tuple action of every generator fixes W within tol."""
    if W.n != G.n:
        raise ValueError(f"tensor over n={W.n} checked against group on n={G.n}")
    for g in G.generators:
        moved = g.apply_tensor(W.values, k=W.k)
        if np.max(np.abs(moved - W.values), initial=0.0) > tol:
            return False
    return True


def indicator_tensor(partition: OrbitPartition, class_index: int) -> CoeffTensor:
    """0/1 tensor supported on one polynomial class; symmetric by construction."""
    if partition.kind != "polynomial":
        raise ValueError("indicator tensors are defined for polynomial classes")
    values = np.zeros((partition.n,) * partition.k)
    values.flat[members(partition, class_index)] = 1.0
    return CoeffTensor(n=partition.n, k=partition.k, values=values)


# ------------------------------------------------------------ tuple classes

def members(partition: OrbitPartition, class_index: int) -> np.ndarray:
    """Codes of all tuples in the class, ascending (3 int64s per code at
    the peak, 2k + 6 for a polynomial partition)."""
    n, k = partition.n, partition.k
    _check_memory(8 * n**k * (2 * k + 6 if partition.rows is not None else 3),
                  f"the members of a {partition.kind} class of [{n}]^{k}")
    return np.flatnonzero(partition.classes_of(np.arange(n**k)) == class_index)


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


# ------------------------------------------------------------------ layers

def materialize_dense(layer: EquivariantLayer) -> tuple[np.ndarray, np.ndarray]:
    """Dense (n^l * b) x (n^k * a) matrix and bias vector of length n^l * b.

    Flattening is tuple-major, features last, matching apply on
    reshaped inputs.  Each entry costs 16 bytes at the peak: the
    gather and its transposed copy.
    """
    sp = layer.space
    n = sp.n
    rows_in, rows_out = n**sp.k, n**sp.l
    _check_memory(16 * rows_out * sp.b * (rows_in * sp.a + 1), "the dense layer")
    cid = sp.linear_partition.labels.reshape(rows_out, rows_in)
    dense = layer.linear_coeffs[cid]                    # (out, in, a, b)
    matrix = dense.transpose(0, 3, 1, 2).reshape(rows_out * sp.b, rows_in * sp.a)
    bias = layer.bias_coeffs[sp.bias_partition.labels].reshape(-1)
    return matrix, bias


def concat_layers(L1: EquivariantLayer, L2: EquivariantLayer) -> EquivariantLayer:
    """Feature-wise block-diagonal combination: widths add, no cross terms."""
    s1, s2 = L1.space, L2.space
    if (s1.group, s1.k, s1.l) != (s2.group, s2.k, s2.l):
        raise ValueError("layers must share group and tensor orders")
    space = LayerSpace(group=s1.group, k=s1.k, l=s1.l, a=s1.a + s2.a, b=s1.b + s2.b,
                       linear_partition=s1.linear_partition,
                       bias_partition=s1.bias_partition)
    C = space.linear_partition.num_classes
    Cb = space.bias_partition.num_classes
    linear = np.zeros((C, space.a, space.b))
    linear[:, :s1.a, :s1.b] = L1.linear_coeffs
    linear[:, s1.a:, s1.b:] = L2.linear_coeffs
    bias = np.zeros((Cb, space.b))
    bias[:, :s1.b] = L1.bias_coeffs
    bias[:, s1.b:] = L2.bias_coeffs
    return EquivariantLayer(space, linear, bias)


# ---------------------------------------------------------- groups and nets

def is_k_transitive(G: PermGroup, k: int) -> bool:
    """True iff G moves any distinct k-tuple to any other.

    Checked on the layer partition: the all-distinct tuples must form a
    single class.
    """
    if k > G.n:
        raise ValueError(f"k={k} exceeds n={G.n}")
    if k == 0:
        return True
    P = layer_classes(G, k)
    ids = set()
    for t in itertools.permutations(range(G.n), k):
        ids.add(P.class_of(t))
        if len(ids) > 1:
            return False
    return len(ids) == 1


def max_invariance_deviation(net: GInvariantNetwork, rng: SplitMix64, trials: int = 20,
                             lo: float = -1.0, hi: float = 1.0) -> float:
    """The largest |net(g.x) - net(x)| over the group's generators g at
    trials random points x of [lo, hi]^n."""
    worst = 0.0
    for _ in range(trials):
        x = rng.uniforms(lo, hi, net.n)
        base = net.forward(x)
        for g in net.group.generators:
            worst = max(worst, abs(net.forward(g.apply_vector(x)) - base))
    return worst
