"""Linear equivariant and invariant layers between index tensors.

An affine map L from order-k tensors (feature width a) to order-l
tensors (feature width b) commutes with the group action exactly when
its weight tensor is constant on the layer classes of [n]^(l+k) (output
indices first) and its constant part is constant on the layer classes
of [n]^l.  Layers are therefore stored in weight-sharing form: one
coefficient per (class, input feature, output feature), plus one bias
coefficient per (bias class, output feature).  Application streams over
the class-id table in row chunks, and the dense weight tensor is never
built here (oracles.materialize_dense builds it for the tests).
apply_stacked applies many layers of one space at once, each to its own
inputs, with one matrix product per layer and row chunk; a single
layer's apply_flat is its one-layer case.

Feature axes always come last.  Order 0 means an invariant output: a
plain feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .orbits import OrbitPartition, layer_classes
from .permgroup import PermGroup
from .rng import SplitMix64

# transient chunk budget (floats) for streaming application
_CHUNK_BUDGET = 1 << 16


@dataclass(frozen=True)
class LayerSpace:
    """The space of equivariant affine maps for fixed (group, k, l, a, b)."""

    group: PermGroup
    k: int
    l: int
    a: int
    b: int
    linear_partition: OrbitPartition
    bias_partition: OrbitPartition

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def linear_dim(self) -> int:
        return self.linear_partition.num_classes * self.a * self.b

    @property
    def bias_dim(self) -> int:
        return self.bias_partition.num_classes * self.b


def layer_space(G: PermGroup, k: int, l: int, a: int = 1, b: int = 1) -> LayerSpace:
    """Build the weight-sharing description of the equivariant layer space.

    The linear partition lives on [n]^(l+k) with output indices first;
    the bias partition on [n]^l.
    """
    if min(k, l, a, b) < 0 or a == 0 or b == 0:
        raise ValueError("orders must be >= 0 and feature widths >= 1")
    linear = layer_classes(G, l + k)
    bias = layer_classes(G, l)
    return LayerSpace(group=G, k=k, l=l, a=a, b=b,
                      linear_partition=linear, bias_partition=bias)


@dataclass
class EquivariantLayer:
    """A concrete affine equivariant map, in weight-sharing form."""

    space: LayerSpace
    linear_coeffs: np.ndarray  # (num linear classes, a, b)
    bias_coeffs: np.ndarray    # (num bias classes, b)

    def __post_init__(self):
        C = self.space.linear_partition.num_classes
        Cb = self.space.bias_partition.num_classes
        self.linear_coeffs = np.asarray(self.linear_coeffs, dtype=np.float64)
        self.bias_coeffs = np.asarray(self.bias_coeffs, dtype=np.float64)
        if self.linear_coeffs.shape != (C, self.space.a, self.space.b):
            raise ValueError(f"linear coefficients must have shape "
                             f"{(C, self.space.a, self.space.b)}")
        if self.bias_coeffs.shape != (Cb, self.space.b):
            raise ValueError(f"bias coefficients must have shape {(Cb, self.space.b)}")

    def apply_flat(self, X: np.ndarray) -> np.ndarray:
        """Apply to a batch of flattened inputs (B, n^k, a) -> (B, n^l, b):
        apply_stacked with one network."""
        X = np.asarray(X, dtype=np.float64)
        return apply_stacked(self.space, self.linear_coeffs[None],
                             self.bias_coeffs[None], X[None])[0]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Apply to one shaped input (n,)*k + (a,) -> (n,)*l + (b,)."""
        sp = self.space
        n = sp.n
        expected = (n,) * sp.k + (sp.a,)
        X = np.asarray(X, dtype=np.float64)
        if X.shape != expected:
            raise ValueError(f"input has shape {X.shape}, expected {expected}")
        flat = X.reshape(1, n**sp.k, sp.a)
        out = self.apply_flat(flat)
        return out.reshape((n,) * sp.l + (sp.b,))

def apply_stacked(space: LayerSpace, linear: np.ndarray, bias: np.ndarray,
                  X: np.ndarray) -> np.ndarray:
    """Apply T layers of one space, each to its own batch of flattened
    inputs: linear (T, C, a, b), bias (T, Cb, b) and X (T, Z, n^k, a)
    give (T, Z, n^l, b).

    Output rows go in chunks of R rows, each within _CHUNK_BUDGET floats
    over all T networks (one row at least).  A chunk gathers the
    weight-sharing block of its rows from the coefficients held as
    (T, a, C, b), giving each network one (a*n^k, R*b) matrix, and
    contracts it with that network's inputs, held as (Z, a*n^k), in one
    matrix product per network.
    """
    n = space.n
    rows_in, rows_out = n**space.k, n**space.l
    a, b = space.a, space.b
    T, Z = linear.shape[0], X.shape[1]
    if X.shape[0] != T or X.shape[2:] != (rows_in, a):
        raise ValueError(f"input has shape {X.shape}, expected "
                         f"{(T, Z, rows_in, a)}")
    cid_t = space.linear_partition.labels.reshape(rows_out, rows_in).T
    coeffs = np.ascontiguousarray(linear.transpose(0, 2, 1, 3))     # (T, a, C, b)
    Xa = X.transpose(0, 1, 3, 2).reshape(T, Z, a * rows_in)
    out = np.empty((T, Z, rows_out, b))
    chunk = max(1, _CHUNK_BUDGET // max(1, T * rows_in * a * b))
    for start in range(0, rows_out, chunk):
        stop = min(start + chunk, rows_out)
        block = np.take(coeffs, cid_t[:, start:stop], axis=2)       # (T, a, n^k, R, b)
        Y = np.matmul(Xa, block.reshape(T, a * rows_in, -1))         # (T, Z, R*b)
        out[:, :, start:stop, :] = Y.reshape(T, Z, stop - start, b)
    out += bias[:, None, space.bias_partition.labels]
    return out


def zero_layer(space: LayerSpace) -> EquivariantLayer:
    C = space.linear_partition.num_classes
    Cb = space.bias_partition.num_classes
    return EquivariantLayer(space, np.zeros((C, space.a, space.b)),
                            np.zeros((Cb, space.b)))


def random_layer(space: LayerSpace, rng: SplitMix64, scale: float = 1.0) -> EquivariantLayer:
    """Coefficients drawn uniformly from [-scale, scale]."""
    C = space.linear_partition.num_classes
    Cb = space.bias_partition.num_classes
    linear = rng.uniforms(-scale, scale, C, space.a, space.b)
    bias = rng.uniforms(-scale, scale, Cb, space.b)
    return EquivariantLayer(space, linear, bias)


def monomial_factors_layer(G: PermGroup, partition: OrbitPartition,
                           class_index: int) -> EquivariantLayer:
    """Order-1 to order-k layer with k channels, one per monomial factor.

    Channel m outputs x[t_(m+1)] at each tuple t of the given polynomial
    class and 0 elsewhere, so at a class tuple the feature vector holds
    exactly the factors of its monomial.  Equivariance holds because
    membership in the class and the digit at a fixed slot are both
    carried along by the group action.
    """
    k, n = partition.k, G.n
    space = layer_space(G, 1, k, 1, k)
    # each linear class's least code: an output tuple, then an input digit
    out, digit_in = np.divmod(space.linear_partition.least, n)
    digits = out[:, None] // n ** np.arange(k - 1, -1, -1, dtype=np.int64) % n
    hit = (digits == digit_in[:, None]) & (partition.classes_of(out) == class_index)[:, None]
    coeffs = hit[:, None, :].astype(np.float64)
    Cb = space.bias_partition.num_classes
    return EquivariantLayer(space, coeffs, np.zeros((Cb, k)))


def lift_tensor(X: np.ndarray, k: int, d: int, n: int) -> np.ndarray:
    """Broadcast an order-k tensor to order d along d-k new trailing
    tuple axes (inserted before the feature axis); input indices occupy
    the first k axes of the result."""
    if k > d:
        raise ValueError(f"cannot lift order {k} to lower order {d}")
    X = np.asarray(X)
    expected = (n,) * k
    if X.shape[:k] != expected:
        raise ValueError(f"tensor axes {X.shape[:k]} != {expected}")
    for _ in range(d - k):
        X = np.expand_dims(X, axis=-2)
    target = (n,) * d + X.shape[d:]
    return np.broadcast_to(X, target).copy()


def down_tensor(Y: np.ndarray, k: int, d: int, n: int) -> np.ndarray:
    """Average an order-d tensor back to order k: sum the trailing d-k
    tuple axes and scale by n^(k-d); the exact inverse of lift_tensor."""
    if k > d:
        raise ValueError(f"cannot project order {d} below order {k}")
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape[:d] != (n,) * d:
        raise ValueError(f"tensor axes {Y.shape[:d]} != {(n,) * d}")
    axes = tuple(range(k, d))
    out = Y.sum(axis=axes) if axes else Y.copy()
    return out * float(n) ** (k - d)
