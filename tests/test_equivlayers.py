import itertools

import numpy as np
import pytest

from ginet import equivlayers, orbits
from ginet.equivlayers import (
    EquivariantLayer,
    apply_stacked,
    down_tensor,
    layer_space,
    lift_tensor,
    monomial_factors_layer,
    random_layer,
    zero_layer,
)
from ginet.orbits import CapExceededError, poly_classes
from ginet.permgroup import alternating, cyclic, dihedral, symmetric, trivial
from ginet.oracles import concat_layers, indicator_tensor, materialize_dense, members
from ginet.rng import SplitMix64


def act(g, X, k):
    return g.apply_tensor(X, k=k)


def check_equivariant(layer, rng, trials=5, tol=1e-12):
    sp = layer.space
    n = sp.n
    for _ in range(trials):
        X = rng.uniforms(-1, 1, *((n,) * sp.k + (sp.a,)))
        Y = layer.apply(X)
        for g in sp.group.generators:
            lhs = layer.apply(act(g, X, sp.k))
            rhs = act(g, Y, sp.l) if sp.l > 0 else Y
            assert np.max(np.abs(lhs - rhs), initial=0.0) <= tol


# ------------------------------------------------------------ dimensions

def test_layer_space_sn_first_order():
    sp = layer_space(symmetric(4), 1, 1, 1, 1)
    assert sp.linear_dim == 2  # identity + all-ones
    assert sp.bias_dim == 1


def test_layer_space_trivial():
    n = 3
    sp = layer_space(trivial(n), 1, 1, 1, 1)
    assert sp.linear_dim == n * n
    assert sp.bias_dim == n


def test_layer_space_cyclic_circulant():
    sp = layer_space(cyclic(4), 1, 1, 1, 1)
    assert sp.linear_dim == 4
    assert sp.bias_dim == 1


def test_layer_space_feature_widths():
    sp = layer_space(symmetric(3), 1, 1, 2, 3)
    assert sp.linear_dim == 2 * 2 * 3
    assert sp.bias_dim == 1 * 3


def reynolds_projection_rank(G, k, l):
    """Oracle: rank of the span of group-averaged unit tensors on [n]^(l+k)."""
    n = G.n
    order = l + k
    N = n**order
    rows = []
    for code in range(N):
        E = np.zeros((n,) * order) if order else np.ones(())
        if order:
            E[np.unravel_index(code, E.shape)] = 1.0
        acc = np.zeros_like(E)
        for g in G:
            acc = acc + g.apply_tensor(E, k=order)
        rows.append((acc / G.order).reshape(-1))
    return np.linalg.matrix_rank(np.array(rows), tol=1e-9)


def test_dimension_matches_reynolds_rank():
    cases = [(symmetric(3), 1, 1), (symmetric(3), 2, 1), (cyclic(4), 1, 1),
             (cyclic(4), 1, 2), (dihedral(4), 2, 1), (alternating(4), 1, 1),
             (trivial(2), 2, 1), (symmetric(4), 1, 0), (cyclic(3), 0, 2)]
    for G, k, l in cases:
        sp = layer_space(G, k, l, 1, 1)
        assert sp.linear_dim == reynolds_projection_rank(G, k, l)


# ------------------------------------------------------------ application

def test_zero_layer_zero_output():
    sp = layer_space(cyclic(3), 1, 2, 2, 2)
    L = zero_layer(sp)
    X = np.ones((3, 2))
    assert np.all(L.apply(X) == 0.0)


def test_identity_class_member_is_identity():
    # S_n, k=l=1: coefficient 1 on the diagonal class, 0 on the off class.
    G = symmetric(4)
    sp = layer_space(G, 1, 1, 1, 1)
    # diagonal class has representative (0,0) -> class 0
    coeffs = np.zeros((2, 1, 1))
    coeffs[0, 0, 0] = 1.0
    L = EquivariantLayer(sp, coeffs, np.zeros((1, 1)))
    rng = SplitMix64(1)
    X = rng.uniforms(-1, 1, 4, 1)
    assert np.allclose(L.apply(X), X)


def test_random_layer_equivariance():
    rng = SplitMix64(2)
    G = symmetric(4)
    sp = layer_space(G, 2, 2, 2, 2)
    for _ in range(5):
        check_equivariant(random_layer(sp, rng), rng)


def test_equivariance_many_groups_orders():
    rng = SplitMix64(3)
    for G in [cyclic(4), dihedral(4), alternating(4), symmetric(3)]:
        for k, l in [(1, 1), (1, 2), (2, 1), (1, 0), (2, 0), (0, 1)]:
            sp = layer_space(G, k, l, 2, 2)
            check_equivariant(random_layer(sp, rng), rng, trials=3)


def test_apply_flat_matches_apply():
    rng = SplitMix64(4)
    sp = layer_space(dihedral(4), 2, 1, 2, 3)
    L = random_layer(sp, rng)
    B = 7
    Xs = rng.uniforms(-1, 1, B, 4 * 4, 2)
    flat_out = L.apply_flat(Xs)
    for i in range(B):
        shaped = L.apply(Xs[i].reshape(4, 4, 2))
        assert np.allclose(flat_out[i], shaped.reshape(4, 3), atol=1e-14)


def test_apply_shape_mismatch():
    sp = layer_space(cyclic(3), 1, 1, 1, 1)
    L = zero_layer(sp)
    with pytest.raises(ValueError):
        L.apply(np.zeros((4, 1)))


# ------------------------------------------------------------ dense oracle

def test_materialize_dense_identity():
    G = symmetric(4)
    sp = layer_space(G, 1, 1, 1, 1)
    coeffs = np.zeros((2, 1, 1))
    coeffs[0, 0, 0] = 1.0
    L = EquivariantLayer(sp, coeffs, np.zeros((1, 1)))
    M, bias = materialize_dense(L)
    assert np.array_equal(M, np.eye(4))
    assert np.array_equal(bias, np.zeros(4))


def test_materialize_dense_agrees_with_apply():
    rng = SplitMix64(5)
    sp = layer_space(cyclic(3), 2, 2, 1, 1)
    L = random_layer(sp, rng)
    M, bias = materialize_dense(L)
    for _ in range(50):
        X = rng.uniforms(-1, 1, 3, 3, 1)
        via_matrix = M @ X.reshape(-1) + bias
        assert np.allclose(L.apply(X).reshape(-1), via_matrix, atol=1e-12)


@pytest.mark.parametrize("T", [1, 3])
@pytest.mark.parametrize("budget", [1, 1 << 16, 1 << 40])
def test_apply_stacked_matches_dense(T, budget, monkeypatch):
    """Each network of the stack against its own dense matrix; budget 1
    forces one output row per chunk, 1 << 40 puts every row in one chunk."""
    monkeypatch.setattr(equivlayers, "_CHUNK_BUDGET", budget)
    rng = SplitMix64(40 + T)
    cases = [(cyclic(4), 1, 2, 1, 2), (dihedral(5), 2, 1, 2, 3), (alternating(4), 2, 2, 2, 2),
             (symmetric(3), 0, 2, 1, 1), (trivial(3), 2, 0, 3, 1), (cyclic(5), 1, 1, 2, 2)]
    for G, k, l, a, b in cases:
        sp = layer_space(G, k, l, a, b)
        layers = [random_layer(sp, rng) for _ in range(T)]
        X = rng.uniforms(-1, 1, T, 4, G.n**k, a)
        out = apply_stacked(sp, np.stack([L.linear_coeffs for L in layers]),
                            np.stack([L.bias_coeffs for L in layers]), X)
        assert out.shape == (T, 4, G.n**l, b)
        for t, L in enumerate(layers):
            M, bias = materialize_dense(L)
            want = X[t].reshape(4, -1) @ M.T + bias
            assert np.allclose(out[t].reshape(4, -1), want, rtol=0, atol=1e-13)
        if T == 1:
            assert np.array_equal(layers[0].apply_flat(X[0]), out[0])


def test_apply_stacked_broadcast_input_and_shape_check():
    rng = SplitMix64(47)
    sp = layer_space(alternating(5), 1, 2, 1, 2)
    layers = [random_layer(sp, rng) for _ in range(4)]
    linear = np.stack([L.linear_coeffs for L in layers])
    bias = np.stack([L.bias_coeffs for L in layers])
    x = rng.uniforms(-1, 1, 2, 5, 1)
    out = apply_stacked(sp, linear, bias, np.broadcast_to(x, (4, 2, 5, 1)))
    for t, L in enumerate(layers):
        assert np.allclose(out[t], L.apply_flat(x), rtol=0, atol=1e-14)
    with pytest.raises(ValueError, match="input has shape"):
        apply_stacked(sp, linear, bias, np.zeros((3, 2, 5, 1)))
    with pytest.raises(ValueError, match="input has shape"):
        layers[0].apply_flat(np.zeros((2, 4, 1)))


def test_selection_layer_outputs_are_exact():
    """A 0/1 layer's outputs are its selected inputs bit for bit, whatever
    order the contraction sums in: networks built from monomial factor
    layers do not depend on it."""
    rng = SplitMix64(48)
    G = dihedral(5)
    P = poly_classes(G, 3)
    for c in (0, P.num_classes // 2, P.num_classes - 1):
        L = monomial_factors_layer(G, P, c)
        x = rng.uniforms(-1, 1, 6, 5, 1)
        out = L.apply_flat(x)
        codes = np.arange(5**3)
        digits = codes[:, None] // 5 ** np.arange(2, -1, -1) % 5
        inside = P.classes_of(codes) == c
        want = np.where(inside[None, :, None], x[:, digits, 0], 0.0)
        assert np.array_equal(out, want)


def test_materialize_dense_row_pattern():
    rng = SplitMix64(6)
    sp = layer_space(cyclic(4), 1, 1, 1, 1)
    L = random_layer(sp, rng)
    M, _ = materialize_dense(L)
    cid = sp.linear_partition.labels.reshape(4, 4)
    for r in range(4):
        for c in range(4):
            assert M[r, c] == L.linear_coeffs[cid[r, c], 0, 0]


def test_materialize_dense_cap(monkeypatch):
    # 16 x 16 entries and 16 biases at 16 bytes each: 4352 bytes
    L = zero_layer(layer_space(cyclic(4), 2, 2, 1, 1))
    monkeypatch.setattr(orbits, "_PHYSICAL_MEMORY", 4351)
    with pytest.raises(CapExceededError, match="the dense layer would take an estimated "
                                               "4352 bytes, more than the 4351 bytes"):
        materialize_dense(L)
    monkeypatch.setattr(orbits, "_PHYSICAL_MEMORY", 4352)
    assert materialize_dense(L)[0].shape == (16, 16)


# ------------------------------------------------------------ monomial factor layers

def test_factor_layer_on_ones_gives_indicator():
    G = cyclic(4)
    P = poly_classes(G, 2)
    for c in range(P.num_classes):
        out = monomial_factors_layer(G, P, c).apply(np.ones((4, 1)))
        for pos in (1, 2):
            assert np.array_equal(out[..., pos - 1], indicator_tensor(P, c).values)


def test_factor_layer_entries():
    G = symmetric(4)
    P = poly_classes(G, 2)
    rng = SplitMix64(7)
    x = rng.uniforms(1, 2, 4)  # distinct-ish entries
    for c in range(P.num_classes):
        channels = monomial_factors_layer(G, P, c).apply(x.reshape(4, 1))
        for pos in (1, 2):
            out = channels[..., pos - 1]
            for t in itertools.product(range(4), repeat=2):
                expected = x[t[pos - 1]] if P.class_of(t) == c else 0.0
                assert out[t] == pytest.approx(expected)


def test_factor_layer_equivariance_exhaustive():
    rng = SplitMix64(8)
    for G in [cyclic(4), alternating(4)]:
        for k in (1, 2, 3):
            P = poly_classes(G, k)
            for c in range(P.num_classes):
                # equivariance of the k-channel layer is that of every channel
                check_equivariant(monomial_factors_layer(G, P, c), rng, trials=2)


def test_factors_layer_channels_match_single_layers():
    # channel pos-1 is the class indicator times x broadcast along slot pos
    G = cyclic(4)
    P = poly_classes(G, 2)
    rng = SplitMix64(9)
    x = rng.uniforms(-1, 1, 4, 1)
    factor = {1: x[:, 0][:, None], 2: x[:, 0][None, :]}
    for c in range(P.num_classes):
        out = monomial_factors_layer(G, P, c).apply(x)
        mask = indicator_tensor(P, c).values
        for pos in (1, 2):
            assert np.allclose(out[..., pos - 1], mask * factor[pos])


def test_factors_layer_k1_masked_copy():
    G = cyclic(4)  # single 1-class: whole of [n]
    P = poly_classes(G, 1)
    assert P.num_classes == 1
    L = monomial_factors_layer(G, P, 0)
    x = np.array([[1.0], [2.0], [3.0], [4.0]])
    assert np.allclose(L.apply(x), x)


def test_factors_layer_digit_lookup():
    # at a class tuple with distinct digits, channel m holds x[digit m]
    G = trivial(3)
    P = poly_classes(G, 2)
    x = np.array([10.0, 20.0, 30.0])
    c = P.class_of((0, 2))
    L = monomial_factors_layer(G, P, c)
    out = L.apply(x.reshape(3, 1))
    assert out[0, 2, 0] == 10.0 and out[0, 2, 1] == 30.0
    assert out[2, 0, 0] == 30.0 and out[2, 0, 1] == 10.0  # (2,0) same class


def loop_factor_coeffs(G, partition, class_index):
    """The factor layer's coefficients, one linear class at a time: its
    least tuple is an output tuple and an input digit, and a position
    holds 1 where the input digit equals the output digit there."""
    k = partition.k
    space = layer_space(G, 1, k, 1, k)
    coeffs = np.zeros((space.linear_partition.num_classes, 1, k))
    for c in range(space.linear_partition.num_classes):
        rep = space.linear_partition.representative(c)
        out_tuple, in_digit = rep[:k], rep[k]
        if partition.class_of(out_tuple) != class_index:
            continue
        for pos in range(k):
            if in_digit == out_tuple[pos]:
                coeffs[c, 0, pos] = 1.0
    return coeffs


@pytest.mark.parametrize("G", [cyclic(4), dihedral(6), symmetric(4), alternating(5)],
                         ids=["c4", "d6", "s4", "a5"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_factors_layer_matches_class_loop(G, k):
    P = poly_classes(G, k)
    for c in range(P.num_classes):
        L = monomial_factors_layer(G, P, c)
        want = loop_factor_coeffs(G, P, c)
        assert L.linear_coeffs.dtype == want.dtype
        assert np.array_equal(L.linear_coeffs, want)
        assert not L.bias_coeffs.any()


# ------------------------------------------------------------ summation / lift / down

def test_summation_values():
    assert np.sum(np.ones((3, 3))) == 9.0
    rng = SplitMix64(10)
    Z = rng.uniforms(-1, 1, 4, 4)
    for g in symmetric(4):
        assert np.sum(g.apply_tensor(Z, k=2)) == pytest.approx(np.sum(Z))
    P = poly_classes(cyclic(4), 2)
    assert np.sum(indicator_tensor(P, 1).values) == len(members(P, 1))


def test_down_of_lift_is_identity():
    rng = SplitMix64(11)
    X = rng.uniforms(-1, 1, 3, 2)  # order 1, features 2
    lifted = lift_tensor(X, 1, 3, 3)
    assert lifted.shape == (3, 3, 3, 2)
    back = down_tensor(lifted, 1, 3, 3)
    assert np.allclose(back, X, atol=1e-14)


def test_down_sigma_lift_equals_sigma():
    # pointwise activation commutes through lift/down exactly
    rng = SplitMix64(12)
    X = rng.uniforms(-1, 1, 3, 3, 1)
    relu = lambda v: np.maximum(v, 0.0)
    direct = relu(X)
    via = down_tensor(relu(lift_tensor(X, 2, 3, 3)), 2, 3, 3)
    assert np.max(np.abs(via - direct)) <= 1e-12


def test_lift_convention_first_axes():
    x = np.array([[1.0], [2.0], [3.0]])
    up = lift_tensor(x, 1, 2, 3)
    # input index occupies the first axis; rows are constant
    for i in range(3):
        assert np.all(up[i, :, 0] == x[i, 0])


def test_lift_down_equivariance():
    rng = SplitMix64(13)
    G = cyclic(3)
    X = rng.uniforms(-1, 1, 3, 1)
    for g in G.generators:
        up_then_act = lift_tensor(g.apply_tensor(X, k=1), 1, 2, 3)
        act_then_up = g.apply_tensor(lift_tensor(X, 1, 2, 3), k=2)
        assert np.allclose(up_then_act, act_then_up)
    Y = rng.uniforms(-1, 1, 3, 3, 1)
    for g in G.generators:
        assert np.allclose(down_tensor(g.apply_tensor(Y, k=2), 1, 2, 3),
                           g.apply_tensor(down_tensor(Y, 1, 2, 3), k=1))


def test_lift_rejects_k_above_d():
    with pytest.raises(ValueError):
        lift_tensor(np.zeros((3, 3, 1)), 2, 1, 3)


# ------------------------------------------------------------ concat

def test_concat_block_structure():
    rng = SplitMix64(14)
    G = cyclic(4)
    sp1 = layer_space(G, 1, 1, 2, 1)
    sp2 = layer_space(G, 1, 1, 1, 2)
    L1, L2 = random_layer(sp1, rng), random_layer(sp2, rng)
    L = concat_layers(L1, L2)
    assert L.space.a == 3 and L.space.b == 3
    X1 = rng.uniforms(-1, 1, 4, 2)
    X2 = rng.uniforms(-1, 1, 4, 1)
    X = np.concatenate([X1, X2], axis=-1)
    out = L.apply(X)
    assert np.allclose(out[..., :1], L1.apply(X1))
    assert np.allclose(out[..., 1:], L2.apply(X2))


def test_concat_dims_add():
    G = dihedral(4)
    L1 = zero_layer(layer_space(G, 1, 1, 1, 1))
    L2 = zero_layer(layer_space(G, 1, 1, 2, 2))
    L = concat_layers(L1, L2)
    nz1 = np.count_nonzero(np.ones_like(L1.linear_coeffs))
    nz2 = np.count_nonzero(np.ones_like(L2.linear_coeffs))
    # free parameters in the block structure = sum of parts
    assert nz1 + nz2 == L1.space.linear_dim + L2.space.linear_dim


def test_concat_preserves_equivariance():
    rng = SplitMix64(15)
    G = symmetric(4)
    L1 = random_layer(layer_space(G, 1, 2, 1, 1), rng)
    L2 = random_layer(layer_space(G, 1, 2, 1, 1), rng)
    check_equivariant(concat_layers(L1, L2), rng, trials=3)


def test_concat_rejects_mismatched_orders():
    G = cyclic(3)
    L1 = zero_layer(layer_space(G, 1, 1, 1, 1))
    L2 = zero_layer(layer_space(G, 1, 2, 1, 1))
    with pytest.raises(ValueError):
        concat_layers(L1, L2)


# ---------------------------------------- alternating/symmetric coincidence

def test_an_sn_spaces_identical_in_range():
    for n in (4, 5, 6):
        for k, l in [(1, 1), (1, 2), (2, 1), (1, 0), (2, 0), (2, 2), (3, 1)]:
            if k + l > n - 2:
                continue
            A = layer_space(alternating(n), k, l, 1, 1)
            S = layer_space(symmetric(n), k, l, 1, 1)
            assert np.array_equal(A.linear_partition.labels,
                                  S.linear_partition.labels)
            assert np.array_equal(A.bias_partition.labels,
                                  S.bias_partition.labels)
