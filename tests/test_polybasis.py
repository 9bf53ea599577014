import itertools
import math

import numpy as np
import pytest

from ginet.orbits import poly_classes
from ginet.permgroup import alternating, cyclic, dihedral, grid, symmetric, trivial
from ginet.polybasis import (
    INVARIANCE_TOL,
    NotInvariantError,
    Polynomial,
    basis_polynomials,
    check_fixed_point,
    coeff_tensor,
    expand_in_basis,
    homogeneous_decompose,
    indicator_tensor,
    is_invariant,
    polynomial_from_tensor,
    reynolds,
    tensor_evaluate,
    vandermonde,
    vandermonde_value,
)
from ginet.rng import SplitMix64


def power_sum(n, d):
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = d
        terms[tuple(e)] = 1.0
    return Polynomial(n, terms)


# ------------------------------------------------------------ polynomial core

def test_evaluate_constant_and_power_sum():
    assert Polynomial.constant(3, 1.0).evaluate([5, 6, 7]) == 1.0
    assert power_sum(3, 2).evaluate([1, 2, 3]) == 14.0


def test_evaluate_invariance_under_generators():
    p = power_sum(4, 3)
    G = symmetric(4)
    rng = SplitMix64(1)
    for _ in range(10):
        x = rng.uniforms(-1, 1, 4)
        for g in G.generators:
            assert p.evaluate(g.apply_vector(x)) == pytest.approx(p.evaluate(x))


def test_evaluate_many_matches_single():
    p = Polynomial(3, {(2, 0, 0): 1.0, (0, 1, 1): -2.5, (0, 0, 0): 0.5})
    rng = SplitMix64(2)
    X = rng.uniforms(-2, 2, 8, 3)
    many = p.evaluate_many(X)
    for i in range(8):
        assert many[i] == pytest.approx(p.evaluate(X[i]))


def test_size_mismatch_errors():
    with pytest.raises(ValueError):
        power_sum(3, 2).evaluate([1, 2])
    with pytest.raises(ValueError):
        Polynomial(3, {(1, 0): 1.0})


# ------------------------------------------------------------ decomposition

def test_homogeneous_decompose_buckets():
    p = Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0})  # x1^2 + x2
    parts = homogeneous_decompose(p)
    assert set(parts) == {1, 2}
    assert parts[1].terms == {(0, 1): 1.0}
    assert parts[2].terms == {(2, 0): 1.0}


def test_homogeneous_single_bucket():
    p = power_sum(3, 2)
    parts = homogeneous_decompose(p)
    assert list(parts) == [2]
    assert parts[2].allclose(p)


def test_homogeneous_parts_of_invariant_are_invariant():
    # (x1+1)^2 averaged over S_2 decomposes into invariant parts.
    base = Polynomial(2, {(2, 0): 1.0, (1, 0): 2.0, (0, 0): 1.0})
    G = symmetric(2)
    q = reynolds(base, G)
    rng = SplitMix64(3)
    for part in homogeneous_decompose(q).values():
        for _ in range(20):
            x = rng.uniforms(-1, 1, 2)
            for g in G.generators:
                assert part.evaluate(g.apply_vector(x)) == pytest.approx(part.evaluate(x))


# ------------------------------------------------------------ coeff tensors

def test_coeff_tensor_split():
    p = Polynomial(2, {(1, 1): 1.0})  # x1*x2
    W = coeff_tensor(p)
    assert W.values[0, 1] == 0.5 and W.values[1, 0] == 0.5
    assert W.values[0, 0] == 0.0 and W.values[1, 1] == 0.0


def test_coeff_tensor_diagonal():
    p = Polynomial(2, {(2, 0): 1.0})
    W = coeff_tensor(p)
    assert W.values[0, 0] == 1.0
    assert np.count_nonzero(W.values) == 1


def test_coeff_tensor_roundtrip_random():
    rng = SplitMix64(4)
    n, k = 3, 3
    exps = [e for e in itertools.product(range(k + 1), repeat=n) if sum(e) == k]
    terms = {e: rng.uniform(-2, 2) for e in exps}
    p = Polynomial(n, terms)
    W = coeff_tensor(p)
    q = polynomial_from_tensor(W)
    for _ in range(100):
        x = rng.uniforms(-1, 1, n)
        assert q.evaluate(x) == pytest.approx(p.evaluate(x), abs=1e-12)
        assert tensor_evaluate(W, x) == pytest.approx(p.evaluate(x), abs=1e-12)


def test_coeff_tensor_symmetry():
    rng = SplitMix64(5)
    p = Polynomial(3, {(2, 1, 0): rng.uniform(-1, 1), (1, 1, 1): rng.uniform(-1, 1)})
    W = coeff_tensor(p)
    for t in itertools.product(range(3), repeat=3):
        for sigma in itertools.permutations(range(3)):
            assert W.values[t] == pytest.approx(W.values[tuple(t[s] for s in sigma)])


def test_coeff_tensor_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        coeff_tensor(Polynomial(2, {(1, 0): 1.0, (2, 0): 1.0}), k=2)


# ------------------------------------------------------------ fixed point

def test_fixed_point_all_ones():
    from ginet.polybasis import CoeffTensor
    W = CoeffTensor(3, 2, np.ones((3, 3)))
    assert check_fixed_point(W, symmetric(3))
    assert check_fixed_point(W, cyclic(3))


def test_fixed_point_indicator_tensors():
    for G, k in [(symmetric(3), 2), (cyclic(4), 2), (alternating(4), 3)]:
        P = poly_classes(G, k)
        for c in range(P.num_classes):
            W = indicator_tensor(P, c)
            assert check_fixed_point(W, G)


def test_fixed_point_single_tuple_fails():
    from ginet.polybasis import CoeffTensor
    values = np.zeros((2, 2))
    values[0, 1] = 1.0
    W = CoeffTensor(2, 2, values)
    assert not check_fixed_point(W, symmetric(2))


# ------------------------------------------------------------ basis

def test_basis_s3_degree2():
    basis = basis_polynomials(symmetric(3), 2)
    assert len(basis) == 2
    # diagonal class: sum of squares
    assert basis[0].polynomial.allclose(power_sum(3, 2))
    # off-diagonal class evaluates to 2*(1*2 + 1*3 + 2*3) = 22 at (1,2,3)
    assert basis[1].polynomial.evaluate([1, 2, 3]) == pytest.approx(22.0)


def test_basis_count_matches_classes():
    for G, k in [(cyclic(4), 2), (alternating(4), 2), (trivial(3), 2), (symmetric(3), 3)]:
        P = poly_classes(G, k)
        assert len(basis_polynomials(G, k)) == P.num_classes


def test_basis_degree0():
    basis = basis_polynomials(symmetric(3), 0)
    assert len(basis) == 1
    assert basis[0].polynomial.allclose(Polynomial.constant(3, 1.0))


def test_basis_invariance_at_random_points():
    rng = SplitMix64(6)
    for G, k in [(cyclic(4), 2), (alternating(4), 3)]:
        for b in basis_polynomials(G, k):
            for _ in range(10):
                x = rng.uniforms(-1, 1, G.n)
                for g in G.generators:
                    assert b.polynomial.evaluate(g.apply_vector(x)) == pytest.approx(
                        b.polynomial.evaluate(x), abs=1e-12)


def test_indicator_supports_disjoint_and_sized():
    P = poly_classes(cyclic(4), 2)
    seen = np.zeros(16)
    for c in range(P.num_classes):
        W = indicator_tensor(P, c)
        flat = W.values.reshape(-1)
        assert flat.sum() == len(P.members(c))
        assert np.all(seen + flat <= 1.0)
        seen += flat
    assert np.all(seen == 1.0)


def test_completeness_against_reynolds_projection_rank():
    # Dimension of the symmetric fixed-point solution space equals the
    # polynomial class count: project every unit tensor by group
    # averaging + position symmetrization, then take the rank.
    for G, k in [(symmetric(3), 2), (cyclic(3), 2), (cyclic(4), 2),
                 (symmetric(4), 3), (alternating(4), 2), (trivial(3), 2)]:
        n = G.n
        N = n**k
        rows = []
        for code in range(N):
            E = np.zeros((n,) * k)
            E[np.unravel_index(code, E.shape)] = 1.0
            acc = np.zeros_like(E)
            for g in G:
                acc += g.apply_tensor(E, k=k)
            acc /= G.order
            sym = np.zeros_like(acc)
            for sigma in itertools.permutations(range(k)):
                sym += np.transpose(acc, sigma)
            sym /= math.factorial(k)
            rows.append(sym.reshape(-1))
        rank = np.linalg.matrix_rank(np.array(rows), tol=1e-9)
        assert rank == poly_classes(G, k).num_classes


# ------------------------------------------------------------ reynolds

def test_reynolds_fixes_invariant():
    p = power_sum(3, 2)
    assert reynolds(p, symmetric(3)).allclose(p)


def test_reynolds_linear_averages():
    x1 = Polynomial.variable(2, 0)
    assert reynolds(x1, symmetric(2)).allclose(
        Polynomial(2, {(1, 0): 0.5, (0, 1): 0.5}))
    x1 = Polynomial.variable(3, 0)
    assert reynolds(x1, cyclic(3)).allclose(
        Polynomial(3, {(1, 0, 0): 1 / 3, (0, 1, 0): 1 / 3, (0, 0, 1): 1 / 3}))


def test_reynolds_output_passes_fixed_point():
    rng = SplitMix64(7)
    p = Polynomial(3, {(2, 1, 0): rng.uniform(-1, 1), (1, 0, 0): rng.uniform(-1, 1)})
    G = cyclic(3)
    q = reynolds(p, G)
    for k, part in homogeneous_decompose(q).items():
        assert check_fixed_point(coeff_tensor(part, k), G, tol=1e-12)


# ------------------------------------------------------------ expansion

def test_expand_basis_element_is_unit():
    G = cyclic(4)
    basis = basis_polynomials(G, 2)
    for b in basis:
        coeffs = expand_in_basis(b.polynomial, G)
        assert coeffs == {(2, b.class_index): pytest.approx(1.0)}


def test_expand_with_constant():
    G = symmetric(3)
    p = power_sum(3, 2).scale(3.0) + Polynomial.constant(3, 2.0)
    coeffs = expand_in_basis(p, G)
    # diagonal class of degree 2 is class 0 (representative (0,0))
    assert coeffs == {(2, 0): pytest.approx(3.0), (0, 0): pytest.approx(2.0)}
    # re-evaluate both sides at random points
    rng = SplitMix64(8)
    basis = {(k, b.class_index): b.polynomial
             for k in (0, 2) for b in basis_polynomials(G, k)}
    for _ in range(20):
        x = rng.uniforms(-1, 1, 3)
        lhs = p.evaluate(x)
        rhs = sum(a * basis[key].evaluate(x) for key, a in coeffs.items())
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_expand_power_sum_unit_coefficient():
    for n in (3, 4):
        G = symmetric(n)
        coeffs = expand_in_basis(power_sum(n, 3), G)
        assert len(coeffs) == 1
        ((k, c), alpha), = coeffs.items()
        assert k == 3 and alpha == pytest.approx(1.0)


def test_expand_roundtrip_random_invariant():
    G = cyclic(4)
    rng = SplitMix64(9)
    raw = Polynomial(4, {(2, 1, 0, 0): rng.uniform(-2, 2),
                         (1, 0, 0, 0): rng.uniform(-2, 2),
                         (1, 1, 1, 1): rng.uniform(-2, 2),
                         (0, 0, 0, 0): rng.uniform(-2, 2)})
    p = reynolds(raw, G)
    coeffs = expand_in_basis(p, G)
    recon = Polynomial.zero(4)
    for (k, c), a in coeffs.items():
        recon = recon + basis_polynomials(G, k)[c].polynomial.scale(a)
    for _ in range(100):
        x = rng.uniforms(-1, 1, 4)
        assert recon.evaluate(x) == pytest.approx(p.evaluate(x), rel=1e-9, abs=1e-9)


def test_expand_rejects_non_invariant():
    with pytest.raises(NotInvariantError):
        expand_in_basis(Polynomial.variable(3, 0), cyclic(3))


def test_is_invariant():
    assert is_invariant(power_sum(4, 2), symmetric(4))
    assert not is_invariant(Polynomial.variable(4, 0), symmetric(4))
    with pytest.raises(ValueError):
        is_invariant(Polynomial.variable(3, 0), trivial(4))  # no generator to apply


def random_polynomial(n, rng, terms=4, max_degree=3):
    out = {}
    for _ in range(terms):
        exps = [0] * n
        for _ in range(rng.randint(max_degree + 1)):
            exps[rng.randint(n)] += 1
        out[tuple(exps)] = rng.uniform(-2, 2)
    return Polynomial(n, out)


def reynolds_verdict(p, G):
    """The reference check: p equals its full group average."""
    scale = max([abs(c) for c in p.terms.values()], default=1.0)
    return reynolds(p, G).allclose(p, INVARIANCE_TOL * max(1.0, scale))


def test_is_invariant_matches_reynolds_oracle():
    rng = SplitMix64(11)
    groups = [cyclic(4), dihedral(5), alternating(4), symmetric(4), grid([2, 3])]
    for G in groups:
        verdicts = set()
        for _ in range(10):
            raw = random_polynomial(G.n, rng)
            for p in (raw, reynolds(raw, G)):
                verdict = is_invariant(p, G)
                assert verdict == reynolds_verdict(p, G)
                verdicts.add(verdict)
        assert verdicts == {True, False}


def test_is_invariant_large_group_exact():
    # 165 terms over S8 (|G| = 40320); only the two generators are applied
    G = symmetric(8)
    rng = SplitMix64(12)
    p = Polynomial.zero(8)
    for k in range(4):
        for b in basis_polynomials(G, k):
            p = p + b.polynomial.scale(rng.uniform(0.5, 2.0))
    assert len(p.terms) == 165
    assert is_invariant(p, G)
    key = (1, 1, 0, 0, 0, 0, 0, 0)
    bumped = Polynomial(8, {**p.terms, key: p.terms[key] + 1e-6})
    assert not is_invariant(bumped, G)


# ------------------------------------------------------------ vandermonde

def test_vandermonde_values():
    V = vandermonde(3)
    assert V.evaluate([1, 2, 3]) == pytest.approx(-2.0)
    assert V.evaluate([2, 1, 3]) == pytest.approx(2.0)
    assert V.evaluate([1, 1, 3]) == 0.0
    assert vandermonde_value([1, 2, 3]) == pytest.approx(-2.0)


def test_vandermonde_parity():
    rng = SplitMix64(10)
    for n in (3, 4, 5):
        V = vandermonde(n)
        S = symmetric(n)
        for g in S:
            x = rng.uniforms(-1, 1, n)
            lhs = V.evaluate(g.apply_vector(x))
            sign = 1.0 if g.is_even() else -1.0
            assert lhs == pytest.approx(sign * V.evaluate(x), rel=1e-9, abs=1e-12)


def test_vandermonde_expansion_limit():
    with pytest.raises(ValueError, match="vandermonde_value"):
        vandermonde(7)
    # evaluation-only mode still works past the expansion limit
    expected = 1.0
    x = [float(v) for v in range(1, 8)]
    for i in range(7):
        for j in range(i + 1, 7):
            expected *= x[i] - x[j]
    assert vandermonde_value(x) == pytest.approx(expected)
