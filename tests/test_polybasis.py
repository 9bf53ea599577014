import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginet.oracles import (
    CoeffTensor,
    check_fixed_point,
    coeff_tensor,
    indicator_tensor,
    members,
    polynomial_from_tensor,
    tensor_evaluate,
)
from ginet.orbits import decode, poly_classes
from ginet.permgroup import (PermGroup, Permutation, alternating, cyclic, dihedral, grid,
                             symmetric, trivial)
from ginet.polybasis import (
    INVARIANCE_TOL,
    BasisPolynomial,
    NotInvariantError,
    Polynomial,
    basis_polynomials,
    expand_in_basis,
    homogeneous_decompose,
    is_invariant,
    reynolds,
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


def loop_evaluate_many(p, X):
    """Oracle: each term's powers computed where they are used, multiplied
    left to right, and the terms summed in order."""
    out = np.zeros(X.shape[0])
    for exps, coeff in p.terms.items():
        term = np.full(X.shape[0], coeff)
        for i, e in enumerate(exps):
            if e:
                term = term * X[:, i] ** e
        out += term
    return out


def assert_evaluate_many_keeps_bits(p, X):
    X[0] = [(-0.0, 0.0)[i % 2] for i in range(p.n)]   # a point of signed zeros
    got, want = p.evaluate_many(X), loop_evaluate_many(p, X)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("seed", range(8))
def test_evaluate_many_bit_equal_to_term_loop_random(seed):
    rng = SplitMix64(100 + seed)
    for n in range(1, 8):
        p = random_polynomial(n, rng, terms=40, max_degree=21)
        assert_evaluate_many_keeps_bits(p, rng.uniforms(-1.5, 1.5, 33, n))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_evaluate_many_bit_equal_to_term_loop_vandermonde(n):
    # the A5-A7 Vandermondes: n! terms of degree n(n-1)/2, up to 21
    X = SplitMix64(n).uniforms(-1, 1, 64, n)
    assert_evaluate_many_keeps_bits(vandermonde(n), X)


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
        assert flat.sum() == len(members(P, c))
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


# ------------------------------------------------------------ tuple oracle
# The tuple-by-tuple basis and expansion that the multiset table replaced:
# every code of [n]^k is decoded, and p is rebuilt from the basis
# polynomials and compared whole.  bases, when given, maps a degree to
# its tuple_basis_polynomials, so a large case builds them once.

def tuple_basis_polynomials(G, k, partition=None):
    if partition is None:
        partition = poly_classes(G, k)
    n = G.n
    classes = partition.classes_of(np.arange(n**k))
    out = []
    for c in range(partition.num_classes):
        codes = np.flatnonzero(classes == c)
        terms = {}
        for code in codes:
            digits = decode(int(code), n, k)
            exps = [0] * n
            for d in digits:
                exps[d] += 1
            key = tuple(exps)
            terms[key] = terms.get(key, 0.0) + 1.0
        out.append(BasisPolynomial(
            degree=k, class_index=c, representative=decode(int(codes[0]), n, k),
            size=len(codes), polynomial=Polynomial(n, terms)))
    return out


def tuple_expand_in_basis(p, G, tol=INVARIANCE_TOL, bases=None):
    if not is_invariant(p, G, tol=tol):
        raise NotInvariantError("polynomial is not invariant under the group")
    coeffs = {}
    reconstruction = Polynomial.zero(p.n)
    for k, p_k in homogeneous_decompose(p).items():
        basis = (bases or {}).get(k) or tuple_basis_polynomials(G, k)
        for b in basis:
            rep_exps = [0] * p.n
            for d in b.representative:
                rep_exps[d] += 1
            rep_exps = tuple(rep_exps)
            c = p_k.coefficient(rep_exps)
            if c == 0.0:
                continue
            multiplicity = b.polynomial.coefficient(rep_exps)
            assert multiplicity >= 1.0
            alpha = c / multiplicity
            coeffs[(k, b.class_index)] = alpha
            reconstruction = reconstruction + b.polynomial.scale(alpha)
    scale = max([abs(c) for c in p.terms.values()], default=1.0)
    if not reconstruction.allclose(p, tol=1e-12 * max(1.0, scale)):
        raise NotInvariantError(
            "polynomial is not in the span of the invariant basis")
    return coeffs


def bits(mapping):
    """Items in insertion order, floats as their exact hex form."""
    return [(key, float(value).hex()) for key, value in mapping.items()]


def assert_same_basis(basis, oracle):
    assert len(basis) == len(oracle)
    for b, o in zip(basis, oracle):
        assert (b.degree, b.class_index, b.representative, b.size) == \
            (o.degree, o.class_index, o.representative, o.size)
        assert type(b.size) is int
        assert bits(b.polynomial.terms) == bits(o.polynomial.terms)


def random_invariant(G, k, rng, bases):
    """A constant plus random mixes of the degree k and k // 2 bases,
    every third class left out, with each coefficient then moved by up
    to 1e-14 of itself: within both tolerances, but alpha now depends on
    which monomial of a class is read."""
    p = Polynomial.constant(G.n, rng.uniform(-2, 2))
    for d in sorted({k // 2, k} - {0}):
        for b in bases[d]:
            if b.class_index % 3 != 2:
                p = p + b.polynomial.scale(rng.uniform(-2, 2))
    return Polynomial(G.n, {e: c * (1.0 + 1e-14 * rng.uniform(-1, 1))
                            for e, c in p.terms.items()})


def assert_matches_tuple_oracle(G, k, seed):
    bases = {d: tuple_basis_polynomials(G, d) for d in sorted({0, k // 2, k})}
    for d, oracle in bases.items():
        assert_same_basis(basis_polynomials(G, d), oracle)
        assert_same_basis(basis_polynomials(G, d, partition=poly_classes(G, d)), oracle)
    p = random_invariant(G, k, SplitMix64(seed), bases)
    coeffs = expand_in_basis(p, G)
    assert bits(coeffs) == bits(tuple_expand_in_basis(p, G, bases=bases))
    assert all(type(a) is float for a in coeffs.values())


@pytest.mark.parametrize("G, k", [(G, k) for G in (cyclic(4), dihedral(6), symmetric(4),
                                                    alternating(5)) for k in range(7)]
                         + [(dihedral(7), k) for k in (1, 2, 3)], ids=repr)
def test_multiset_basis_and_expansion_match_tuple_oracle(G, k):
    assert_matches_tuple_oracle(G, k, seed=100 + k)


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    return PermGroup.generate(n, [Permutation(g) for g in gens])


@settings(max_examples=40, deadline=None)
@given(generator_sets(), st.integers(0, 4), st.integers(0, 2**32))
def test_multiset_basis_and_expansion_match_tuple_oracle_random_groups(G, k, seed):
    assert_matches_tuple_oracle(G, k, seed)


def test_multiset_expansion_matches_tuple_oracle_s12_e6():
    G = symmetric(12)
    e6 = Polynomial(12, {tuple(int(i in t) for i in range(12)): 1.0
                         for t in itertools.combinations(range(12), 6)})
    p = e6 + Polynomial.constant(12, 0.5)
    bases = {0: tuple_basis_polynomials(G, 0), 6: tuple_basis_polynomials(G, 6)}
    assert_same_basis(basis_polynomials(G, 6), bases[6])
    coeffs = expand_in_basis(p, G)
    assert bits(coeffs) == bits(tuple_expand_in_basis(p, G, bases=bases))
    assert coeffs == {(0, 0): 0.5, (6, 10): 1.0 / 720}


def test_expand_rejects_invariant_within_tol_outside_span():
    # e2 on C5 plus 1e-10 on x_1 x_2 passes the 1e-9 invariance check, but
    # the other monomials of x_1 x_2's class keep coefficient 1
    G = cyclic(5)
    terms = {tuple(int(i in t) for i in range(5)): 1.0
             for t in itertools.combinations(range(5), 2)}
    terms[(1, 1, 0, 0, 0)] += 1e-10
    p = Polynomial(5, terms)
    assert is_invariant(p, G)
    for expand in (expand_in_basis, tuple_expand_in_basis):
        with pytest.raises(NotInvariantError, match="not in the span"):
            expand(p, G)


@pytest.mark.parametrize("G, degrees", [(symmetric(4), range(5)), (dihedral(7), (1, 2, 3))],
                         ids=repr)
def test_basis_and_expansion_walk_no_tuples(G, degrees, monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("walked the tuples of a class")

    expected = {k: tuple_basis_polynomials(G, k) for k in degrees}
    p = Polynomial.constant(G.n, 1.5)
    for k in degrees:
        for b in expected[k]:
            p = p + b.polynomial.scale(1.0 + b.class_index)
    oracle = tuple_expand_in_basis(p, G, bases=expected)
    monkeypatch.setattr("ginet.orbits.decode", walk)
    monkeypatch.setattr("ginet.oracles.members", walk)
    for k in degrees:
        assert_same_basis(basis_polynomials(G, k), expected[k])
    assert bits(expand_in_basis(p, G)) == bits(oracle)


def test_a5_vandermonde_basis_and_expansion_build_no_tuple_view():
    # degree 10 on [5]: 1001 multisets, and no array of the 5^10 tuples
    G = alternating(5)
    basis = basis_polynomials(G, 10)
    assert len(basis) == 31 and sum(b.size for b in basis) == 5**10
    coeffs = expand_in_basis(vandermonde(5), G)
    assert sorted(coeffs) == [(10, 21), (10, 22)]
    assert coeffs[10, 21] == -coeffs[10, 22] == pytest.approx(1 / 12600)


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
        vandermonde(8)
    # evaluation-only mode still works past the expansion limit
    expected = 1.0
    x = [float(v) for v in range(1, 9)]
    for i in range(8):
        for j in range(i + 1, 8):
            expected *= x[i] - x[j]
    assert vandermonde_value(x) == pytest.approx(expected)
