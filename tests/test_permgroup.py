import numpy as np
import pytest

from ginet.permgroup import (
    GroupTooLargeError,
    PermGroup,
    Permutation,
    alternating,
    compose,
    cyclic,
    dihedral,
    grid,
    named_group,
    symmetric,
    trivial,
)
from ginet.rng import SplitMix64


def perm(n, text):
    return Permutation.parse(n, text)


def test_compose_identity():
    p = perm(4, "(1 3 2)")
    assert compose(Permutation.identity(4), p) == p
    assert compose(p, Permutation.identity(4)) == p


def test_compose_involution():
    t = perm(3, "(1 2)")
    assert compose(t, t) == Permutation.identity(3)


def test_compose_hand_traced():
    # compose(p, q) applies q first: i -> q(i) -> p(q(i)).
    # Hand-trace p=(1 2 3), q=(1 2): 1->2->3, 2->1->2, 3->3->1, i.e. (1 3).
    a = perm(3, "(1 2 3)")
    b = perm(3, "(1 2)")
    assert compose(a, b) == perm(3, "(1 3)")
    # the reversed order applies the maps the other way round
    assert compose(b, a) == perm(3, "(2 3)")


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(perm(3, "(1 2)"), perm(4, "(1 2)"))


def test_inverse_roundtrip():
    rng = SplitMix64(7)
    for _ in range(20):
        images = list(range(6))
        rng.shuffle(images)
        p = Permutation(images)
        assert compose(p, p.inverse()) == Permutation.identity(6)
        assert compose(p.inverse(), p) == Permutation.identity(6)


def test_apply_vector_identity_and_inverse():
    x = np.array([3.0, 1.0, 4.0, 1.5])
    g = perm(4, "(1 2 3 4)")
    assert np.array_equal(Permutation.identity(4).apply_vector(x), x)
    assert np.array_equal(g.apply_vector(g.inverse().apply_vector(x)), x)


def test_apply_vector_transposition():
    # (g.x)_i = x_{g^-1(i)} with g = (1 2): swaps the first two entries.
    g = perm(3, "(1 2)")
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(g.apply_vector(x), np.array([2.0, 1.0, 3.0]))


def test_apply_vector_matches_definition():
    rng = SplitMix64(11)
    for _ in range(10):
        images = list(range(5))
        rng.shuffle(images)
        g = Permutation(images)
        ginv = g.inverse()
        x = rng.floats(5)
        expected = np.array([x[ginv(i)] for i in range(5)])
        assert np.array_equal(g.apply_vector(x), expected)


def test_apply_tensor_reduces_to_vector():
    g = perm(4, "(1 4)(2 3)")
    x = np.arange(8.0).reshape(4, 2)
    out = g.apply_tensor(x, k=1)
    for j in range(2):
        assert np.array_equal(out[:, j], g.apply_vector(x[:, j]))


def test_apply_tensor_identity():
    X = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(Permutation.identity(4).apply_tensor(X, k=2), X)


def test_apply_tensor_action_is_homomorphism():
    # Brute-force over all entries at n=4, k=2 with feature axis.
    rng = SplitMix64(13)
    for _ in range(5):
        imgs_g = list(range(4))
        imgs_h = list(range(4))
        rng.shuffle(imgs_g)
        rng.shuffle(imgs_h)
        g, h = Permutation(imgs_g), Permutation(imgs_h)
        X = rng.floats(4, 4, 3)
        lhs = g.apply_tensor(h.apply_tensor(X, k=2), k=2)
        rhs = compose(g, h).apply_tensor(X, k=2)
        ginv, hinv = g.inverse(), h.inverse()
        for i1 in range(4):
            for i2 in range(4):
                for j in range(3):
                    assert rhs[i1, i2, j] == X[hinv(ginv(i1)), hinv(ginv(i2)), j]
        assert np.array_equal(lhs, rhs)


def test_apply_tensor_shape_mismatch():
    g = perm(3, "(1 2)")
    with pytest.raises(ValueError):
        g.apply_tensor(np.zeros((3, 4)), k=2)


def test_generate_cyclic_order():
    G = PermGroup.generate(4, [perm(4, "(1 2 3 4)")])
    assert G.order == 4


def test_generate_trivial():
    assert PermGroup.generate(5, []).order == 1


def test_generate_standard_pair_gives_s4():
    G = PermGroup.generate(4, [perm(4, "(1 2)"), perm(4, "(1 2 3 4)")])
    assert G.order == 24


def test_generate_cap():
    with pytest.raises(GroupTooLargeError, match="10"):
        PermGroup.generate(5, [perm(5, "(1 2)"), perm(5, "(1 2 3 4 5)")], cap=10)


def test_generation_deterministic_order():
    gens = [perm(4, "(1 2)"), perm(4, "(1 2 3 4)")]
    a = PermGroup.generate(4, gens)
    b = PermGroup.generate(4, gens)
    assert [g.images for g in a.elements] == [g.images for g in b.elements]


def test_is_even():
    assert Permutation.identity(5).is_even()
    assert not perm(5, "(1 2)").is_even()
    assert perm(5, "(1 2 3)").is_even()  # two transpositions


def test_parity_homomorphism():
    G = symmetric(4)
    for g in G:
        for h in G.elements[::5]:
            assert compose(g, h).is_even() == (g.is_even() == h.is_even())


def test_closure_property_exhaustive():
    # Closure under compose and inverse for a mid-sized group.
    G = dihedral(5)
    assert G.order == 10
    for g in G:
        assert g.inverse() in G
        for h in G:
            assert compose(g, h) in G


def test_action_contract_random_triples():
    G = symmetric(5)
    rng = SplitMix64(3)
    for _ in range(25):
        g = G.elements[rng.randint(G.order)]
        h = G.elements[rng.randint(G.order)]
        x = rng.floats(5)
        lhs = compose(g, h).apply_vector(x)
        rhs = g.apply_vector(h.apply_vector(x))
        assert np.array_equal(lhs, rhs)


def test_named_orders():
    assert symmetric(4).order == 24
    assert alternating(4).order == 12
    assert alternating(5).order == 60
    assert alternating(6).order == 360
    assert cyclic(6).order == 6
    assert dihedral(4).order == 8
    assert grid((2, 3)).order == 6
    assert trivial(7).order == 1


def test_alternating_equals_even_subset():
    for n in range(2, 6):
        A = alternating(n)
        S = symmetric(n)
        evens = {g.images for g in S if g.is_even()}
        assert {g.images for g in A} == evens


def test_is_subgroup():
    assert cyclic(4).is_subgroup_of(symmetric(4))
    assert not alternating(4).is_subgroup_of(cyclic(4))
    G = dihedral(4)
    assert G.is_subgroup_of(G)


def test_named_group_dispatch():
    assert named_group("symmetric", n=3).order == 6
    assert named_group("grid", dims=(2, 2)).order == 4
    with pytest.raises(ValueError):
        named_group("sporadic", n=5)


def test_cycle_string_roundtrip():
    rng = SplitMix64(19)
    for _ in range(20):
        images = list(range(6))
        rng.shuffle(images)
        p = Permutation(images)
        assert Permutation.parse(6, p.cycle_string()) == p


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        Permutation.parse(4, "(1 2")
    with pytest.raises(ValueError):
        Permutation.parse(4, "(1 5)")
    with pytest.raises(ValueError):
        Permutation.parse(4, "(1 1)")
