import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginet import permgroup
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


def test_compose_matches_validated_product():
    rng = SplitMix64(8)
    for _ in range(20):
        a, b = list(range(6)), list(range(6))
        rng.shuffle(a)
        rng.shuffle(b)
        p, q = Permutation(a), Permutation(b)
        pq = compose(p, q)
        assert pq == Permutation([a[b[i]] for i in range(6)])
        assert pq.n == 6 and type(pq.images) is tuple
        assert all(type(i) is int for i in pq.images)
        assert hash(pq) == hash(Permutation(pq.images))


def test_permutation_rejects_malformed_images():
    for images in ([0, 0, 2], [1, 2], [0, 1, 3], [-1, 0], [0, 2, 1, 2]):
        with pytest.raises(ValueError):
            Permutation(images)


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


def test_generation_deterministic_order():
    gens = [perm(4, "(1 2)"), perm(4, "(1 2 3 4)")]
    a = PermGroup.generate(4, gens)
    b = PermGroup.generate(4, gens)
    assert [g.images for g in a.elements] == [g.images for g in b.elements]


def closure_by_validated_products(n, gens):
    """Breadth-first closure that builds every product through the
    validating Permutation constructor: the closure generate ran before
    groups were held as stabilizer chains, and the reference for the
    chain's order, membership and element listing."""
    identity = Permutation.identity(n)
    elements, seen, frontier = [identity], {identity.images}, [identity]
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in gens:
                h = Permutation([g.images[e.images[i]] for i in range(n)])
                if h.images not in seen:
                    seen.add(h.images)
                    elements.append(h)
                    new_frontier.append(h)
        frontier = new_frontier
    return elements


@pytest.mark.parametrize("G", [
    *(f(n) for f in (trivial, cyclic, dihedral, alternating, symmetric)
      for n in range(1, 7)),
    grid((2, 3)),
], ids=repr)
def test_generate_matches_validated_closure(G):
    gens = [Permutation(list(g.images)) for g in G.generators]
    H = PermGroup.generate(G.n, gens)
    want = closure_by_validated_products(G.n, gens)
    assert H.generators == tuple(gens)
    assert [h.images for h in H.elements] == [w.images for w in want]
    assert [g.images for g in G.elements] == [w.images for w in want]
    assert all(type(h) is Permutation and h.n == G.n for h in H.elements)


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


# --------------------------------------- comparisons against element sets

def eq_by_elements(G, H):
    """Oracle for PermGroup.__eq__: the same n and the same element set."""
    return (isinstance(H, PermGroup) and G.n == H.n
            and {g.images for g in G.elements} == {h.images for h in H.elements})


def hash_by_elements(G):
    """Oracle for PermGroup.__hash__: a hash of the element set."""
    return hash((G.n, frozenset(g.images for g in G.elements)))


def subgroup_by_elements(G, H):
    """Oracle for PermGroup.is_subgroup_of: every element of G lies in H."""
    if G.n != H.n:
        raise ValueError("groups act on different point counts")
    return all(g in H for g in G.elements)


def assert_comparisons_match_oracles(G, H):
    assert (G == H) == eq_by_elements(G, H)
    assert (G != H) == (not eq_by_elements(G, H))
    assert hash(G) == hash((G.n, G.order))
    if hash_by_elements(G) == hash_by_elements(H) or eq_by_elements(G, H):
        assert hash(G) == hash(H)
    if G.n == H.n:
        assert G.is_subgroup_of(H) == subgroup_by_elements(G, H)
    else:
        with pytest.raises(ValueError):
            G.is_subgroup_of(H)


NAMED_GROUPS = ([f(n) for n in range(1, 7)
                 for f in (trivial, cyclic, dihedral, alternating, symmetric)]
                + [grid((2, 2)), grid((2, 3))])


def test_comparisons_match_oracles_on_named_groups():
    equal_pairs = 0
    for G in NAMED_GROUPS:
        for H in NAMED_GROUPS:
            assert_comparisons_match_oracles(G, H)
            equal_pairs += G is not H and G == H
    # e.g. cyclic(2) == symmetric(2), alternating(3) == cyclic(3),
    # dihedral(3) == symmetric(3): distinct objects, different generators
    assert equal_pairs > 0


@st.composite
def generator_set_pairs(draw):
    n = draw(st.integers(1, 6))
    gens = st.lists(st.permutations(range(n)), max_size=3)
    G = PermGroup.generate(n, [Permutation(g) for g in draw(gens)])
    H = PermGroup.generate(n, [Permutation(g) for g in draw(gens)])
    # <G, H> contains both, so subgroup answers come out true as well
    return G, H, PermGroup.generate(n, G.generators + H.generators)


@settings(max_examples=60, deadline=None)
@given(generator_set_pairs())
def test_comparisons_match_oracles_on_random_groups(groups):
    for G in groups:
        for H in groups:
            assert_comparisons_match_oracles(G, H)
    G, H, J = groups
    assert G.is_subgroup_of(J) and H.is_subgroup_of(J)


def test_same_group_from_different_generators():
    same = [
        (symmetric(4), [perm(4, "(1 2)"), perm(4, "(2 3)"), perm(4, "(3 4)")]),
        (symmetric(4), [perm(4, "(1 2 3 4)"), perm(4, "(1 2)")]),   # reordered
        (alternating(4), [perm(4, "(1 2)(3 4)"), perm(4, "(1 2 3)")]),
        (dihedral(4), [perm(4, "(1 3)"), perm(4, "(1 2 3 4)"), perm(4, "()")]),
        (cyclic(6), [perm(6, "(1 5 3)(2 6 4)"), perm(6, "(1 4)(2 5)(3 6)")]),
    ]
    for G, gens in same:
        H = PermGroup.generate(G.n, gens)
        assert H.generators != G.generators
        assert G == H and H == G and hash(G) == hash(H)
        assert G.is_subgroup_of(H) and H.is_subgroup_of(G)
        assert len({G, H}) == 1
        assert_comparisons_match_oracles(G, H)
        assert_comparisons_match_oracles(H, G)


def test_equal_orders_different_groups():
    a = PermGroup.generate(4, [perm(4, "(1 2)")])
    b = PermGroup.generate(4, [perm(4, "(3 4)")])
    c = PermGroup.generate(4, [perm(4, "(1 2)(3 4)")])
    for G, H in ((a, b), (a, c), (b, c)):
        assert G.order == H.order and G != H and not G.is_subgroup_of(H)
        assert_comparisons_match_oracles(G, H)
    assert len({a, b, c}) == 3
    # the conjugate copies of A_4 in the point stabilisers of S_5
    copies = []
    for fixed in range(1, 6):
        pts = [p for p in range(1, 6) if p != fixed]
        copies.append(PermGroup.generate(5, [
            Permutation.from_cycles(5, [pts[:3]]),
            Permutation.from_cycles(5, [pts[1:]])]))
    assert all(A.order == 12 for A in copies)
    for i, A in enumerate(copies):
        assert A.is_subgroup_of(alternating(5)) and A.is_subgroup_of(symmetric(5))
        for j, B in enumerate(copies):
            assert (A == B) == (i == j)
            assert A.is_subgroup_of(B) == (i == j)
            assert_comparisons_match_oracles(A, B)


def test_groups_on_different_point_counts():
    pairs = [(trivial(3), trivial(4)), (cyclic(4), cyclic(5)),
             (symmetric(2), PermGroup.generate(3, [perm(3, "(1 2)")]))]
    for G, H in pairs:
        assert G != H and H != G
        with pytest.raises(ValueError, match="point counts"):
            G.is_subgroup_of(H)
        assert_comparisons_match_oracles(G, H)
    assert cyclic(4) != "cyclic(4)" and cyclic(4) != cyclic(4).elements


# ------------------------------------ stabilizer chain against the closure

def assert_chain_matches_closure(G):
    """Order, membership over all of S_n and the element listing of G
    against the breadth-first closure of its generators."""
    want = [w.images for w in closure_by_validated_products(G.n, G.generators)]
    members = set(want)
    assert G.order == len(G) == len(want)
    assert [g.images for g in G] == want                 # lazy iteration
    assert [g.images for g in G.elements] == want        # the cached listing
    assert [g.images for g in G] == want                 # from the cache
    for images in itertools.permutations(range(G.n)):
        assert (Permutation._trusted(images) in G) == (images in members)


def assert_comparisons_match_closure(G, H):
    """__eq__ and is_subgroup_of against the element sets of the closures."""
    g_set = {w.images for w in closure_by_validated_products(G.n, G.generators)}
    h_set = {w.images for w in closure_by_validated_products(H.n, H.generators)}
    assert (G == H) == (G.n == H.n and g_set == h_set)
    if G.n == H.n:
        assert G.is_subgroup_of(H) == (g_set <= h_set)


SMALL_GROUPS = NAMED_GROUPS + [grid((3, 2)), grid((1, 4)), grid((2, 1, 2))]


@pytest.mark.parametrize("G", SMALL_GROUPS, ids=repr)
def test_chain_matches_closure_on_named_groups(G):
    assert_chain_matches_closure(G)
    for H in SMALL_GROUPS:
        if H.n == G.n:
            assert_comparisons_match_closure(G, H)


@st.composite
def generator_set_triples(draw):
    n = draw(st.integers(1, 7))
    gens = st.lists(st.permutations(range(n)), max_size=3)
    return [PermGroup.generate(n, [Permutation(g) for g in draw(gens)])
            for _ in range(3)]


@settings(max_examples=40, deadline=None)
@given(generator_set_triples())
def test_chain_matches_closure_on_random_groups(groups):
    for G in groups:
        assert_chain_matches_closure(G)
        for H in groups:
            assert_comparisons_match_closure(G, H)


def test_chain_residual_joins_every_level_it_passed():
    # a residual that stops at a lower level must be added to the upper
    # levels it passed too; adding it to its own level only gives order 4
    gens = [perm(4, "(1 4)(2 3)"), perm(4, "(3 4)"), perm(4, "(1 4 2 3)")]
    groups = [PermGroup.generate(4, ordered) for ordered in itertools.permutations(gens)]
    for G in groups:
        assert G.order == 8 and G == groups[0]
        assert_chain_matches_closure(G)


# ------------------------------------------------- chains that stop at n!

def test_chain_stops_at_n_factorial(monkeypatch):
    """A chain whose orbit lengths multiply to n! is complete: generators
    after the ones that reach S_n are never added, and the stopped chain
    still matches the closure on order and membership over all of S_n."""
    added = []
    add = permgroup._StabilizerChain._add

    def recorded(self, g, start):
        if start == 0:
            added.append(g)
        return add(self, g, start)

    monkeypatch.setattr(permgroup._StabilizerChain, "_add", recorded)
    for n in range(3, 7):
        extra = [perm(n, f"(1 {n})"), Permutation(tuple(reversed(range(n))))]
        added.clear()
        G = PermGroup.generate(n, [*symmetric(n).generators, *extra])
        assert G.order == math.factorial(n)
        assert not any(g.images in added for g in extra)
        assert_chain_matches_closure(G)


@pytest.fixture
def listings(monkeypatch):
    """Count the breadth-first listings started and the elements they yield."""
    counts = {"listings": 0, "elements": 0}
    bfs = permgroup._breadth_first

    def counting(n, gen_images):
        counts["listings"] += 1
        for images in bfs(n, gen_images):
            counts["elements"] += 1
            yield images

    monkeypatch.setattr(permgroup, "_breadth_first", counting)
    return counts


M11_GENS = ["(1 2 3 4 5 6 7 8 9 10 11)", "(3 7 11 8)(4 10 5 6)"]


@pytest.mark.parametrize("build, order", [
    (lambda: symmetric(12), math.factorial(12)),
    (lambda: alternating(12), math.factorial(12) // 2),
    (lambda: PermGroup.generate(11, [perm(11, c) for c in M11_GENS]), 7920),
    (lambda: PermGroup.generate(
        12, [perm(12, c) for c in M11_GENS + ["(1 12)(2 11)(3 6)(4 8)(5 9)(7 10)"]]),
     95040),
], ids=["S12", "A12", "M11", "M12"])
def test_known_orders_without_listing(build, order, listings):
    G = build()
    assert G.order == len(G) == order
    assert all(g in G for g in G.generators)
    assert listings == {"listings": 0, "elements": 0}


def test_mathieu_membership():
    m11 = [perm(11, c) for c in M11_GENS]
    M11 = PermGroup.generate(11, m11)
    assert compose(m11[0], m11[1]) in M11
    assert perm(11, "(1 2)") not in M11           # M11 is inside A11
    assert perm(11, "(1 2 3)") not in M11         # 3-cycles would give A11
    assert M11.is_subgroup_of(alternating(11))


def test_membership_rejects_other_point_counts_and_non_permutations():
    G = symmetric(4)
    assert perm(4, "(1 2)") in G
    for other in (perm(3, "(1 2)"), perm(5, "(1 2)"), Permutation.identity(5),
                  Permutation.identity(3), (1, 0, 2, 3), "(1 2)", None):
        assert other not in G
    assert Permutation.identity(0) in trivial(0)


def test_s10_builds_without_listing(listings):
    G = symmetric(10)
    assert G.order == math.factorial(10) and perm(10, "(1 10)") in G
    assert listings == {"listings": 0, "elements": 0}


def test_listing_limit_rejects_s10_before_listing(listings):
    G = symmetric(10)
    with pytest.raises(GroupTooLargeError, match="order 3628800 exceeds the listing limit"):
        list(G)
    with pytest.raises(GroupTooLargeError, match="the listing limit of 1000000 elements"):
        G.elements
    assert listings == {"listings": 0, "elements": 0}


def test_listing_limit_is_inclusive(monkeypatch):
    monkeypatch.setattr(permgroup, "LISTING_LIMIT", 24)
    assert len(symmetric(4).elements) == 24
    with pytest.raises(GroupTooLargeError):
        next(iter(symmetric(5)))


def test_early_stop_lists_part_of_the_group(listings):
    G = symmetric(8)
    first = list(itertools.islice(G, 5))
    assert [g.images for g in first] == [
        w.images for w in closure_by_validated_products(8, G.generators)[:5]]
    assert listings == {"listings": 1, "elements": 5}
    # witnesses outside a subgroup come after a short search too
    A = alternating(8)
    odd = next(g for g in G if g not in A)
    assert not odd.is_even() and listings["elements"] < 20
    # a listing run to the end is cached, and later iterations reuse it
    C = cyclic(8)
    assert len(list(C)) == 8 and list(C) == list(C.elements)
    assert listings["listings"] == 3
