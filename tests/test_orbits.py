import itertools

import numpy as np
import pytest

from ginet.orbits import (
    CapExceededError,
    decode,
    encode,
    equality_pattern_partition,
    layer_classes,
    orbit_count_squared,
    poly_classes,
)
from ginet.permgroup import (
    PermGroup,
    Permutation,
    alternating,
    cyclic,
    dihedral,
    symmetric,
    trivial,
)


# ---------------------------------------------------------------- oracles

def brute_force_classes(G, k, positions=False):
    """Orbit partition computed from *all* group elements (and optionally
    all position permutations), entirely independent of union-find."""
    n = G.n
    canon = {}
    for t in itertools.product(range(n), repeat=k):
        orbit = set()
        for g in G:
            image = tuple(g(i) for i in t)
            if positions:
                for sigma in itertools.permutations(range(k)):
                    orbit.add(tuple(image[sigma[j]] for j in range(k)))
            else:
                orbit.add(image)
        canon[t] = min(orbit)
    labels = sorted(set(canon.values()))
    return canon, len(labels)


def assert_matches_oracle(partition, G, k, positions):
    canon, count = brute_force_classes(G, k, positions)
    assert partition.num_classes == count
    for t, c in canon.items():
        assert partition.class_of(t) == partition.class_of(c)
    # distinct canonical forms land in distinct classes
    ids = {partition.class_of(c) for c in set(canon.values())}
    assert len(ids) == count


# ---------------------------------------------------------------- encoding

def test_encode_decode_roundtrip():
    n, k = 4, 3
    for code in range(n**k):
        digits = decode(code, n, k)
        assert encode(digits, n) == code
    code = encode((2, 0, 3), 4)
    assert code == 2 * 16 + 0 * 4 + 3
    assert decode(code, 4, 3) == (2, 0, 3)


def test_encode_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode((0, 4), 4)


# ---------------------------------------------------------------- layer

def test_layer_classes_s3_pairs():
    # Oracle: diagonal vs off-diagonal.
    P = layer_classes(symmetric(3), 2)
    assert_matches_oracle(P, symmetric(3), 2, positions=False)
    assert P.num_classes == 2


def test_layer_classes_c4_pairs_circulant():
    P = layer_classes(cyclic(4), 2)
    assert_matches_oracle(P, cyclic(4), 2, positions=False)
    assert P.num_classes == 4
    # classes are indexed by the coordinate difference mod 4
    for i in range(4):
        for j in range(4):
            assert P.class_of((i, j)) == P.class_of((0, (j - i) % 4))


def test_layer_classes_trivial():
    for n, k in [(3, 1), (3, 2), (2, 3)]:
        P = layer_classes(trivial(n), k)
        assert P.num_classes == n**k


def test_layer_classes_k0():
    P = layer_classes(symmetric(3), 0)
    assert P.num_classes == 1
    assert P.representatives == ((),)
    assert P.class_of(()) == 0


def test_class_ids_ordered_by_representative():
    P = layer_classes(dihedral(5), 2)
    rep_codes = [encode(r, P.n) for r in P.representatives]
    assert rep_codes == sorted(rep_codes)
    for c, code in enumerate(rep_codes):
        assert P.class_of(code) == c
        assert int(P.members(c)[0]) == code


def test_generator_sufficiency():
    # Orbits from generators equal orbits from every element.
    for G, k in [(dihedral(4), 2), (alternating(4), 3), (cyclic(6), 2)]:
        P = layer_classes(G, k)
        assert_matches_oracle(P, G, k, positions=False)


def test_burnside_count():
    # num classes = average number of fixed tuples, over several groups.
    for G, k in [(symmetric(4), 2), (cyclic(5), 2), (dihedral(6), 2),
                 (alternating(4), 2), (symmetric(3), 3)]:
        total_fixed = 0
        for g in G:
            fixed_points = sum(1 for i in range(G.n) if g(i) == i)
            total_fixed += fixed_points**k
        assert layer_classes(G, k).num_classes * G.order == total_fixed


# ---------------------------------------------------------------- poly

def test_poly_classes_s3_pairs():
    P = poly_classes(symmetric(3), 2)
    assert_matches_oracle(P, symmetric(3), 2, positions=True)
    assert P.num_classes == 2


def test_poly_classes_c3_pairs():
    # position swap merges the difference-1 and difference-2 classes
    P = poly_classes(cyclic(3), 2)
    assert_matches_oracle(P, cyclic(3), 2, positions=True)
    assert P.num_classes == 2


def test_poly_classes_joint_relation_n5():
    # (2,2,4) ~ (3,5,3) via g=(2 3)(4 5) with a swap of positions 2,3.
    G = PermGroup.generate(5, [Permutation.parse(5, "(2 3)(4 5)")])
    P = poly_classes(G, 3)
    a = (2 - 1, 2 - 1, 4 - 1)
    b = (3 - 1, 5 - 1, 3 - 1)
    assert P.class_of(a) == P.class_of(b)
    assert_matches_oracle(P, G, 3, positions=True)


def test_poly_refines_layer():
    # every poly class is a union of layer classes
    for G, k in [(cyclic(4), 2), (dihedral(4), 2), (symmetric(3), 3)]:
        L = layer_classes(G, k)
        Q = poly_classes(G, k)
        mapping = {}
        for code in range(G.n**k):
            lc, qc = int(L.class_id[code]), int(Q.class_id[code])
            assert mapping.setdefault(lc, qc) == qc
        assert Q.num_classes <= L.num_classes


def test_class_of_representative_and_generator_images():
    G = dihedral(4)
    P = layer_classes(G, 2)
    for c, rep in enumerate(P.representatives):
        assert P.class_of(rep) == c
        for g in G.generators:
            assert P.class_of(tuple(g(i) for i in rep)) == c


def test_class_of_out_of_range():
    P = layer_classes(symmetric(3), 2)
    with pytest.raises(ValueError):
        P.class_of(9)


# ---------------------------------------------------------------- counts

def test_orbit_count_squared():
    assert orbit_count_squared(symmetric(4)) == 2
    assert orbit_count_squared(alternating(4)) == 2
    assert orbit_count_squared(cyclic(5)) == 5


def test_monotone_under_supergroup():
    pairs = [(cyclic(4), dihedral(4)), (dihedral(4), symmetric(4)),
             (alternating(4), symmetric(4)), (cyclic(5), dihedral(5))]
    for G, H in pairs:
        assert G.is_subgroup_of(H)
        for k in (1, 2):
            assert layer_classes(H, k).num_classes <= layer_classes(G, k).num_classes


# ---------------------------------------------------------------- equality patterns

def test_equality_patterns_bell_counts():
    # Bell(2)=2, Bell(3)=5 provided n >= k.
    for n in (2, 3, 5):
        assert equality_pattern_partition(n, 2).num_classes == 2
    for n in (3, 4, 6):
        assert equality_pattern_partition(n, 3).num_classes == 5


def test_equality_patterns_match_symmetric_layer_classes():
    for n in (2, 3, 4, 5):
        for k in (1, 2, 3):
            E = equality_pattern_partition(n, k)
            L = layer_classes(symmetric(n), k)
            assert np.array_equal(E.class_id, L.class_id)


def test_cap_errors():
    with pytest.raises(CapExceededError, match="cap"):
        layer_classes(symmetric(4), 3, cap=10)
    with pytest.raises(CapExceededError):
        equality_pattern_partition(10, 9, cap=100)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("GINET_CAP_TUPLES", "5")
    with pytest.raises(CapExceededError):
        layer_classes(symmetric(3), 2)
    monkeypatch.setenv("GINET_CAP_TUPLES", "1000")
    assert layer_classes(symmetric(3), 2).num_classes == 2
