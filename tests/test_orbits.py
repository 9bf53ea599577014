import itertools
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginet import orbits, oracles
from ginet.orbits import (
    CapExceededError,
    decode,
    encode,
    layer_classes,
    min_labels,
    multiplicities,
    orbit_count_squared,
    poly_classes,
    tuple_action_codes,
)
from ginet.equivlayers import layer_space, random_layer
from ginet.oracles import equality_pattern_partition, materialize_dense, members
from ginet.permgroup import (
    PermGroup,
    Permutation,
    alternating,
    cyclic,
    dihedral,
    symmetric,
    trivial,
)
from ginet.rng import SplitMix64


# ---------------------------------------------------------------- oracles

def brute_force_classes(G, k, positions=False):
    """Orbit partition computed from *all* group elements (and optionally
    all position permutations), entirely independent of the code maps."""
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


class UnionFind:
    """Disjoint sets over 0..n-1; path halving, union by size."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i):
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]


def union_find_classes(G, k, positions=False):
    """(class_id, representatives, num_classes) by union-find over a digit
    table: one union per code per generator (and per adjacent position
    swap), then class ids in order of each class's first code."""
    n = G.n
    digits = np.array(list(itertools.product(range(n), repeat=k)),
                      dtype=np.int64).reshape(n**k, k)
    weights = np.array([n ** (k - 1 - j) for j in range(k)], dtype=np.int64)
    moves = [np.array(g.images, dtype=np.int64)[digits] for g in G.generators]
    if positions:
        for j in range(k - 1):
            cols = list(range(k))
            cols[j], cols[j + 1] = cols[j + 1], cols[j]
            moves.append(digits[:, cols])
    uf = UnionFind(n**k)
    for moved in moves:
        for code, image in enumerate((moved * weights).sum(axis=1).tolist()):
            uf.union(code, image)
    class_id = np.empty(n**k, dtype=np.int64)
    reps, root_label = [], {}
    for code in range(n**k):
        label = root_label.setdefault(uf.find(code), len(reps))
        if label == len(reps):
            reps.append(decode(code, n, k))
        class_id[code] = label
    return class_id, tuple(reps), len(reps)


def assert_matches_union_find(G, k):
    for P, positions in ((layer_classes(G, k), False), (poly_classes(G, k), True)):
        class_id, reps, count = union_find_classes(G, k, positions)
        got = P.classes_of(np.arange(G.n**k))
        assert got.dtype == class_id.dtype
        assert np.array_equal(got, class_id)
        assert tuple(P.representative(c) for c in range(P.num_classes)) == reps
        assert P.num_classes == count


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    return PermGroup.generate(n, [Permutation(g) for g in gens])


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.integers(0, 4))
def test_orbit_kernel_matches_union_find_on_random_groups(G, k):
    assert_matches_union_find(G, k)


def test_orbit_kernel_matches_union_find_d8_k5():
    assert_matches_union_find(dihedral(8), 5)


@settings(max_examples=40, deadline=None)
@given(generator_sets(), st.integers(0, 4))
def test_tuple_action_codes_moves_every_tuple(G, k):
    for g in G.generators:
        m = tuple_action_codes(g, G.n, k)
        assert m.shape == (G.n**k,)
        for t in itertools.product(range(G.n), repeat=k):
            assert m[encode(t, G.n)] == encode(tuple(g(i) for i in t), G.n)


@settings(max_examples=40, deadline=None)
@given(generator_sets(), st.integers(1, 4))
def test_multisets_one_sorted_row_per_multiset_with_its_orderings(G, k):
    # oracle: group every tuple of [n]^k by its sorted digits
    P = poly_classes(G, k)
    digits, classes = P.rows, P.labels
    orderings = {}
    for t in itertools.product(range(G.n), repeat=k):
        orderings.setdefault(tuple(sorted(t)), []).append(P.class_of(t))
    assert [tuple(row) for row in digits.tolist()] == sorted(orderings)
    assert multiplicities(digits).tolist() == [len(orderings[m]) for m in sorted(orderings)]
    # every ordering of a multiset lies in its class
    assert all(set(orderings[m]) == {ci} for m, ci in zip(sorted(orderings), classes.tolist()))
    assert np.array_equal(np.bincount(classes, weights=multiplicities(digits),
                                      minlength=P.num_classes), P.sizes())


def largest_multinomial(n, k):
    """The most orderings of any multiset of [n]^k, over all count vectors."""
    return max(math.factorial(k) // math.prod(map(math.factorial, counts))
               for counts in itertools.product(range(k + 1), repeat=n) if sum(counts) == k)


# the largest k with k * M < 2^63, M the largest multinomial, and the
# Burnside count of C_n's orbits on its multisets: C2 swaps the counts of
# 0s and 1s (k // 2 + 1 orbits); C3 rotates the three counts (820
# multisets, one fixed)
@pytest.mark.parametrize("n, k, classes", [(2, 60, 31), (3, 39, 274)])
def test_poly_classes_exact_at_the_largest_admitted_k(n, k, classes):
    # beyond k M < 2^63 the prefix products of multiplicities would wrap
    # around in int64 without an error
    assert k * largest_multinomial(n, k) < 2**63 <= (k + 1) * largest_multinomial(n, k + 1)
    P = poly_classes(cyclic(n), k)
    rows = P.rows.tolist()
    assert rows == [list(m) for m in itertools.combinations_with_replacement(range(n), k)]
    want = [math.factorial(k) // math.prod(math.factorial(row.count(d)) for d in range(n))
            for row in rows]
    assert multiplicities(P.rows).tolist() == want
    assert sum(want) == n**k
    assert P.num_classes == classes
    assert P.sizes().tolist() == [sum(m for m, c in zip(want, P.labels.tolist()) if c == ci)
                                  for ci in range(classes)]
    with pytest.raises(CapExceededError, match=r"polynomial classes of \[\d\]\^\d+ need "):
        poly_classes(cyclic(n), k + 1)


@pytest.mark.parametrize("G", [trivial(1), cyclic(4), symmetric(5), alternating(5)], ids=repr)
def test_multisets_at_k0_one_empty_row(G):
    P = poly_classes(G, 0)
    digits, classes = P.rows, P.labels
    assert digits.shape == (1, 0)
    assert classes.tolist() == [0]
    assert multiplicities(digits).tolist() == [1]


def test_multisets_only_for_polynomial_partitions():
    assert layer_classes(cyclic(4), 2).rows is None
    P = poly_classes(cyclic(4), 2)
    digits, classes = P.rows, P.labels
    assert not digits.flags.writeable and not classes.flags.writeable


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(7))
def test_rank_numbers_the_rows_in_code_order(n, k):
    # oracle: the position of each sorted row in itertools' walk
    rows = list(itertools.combinations_with_replacement(range(n), k))
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    assert np.array_equal(orbits._rank(n, rows), np.arange(len(rows)))
    # any ordering of a row's digits ranks as the row
    for ordering in (rows[:, ::-1], np.roll(rows, 1, axis=1)):
        assert np.array_equal(orbits._rank(n, ordering), np.arange(len(rows)))


def test_poly_sizes_exact_past_2_to_the_53():
    # C4 at k = 32: 4^32 = 2^64 tuples, and the class of 8 copies of each
    # digit alone holds 32!/(8!)^4 > 2^53 of them; float weights would round
    n, k = 4, 32
    P = poly_classes(cyclic(n), k)
    rows = P.rows.tolist()
    want = [0] * P.num_classes
    for row, c in zip(rows, P.labels.tolist()):
        want[c] += math.factorial(k) // math.prod(math.factorial(row.count(d)) for d in range(n))
    sizes = P.sizes()
    assert [int(s) for s in sizes] == want
    assert max(want) > 2**53 and sum(int(s) for s in sizes) == n**k


def test_a7_classes_at_the_vandermonde_degree():
    # degree 21 = 7 * 6 / 2, Goebel's bound for n = 7: 296 010 multisets of
    # the 7^21 tuples, whose codes would overflow 21 * 7^21 > 2^63
    G, k = alternating(7), 21
    P = poly_classes(G, k)
    assert P.rows.shape == (math.comb(7 + k - 1, k), k)
    assert np.array_equal(orbits._rank(7, P.rows), np.arange(P.rows.shape[0]))
    assert sum(int(s) for s in P.sizes()) == 7**k
    for c in range(P.num_classes):
        assert P.class_of(P.representative(c)) == c
    # a generator's images of each row stay in the row's class
    for g in G.generators:
        images = np.asarray(g.images)[P.rows]
        assert np.array_equal(P.labels[orbits._rank(7, images)], P.labels)


def test_class_of_allocates_no_tuple_array():
    # A6 at k = 15 has 6^15 = 4.7e11 tuples and 15 504 multisets
    P = poly_classes(alternating(6), 15)
    tracemalloc.start()
    try:
        assert P.class_of((0,) * 15) == 0
        assert P.class_of(6**15 - 1) == P.class_of((5,) * 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_layer_classes_keep_no_tuple_per_class():
    # 8^7 = 2 097 152 classes, one per code: their least codes and labels
    # take 32 MiB, where one Python tuple per class took 576 MiB
    tracemalloc.start()
    try:
        P = layer_classes(trivial(8), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.num_classes == 8**7
    assert peak <= 100 * 2**20


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("k", range(0, 7))
def test_nondecreasing_rows_match_combinations(n, k):
    rows = list(itertools.combinations_with_replacement(range(n), k))
    want = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    got = orbits._nondecreasing_rows(n, k)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


# ---------------------------------------------------------------- tuple kernel oracle

def tuple_poly_classes(G, k):
    """(class_id, representatives, num_classes) by min-label propagation
    over all n^k tuple codes: one code map per generator and one per
    adjacent swap of tuple positions: the reference that poly_classes'
    multiset kernel must match bit for bit."""
    n = G.n
    maps = [tuple_action_codes(g, n, k) for g in G.generators]
    maps += [np.arange(n**k).reshape(n**j, n, n, -1).swapaxes(1, 2).reshape(-1)
             for j in range(k - 1)]
    label = min_labels(n**k, maps)
    is_least = label == np.arange(n**k)
    class_id = (np.cumsum(is_least, dtype=np.int64) - 1)[label]
    reps = tuple(decode(int(code), n, k) for code in np.flatnonzero(is_least))
    return class_id, reps, len(reps)


def tuple_multisets(class_id, n, k):
    """The nondecreasing rows in code order, each looked up in class_id."""
    rows = list(itertools.combinations_with_replacement(range(n), k))
    digits = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    return digits, class_id[digits @ n ** np.arange(k - 1, -1, -1, dtype=np.int64)]


def assert_matches_tuple_kernel(G, k):
    P = poly_classes(G, k)
    class_id, reps, count = tuple_poly_classes(G, k)
    got = P.classes_of(np.arange(G.n**k))
    assert got.dtype == class_id.dtype
    assert np.array_equal(got, class_id)
    assert tuple(P.representative(c) for c in range(P.num_classes)) == reps
    assert P.num_classes == count
    for got, want in zip((P.rows, P.labels), tuple_multisets(class_id, G.n, k)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("G", [cyclic(4), dihedral(6), dihedral(8), symmetric(4), alternating(5)],
                         ids=["C4", "D6", "D8", "S4", "A5"])
@pytest.mark.parametrize("k", range(7))
def test_poly_classes_match_tuple_kernel(G, k):
    assert_matches_tuple_kernel(G, k)


@pytest.mark.parametrize("G, k", [(alternating(5), 9), (symmetric(12), 3)], ids=["A5-9", "S12-3"])
def test_poly_classes_match_tuple_kernel_large(G, k):
    assert_matches_tuple_kernel(G, k)


@settings(max_examples=60, deadline=None)
@given(generator_sets(), st.integers(0, 4))
def test_poly_classes_match_tuple_kernel_on_random_groups(G, k):
    assert_matches_tuple_kernel(G, k)


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
    assert P.representative(0) == ()
    assert P.class_of(()) == 0


@pytest.mark.parametrize("G", [trivial(1), trivial(3), cyclic(5), dihedral(4),
                               alternating(4), symmetric(4)],
                         ids=["trivial1", "trivial3", "c5", "d4", "a4", "s4"])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_representatives_match_decode(G, k):
    """Oracle: each class's least code, decoded one at a time."""
    for P in (layer_classes(G, k), poly_classes(G, k), equality_pattern_partition(G.n, k)):
        classes = P.classes_of(np.arange(G.n**k))
        least = [int(np.flatnonzero(classes == c)[0]) for c in range(P.num_classes)]
        reps = [P.representative(c) for c in range(P.num_classes)]
        assert reps == [decode(code, G.n, k) for code in least]
        assert all(type(d) is int for rep in reps for d in rep)
        # least holds the least codes, or the rows of those codes
        assert P.least.dtype == np.int64 and not P.least.flags.writeable
        assert np.all(np.diff(P.least) > 0)
        held = P.least if P.rows is None else P.rows[P.least] @ G.n ** np.arange(k - 1, -1, -1)
        assert held.tolist() == least


def test_class_ids_ordered_by_representative():
    P = layer_classes(dihedral(5), 2)
    rep_codes = [encode(P.representative(c), P.n) for c in range(P.num_classes)]
    assert rep_codes == P.least.tolist() == sorted(rep_codes)
    for c, code in enumerate(rep_codes):
        assert P.class_of(code) == c
        assert int(members(P, c)[0]) == code


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
        poly = Q.classes_of(np.arange(G.n**k))
        mapping = {}
        for code in range(G.n**k):
            lc, qc = int(L.labels[code]), int(poly[code])
            assert mapping.setdefault(lc, qc) == qc
        assert Q.num_classes <= L.num_classes


def test_class_of_representative_and_generator_images():
    G = dihedral(4)
    P = layer_classes(G, 2)
    for c in range(P.num_classes):
        rep = P.representative(c)
        assert P.class_of(rep) == c
        for g in G.generators:
            assert P.class_of(tuple(g(i) for i in rep)) == c


def test_class_of_out_of_range():
    P = layer_classes(symmetric(3), 2)
    with pytest.raises(ValueError):
        P.class_of(9)


@pytest.mark.parametrize("t", [(0, 1), (0, 1, 2, 3), ()])
def test_class_of_rejects_wrong_length(t):
    # (0, 1) used to be read as the code of (0, 0, 1)
    P = layer_classes(cyclic(4), 3)
    with pytest.raises(ValueError, match="expected k = 3"):
        P.class_of(t)


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
    # n < k included: then the classes are the set partitions of the k
    # positions into at most n blocks
    cases = [(n, k) for n in (2, 3, 4, 5) for k in (1, 2, 3)]
    for n, k in cases + [(1, 4), (2, 4), (1, 5), (2, 5), (3, 5)]:
        E = equality_pattern_partition(n, k)
        L = layer_classes(symmetric(n), k)
        assert np.array_equal(E.labels, L.labels)
        assert np.array_equal(E.least, L.least)


def test_cap_errors(monkeypatch):
    # n^k codes at 8 bytes each are far over any machine's memory
    with pytest.raises(CapExceededError, match=r"layer classes of \[4\]\^40 would take "
                                               r"an estimated \d+ bytes, more than the"):
        layer_classes(symmetric(4), 40)
    with pytest.raises(CapExceededError, match="polynomial classes"):
        poly_classes(cyclic(4), 40)
    with pytest.raises(CapExceededError, match="equality patterns"):
        equality_pattern_partition(10, 30)
    # the limit is the physical memory; where sysconf does not report it
    # there is none
    monkeypatch.setattr(orbits, "_PHYSICAL_MEMORY", 100)
    with pytest.raises(CapExceededError, match="more than the 100 bytes of physical memory"):
        layer_classes(symmetric(3), 2)
    monkeypatch.setattr(orbits, "_PHYSICAL_MEMORY", None)
    assert layer_classes(symmetric(3), 2).num_classes == 2


@pytest.mark.parametrize("call", [layer_classes, poly_classes])
def test_negative_k_and_bad_caps_rejected(call):
    with pytest.raises(ValueError, match="k must be >= 0"):
        call(cyclic(4), -1)
    # no caller sets the limit: it is the machine's physical memory
    with pytest.raises(TypeError, match="cap"):
        call(cyclic(4), 2, cap=16)


def _dense(G, k, l, a, b):
    return partial(materialize_dense, random_layer(layer_space(G, k, l, a, b), SplitMix64(0)))


def _members(G, k):
    """All tuple classes of a polynomial partition, read for one class."""
    return partial(members, poly_classes(G, k), 0)


@pytest.mark.parametrize("module, prepare", [
    (orbits, lambda: partial(layer_classes, dihedral(8), 7)),
    (orbits, lambda: partial(poly_classes, dihedral(8), 6)),
    (orbits, lambda: partial(poly_classes, alternating(5), 9)),
    (orbits, lambda: partial(poly_classes, symmetric(12), 6)),
    (oracles, lambda: _members(dihedral(8), 6)),
    (orbits, lambda: partial(layer_classes, cyclic(4), 10)),
    (orbits, lambda: partial(layer_classes, trivial(5), 8)),
    (oracles, lambda: _dense(cyclic(4), 5, 5, 1, 1)),
    (oracles, lambda: _dense(dihedral(8), 3, 3, 2, 3)),
], ids=["D8-layer-7", "D8-poly-6", "A5-poly-9", "S12-poly-6", "D8-poly-6-members",
        "C4-layer-10", "trivial5-layer-8", "dense-C4-5-5", "dense-D8-3-3-features-2-3"])
def test_memory_estimate_bounds_the_traced_peak(module, prepare, monkeypatch):
    """Each case has at least 100k codes or dense entries.  The estimate is
    at least the peak that tracemalloc sees (numpy reports its buffers to
    it), and at most four times that peak."""
    run = prepare()  # groups and layer spaces are built untraced
    estimates = []
    monkeypatch.setattr(module, "_check_memory",
                        lambda nbytes, what: estimates.append(nbytes))
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(estimates) == 1
    assert peak <= estimates[0] <= 4 * peak


def test_layer_class_bound_admits_s10_at_k8(monkeypatch):
    # 10^8 codes take 6.4 GB of code maps and working arrays; 10^9 take
    # ten times that.  Only the check runs, not the kernel.
    monkeypatch.setattr(orbits, "_PHYSICAL_MEMORY", 7 * 10**9)
    orbits._check_orbits(symmetric(10), 8, orbits.LAYER)
    with pytest.raises(CapExceededError):
        orbits._check_orbits(symmetric(10), 9, orbits.LAYER)


@pytest.mark.parametrize("n, k", [(1, 3), (2, 4), (3, 4), (4, 3), (4, 5), (5, 4), (6, 3)])
def test_layer_class_bound_is_exact_for_symmetric(n, k):
    # Burnside's count over the listed elements of S_n
    G = symmetric(n)
    fixed = [sum(g(i) == i for i in range(n)) for g in G.elements]
    burnside = sum(f**k for f in fixed) // G.order
    assert burnside == layer_classes(G, k).num_classes
