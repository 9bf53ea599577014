import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ginet import analysis, equivlayers
from ginet.analysis import (
    _alternating_coefficients,
    _alternating_layer_spaces,
    _alternating_outputs,
    an_sn_layer_equality,
    enumerate_supergroups,
    is_k_transitive,
    is_two_closed,
    necessary_condition_check,
    separating_function,
    two_closure,
    vandermonde_obstruction,
)
from ginet.equivlayers import layer_space, random_layer
from ginet.net import (
    ActivationStage,
    EquivStage,
    GInvariantNetwork,
    MLP,
    MLPStage,
    SumStage,
)
from ginet.orbits import layer_classes, orbit_count_squared
from ginet.permgroup import (
    PermGroup,
    Permutation,
    alternating,
    cyclic,
    dihedral,
    grid,
    symmetric,
    trivial,
)
from ginet.polybasis import vandermonde_value
from ginet.rng import SplitMix64


# ---------------------------------------------------------- A_n vs S_n

@pytest.mark.parametrize("max_order", [0, -1])
def test_an_sn_rejects_max_order_below_1(max_order):
    with pytest.raises(ValueError, match=f"max_total_order must be >= 1, got {max_order}$"):
        an_sn_layer_equality(5, max_order)


def test_an_sn_equality_n5():
    rep = an_sn_layer_equality(5, 3)
    assert rep.holds_in_range
    row = rep.row(3)
    assert row.sn_classes == row.an_classes == 5  # Bell(3)
    assert row.identical


def test_an_sn_split_at_n4_order3():
    rep = an_sn_layer_equality(4, 3)
    assert rep.holds_in_range          # orders 1, 2 coincide
    assert rep.row(2).identical
    row = rep.row(3)
    assert row.sn_classes == 5 and row.an_classes == 6
    assert not row.identical


def test_an_sn_equal_counts_small_orders():
    rep = an_sn_layer_equality(4, 2)
    assert rep.row(2).sn_classes == rep.row(2).an_classes == 2


def test_an_sn_range_n4_to_n6():
    for n in (4, 5, 6):
        rep = an_sn_layer_equality(n, n - 1)
        assert rep.holds_in_range
        for t in range(1, n - 1):
            assert rep.row(t).identical
        assert not rep.row(n - 1).identical


# ---------------------------------------------------------- transitivity

def test_k_transitivity_symmetric():
    assert is_k_transitive(symmetric(4), 4)
    assert is_k_transitive(symmetric(4), 2)


def test_k_transitivity_alternating():
    # the alternating group moves any distinct (n-2)-tuple to any other
    assert is_k_transitive(alternating(5), 3)
    assert is_k_transitive(alternating(4), 2)
    assert not is_k_transitive(alternating(4), 3)


def test_k_transitivity_cyclic():
    assert is_k_transitive(cyclic(4), 1)
    assert not is_k_transitive(cyclic(4), 2)
    assert orbit_count_squared(cyclic(4)) == 4


def test_k_transitivity_oracle():
    # direct definition check on small groups
    for G, k in [(cyclic(4), 2), (dihedral(4), 2), (alternating(4), 2),
                 (symmetric(3), 3)]:
        expected = True
        base = list(itertools.permutations(range(G.n), k))
        first = base[0]
        reachable = {tuple(g(i) for i in first) for g in G}
        expected = set(base) <= reachable
        assert is_k_transitive(G, k) == expected


def test_k_transitivity_range_error():
    with pytest.raises(ValueError):
        is_k_transitive(symmetric(3), 4)


# ---------------------------------------------------------- vandermonde gap

def test_vandermonde_obstruction_n4():
    rep = vandermonde_obstruction(4, 1, seed=0, trials=20)
    assert rep.all_equal
    assert rep.max_deviation <= 1e-9
    assert rep.vandermonde_gap == pytest.approx(12.0)


@pytest.mark.parametrize("trials", [0, -3])
def test_vandermonde_obstruction_rejects_no_trials(trials):
    with pytest.raises(ValueError):
        vandermonde_obstruction(4, 1, trials=trials)


@pytest.mark.parametrize("n", [1, 0, -2])
def test_vandermonde_obstruction_rejects_n_below_2(n):
    with pytest.raises(ValueError, match=f"n must be >= 2 .*, got {n}$"):
        vandermonde_obstruction(n, 1, trials=1)


def test_vandermonde_gap_nonzero_for_distinct_coords():
    assert vandermonde_value([1.0, 2.0, 3.0, 4.0]) != 0.0


def test_vandermonde_obstruction_rejects_repeated_coords():
    with pytest.raises(ValueError):
        vandermonde_obstruction(4, 1, x0=(1.0, 1.0, 2.0, 3.0))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("position", [0, 3])
def test_vandermonde_obstruction_rejects_non_finite_x0(bad, position, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(analysis, "_alternating_outputs", no_trials)
    x0 = [1.0, 2.0, 3.0, 4.0, 5.0]
    x0[position] = bad
    with pytest.raises(ValueError, match=rf"x0 needs finite coordinates, "
                                         rf"got x0\[{position}\] = {bad}$"):
        vandermonde_obstruction(5, 2, x0=tuple(x0), trials=10)


def _random_alternating_network(spaces, rng):
    """Oracle: one random alternating-group-invariant network, built stage
    by stage from per-call draws on one stream."""
    sp1, sp2, sp3 = spaces
    width = sp3.b
    head = MLP([rng.uniforms(-1, 1, 1, width)], [rng.uniforms(-1, 1, 1)], "sigmoid")
    stages = [EquivStage(random_layer(sp1, rng)),
              ActivationStage("sigmoid"),
              EquivStage(random_layer(sp2, rng)),
              ActivationStage("sigmoid"),
              EquivStage(random_layer(sp3, rng)),
              SumStage(np.ones(width)),
              MLPStage(head)]
    return GInvariantNetwork(sp1.group, stages, order=sp2.k)


def _trial_networks(n, max_order, seed, trials):
    """The oracle networks of vandermonde_obstruction's trials, one stream
    spawned per trial, and the stacked evaluation's stream states."""
    spaces = _alternating_layer_spaces(n, max_order)
    rng = SplitMix64(seed)
    streams = [rng.spawn(f"trial-{t}") for t in range(trials)]
    states = np.array([s.state for s in streams], dtype=np.uint64)
    return spaces, [_random_alternating_network(spaces, s) for s in streams], states


def _swap_points(n):
    x0 = np.arange(1.0, n + 1.0)
    return np.stack([x0, Permutation.from_cycles(n, [(1, 2)]).apply_vector(x0)])


@pytest.mark.parametrize("x0", [(1.0, 2.0, 3.0, 4.0), (1.0, 2.0), (1.0, 1.0, 2.0, 3.0)])
def test_vandermonde_obstruction_checks_x0_length_first(x0):
    with pytest.raises(ValueError, match=rf"x0 needs n = 3 coordinates, got {len(x0)}$"):
        vandermonde_obstruction(3, 1, x0=x0)


@pytest.mark.parametrize("n, order", [(4, 1), (7, 2), (5, 0), (4, 3)])
def test_alternating_layer_spaces_compute_each_partition_once(n, order, monkeypatch):
    calls = []

    def recorded(G, k):
        calls.append(k)
        return layer_classes(G, k)

    monkeypatch.setattr(analysis, "layer_classes", recorded)
    monkeypatch.setattr(equivlayers, "layer_classes", recorded)
    spaces = _alternating_layer_spaces(n, order)
    # the order-`order` partition serves three places, computed once
    assert sorted(calls) == sorted([order + 1, order, 2 * order, 0])
    monkeypatch.undo()
    A = alternating(n)
    want = (layer_space(A, 1, order, 1, 2), layer_space(A, order, order, 2, 2),
            layer_space(A, order, 0, 2, 2))
    for got, ref in zip(spaces, want):
        assert (got.group, got.k, got.l, got.a, got.b) == (ref.group, ref.k, ref.l, ref.a, ref.b)
        for part in ("linear_partition", "bias_partition"):
            g, r = getattr(got, part), getattr(ref, part)
            assert (g.n, g.k, g.kind, g.num_classes) == (r.n, r.k, r.kind, r.num_classes)
            assert np.array_equal(g.least, r.least)
            assert np.array_equal(g.labels, r.labels)
    assert spaces[0].bias_partition is spaces[1].bias_partition is spaces[2].linear_partition


def test_random_alternating_net_is_alternating_invariant():
    rng = SplitMix64(3)
    net = _random_alternating_network(_alternating_layer_spaces(4, 1), rng)
    assert net.max_invariance_deviation(SplitMix64(4), trials=20) <= 1e-9


@pytest.mark.parametrize("n, max_order", [(4, 1), (7, 2), (6, 2), (5, 2)])
def test_stacked_coefficients_bit_equal_oracle_draws(n, max_order):
    spaces, nets, states = _trial_networks(n, max_order, seed=11, trials=7)
    head_w, head_b, layers = _alternating_coefficients(spaces, states)
    for t, net in enumerate(nets):
        equiv = [s.layer for s in net.stages if isinstance(s, EquivStage)]
        head = net.stages[-1].mlp
        assert np.array_equal(head_w[t], head.weights[0][0])
        assert np.array_equal(head_b[t], head.biases[0])
        for (linear, bias), layer in zip(layers, equiv):
            assert np.array_equal(linear[t], layer.linear_coeffs)
            assert np.array_equal(bias[t], layer.bias_coeffs)


@pytest.mark.parametrize("n, max_order, guaranteed",
                         [(4, 1, True), (5, 1, True), (6, 2, True), (7, 2, True),
                          (5, 2, False), (7, 3, False)])
def test_stacked_outputs_match_per_trial_networks(n, max_order, guaranteed):
    trials = 6 if n == 7 and max_order == 3 else 20
    spaces, nets, states = _trial_networks(n, max_order, seed=5, trials=trials)
    X = _swap_points(n)
    F = _alternating_outputs(spaces, states, X)
    ref = np.array([[net.forward(x) for x in X] for net in nets])
    assert F.shape == ref.shape == (trials, 2)
    assert np.all(np.abs(F - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    rep = vandermonde_obstruction(n, max_order, seed=5, trials=trials)
    worst = float(np.max(np.abs(ref[:, 0] - ref[:, 1])))
    assert rep.guaranteed == guaranteed
    assert rep.all_equal == (worst <= 1e-9) == guaranteed
    assert rep.max_deviation == pytest.approx(worst, rel=1e-9, abs=1e-12)


def test_vandermonde_trial_groups_cover_every_trial(monkeypatch):
    # tiny groups: each trial's stream state must still reach its network
    _, nets, _ = _trial_networks(5, 2, seed=9, trials=13)
    X = _swap_points(5)
    worst = max(abs(net.forward(X[0]) - net.forward(X[1])) for net in nets)
    whole = vandermonde_obstruction(5, 2, seed=9, trials=13)
    monkeypatch.setattr(analysis, "_TRIAL_BUDGET", 1)
    grouped = vandermonde_obstruction(5, 2, seed=9, trials=13)
    assert grouped == whole
    assert whole.max_deviation == pytest.approx(worst, rel=1e-9)


def test_vandermonde_memory_flat_in_trials():
    peaks = {}
    for trials in (2500, 5000):                   # both above one group of trials
        tracemalloc.start()
        try:
            rep = vandermonde_obstruction(7, 2, trials=trials)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.all_equal and rep.trials == trials
    # all 5000 networks at once would peak at about 36 MB
    assert peaks[5000] <= 2 * 8 * analysis._TRIAL_BUDGET
    assert peaks[5000] <= 1.05 * peaks[2500] + 2**18


# ---------------------------------------------------------- 2-closure

def test_two_closure_cyclic_is_itself():
    for n in (4, 5, 6):
        C = cyclic(n)
        assert two_closure(C) == C


def test_two_closure_alternating4_is_s4():
    closure = two_closure(alternating(4))
    assert closure == symmetric(4)


def test_two_closure_symmetric_fixed():
    for n in (3, 4, 5):
        S = symmetric(n)
        assert two_closure(S) == S


def test_two_closure_idempotent():
    for G in (cyclic(4), alternating(4), dihedral(5), trivial(3)):
        c1 = two_closure(G)
        assert two_closure(c1) == c1


def test_two_closure_preserves_pair_partition():
    for G in (cyclic(5), dihedral(4), alternating(4)):
        H = two_closure(G)
        assert np.array_equal(layer_classes(G, 2).labels,
                              layer_classes(H, 2).labels)


def test_is_two_closed_reports():
    rep = is_two_closed(cyclic(5))
    assert rep.is_two_closed
    assert rep.orbit_count_squared == 5
    assert rep.witnesses == ()

    rep = is_two_closed(alternating(4))
    assert not rep.is_two_closed
    assert rep.closure_order == 24
    assert len(rep.witnesses) > 0
    w = Permutation.parse(4, rep.witnesses[0])
    assert not w.is_even()  # witness is an odd permutation


def test_two_closure_cap():
    with pytest.raises(ValueError):
        two_closure(cyclic(9))


def test_is_two_closed_witnesses_are_the_first_outside_the_group():
    G = alternating(4)
    outside = [h.cycle_string() for h in two_closure(G) if h not in G]
    for m in (0, 3, 10, 100):
        assert is_two_closed(G, max_witnesses=m).witnesses == tuple(outside[:m])


# ------------------------------------ reference paths the faster ones replace

def two_closure_by_scan(G: PermGroup) -> PermGroup:
    """Oracle: test every one of the n! permutations against the pair
    coloring, then pick generators greedily in lex order."""
    n = G.n
    coloring = layer_classes(G, 2).labels.reshape(n, n)
    members = []
    for images in itertools.permutations(range(n)):
        arr = np.array(images)
        if np.array_equal(coloring[np.ix_(arr, arr)], coloring):
            members.append(Permutation(images))
    gens: list[Permutation] = []
    closure = PermGroup.generate(n, gens)
    for h in members:
        if h not in closure:
            gens.append(h)
            closure = PermGroup.generate(n, gens)
    assert closure.order == len(members)
    return closure


def _closure_set(gens: list[tuple[int, ...]], n: int) -> frozenset:
    """The elements of <gens> as image tuples, by breadth-first closure.

    Tuples instead of PermGroup.generate keep the one-closure-per-permutation
    oracle affordable at n = 6."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in gens:
                h = tuple(g[i] for i in e)
                if h not in seen:
                    seen.add(h)
                    new_frontier.append(h)
        frontier = new_frontier
    return frozenset(seen)


def supergroups_by_scan(G: PermGroup) -> list[PermGroup]:
    """Oracle: one closure <G, g> per permutation g outside G, deduplicated
    in lex order of g."""
    n = G.n
    gens = [a.images for a in G.generators]
    out: list[PermGroup] = []
    seen: set[frozenset] = set()
    for images in itertools.permutations(range(n)):
        if Permutation(images) in G:
            continue
        key = _closure_set(gens + [images], n)
        if key not in seen:
            seen.add(key)
            out.append(PermGroup.generate(n, list(G.generators) + [Permutation(images)]))
    return out


def _same_groups(got: list[PermGroup], want: list[PermGroup]) -> bool:
    """Same groups in the same order, with the same generators and the
    same element order."""
    return ([(H.generators, H.elements) for H in got]
            == [(H.generators, H.elements) for H in want])


def _relabelled_c6() -> PermGroup:
    return PermGroup.generate(6, [Permutation.from_cycles(6, [(1, 4, 2, 6, 3, 5)])])


CROSS_CHECK_GROUPS = (
    [family(n) for n in range(3, 7)
     for family in (trivial, cyclic, dihedral, alternating, symmetric)]
    + [PermGroup.generate(4, [Permutation.from_cycles(4, [(1, 2), (3, 4)]),
                              Permutation.from_cycles(4, [(1, 3), (2, 4)])]),
       grid((2, 3)), _relabelled_c6()])


@pytest.mark.parametrize("G", CROSS_CHECK_GROUPS + [cyclic(7), dihedral(8)], ids=repr)
def test_two_closure_matches_scan(G):
    assert _same_groups([two_closure(G)], [two_closure_by_scan(G)])


@pytest.mark.parametrize("G", CROSS_CHECK_GROUPS, ids=repr)
def test_enumerate_supergroups_matches_scan(G):
    assert _same_groups(enumerate_supergroups(G), supergroups_by_scan(G))


@st.composite
def generator_sets(draw):
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    return PermGroup.generate(n, [Permutation(g) for g in gens])


@settings(max_examples=40, deadline=None)
@given(generator_sets())
def test_fast_paths_match_scans_on_random_groups(G):
    assert _same_groups([two_closure(G)], [two_closure_by_scan(G)])
    assert _same_groups(enumerate_supergroups(G), supergroups_by_scan(G))


def _cyclic_subgroups_of_s5() -> list[PermGroup]:
    groups, seen = [], set()
    for g in symmetric(5):
        G = PermGroup.generate(5, [g])
        key = frozenset(h.images for h in G)
        if key not in seen:
            seen.add(key)
            groups.append(G)
    assert len(groups) == 67
    return groups


def test_enumerate_supergroups_matches_scan_on_cyclic_subgroups_of_s5():
    for G in _cyclic_subgroups_of_s5():
        assert _same_groups(enumerate_supergroups(G), supergroups_by_scan(G))


def test_enumerate_supergroups_matches_scan_on_c7():
    """supergroups_by_scan(cyclic(7)) closes 5033 groups and takes about a
    minute, so its result is recorded here: every group's order and
    generators, in the scan's order."""
    want = [(5040, "(6 7)"), (2520, "(5 6 7)"), (168, "(3 4)(5 7)"), (168, "(3 5)(6 7)"),
            (21, "(2 3 5)(4 7 6)"), (42, "(2 4 3 7 5 6)"), (14, "(2 7)(3 6)(4 5)")]
    G = cyclic(7)
    assert [(H.order, H.generators) for H in enumerate_supergroups(G)] == [
        (order, (*G.generators, Permutation.parse(7, g))) for order, g in want]


def test_enumerate_supergroups_closes_each_double_coset_once(monkeypatch):
    """Relabelled C6 has 23 double cosets besides its own; one closure
    each, 14 of them all of S6."""
    G = _relabelled_c6()
    closures = []
    generate = PermGroup.generate

    def recorded(n, generators):
        H = generate(n, generators)
        closures.append(H)
        return H

    monkeypatch.setattr(PermGroup, "generate", recorded)
    supers = enumerate_supergroups(G)
    assert len(closures) == 23 and len(supers) == 8
    assert sum(H.order == 720 for H in closures) == 14


# ---------------------------------------------------------- supergroups

def test_enumerate_supergroups_symmetric_empty():
    assert enumerate_supergroups(symmetric(4)) == []


def test_enumerate_supergroups_alternating_maximal():
    for n in (4, 5):
        supers = enumerate_supergroups(alternating(n))
        assert len(supers) == 1
        assert supers[0] == symmetric(n)


def test_enumerate_supergroups_trivial_n3():
    # single-generator extensions of the trivial group: the cyclic
    # subgroups of S_3 (three of order 2, one of order 3)
    supers = enumerate_supergroups(trivial(3))
    orders = sorted(H.order for H in supers)
    assert orders == [2, 2, 2, 3]


def test_necessary_condition_alternating4_violated():
    rep = necessary_condition_check(alternating(4))
    assert not rep.holds
    assert not rep.two_closed_cross_check
    assert any(r.orbit_count == rep.orbit_count for r in rep.rows)


def test_necessary_condition_cyclic5_holds():
    rep = necessary_condition_check(cyclic(5))
    assert rep.holds
    assert rep.two_closed_cross_check
    assert all(r.orbit_count < rep.orbit_count for r in rep.rows)


def test_necessary_condition_symmetric_vacuous():
    rep = necessary_condition_check(symmetric(4))
    assert rep.holds
    assert rep.rows == ()


def test_necessary_condition_explicit_supergroups_beyond_the_two_closure_cap(monkeypatch):
    def no_closure(G, max_witnesses=10):
        raise AssertionError("2-closure computed")

    monkeypatch.setattr(analysis, "is_two_closed", no_closure)
    n = analysis.TWO_CLOSURE_MAX_N + 1
    rep = necessary_condition_check(cyclic(n), supergroups=[dihedral(n)])
    assert rep.holds and rep.two_closed_cross_check is None
    assert [(r.order, r.orbit_count, r.strict) for r in rep.rows] == [(2 * n, 5, True)]
    monkeypatch.undo()
    n = analysis.TWO_CLOSURE_MAX_N
    rep = necessary_condition_check(cyclic(n), supergroups=[dihedral(n)])
    assert rep.two_closed_cross_check is is_two_closed(cyclic(n)).is_two_closed


def test_necessary_condition_explicit_supergroups():
    rep = necessary_condition_check(cyclic(4), supergroups=[dihedral(4), symmetric(4)])
    assert rep.holds  # both have strictly fewer pair classes
    with pytest.raises(ValueError):
        necessary_condition_check(cyclic(4), supergroups=[cyclic(4)])


def test_verdict_matches_two_closure_single_generator_subgroups_s4():
    S = symmetric(4)
    seen = set()
    for g in S:
        G = PermGroup.generate(4, [g])
        key = frozenset(h.images for h in G)
        if key in seen:
            continue
        seen.add(key)
        rep = necessary_condition_check(G)
        assert rep.holds == rep.two_closed_cross_check


def hint_by_listing(G: PermGroup, H: PermGroup) -> str:
    """Oracle: the first element of H's breadth-first listing outside G."""
    return next(h for h in H if h not in G).cycle_string()


def test_generator_hint_matches_listing_on_cyclic_subgroups_of_s5():
    checked = 0
    for G in _cyclic_subgroups_of_s5():
        supers = enumerate_supergroups(G)
        rep = necessary_condition_check(G, supergroups=supers)
        assert [r.generator_hint for r in rep.rows] == [hint_by_listing(G, H) for H in supers]
        checked += len(supers)
    assert checked > 500


@st.composite
def explicit_supergroups(draw):
    """(G, H) with G strictly inside H; H's generator list holds G's
    generators, extra ones, identities and repeats, in a random order."""
    n = draw(st.integers(2, 6))
    perms = st.permutations(range(n)).map(Permutation)
    G = PermGroup.generate(n, draw(st.lists(perms, max_size=2)))
    gens = list(G.generators) + draw(st.lists(perms, min_size=1, max_size=3))
    gens += [Permutation.identity(n)] * draw(st.integers(0, 2))
    gens += draw(st.lists(st.sampled_from(gens), max_size=3))
    H = PermGroup.generate(n, draw(st.permutations(gens)))
    assume(H.order > G.order)
    return G, H


@settings(max_examples=60, deadline=None)
@given(explicit_supergroups())
def test_generator_hint_matches_listing_on_random_supergroups(pair):
    G, H = pair
    rep = necessary_condition_check(G, supergroups=[H])
    assert rep.rows[0].generator_hint == hint_by_listing(G, H)


# ---------------------------------------------------------- separating function

def test_separating_function_values():
    G, H = alternating(4), symmetric(4)
    x0 = np.array([1.0, 2.0, 3.0, 4.0])
    f = separating_function(G, H, x0)
    assert f(x0) == pytest.approx(1.0)
    h = f.witness
    assert f(h.apply_vector(x0)) == pytest.approx(0.0, abs=1e-12)


def test_separating_function_g_invariant():
    G, H = cyclic(4), dihedral(4)
    x0 = np.array([0.5, -1.0, 2.0, 3.5])
    f = separating_function(G, H, x0)
    rng = SplitMix64(5)
    for _ in range(10):
        x = rng.uniforms(-2, 2, 4)
        base = f(x)
        for g in G.generators:
            assert f(g.apply_vector(x)) == pytest.approx(base, abs=1e-12)


@pytest.mark.parametrize("G, H, x0", [
    (alternating(4), symmetric(4), (1.0, 2.0, 3.0, 4.0)),
    (cyclic(4), dihedral(4), (0.5, -1.0, 2.0, 3.5)),
    (cyclic(3), symmetric(3), (1.0, 2.0, 4.0)),
])
def test_separating_function_equals_its_group_average(G, H, x0):
    f = separating_function(G, H, np.array(x0))
    rng = SplitMix64(11)
    points = [f.x0, f.witness.apply_vector(f.x0)]
    points += [f.x0 + rng.uniforms(-0.2, 0.2, G.n) for _ in range(10)]
    points += [rng.uniforms(-2, 5, G.n) for _ in range(10)]
    for x in points:
        average = sum(f.bump(g.apply_vector(x)) for g in G) / G.order
        assert abs(f(x) - average) <= 1e-12


def test_separating_function_orbit_sizes():
    G, H = cyclic(3), symmetric(3)
    f = separating_function(G, H, np.array([1.0, 2.0, 4.0]))
    assert f.g_orbit_size == G.order
    assert f.h_orbit_size == H.order


def test_separating_function_errors():
    with pytest.raises(ValueError):
        separating_function(cyclic(4), dihedral(4), np.array([1.0, 1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        separating_function(symmetric(4), symmetric(4), np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError):
        separating_function(dihedral(4), cyclic(4), np.array([1.0, 2.0, 3.0, 4.0]))