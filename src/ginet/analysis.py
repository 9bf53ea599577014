"""Executable verifiers for the structural facts.

These check, at desk scale, the facts the library is built around: the
alternating/symmetric coincidence of layer spaces up to total order
n-2, the Vandermonde obstruction that follows from it, k-transitivity,
2-closure, the strict orbit-count condition over strict supergroups,
and the bump-average separating function.

The Vandermonde check runs many random alternating-invariant networks
on two points.  It holds them as one stack of coefficient arrays, with
a leading network axis, rather than as network objects: one
splitmix64 call draws every network's coefficients, and one
apply_stacked call per layer space evaluates them all.

The supergroup scan closes one <G, g> per double coset G g G.  It finds
the double cosets as orbits of G x G on the lex ranks of S_n with the
orbit kernel's min-label propagation, and closes each extension with a
stabilizer chain that stops once its order reaches n!.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .equivlayers import LayerSpace, apply_stacked, layer_space
from .net import ACTIVATIONS
from .orbits import LAYER, _check_orbits, layer_classes, min_labels, orbit_count_squared
from .permgroup import PermGroup, Permutation, alternating, symmetric
from .polybasis import vandermonde_value
from .rng import SplitMix64, stream_floats

TWO_CLOSURE_MAX_N = 8
SUPERGROUP_MAX_N = 7
# transient floats (8 MiB) of one group of trials in vandermonde_obstruction
_TRIAL_BUDGET = 1 << 20


@dataclass(frozen=True)
class LayerEqualityRow:
    total_order: int
    sn_classes: int
    an_classes: int
    identical: bool


@dataclass(frozen=True)
class LayerEqualityReport:
    n: int
    rows: tuple[LayerEqualityRow, ...]
    holds_in_range: bool  # identical partitions for every total order <= n-2

    def row(self, t: int) -> LayerEqualityRow:
        return self.rows[t - 1]


def an_sn_layer_equality(n: int, max_total_order: int) -> LayerEqualityReport:
    """Compare layer partitions of [n]^t under the alternating and
    symmetric groups for t = 1..max_total_order.

    Since both partitions are canonically labeled, equality of the
    class-id arrays is equality of the partitions.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    if max_total_order < 1:
        raise ValueError(f"max_total_order must be >= 1, got {max_total_order}")
    A, S = alternating(n), symmetric(n)
    # the largest order first: a run that cannot fit fails before any work
    for G in (A, S):
        _check_orbits(G, max_total_order, LAYER)
    rows = []
    holds = True
    for t in range(1, max_total_order + 1):
        pa = layer_classes(A, t)
        ps = layer_classes(S, t)
        identical = bool(np.array_equal(pa.labels, ps.labels))
        rows.append(LayerEqualityRow(total_order=t, sn_classes=ps.num_classes,
                                     an_classes=pa.num_classes, identical=identical))
        if t <= n - 2 and not identical:
            holds = False
    return LayerEqualityReport(n=n, rows=tuple(rows), holds_in_range=holds)


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


@dataclass(frozen=True)
class VandermondeReport:
    n: int
    max_order: int
    trials: int
    x0: tuple[float, ...]
    max_deviation: float        # max |F(x0) - F(swap.x0)| over the trials
    all_equal: bool             # every trial within the float-reassociation tol
    vandermonde_gap: float      # |V(x0)|: the unavoidable approximation gap
    guaranteed: bool            # equality is forced when 2*max_order <= n-2


def _alternating_layer_spaces(n: int, order: int,
                              width: int = 2) -> tuple[LayerSpace, LayerSpace, LayerSpace]:
    """The layer spaces of a random alternating network: lift the input to
    the given tensor order, mix at that order, then reduce to order 0.

    The order-``order`` partition is the lift's bias partition, the mix's
    bias partition and the reduction's linear partition; it is computed
    once, by the lift's layer_space, and shared."""
    A = alternating(n)
    lift = layer_space(A, 1, order, 1, width)
    at_order = lift.bias_partition
    return (lift,
            LayerSpace(A, order, order, width, width,
                       linear_partition=layer_classes(A, 2 * order),
                       bias_partition=at_order),
            LayerSpace(A, order, 0, width, width,
                       linear_partition=at_order,
                       bias_partition=layer_classes(A, 0)))


def _alternating_coefficients(spaces: tuple[LayerSpace, ...], states: np.ndarray):
    """The coefficients of one random alternating network per splitmix64
    stream state (advanced in place), uniform in [-1, 1]: the head's
    weights (T, width) and bias (T, 1), then per layer space its linear
    (T, C, a, b) and bias (T, Cb, b) coefficients.  Each stream draws
    them in that order, as one run of values."""
    T = len(states)
    sizes = [spaces[-1].b, 1] + [d for sp in spaces for d in (sp.linear_dim, sp.bias_dim)]
    values = -1.0 + 2.0 * stream_floats(states, sum(sizes))
    head_w, head_b, *flat = np.split(values, np.cumsum(sizes)[:-1], axis=1)
    layers = [(flat[2 * i].reshape(T, -1, sp.a, sp.b), flat[2 * i + 1].reshape(T, -1, sp.b))
              for i, sp in enumerate(spaces)]
    return head_w, head_b, layers


def _alternating_outputs(spaces: tuple[LayerSpace, ...], states: np.ndarray,
                         X: np.ndarray) -> np.ndarray:
    """F_t(x) for the random alternating network F_t of each stream state,
    at each row x of X (Z, n): a (T, Z) array.

    The networks run as one stack through apply_stacked: each layer space
    in turn, a sigmoid after every layer but the last, the sum over the
    order-0 output, then the linear head.
    """
    head_w, head_b, layers = _alternating_coefficients(spaces, states)
    H = np.broadcast_to(X[None, :, :, None], (len(states), *X.shape, 1))
    for i, (sp, (linear, bias)) in enumerate(zip(spaces, layers)):
        H = apply_stacked(sp, linear, bias, H)
        if i < len(spaces) - 1:
            ACTIVATIONS["sigmoid"][2](H)               # sigmoid, in place
    V = H.sum(axis=2)                                  # (T, Z, width)
    return np.matmul(V, head_w[:, :, None])[:, :, 0] + head_b


def _trial_floats(spaces: tuple[LayerSpace, ...], points: int) -> int:
    """Floats one network of _alternating_outputs holds at once: its
    coefficients, its activations at every point and one gathered row of
    its widest layer."""
    n = spaces[0].n
    coeffs = spaces[-1].b + 1 + sum(sp.linear_dim + sp.bias_dim for sp in spaces)
    activations = sum(points * n**sp.l * sp.b for sp in spaces)
    row = max(n**sp.k * sp.a * sp.b for sp in spaces)
    return coeffs + activations + row


def vandermonde_obstruction(n: int, max_order: int, seed: int = 0,
                            trials: int = 100,
                            x0: tuple[float, ...] | None = None,
                            tol: float = 1e-9) -> VandermondeReport:
    """Random alternating-invariant networks of low tensor order cannot
    tell x0 from its first-two swap, while the pairwise-difference
    product changes sign there: its magnitude is the gap no such
    network can cross.

    Equality is forced whenever every layer's total order stays at or
    below n-2, i.e. 2*max_order <= n-2; beyond that range the check
    reports whatever happens (typically genuine separation).

    Trial t's network draws its coefficients from the stream spawned as
    ``trial-{t}`` from SplitMix64(seed).  The networks are evaluated as
    stacks (see _alternating_outputs), x0 and its swap as one batch, in
    groups of trials whose transients fit _TRIAL_BUDGET floats, so memory
    does not grow with the number of trials.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2 (the swap moves points 1 and 2), got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if x0 is None:
        x0 = tuple(float(i) for i in range(1, n + 1))
    if len(x0) != n:
        raise ValueError(f"x0 needs n = {n} coordinates, got {len(x0)}")
    x0_arr = np.asarray(x0, dtype=np.float64)
    if not np.isfinite(x0_arr).all():
        i = int(np.flatnonzero(~np.isfinite(x0_arr))[0])
        raise ValueError(f"x0 needs finite coordinates, got x0[{i}] = {x0_arr[i]}")
    if len(set(x0)) != n:
        raise ValueError("x0 needs pairwise distinct coordinates")
    swap = Permutation.from_cycles(n, [(1, 2)])
    X = np.stack([x0_arr, swap.apply_vector(x0_arr)])
    rng = SplitMix64(seed)
    states = np.array([rng.spawn(f"trial-{t}").state for t in range(trials)],
                      dtype=np.uint64)
    spaces = _alternating_layer_spaces(n, max_order)
    group = max(1, _TRIAL_BUDGET // _trial_floats(spaces, len(X)))
    worst = 0.0
    for start in range(0, trials, group):
        F = _alternating_outputs(spaces, states[start:start + group], X)
        worst = max(worst, float(np.abs(F[:, 0] - F[:, 1]).max()))
    return VandermondeReport(
        n=n, max_order=max_order, trials=trials, x0=tuple(x0),
        max_deviation=worst, all_equal=worst <= tol,
        vandermonde_gap=abs(vandermonde_value(x0_arr)),
        guaranteed=2 * max_order <= n - 2)


# ------------------------------------------------------------- 2-closure

@dataclass(frozen=True)
class ClosureReport:
    group_order: int
    closure_order: int
    is_two_closed: bool
    orbit_count_squared: int
    witnesses: tuple[str, ...]  # closure elements outside the group, cycle form

    def __post_init__(self):
        assert self.is_two_closed == (self.closure_order == self.group_order)


def _coloring_automorphisms(col: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Every permutation h with col[h(i)][h(j)] == col[i][j] for all i, j,
    as image tuples in lexicographic order.

    Backtracking: the images of 0, 1, ... are assigned in turn, each from
    the unused points in ascending order, and a candidate v for point i
    is pruned as soon as it changes the color of (i, i) or of a pair it
    forms with an assigned point.
    """
    n = len(col)
    img: list[int] = []
    used = [False] * n

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(img)
            return
        for v in range(n):
            if used[v] or col[v][v] != col[i][i]:
                continue
            if any(col[img[j]][v] != col[j][i] or col[v][img[j]] != col[i][j]
                   for j in range(i)):
                continue
            used[v] = True
            img.append(v)
            yield from extend(i + 1)
            img.pop()
            used[v] = False

    return extend(0)


def two_closure(G: PermGroup) -> PermGroup:
    """The largest subgroup of S_n with the same orbits on [n]^2:
    every permutation preserving the pair-class coloring.

    The members are found by a backtracking search over partial maps
    (see ``_coloring_automorphisms``) in lexicographic order, and a
    generating set is picked greedily from them in that order; capped at
    n <= 8 because the search lists every member.
    """
    n = G.n
    if n > TWO_CLOSURE_MAX_N:
        raise ValueError(f"two_closure enumerates S_{n}; capped at n <= {TWO_CLOSURE_MAX_N}")
    coloring = layer_classes(G, 2).labels.reshape(n, n).tolist()
    # the search yields permutations only, so skip Permutation's check
    members = [Permutation._trusted(images)
               for images in _coloring_automorphisms(coloring)]
    # find a small generating set, scanning in lex order; once the closure
    # has every member, no later member can add a generator
    gens: list[Permutation] = []
    closure = PermGroup.generate(n, gens)
    for h in members:
        if closure.order == len(members):
            break
        if h not in closure:
            gens.append(h)
            closure = PermGroup.generate(n, gens)
    assert closure.order == len(members)
    for g in G.generators:
        assert g in closure
    return closure


def is_two_closed(G: PermGroup, max_witnesses: int = 10) -> ClosureReport:
    closure = two_closure(G)
    witnesses = itertools.islice((h.cycle_string() for h in closure if h not in G),
                                 max_witnesses)
    return ClosureReport(
        group_order=G.order,
        closure_order=closure.order,
        is_two_closed=closure.order == G.order,
        orbit_count_squared=orbit_count_squared(G),
        witnesses=tuple(witnesses))


def _lex_ranks(perms: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The lex ranks in S_n of the rows of perms (image arrays), by their
    base-n codes; table holds every permutation in lex order, so its codes
    ascend."""
    weights = perms.shape[1] ** np.arange(perms.shape[1] - 1, -1, -1)
    return np.searchsorted(table @ weights, perms @ weights)


def enumerate_supergroups(G: PermGroup) -> list[PermGroup]:
    """All distinct single-extension closures <G, g> for g in S_n outside G.

    Orbit counts are monotone under inclusion, so a strict supergroup
    violating the strict-inequality condition forces a violating single
    extension; checking these suffices.

    <G, agb> = <G, g> for a, b in G, so one closure per double coset G g G
    suffices.  The double cosets are the orbits of G x G on the lex ranks
    of S_n, h -> a h and h -> h a for each generator a, found by the
    min-label propagation of the orbit kernel; the least rank of each
    orbit is its lex-first element, and the least of all, the identity,
    is G's own.  Each other double coset is extended by its lex-first
    element, in ascending order, which is also the first element
    producing its group, so the list and each group's generators are
    those of one closure per permutation in lex order.  A closure <G, g>
    repeats a group K already found iff |K| == |<G, g>| and g is in K.

    Most extensions of a small group are S_n, whose stabilizer chains stop
    as soon as their order reaches n! (see permgroup._StabilizerChain).
    """
    n = G.n
    if n > SUPERGROUP_MAX_N:
        raise ValueError(f"supergroup enumeration scans S_{n}; capped at "
                         f"n <= {SUPERGROUP_MAX_N}; pass explicit supergroups instead")
    order = math.factorial(n)
    table = np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                        dtype=np.int64, count=n * order).reshape(order, n)
    maps = []
    for a in G.generators:
        images = np.asarray(a.images)
        maps += [_lex_ranks(images[table], table), _lex_ranks(table[:, images], table)]
    label = min_labels(order, maps)
    least = np.flatnonzero(label == np.arange(order))
    out: list[PermGroup] = []
    for rank in least[1:]:
        g = Permutation._trusted(tuple(table[rank].tolist()))
        H = PermGroup.generate(n, [*G.generators, g])
        if not any(K.order == H.order and g in K for K in out):
            out.append(H)
    return out


@dataclass(frozen=True)
class SupergroupRow:
    order: int
    orbit_count: int
    strict: bool              # |[n]^2/H| < |[n]^2/G|
    generator_hint: str       # cycle form of one extending element


@dataclass(frozen=True)
class NecessaryConditionReport:
    group_order: int
    orbit_count: int
    rows: tuple[SupergroupRow, ...]
    holds: bool                       # every strict supergroup is strictly coarser
    # verdict from the 2-closure path; None above TWO_CLOSURE_MAX_N, where
    # it is not computed
    two_closed_cross_check: bool | None

    def __post_init__(self):
        assert all(r.strict == (r.orbit_count < self.orbit_count) for r in self.rows)


def necessary_condition_check(G: PermGroup,
                              supergroups: list[PermGroup] | None = None,
                              ) -> NecessaryConditionReport:
    """Check the strict orbit-count drop over strict supergroups.

    With no explicit list, single-extension closures are enumerated
    (sufficient, by monotonicity).  The verdict is cross-checked against
    the 2-closure computation, which must agree with the enumeration; the
    2-closure is computed only for n <= TWO_CLOSURE_MAX_N, so explicit
    supergroups beyond that are checked without it.
    """
    base = orbit_count_squared(G)
    enumerated = supergroups is None
    if enumerated:
        supergroups = enumerate_supergroups(G)
    rows = []
    holds = True
    for H in supergroups:
        if H.n != G.n:
            raise ValueError("supergroup acts on a different point count")
        if H.order <= G.order or not G.is_subgroup_of(H):
            raise ValueError("listed group is not a strict supergroup")
        count = orbit_count_squared(H)
        strict = count < base
        if not strict:
            holds = False
        # the first element of H's breadth-first listing outside G
        hint = next(h.cycle_string() for h in H.generators if h not in G)
        rows.append(SupergroupRow(order=H.order, orbit_count=count,
                                  strict=strict, generator_hint=hint))
    cross = is_two_closed(G).is_two_closed if G.n <= TWO_CLOSURE_MAX_N else None
    if enumerated and holds != cross:
        raise AssertionError(
            "supergroup scan and 2-closure disagree on the verdict")
    return NecessaryConditionReport(group_order=G.order, orbit_count=base,
                                    rows=tuple(rows), holds=holds,
                                    two_closed_cross_check=cross)


# ------------------------------------------------------- separating function

@dataclass
class SeparatingFunction:
    """A sum of bumps centered on the G-orbit of the base point.

    Evaluates to 1 on the G-orbit of the base point and 0 on the rest of
    the H-orbit.  It is invariant under G, so it equals its own group
    average: g permutes the centers and keeps distances.
    """

    G: PermGroup
    H: PermGroup
    x0: np.ndarray
    centers: np.ndarray          # the G-orbit of x0, |G| x n
    radius: float
    witness: Permutation         # an element of H with h.x0 outside G.x0
    g_orbit_size: int
    h_orbit_size: int

    def bump(self, y: np.ndarray) -> float:
        """Sum of radial cubic-smoothstep bumps centered on the G-orbit."""
        d = np.sqrt(((self.centers - y) ** 2).sum(axis=1))
        u = np.clip(d / self.radius, 0.0, 1.0)
        return float((1.0 - (3.0 * u**2 - 2.0 * u**3)).sum())

    def __call__(self, x) -> float:
        return self.bump(np.asarray(x, dtype=np.float64))


def separating_function(G: PermGroup, H: PermGroup, x0) -> SeparatingFunction:
    """Construct a continuous function invariant under G but not under H.

    Needs G strictly inside H and a base point with pairwise distinct
    coordinates so the orbit sizes equal the group orders.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (G.n,):
        raise ValueError(f"x0 must have shape ({G.n},)")
    if len(set(x0.tolist())) != G.n:
        raise ValueError("x0 needs pairwise distinct coordinates")
    if G.n != H.n or not G.is_subgroup_of(H) or H.order <= G.order:
        raise ValueError("need G strictly contained in H")

    g_orbit = {tuple(g.apply_vector(x0)) for g in G}
    h_orbit = {tuple(h.apply_vector(x0)) for h in H}
    assert len(g_orbit) == G.order and len(h_orbit) == H.order
    witness = next(h for h in H
                   if tuple(h.apply_vector(x0)) not in g_orbit)

    pts = np.array(sorted(h_orbit))
    dmin = np.inf
    for i in range(len(pts)):
        d = np.sqrt(((pts[i + 1:] - pts[i]) ** 2).sum(axis=1))
        if d.size:
            dmin = min(dmin, float(d.min()))
    centers = np.array(sorted(g_orbit))
    return SeparatingFunction(G=G, H=H, x0=x0, centers=centers,
                              radius=dmin / 3.0, witness=witness,
                              g_orbit_size=len(g_orbit),
                              h_orbit_size=len(h_orbit))
