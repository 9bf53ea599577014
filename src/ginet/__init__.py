"""Invariant networks over permutation groups.

Orbit-based bases for invariant polynomials and equivariant linear
layers, a constructive network that approximates any invariant
polynomial, and executable verifiers for the structural facts the
construction rests on (alternating/symmetric layer coincidence, the
Vandermonde obstruction, 2-closure, and the strict orbit-count
condition for first-order universality).
"""

from .analysis import (
    ClosureReport,
    NecessaryConditionReport,
    an_sn_layer_equality,
    enumerate_supergroups,
    is_k_transitive,
    is_two_closed,
    necessary_condition_check,
    separating_function,
    two_closure,
    vandermonde_obstruction,
)
from .equivlayers import (
    EquivariantLayer,
    LayerSpace,
    concat_layers,
    down_tensor,
    layer_space,
    lift_tensor,
    monomial_factors_layer,
    random_layer,
    zero_layer,
)
from .net import (
    ExactProduct,
    GInvariantNetwork,
    IdentityProduct,
    MLP,
    TrainConfig,
    approximate_polynomial,
    build_term_network,
    build_unified,
    grad_check,
    mlp_init,
    mlp_train,
    train_product_mlp,
)
from .orbits import (
    OrbitPartition,
    equality_pattern_partition,
    layer_classes,
    orbit_count_squared,
    poly_classes,
)
from .permgroup import (
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
from .polybasis import (
    CoeffTensor,
    Polynomial,
    basis_polynomials,
    check_fixed_point,
    coeff_tensor,
    expand_in_basis,
    homogeneous_decompose,
    indicator_tensor,
    reynolds,
    vandermonde,
    vandermonde_value,
)
from .rng import SplitMix64

__version__ = "0.1.0"
