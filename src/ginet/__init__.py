"""Invariant networks over permutation groups.

Orbit-based bases for invariant polynomials and equivariant linear
layers, a constructive network that approximates any invariant
polynomial, and executable verifiers for the structural facts the
construction rests on (alternating/symmetric layer coincidence, the
Vandermonde obstruction, 2-closure, and the strict orbit-count
condition for first-order universality).

The pipeline runs permgroup, orbits, polybasis, equivlayers, rows and
net; analysis holds the verifiers and cli the command line.  oracles
holds the reference forms that only the tests use.  Import names from
their modules: the package itself holds only __version__ and
layer_classes.
"""

from .orbits import layer_classes

__version__ = "0.1.0"
