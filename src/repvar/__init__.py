"""Trace-free SU(2) representation varieties of braid-closure links.

The package computes the variety as the fixed-point set of a braid word
acting on a product of 2-spheres, estimates its component census and
dimensions numerically, computes exact knot invariants (reduced Burau /
Alexander / determinant) for cross-validation, and verifies the symplectic
structure on the ambient space: invariance of the 2-form under the action,
vanishing on the mirror-image Lagrangian, the two reference sphere pairings,
the monotonicity ratio, the fixed-point Hessian / Pfaffian identities, and
the contour-winding computation of the sphere-class pairing.

Everything computes on batched ndarrays: configurations are (..., n, 3)
arrays of class points and tangent vectors are (..., n, 3) arrays of
right-translation coefficients.  `Configuration` is the one value type; it
holds a solver component's representative and converts with `as_array`.
"""

__version__ = "0.1.0"

from .braid import (
    BraidWord,
    Configuration,
    act_array,
    check_braid_relations,
    closure_components,
    differential_arrays,
    knot_by_name,
    load_knot_table,
    parse_braid,
)

__all__ = [
    "BraidWord",
    "Configuration",
    "act_array",
    "check_braid_relations",
    "closure_components",
    "differential_arrays",
    "knot_by_name",
    "load_knot_table",
    "parse_braid",
    "__version__",
]
