"""Translative containment and shadow covering for convex polytopes.

Decides whether one polytope contains a translate of another (and at what
maximal scale), sweeps shadow-covering questions over directions and
subspaces of the Grassmannian, and constructs certified bodies whose shadows
cover a given body's shadows while the body itself cannot be covered.
All verdicts reduce to scale fits: a closed form for intervals, a dual
simplex walk over the extreme rays of L's dual cone for planar fits, an
enumeration of those rays for every vertex-subset fit, a dual simplex walk
on (n+1)-facet bases over L's hull (one Quickhull in every dimension) for a
whole K from R^3 up (and in the plane when the planar walk fails its
check), in the one frame where L's polar points have unit second moment,
and a flat L in its own frame.  No scale fit calls the general LP solver.
A constructed inflation factor is the exact least fit over vertex subsets,
and its counterexample's exclusion is proved in rational arithmetic, with
no LP.
"""

from .bodies import Polytope, canonicalize, hyperplane_shadow, project, support, support_set
from .construct import (
    Counterexample,
    build_counterexample,
    build_counterexample_d,
    canonical_tetra_quad,
    epsilon_gap,
)
from .containment import FitResult, scale_fit, subset_witness, translate_fits
from .core import TOL_FEAS, TOL_GEOM, Subspace, direction_grid, haar_subspace, orthonormalize
from .shadows import ShadowReport, shadow_fit, shadow_sweep, simplex_edge_criterion
from .widths import kubota_check, mean_width_exact, mean_width_mc

__version__ = "0.1.0"

__all__ = [
    "TOL_FEAS",
    "TOL_GEOM",
    "Counterexample",
    "FitResult",
    "Polytope",
    "ShadowReport",
    "Subspace",
    "build_counterexample",
    "build_counterexample_d",
    "canonical_tetra_quad",
    "canonicalize",
    "direction_grid",
    "epsilon_gap",
    "haar_subspace",
    "hyperplane_shadow",
    "kubota_check",
    "mean_width_exact",
    "mean_width_mc",
    "orthonormalize",
    "project",
    "scale_fit",
    "shadow_fit",
    "shadow_sweep",
    "simplex_edge_criterion",
    "subset_witness",
    "support",
    "support_set",
    "translate_fits",
    "__version__",
]
