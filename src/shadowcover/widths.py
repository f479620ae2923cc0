"""Mean width and diameter numerics.

W(K) = (2 / (n omega_n)) * integral of h_K over the unit sphere, which a
Monte Carlo average of 2 h_K(u) estimates directly.  Exact closed forms back
the estimator in the plane (perimeter / pi) and in R^3 (edge lengths times
exterior dihedral angles over 4 pi, each angle the one between the unit
normals of the edge's two facets in the body's hull skeleton), and the
Grassmannian average of planar shadow widths must reproduce the spatial
value (Kubota consistency).  A planar body's perimeter sums the edges of
its monotone-chain hull (``planar_hull``).  A Kubota check reads every
shadow's perimeter off the same skeleton as the exact width: a shadow's
boundary is the projection of the body's silhouette edges, those whose two
facets face opposite ways along the plane's normal, so all the shadows'
perimeters are one masked sum over the edges, with no hull walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import Polytope, _unit_frame, affine_dim, canonicalize, diameter, planar_hull
from .containment import scale_fit, subset_witness, translate_fits
from .core import TOL_GEOM, _haar_columns, direction_grid

@dataclass(frozen=True, eq=False)
class MeanWidthEstimate:
    value: float
    stderr: float
    samples: int


def mean_width_mc(k: Polytope, n_samples: int, rng: np.random.Generator) -> MeanWidthEstimate:
    """Monte Carlo mean width: 2 * mean of h_K over uniform unit directions.

    The sphere-area factor cancels against the normalization, leaving the
    direction average of twice the support function; the standard error of
    that average is reported alongside.
    """
    if n_samples < 1000:
        raise ValueError("mean width MC needs at least 1000 samples")
    g = rng.standard_normal((n_samples, k.dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    h = np.max(k.vertices @ g.T, axis=0)
    value = 2.0 * float(h.mean())
    stderr = 2.0 * float(h.std(ddof=1)) / math.sqrt(n_samples)
    return MeanWidthEstimate(value, stderr, n_samples)


def mean_width_exact(k: Polytope) -> float:
    """Closed-form mean width for full-dimensional bodies in R^2 or R^3.

    Plane: perimeter / pi (Cauchy), the edge lengths of the monotone-chain
    hull (``planar_hull``) summed; it drops no point by a collinearity
    tolerance, which would cut a corner a rounding-level step from another
    short by that step.  Space: sum of edge length times
    exterior dihedral angle, divided by 4 pi, over the edges of the body's
    hull skeleton (built on this first read of it, from the facet record);
    each angle is the one between the unit outward normals of the edge's
    two facets.
    """
    n = k.dim
    if n == 2:
        if affine_dim(k) != 2:
            raise ValueError("exact mean width needs a full-dimensional body")
        xy = k.vertices[planar_hull(k.vertices, 0.0)]
        return float(np.add.reduce(np.hypot(*(np.roll(xy, -1, axis=0) - xy).T))) / math.pi
    if n == 3:
        if (skeleton := k._skeleton) is None:
            raise ValueError("exact mean width needs a full-dimensional body")
        length = np.linalg.norm(np.subtract(*k.vertices[skeleton.edges.T]), axis=1)
        return float(length @ skeleton.angles) / (4.0 * math.pi)
    raise ValueError("exact mean width implemented for n in {2, 3} only")


@dataclass(frozen=True, eq=False)
class KubotaReport:
    width_exact: float
    width_projected_mean: float
    stderr: float
    rel_error: float
    samples: int


def _silhouette_perimeters(k: Polytope, q: np.ndarray) -> np.ndarray:
    """Perimeters of the shadows of a full body k in R^3 on the planes of
    the (2, 3, S) basis columns q, from the edges of its hull skeleton.

    A shadow's boundary is the projection of k's silhouette edges: the
    edges whose two facets face opposite ways along the plane's normal
    u = q_0 x q_1, by the sign a.u > 0.  That rule is exact at ties: either
    side of a facet with a.u = 0 projects once onto the segment that the
    facet projects to.  So each perimeter is the sum of the lengths of the
    silhouette edges' projections, taken from their two coordinates d.q_0
    and d.q_1, which keep their digits on edges nearly along u.

    A missing or extra edge would move a Kubota check's two sides alike, as
    both read these edges, so the edge set is proved first: V - E + F = 2,
    and every facet is bounded by at least 3 edges; otherwise ValueError.
    """
    skeleton = k._skeleton
    faces, normals = skeleton.faces, skeleton.normals
    if (len(skeleton.extreme) - len(faces) + len(normals) != 2
            or np.bincount(faces.ravel(), minlength=len(normals)).min() < 3):
        raise ValueError("the hull skeleton's edges do not bound its facets")
    q0, q1 = q
    u = np.array([q0[1] * q1[2] - q0[2] * q1[1], q0[2] * q1[0] - q0[0] * q1[2],
                  q0[0] * q1[1] - q0[1] * q1[0]])
    side = normals @ u > 0.0
    cut = side[faces[:, 0]] != side[faces[:, 1]]
    d = np.subtract(*k.vertices[skeleton.edges.T])
    x, y = d @ q0, d @ q1
    x *= x   # in place: fresh (E, S) temporaries took longer than the arithmetic
    y *= y
    x += y
    np.sqrt(x, out=x)
    x *= cut
    return np.add.reduce(x, axis=0)


def kubota_check(k: Polytope, n_subspaces: int, rng: np.random.Generator) -> KubotaReport:
    """Compare the spatial mean width against the Haar average of planar
    shadow mean widths over sampled 2-subspaces.  The bases are drawn as
    their (2, 3, n_subspaces) columns q, and every shadow's perimeter is
    read off the canonical body's silhouette edges
    (``_silhouette_perimeters``): no Subspace, shadow or planar hull is
    built.  One hull serves the flatness test, the canonical body, its width
    and its shadows: the facet record the first, and the skeleton derived
    from it the others."""
    if n_subspaces < 2:
        raise ValueError(f"Kubota check needs at least 2 subspaces, got {n_subspaces}")
    if k.dim != 3 or k._hull_record is None:
        raise ValueError("Kubota check needs a full-dimensional body in R^3")
    kc = canonicalize(k)
    w3 = mean_width_exact(kc)
    vals = _silhouette_perimeters(kc, _haar_columns(3, 2, n_subspaces, rng)) / math.pi
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1)) / math.sqrt(n_subspaces)
    return KubotaReport(w3, mean, stderr, abs(mean - w3) / abs(w3), n_subspaces)


@dataclass(frozen=True, eq=False)
class CorollaryReport:
    """Numeric evaluation of the same-diameter and same-mean-width criteria."""

    triangle_condition: bool
    diameter_k: float
    diameter_l: float
    diameters_equal: bool
    width_k: float
    width_l: float
    widths_equal: bool
    diameter_applicable: bool
    diameter_holds: bool | None
    width_applicable: bool
    width_holds: bool | None


def corollary_checks(k: Polytope, l: Polytope, d: int, samples: int = 256) -> CorollaryReport:
    """Evaluate the diameter and mean-width containment criteria.

    Hypotheses: every triangle in K translates into L (checked by the
    3-vertex subset witness over canonical vertices), plus equality of
    diameters or mean widths within TOL_GEOM times L's extent.  Conclusions:
    L contains a translate of K, respectively K and L are translates (fits
    both ways and matched support functions on a direction grid).  Instances
    violating a hypothesis are reported not applicable, never failed.
    """
    if d < 2:
        raise ValueError("the corollaries need shadow dimension d >= 2")
    kc = canonicalize(k)
    lc = canonicalize(l)
    scale_ref = _unit_frame(lc.vertices)[2]
    triangle_ok = subset_witness(kc, lc, 3) is None
    dk, dl = diameter(kc), diameter(lc)
    wk, wl = mean_width_exact(kc), mean_width_exact(lc)
    diam_eq = abs(dk - dl) <= TOL_GEOM * scale_ref
    width_eq = abs(wk - wl) <= TOL_GEOM * scale_ref

    diameter_applicable = triangle_ok and diam_eq
    diameter_holds = None
    if diameter_applicable:
        diameter_holds, _ = translate_fits(kc, lc)

    width_applicable = triangle_ok and width_eq
    width_holds = None
    if width_applicable:
        width_holds = _are_translates(kc, lc, samples, scale_ref)

    return CorollaryReport(
        triangle_condition=triangle_ok,
        diameter_k=dk, diameter_l=dl, diameters_equal=diam_eq,
        width_k=wk, width_l=wl, widths_equal=width_eq,
        diameter_applicable=diameter_applicable, diameter_holds=diameter_holds,
        width_applicable=width_applicable, width_holds=width_holds,
    )


def _are_translates(k: Polytope, l: Polytope, samples: int, scale_ref: float) -> bool:
    """Numeric translate-equality: unit fits both ways plus matched support
    functions on a direction grid after aligning (tolerance-banded, not exact)."""
    fit_kl = scale_fit(k, l)
    fit_lk = scale_fit(l, k)
    if fit_kl.degenerate or fit_lk.degenerate:
        return k.nverts == 1 and l.nverts == 1
    if abs(fit_kl.sigma - 1.0) > 10.0 * TOL_GEOM or abs(fit_lk.sigma - 1.0) > 10.0 * TOL_GEOM:
        return False
    ok, v = translate_fits(k, l)
    if not ok:
        return False
    dirs = direction_grid(k.dim, max(8, samples)).T
    gap = np.abs(((k.vertices + v) @ dirs).max(axis=0) - (l.vertices @ dirs).max(axis=0))
    return bool(gap.max() <= 100.0 * TOL_GEOM * scale_ref)
