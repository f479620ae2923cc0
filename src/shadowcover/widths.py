"""Mean width and diameter numerics.

W(K) = (2 / (n omega_n)) * integral of h_K over the unit sphere, which a
Monte Carlo average of 2 h_K(u) estimates directly.  Exact closed forms back
the estimator in the plane (perimeter / pi) and in R^3 (edge lengths times
exterior dihedral angles over 4 pi, each angle the one between the unit
normals of the edge's two facets in the body's hull record), and the
Grassmannian average of planar shadow widths must reproduce the spatial
value (Kubota consistency).  Every planar perimeter comes from one
vectorised gift-wrap kernel, which takes all the shadows of a Kubota check
in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bodies import Polytope, _unit_frame, affine_dim, canonicalize, diameter
from .containment import scale_fit, subset_witness, translate_fits
from .core import TOL_GEOM, direction_grid, haar_subspaces

# unit-ball volumes omega_n, exact pi expressions in 64-bit
BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0, 4: math.pi ** 2 / 2.0}


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


def _hull_perimeters(shadows: np.ndarray) -> np.ndarray:
    """Perimeters of the convex hulls of S planar point sets, given as an
    (S, m, 2) array, by gift wrapping (Jarvis) all of them at once.

    Each walk starts at the lowest of the leftmost points, heading down, and
    steps to the point of least left turn, the farthest of exact ties.  With
    s and c the cross and dot products of heading and step, a turn ranks by
    the pseudo-angle copysign(1 - s / (|s| + |c|), c), which falls from 2 to
    -2 as the turn goes from -pi/2 to 3 pi/2, as fine as arctan2 near 0 and
    pi; a point equal to the current one ranks -inf.  A walk closes when it
    is back at its start, within m steps; one that is not raises ValueError.
    """
    pts = np.asarray(shadows, dtype=np.float64)
    count, m, _ = pts.shape
    x, y = np.ascontiguousarray(pts.transpose(2, 1, 0))   # (m, count): long inner loops
    start = np.argmin(np.where(x == x.min(axis=0), y, np.inf), axis=0)
    cols = np.arange(count)
    cur = start.copy()
    hx, hy = np.zeros(count), np.full(count, -1.0)
    total = np.zeros(count)
    walking = np.ones(count, dtype=bool)
    for _ in range(m):
        dx = x - x[cur, cols]
        dy = y - y[cur, cols]
        s, c = hx * dy - hy * dx, hx * dx + hy * dy
        norm = np.abs(s) + np.abs(c)
        same = norm == 0.0
        rank = np.copysign(1.0 - s / (norm + same), c)
        rank[same] = -np.inf
        best = rank.max(axis=0)
        d2 = dx * dx + dy * dy
        cur = np.argmax(np.where(rank == best, d2, -1.0), axis=0)
        total += np.where(walking, np.sqrt(d2[cur, cols]), 0.0)
        hx, hy = dx[cur, cols], dy[cur, cols]
        # a set of equal points has no turn at all: its hull is the point
        walking &= (cur != start) & np.isfinite(best)
        if not walking.any():
            return total
    raise ValueError(f"{walking.sum()} of {count} planar hulls did not close in {m} steps")


def mean_width_exact(k: Polytope) -> float:
    """Closed-form mean width for full-dimensional bodies in R^2 or R^3.

    Plane: perimeter / pi (Cauchy).  Space: sum of edge length times
    exterior dihedral angle, divided by 4 pi, over the edges of the body's
    hull record; each angle is the one between the unit outward normals of
    the edge's two facets.
    """
    n = k.dim
    if n == 2:
        if affine_dim(k) != 2:
            raise ValueError("exact mean width needs a full-dimensional body")
        return float(_hull_perimeters(k.vertices[None])[0]) / math.pi
    if n == 3:
        if (hull := k._hull_record) is None:
            raise ValueError("exact mean width needs a full-dimensional body")
        length = np.linalg.norm(np.subtract(*k.vertices[hull.edges.T]), axis=1)
        return float(length @ hull.angles) / (4.0 * math.pi)
    raise ValueError("exact mean width implemented for n in {2, 3} only")


@dataclass(frozen=True, eq=False)
class KubotaReport:
    width_exact: float
    width_projected_mean: float
    stderr: float
    rel_error: float
    samples: int


def kubota_check(k: Polytope, n_subspaces: int, rng: np.random.Generator) -> KubotaReport:
    """Compare the spatial mean width against the Haar average of planar
    shadow mean widths over sampled 2-subspaces.  The canonical vertices
    are projected at once onto the (n_subspaces, 3, 2) stack of Haar bases
    that ``haar_subspaces`` returns, so no Subspace is built, and all the
    shadow perimeters come from one pass of the gift-wrap kernel.  One hull
    record serves the flatness test, the canonical body and its width."""
    if n_subspaces < 2:
        raise ValueError(f"Kubota check needs at least 2 subspaces, got {n_subspaces}")
    if k._hull_record is None:
        raise ValueError("Kubota check needs a full-dimensional body in R^3")
    kc = canonicalize(k)
    w3 = mean_width_exact(kc)
    vals = _hull_perimeters(kc.vertices @ haar_subspaces(3, 2, n_subspaces, rng)) / math.pi
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


def corollary_checks(k: Polytope, l: Polytope, d: int, samples: int = 256,
                     tol_geom: float = TOL_GEOM) -> CorollaryReport:
    """Evaluate the diameter and mean-width containment criteria.

    Hypotheses: every triangle in K translates into L (checked by the
    3-vertex subset witness over canonical vertices), plus equality of
    diameters or mean widths within tol_geom times L's extent.  Conclusions:
    L contains a translate of K, respectively K and L are translates (fits
    both ways and matched support functions on a direction grid).  Instances
    violating a hypothesis are reported not applicable, never failed.
    """
    if d < 2:
        raise ValueError("the corollaries need shadow dimension d >= 2")
    kc = canonicalize(k)
    lc = canonicalize(l)
    scale_ref = _unit_frame(lc.vertices)[2]
    triangle_ok = subset_witness(kc, lc, 3, tol_geom=tol_geom) is None
    dk, dl = diameter(kc), diameter(lc)
    wk, wl = mean_width_exact(kc), mean_width_exact(lc)
    diam_eq = abs(dk - dl) <= tol_geom * scale_ref
    width_eq = abs(wk - wl) <= tol_geom * scale_ref

    diameter_applicable = triangle_ok and diam_eq
    diameter_holds = None
    if diameter_applicable:
        diameter_holds, _ = translate_fits(kc, lc, tol_geom=tol_geom)

    width_applicable = triangle_ok and width_eq
    width_holds = None
    if width_applicable:
        width_holds = _are_translates(kc, lc, samples, tol_geom, scale_ref)

    return CorollaryReport(
        triangle_condition=triangle_ok,
        diameter_k=dk, diameter_l=dl, diameters_equal=diam_eq,
        width_k=wk, width_l=wl, widths_equal=width_eq,
        diameter_applicable=diameter_applicable, diameter_holds=diameter_holds,
        width_applicable=width_applicable, width_holds=width_holds,
    )


def _are_translates(k: Polytope, l: Polytope, samples: int, tol_geom: float,
                    scale_ref: float) -> bool:
    """Numeric translate-equality: unit fits both ways plus matched support
    functions on a direction grid after aligning (tolerance-banded, not exact)."""
    fit_kl = scale_fit(k, l)
    fit_lk = scale_fit(l, k)
    if fit_kl.degenerate or fit_lk.degenerate:
        return k.nverts == 1 and l.nverts == 1
    if abs(fit_kl.sigma - 1.0) > 10.0 * tol_geom or abs(fit_lk.sigma - 1.0) > 10.0 * tol_geom:
        return False
    ok, v = translate_fits(k, l, tol_geom=tol_geom)
    if not ok:
        return False
    dirs = direction_grid(k.dim, max(8, samples)).T
    gap = np.abs(((k.vertices + v) @ dirs).max(axis=0) - (l.vertices @ dirs).max(axis=0))
    return bool(gap.max() <= 100.0 * tol_geom * scale_ref)
