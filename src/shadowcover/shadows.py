"""Shadow-covering verdicts over directions and d-subspaces.

The universal quantifier "for every d-dimensional subspace" is approximated
by deterministic direction grids (hyperplane shadows in R^2/R^3), Haar
samples elsewhere, and local refinement around the worst samples.  Verdicts
are labeled with their sample counts; the only complete finite procedures
are the vertex-subset witnesses and the simplex edge criterion.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .bodies import (
    Polytope,
    _unit_frame,
    affine_dim,
    affine_frame,
    canonicalize,
    linear_image,
    project,
)
from .containment import FitResult, _unit_translation, scale_fit
from .core import (
    TOL_FEAS,
    TOL_GEOM,
    Subspace,
    _subspace_rows,
    direction_grid,
    haar_subspaces,
    hyperplane_basis,
    orthonormalize,
    unit,
)

COVERS = "covers"
FAILS = "fails"
_LIFT_DIRECTIONS = 64   # of flat_lift_check's support domination, for d >= 2


@dataclass(frozen=True, eq=False)
class ShadowReport:
    """Sampled approximation of the all-subspaces covering quantifier."""

    d: int
    samples: int
    min_sigma: float
    argmin: Subspace | None
    verdict: str
    borderline_count: int
    sigmas: np.ndarray
    bases: list[np.ndarray]


def shadow_fit(k: Polytope, l: Polytope, s: Subspace) -> FitResult:
    """Scale fit of the two shadows on a common subspace."""
    if k.vertices.shape[1] != l.vertices.shape[1]:
        raise ValueError("bodies must share an ambient dimension")
    return scale_fit(project(k, s), project(l, s))


def sweep_sigmas(k: Polytope, l: Polytope, subspaces: Sequence[Subspace]) -> np.ndarray:
    """Shadow scale fit of (K, L) on each subspace; inf for a point shadow."""
    return np.array([shadow_fit(k, l, s).sigma for s in subspaces], dtype=np.float64)


@lru_cache(maxsize=8)
def _hyperplane_grid(n: int, count: int) -> tuple[Subspace, ...]:
    """The hyperplanes normal to direction_grid(n, count); subspaces are
    immutable, so every sweep of that size shares them."""
    return tuple(Subspace(hyperplane_basis(u)) for u in direction_grid(n, count))


def sweep_subspaces(n: int, d: int, count: int,
                    rng: np.random.Generator | None = None) -> tuple[Subspace, ...]:
    """Subspace sample for a sweep: a deterministic direction grid of
    hyperplanes for d = n-1 in R^2/R^3, else the rows of one Haar stack
    from rng, which haar_subspaces has checked, wrapped with no second check."""
    if d == n - 1 and n in (2, 3):
        return _hyperplane_grid(n, count)
    if rng is None:
        rng = np.random.default_rng(0)
    return _subspace_rows(haar_subspaces(n, d, count, rng))


def shadow_sweep(k: Polytope, l: Polytope, d: int, count: int = 1000,
                 rng: np.random.Generator | None = None) -> ShadowReport:
    """Evaluate shadow_fit over the subspaces of sweep_subspaces: hyperplanes
    along a direction grid for d = n-1 in R^2/R^3, where rng is unused, and
    count Haar samples from rng (seed 0 when None) otherwise.

    Verdict: "fails" iff some sample has sigma < 1 - TOL_GEOM, otherwise
    "covers".  Samples inside the band |sigma - 1| <= TOL_GEOM are counted
    as borderline.  Point shadows of K have sigma = inf and so cover.
    """
    n = k.dim
    if not (1 <= d < n):
        raise ValueError(f"need 1 <= d < {n}, got {d}")
    if count < 1:
        raise ValueError(f"need at least 1 sample, got {count}")
    subs = sweep_subspaces(n, d, count, rng=rng)
    sigmas = sweep_sigmas(k, l, subs)
    min_sigma = float(sigmas.min(initial=math.inf))
    return ShadowReport(
        d=d,
        samples=len(subs),
        min_sigma=min_sigma,
        argmin=subs[int(np.argmin(sigmas))] if subs else None,
        verdict=FAILS if min_sigma < 1.0 - TOL_GEOM else COVERS,
        borderline_count=int(np.sum(np.abs(sigmas - 1.0) <= TOL_GEOM)),
        sigmas=sigmas,
        bases=[s.basis for s in subs],
    )


def refine_min_margin(k: Polytope, l: Polytope, d: int, start: Subspace,
                      steps: int = 50,
                      rng: np.random.Generator | None = None) -> tuple[Subspace, float]:
    """Local descent of sigma over the Grassmannian from a starting subspace.

    Random basis perturbations with accept-on-decrease and step halving on
    rejection; the returned sigma never exceeds the starting one.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = k.dim
    current = start
    sigma = shadow_fit(k, l, current).sigma
    step = 0.25
    for _ in range(steps):
        cand_basis = current.basis + step * rng.standard_normal((n, d))
        try:
            cand = orthonormalize(cand_basis)
        except ValueError:
            step = max(step * 0.5, 1e-7)
            continue
        s = shadow_fit(k, l, cand).sigma
        if s < sigma:
            current, sigma = cand, s
        else:
            step = max(step * 0.5, 1e-7)
    return current, sigma


def simplex_edge_directions(t: Polytope) -> np.ndarray:
    """Unit edge directions of a simplex, from its unit frame, deduplicated up to sign."""
    v = _unit_frame(t.vertices)[0]
    dirs = []
    for i, j in combinations(range(v.shape[0]), 2):
        e = unit(v[i] - v[j])
        lead = np.nonzero(np.abs(e) > 1e-12)[0][0]
        if e[lead] < 0:
            e = -e
        if not any(np.allclose(e, d, atol=1e-12) for d in dirs):
            dirs.append(e)
    return np.array(dirs)


def simplex_edge_criterion(q: Polytope, t: Polytope) -> bool:
    """Complete finite test: Q translates into the simplex T iff every
    hyperplane shadow along an edge direction of T covers Q's shadow.

    Valid when T is an n-simplex and Q has at most n canonical vertices; at
    the maximal inscription some vertex of the scaled Q must sit on a ridge
    of T, which the shadow along the complementary edge detects exactly.
    """
    n = t.dim
    tc = canonicalize(t)
    if tc.nverts != n + 1 or affine_dim(tc) != n:
        raise ValueError(f"T must be a full-dimensional simplex with {n + 1} vertices")
    qc = canonicalize(q)
    if qc.nverts > n:
        raise ValueError(f"Q may have at most {n} vertices, got {qc.nverts}")
    subs = [Subspace(hyperplane_basis(e)) for e in simplex_edge_directions(tc)]
    return bool(sweep_sigmas(qc, tc, subs).min() >= 1.0 - TOL_GEOM)


@dataclass(frozen=True, eq=False)
class ObliqueReport:
    """Per-direction covering verdicts before and after a nonsingular map."""

    sigma_orig: float
    sigma_mapped: float
    verdict_orig: bool
    verdict_mapped: bool
    agrees: bool
    borderline: bool
    mapped_direction: np.ndarray


def oblique_equivalence_check(k: Polytope, l: Polytope, m, u) -> ObliqueReport:
    """Compare hyperplane-shadow covering along u with covering along the
    mapped direction for the transformed bodies.

    A nonsingular map psi sends the line family parallel to u onto the
    family parallel to psi(u), so verdict (and scale) are preserved; the
    check evaluates both sides directly.  A map counts as singular when its
    least singular value is at most TOL_FEAS times its largest.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (k.dim, k.dim):
        raise ValueError("transformation must be square in the ambient dimension")
    if not (sv := np.linalg.svd(m, compute_uv=False))[-1] > TOL_FEAS * sv[0]:
        raise ValueError("singular transformation")
    u = unit(u)
    u_tilde = unit(m @ u)
    s1 = Subspace(hyperplane_basis(u))
    s2 = Subspace(hyperplane_basis(u_tilde))
    sig1 = shadow_fit(k, l, s1).sigma
    sig2 = shadow_fit(linear_image(k, m), linear_image(l, m), s2).sigma
    v1 = sig1 >= 1.0 - TOL_GEOM
    v2 = sig2 >= 1.0 - TOL_GEOM
    borderline = min(abs(sig1 - 1.0), abs(sig2 - 1.0)) <= 10.0 * TOL_GEOM
    return ObliqueReport(sig1, sig2, v1, v2, v1 == v2, borderline, u_tilde)


@dataclass(frozen=True, eq=False)
class FlatLiftReport:
    """Ambient shadow covering for coplanar bodies, lifted from their flat."""

    applicable: bool
    holds: bool | None
    sigma_inflat: float
    sigma_ambient: float
    support_dominates: bool | None
    translation: np.ndarray | None


def flat_lift_check(k: Polytope, l: Polytope, eta: Subspace) -> FlatLiftReport:
    """Verify that in-flat shadow covering lifts to an ambient subspace eta.

    Projects eta into the bodies' common flat, their joint ``affine_frame``,
    as eta_hat, finds the translation aligning K's and L's shadows on
    eta_hat, then checks both the ambient shadow fit and the pointwise
    support-function domination the lift argument rests on, within
    10 TOL_GEOM times L's extent.  Raises when K and L span the ambient
    space.
    """
    _, frame, flat_dim = affine_frame(np.vstack([k.vertices, l.vertices]))
    n = k.dim
    if flat_dim >= n:
        raise ValueError("bodies span the ambient space; nothing to lift")
    if eta.n != n:
        raise ValueError("eta must live in the ambient space")
    vbasis = frame[:, :flat_dim]

    # project eta into the flat (as a set of directions, singular values <= 1)
    proj = vbasis @ (vbasis.T @ eta.basis)
    u_p, sv, _ = np.linalg.svd(proj, full_matrices=False)
    eta_hat_dim = int(np.sum(sv > 1e3 * TOL_FEAS))

    sigma_ambient = shadow_fit(k, l, eta).sigma

    if eta_hat_dim == 0:
        # eta orthogonal to the flat: both shadows are single points
        return FlatLiftReport(True, sigma_ambient >= 1.0 - TOL_GEOM, math.inf,
                              sigma_ambient, True, np.zeros(n))

    eta_hat = Subspace(u_p[:, :eta_hat_dim])  # ambient orthonormal basis inside the flat
    k_shadow = project(k, eta_hat)
    l_shadow = project(l, eta_hat)
    inflat_fit = scale_fit(k_shadow, l_shadow)
    sigma_inflat = inflat_fit.sigma
    applicable = sigma_inflat >= 1.0 - TOL_GEOM
    if not applicable:
        return FlatLiftReport(False, None, sigma_inflat, sigma_ambient, None, None)

    # in-flat normalization translate: K_eta_hat + v inside L_eta_hat
    v = _unit_translation(k_shadow, l_shadow, inflat_fit)
    w = eta_hat.basis @ v  # lift back to an ambient vector inside the flat

    # support domination along eta for the normalized bodies
    dirs = _subspace_directions(eta).T
    slack = 10.0 * TOL_GEOM * _unit_frame(l.vertices)[2]
    support_ok = bool(np.all(((k.vertices + w) @ dirs).max(axis=0)
                             <= (l.vertices @ dirs).max(axis=0) + slack))
    holds = sigma_ambient >= 1.0 - TOL_GEOM
    return FlatLiftReport(True, holds, sigma_inflat, sigma_ambient, support_ok, w)


def _subspace_directions(s: Subspace) -> np.ndarray:
    """Deterministic unit directions spanning a subspace."""
    if s.d == 1:
        b = s.basis[:, 0]
        return np.array([b, -b])
    if s.d in (2, 3):
        return direction_grid(s.d, _LIFT_DIRECTIONS) @ s.basis.T
    rng = np.random.default_rng(0)
    g = rng.standard_normal((_LIFT_DIRECTIONS, s.d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return g @ s.basis.T
