"""Translate-fit and scale-fit queries, plus finite vertex-subset witnesses.

The central query: the largest t such that t*K + v fits inside L for some
translation v.  K fits in L by translation iff that maximum is at least 1
(up to the geometric tolerance band).  The method follows the dimension:

* intervals: the closed form t = width(L) / width(K);
* planar bodies: t = min over circumscribing triangles T of L, made of three
  of L's edge lines, of the fit of K in T.  These are the dual bases of the
  3-variable LP max t s.t. t*h_K(a_j) + a_j.v <= h_L(a_j) over L's edge
  normals a_j (a fixed-dimension LP, enumerated outright);
* everything else, a flat planar L, one with more than 48 edges, or a
  planar witness that fails its check: one LP over convex-combination
  variables, solved on copies of the bodies centred on their vertex means
  and scaled by L's extent.

A single-point K is the one degenerate case: its sigma is math.inf, and
callers compare sigma directly.  The unit-scale witness of a fitting pair
costs nothing more: if sigma*K + w lies in L and sigma >= 1, then so does
K + w/sigma + (1 - 1/sigma)*y for any point y of L, by convexity.

Subset witnesses make the containment equivalences decidable for polytopes:
the intersection of L - x over all x in K equals the intersection over the
canonical vertices of K alone (convexity), so Helly's theorem applies to a
finite family and checking all (k)-subsets of vertices is a complete test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import lp
from .bodies import (
    Polytope,
    canonical_vertex_indices,
    canonicalize,
    origin_interior_coefficients,
    planar_hull,
    point_in_hull,
    simplex_from_supports,
    support,
)
from .core import TOL_FEAS, TOL_GEOM

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a scale-fit query.

    sigma         maximal homothety factor t with t*K + v inside L
                  (math.inf when unconstrained, see status)
    translation   witness v at the optimum (None when degenerate)
    status        "ok", or "degenerate" when t is unbounded, which happens
                  exactly when K is a single point
    """

    sigma: float
    translation: np.ndarray | None
    status: str = STATUS_OK

    @property
    def degenerate(self) -> bool:
        return self.status == STATUS_DEGENERATE


def _scale_fit_lp(kv: np.ndarray, lv: np.ndarray, fixed_t: float | None = None):
    """Build the scale-fit LP over variables (t, v, lambda).

    Constraints: t*x_i + v = sum_j lambda_ij y_j and sum_j lambda_ij = 1 for
    each vertex x_i of K, lambda >= 0, v free, t >= 0.  With ``fixed_t`` the
    t column is dropped and the products move to the right-hand side.
    """
    mk, n = kv.shape
    ml = lv.shape[0]
    has_t = fixed_t is None
    ncols = (1 if has_t else 0) + n + mk * ml
    nrows = mk * (n + 1)
    a = np.zeros((nrows, ncols))
    b = np.zeros(nrows)
    off = 1 if has_t else 0
    for i in range(mk):
        r0 = i * (n + 1)
        if has_t:
            a[r0:r0 + n, 0] = kv[i]
        else:
            b[r0:r0 + n] = -fixed_t * kv[i]
        a[r0:r0 + n, off:off + n] = np.eye(n)
        lam0 = off + n + i * ml
        a[r0:r0 + n, lam0:lam0 + ml] = -lv.T
        a[r0 + n, lam0:lam0 + ml] = 1.0
        b[r0 + n] = 1.0
    c = np.zeros(ncols)
    if has_t:
        c[0] = 1.0
    nonneg = np.ones(ncols, dtype=bool)
    nonneg[off:off + n] = False
    return lp.LpProblem(a, b, c, nonneg)


def _affine_basis_rows(points: np.ndarray) -> list[int] | None:
    """Indices of n+1 affinely independent rows, greedily; None if flat."""
    m, n = points.shape
    chosen = [0]
    for i in range(1, m):
        if len(chosen) == n + 1:
            break
        cand = points[chosen[1:] + [i]] - points[chosen[0]]
        sv = np.linalg.svd(cand, compute_uv=False)
        if sv[-1] > 1e-9 * max(1.0, sv[0]):
            chosen.append(i)
    return chosen if len(chosen) == n + 1 else None


def _warm_scale_fit(kv: np.ndarray, lv: np.ndarray):
    """Phase-2-only simplex for the scale-fit LP from an explicit basis.

    Translating L so that a chosen vertex simplex has its centroid at the
    origin makes the uniform barycentric weights a feasible basis (all
    convexity rows satisfied with t = 0, v = 0), so the artificial phase is
    unnecessary.  Returns (sigma, v) on success, "unbounded", or None when
    the structure does not apply (degenerate L) and the caller should use
    the general solver.
    """
    mk, n = kv.shape
    ml = lv.shape[0]
    idx = _affine_basis_rows(lv)
    if idx is None:
        return None
    shift = lv[idx].mean(axis=0)
    lv2 = lv - shift
    bmat = np.vstack([-lv2[idx].T, np.ones(n + 1)])  # one block, shared by all i
    if np.linalg.cond(bmat) > 1e10:
        return None
    binv = np.linalg.inv(bmat)
    # columns: t | v+ (n) | v- (n) | lambda (mk*ml); rows: mk blocks of n+1
    ncols = 1 + 2 * n + mk * ml
    nrows = mk * (n + 1)
    T = np.zeros((nrows + 1, ncols + 1))
    basis = np.empty(nrows, dtype=np.int64)
    block_b = np.zeros(n + 1)
    block_b[n] = 1.0
    rhs_block = binv @ block_b
    lam_block = binv @ np.vstack([-lv2.T, np.ones(ml)])
    vmat = binv[:, :n]
    for i in range(mk):
        r0 = i * (n + 1)
        rows = slice(r0, r0 + n + 1)
        T[rows, 0] = binv @ np.concatenate([kv[i], [0.0]])
        T[rows, 1:1 + n] = vmat
        T[rows, 1 + n:1 + 2 * n] = -vmat
        lam0 = 1 + 2 * n + i * ml
        T[rows, lam0:lam0 + ml] = lam_block
        T[rows, -1] = rhs_block
        for r in range(n + 1):
            basis[r0 + r] = lam0 + idx[r]
    T[-1, 0] = 1.0  # reduced costs: c_B = 0, so the cost row is just c
    status = lp._run_simplex(T, basis, ncols, allow_unbounded=True,
                             max_iter=2000 + 40 * (nrows + ncols))
    if status == lp.UNBOUNDED:
        return "unbounded"
    if status != lp.OPTIMAL:
        return None
    z = np.zeros(ncols)
    z[basis] = np.maximum(T[:nrows, -1], 0.0)
    sigma = float(z[0])
    v = z[1:1 + n] - z[1 + n:1 + 2 * n] + shift
    return sigma, v


def _interval_fit(kv: np.ndarray, lv: np.ndarray) -> FitResult:
    """Scale fit of two intervals: the ratio of their widths."""
    k0, k1 = float(kv.min()), float(kv.max())
    l0, l1 = float(lv.min()), float(lv.max())
    if k1 == k0:
        return FitResult(math.inf, None, STATUS_DEGENERATE)
    sigma = (l1 - l0) / (k1 - k0)
    return FitResult(sigma, np.array([l0 - sigma * k0]), STATUS_OK)


_OUTWARD = np.array([1.0, -1.0])  # (dx, dy) reversed times this: the right-hand normal
# the enumeration holds all C(m, 3) triples of L's m edges; past this many
# edges the LP, whose size grows only linearly in m, is the lighter route
_MAX_PLANAR_EDGES = 48


@lru_cache(maxsize=16)
def _triples(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All triples i < j < k of range(m) as rows, with their two cyclic shifts."""
    t = np.array(list(combinations(range(m), 3)), dtype=np.intp).reshape(-1, 3)
    return t, t[:, [1, 2, 0]], t[:, [2, 0, 1]]


def _planar_fit(kv: np.ndarray, lv: np.ndarray) -> FitResult | None:
    """Scale fit in the plane by dual-basis enumeration; None when L is flat,
    has more than _MAX_PLANAR_EDGES edges, or the witness fails its check,
    and the caller should solve the LP.

    With unit outward edge normals a_j of L, heights b_j = h_L(a_j) and
    h_j = h_K(a_j), a dual basis is a triple y >= 0 with sum y_j a_j = 0 and
    sum y_j h_j = 1.  In the plane y is proportional to the cross products
    c = ([a_j, a_k], [a_k, a_i], [a_i, a_j]), so each triple of
    counter-clockwise normals that positively spans (c >= 0) gives the bound
    c.b / c.h, and sigma is the least of them.  Both bodies are centred on
    their own vertex means first, which keeps every term free of the bodies'
    offset and scale.
    """
    if (kv == kv[0]).all():
        return FitResult(math.inf, None, STATUS_DEGENERATE)
    # a turn this far above rounding is a true one, so every edge line of
    # the hull supports L; a dropped point moves L by a 1e-12 relative step
    hull = planar_hull(lv, tol=1e-12)
    m = len(hull)
    if not 3 <= m <= _MAX_PLANAR_EDGES:
        return None
    kc, lc = kv.sum(axis=0) / kv.shape[0], lv.sum(axis=0) / lv.shape[0]
    p = lv[hull] - lc
    edge = lv[hull[1:] + hull[:1]] - lv[hull]
    eu = edge / np.sqrt((edge * edge).sum(axis=1))[:, None]
    a = eu[:, ::-1] * _OUTWARD
    b = (a * p).sum(axis=1)
    h = (a @ (kv - kc).T).max(axis=1)
    t, t_next, t_prev = _triples(m)
    # [a_p, a_q] = eu_p . a_q; made exactly antisymmetric, so that of the two
    # triples through an antipodal pair, one always passes c >= 0
    g = eu @ a.T
    c = (0.5 * (g - g.T))[t_next, t_prev]
    num, den = (c * b[t]).sum(axis=1), (c * h[t]).sum(axis=1)
    ok = (c.min(axis=1) >= 0.0) & (den > 0.0)
    ratios = np.where(ok, num, np.inf) / np.where(ok, den, 1.0)
    best = int(ratios.argmin())
    sigma = float(ratios[best])
    if not ok[best]:
        return None
    # the triple's row of largest weight is tight at every optimum: v goes on
    # its line, mid-way along the interval that the other rows leave there
    # (one point, unless two rows of the triple are antipodal)
    r = int(t[best, c[best].argmax()])
    e = b - sigma * h
    el = e.tolist()
    nx, ny = a[r].tolist()
    x0, y0 = el[r] * nx, el[r] * ny
    lo, hi = -math.inf, math.inf
    for (ax, ay), ej in zip(a.tolist(), el):
        rate = ny * ax - nx * ay      # along the line direction (ny, -nx)
        if rate > TOL_FEAS:
            hi = min(hi, (ej - ax * x0 - ay * y0) / rate)
        elif rate < -TOL_FEAS:
            lo = max(lo, (ej - ax * x0 - ay * y0) / rate)
    tau = 0.5 * (lo + hi)
    v = np.array([x0 + tau * ny, y0 - tau * nx])
    if not (a @ v - e).max() <= TOL_FEAS * b.max():
        return None
    return FitResult(sigma, v + lc - sigma * kc, STATUS_OK)


def _lp_scale_fit(kv: np.ndarray, lv: np.ndarray) -> FitResult:
    """Scale fit by the warm-start LP, or the general LP when L is flat.

    The LP pivots under the absolute TOL_FEAS, so it runs on both bodies
    centred on their vertex means and divided by L's extent; sigma is
    invariant under that common similarity, and v maps back as
    v = s*v' + lc - sigma*kc.
    """
    kc, lc = kv.sum(axis=0) / kv.shape[0], lv.sum(axis=0) / lv.shape[0]
    s = float(np.abs(lv - lc).max()) or 1.0
    kv, lv = (kv - kc) / s, (lv - lc) / s
    warm = _warm_scale_fit(kv, lv)
    if warm == "unbounded":
        return FitResult(math.inf, None, STATUS_DEGENERATE)
    if warm is not None:
        sigma, v = warm
    else:
        out = lp.solve(_scale_fit_lp(kv, lv))
        if out.status == lp.UNBOUNDED:
            return FitResult(math.inf, None, STATUS_DEGENERATE)
        if out.status != lp.OPTIMAL:
            raise lp.LpError("scale-fit LP unexpectedly infeasible")
        sigma, v = float(out.objective), out.z[1:1 + kv.shape[1]]
    return FitResult(sigma, s * v + lc - sigma * kc, STATUS_OK)


def scale_fit(k: Polytope, l: Polytope) -> FitResult:
    """Maximal t with t*K + v inside L, and the witness translation.

    K fits in L by translation iff sigma >= 1 - TOL_GEOM.  When t is
    unbounded (K is a single point) the result is degenerate with
    sigma = inf rather than a guess.  Intervals use the closed form, planar
    pairs the dual-basis enumeration, and the rest the LP.
    """
    if k.dim != l.dim:
        raise ValueError(f"dimension mismatch: K in R^{k.dim}, L in R^{l.dim}")
    if k.dim == 1:
        return _interval_fit(k.vertices, l.vertices)
    if k.dim == 2:
        fit = _planar_fit(k.vertices, l.vertices)
        if fit is not None:
            return fit
    return _lp_scale_fit(k.vertices, l.vertices)


def _unit_translation(k: Polytope, l: Polytope, fit: FitResult) -> np.ndarray:
    """A v with K + v inside L, from a fit with sigma >= 1 - tol_geom.

    A point K moves onto a point of L.  For sigma >= 1, sigma*K + w inside L
    gives K + w/sigma + (1 - 1/sigma)*y inside L for the point y = l0, by
    convexity.  Inside the band [1 - tol_geom, 1) the optimal-scale
    translation is the witness.
    """
    if fit.degenerate:
        return l.vertices[0] - k.vertices[0]
    if fit.sigma < 1.0:
        return fit.translation
    return fit.translation / fit.sigma + (1.0 - 1.0 / fit.sigma) * l.vertices[0]


def translate_fits(k: Polytope, l: Polytope,
                   tol_geom: float = TOL_GEOM) -> tuple[bool, np.ndarray | None]:
    """Does L contain a translate of K?  Verdict at the sigma >= 1 - tol band.

    One scale fit decides; the witness v with K + v inside L follows from it
    by convexity (see _unit_translation), with no second LP.  A single-point
    K fits any nonempty L.
    """
    fit = scale_fit(k, l)
    if fit.sigma < 1.0 - tol_geom:
        return False, None
    return True, _unit_translation(k, l, fit)


def replay_fit(k: Polytope, l: Polytope, fit: FitResult) -> bool:
    """Certificate replay: every sigma*x_i + v must lie in L (point-in-hull LP)."""
    if fit.degenerate:
        return point_in_hull(l.vertices[0], l)
    return all(point_in_hull(fit.sigma * x + fit.translation, l) for x in k.vertices)


def subset_witness(k: Polytope, l: Polytope, kcount: int,
                   tol_geom: float = TOL_GEOM) -> list[int] | None:
    """Some kcount-subset of K's canonical vertices whose hull does not
    translate into L, or None when every subset fits.

    Indices refer to ``k.vertices``.  Search is lexicographic over
    combinations with early exit, so results are deterministic.
    """
    if kcount < 1:
        raise ValueError("subset size must be at least 1")
    idx = list(range(k.nverts)) if k.canonical else canonical_vertex_indices(k)
    kcount = min(kcount, len(idx))
    v = k.vertices
    for combo in combinations(idx, kcount):
        if scale_fit(Polytope(v[list(combo)]), l).sigma < 1.0 - tol_geom:
            return list(combo)
    return None


def min_subset_sigma(k: Polytope, l: Polytope, kcount: int) -> float:
    """Minimum of scale_fit over all kcount-subsets of canonical vertices.

    The margin |min - 1| quantifies how decisively the subset condition
    holds or fails; used by the randomized harnesses.
    """
    idx = list(range(k.nverts)) if k.canonical else canonical_vertex_indices(k)
    kcount = min(kcount, len(idx))
    v = k.vertices
    return min((scale_fit(Polytope(v[list(combo)]), l).sigma
                for combo in combinations(idx, kcount)), default=math.inf)


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Both routes of the inscribed-polytope containment equivalence."""

    sigma: float
    fits: bool
    witness: list[int] | None
    subset_empty: bool
    agrees: bool
    borderline: bool
    theorem_backed: bool

    @property
    def hard_failure(self) -> bool:
        return self.theorem_backed and not self.agrees and not self.borderline


def inscribed_equivalence_check(k: Polytope, l: Polytope, kcount: int,
                                context_dim: int,
                                tol_geom: float = TOL_GEOM) -> EquivalenceReport:
    """Compare subset-witness emptiness against the direct translate verdict.

    For kcount = context_dim + 1 the two verdicts must agree; a disagreement
    outside the band |sigma - 1| <= 10 * tol_geom is a hard failure.
    Borderline instances are tagged and excluded from pass/fail statistics.
    """
    kc = canonicalize(k)
    sigma = scale_fit(kc, l).sigma
    fits = sigma >= 1.0 - tol_geom
    witness = subset_witness(kc, l, kcount, tol_geom=tol_geom)
    return EquivalenceReport(
        sigma=sigma,
        fits=fits,
        witness=witness,
        subset_empty=witness is None,
        agrees=(witness is None) == fits,
        borderline=abs(sigma - 1.0) <= 10.0 * tol_geom,
        theorem_backed=(kcount == context_dim + 1),
    )


def circumscribing_simplex_witness(k: Polytope, l: Polytope, restarts: int,
                                   rng: np.random.Generator,
                                   tol_geom: float = TOL_GEOM) -> Polytope | None:
    """Heuristic search for a simplex containing L that K does not fit into.

    When K does not translate into L, such a circumscribing simplex exists
    but is non-constructive; this samples n+1 directions whose hull interior
    contains the origin, builds the simplex supporting L in those directions,
    and tests the fit.  Absence of a result is NOT a disproof.
    """
    fits, _ = translate_fits(k, l, tol_geom=tol_geom)
    if fits:
        raise ValueError("K translates into L; no circumscribing-simplex witness exists")
    n = k.dim
    for _ in range(restarts):
        dirs = rng.standard_normal((n + 1, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        if origin_interior_coefficients(dirs, tol_geom=tol_geom) is None:
            continue
        heights = np.array([support(l, u) for u in dirs])
        try:
            simplex = simplex_from_supports(dirs, heights)
        except ValueError:
            continue
        if scale_fit(k, simplex).sigma < 1.0 - tol_geom:
            return simplex
    return None
