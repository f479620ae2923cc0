"""Certified counterexamples: bodies whose shadows can be covered while the
body itself cannot.

Pipeline: pick regular unit normals at distinct exposed points whose convex
hull has the origin interior (the last normal is drawn from the negative
cone of the others, so its weights are the positive dependence that
certifies this, with no LP), materialize the circumscribing simplex those
normals support, verify that the body touches every facet away from all
ridges, then take the exact inflation factor from the paper's Theorem 2.
Applied to eps * K, it says every d-shadow of eps * K translates into the
cover's shadow iff every (d+1)-point polytope in eps * K translates into the
cover, so eps* = min_subset_sigma(K, cover, d + 1), which reads it from the
cover's dual rays with no vertex subset (see ``containment``).  The inflated
body fits through every d-shadow of the simplex but cannot fit inside it,
since the simplex is already maximally tight; the replay proves that in
rational arithmetic (``farkas_excludes_translate``).

One certification path: _emit sets epsilon a hair below eps* and runs
_certify, which alone computes the four invariants; replay_counterexample
runs _certify before its own checks.  The hyperplane engine grows the
simplex around K, full-dimensional or flat, and emits at any d; a cover
built inside K's own flat is lifted back and emitted in the ambient space.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .bodies import (
    Polytope,
    _distinct_indices,
    _unit_frame,
    affine_dim,
    affine_frame,
    body_to_dict,
    canonicalize,
    scale,
    simplex_facet_normals,
    simplex_from_supports,
    support_set,
    translate,
)
from .containment import min_subset_sigma, scale_fit, translate_fits
from .core import TOL_FEAS, TOL_GEOM, Subspace, _subspace_rows, haar_subspaces, hyperplane_basis
from .shadows import (
    COVERS,
    flat_lift_check,
    refine_min_margin,
    shadow_sweep,
    sweep_sigmas,
    sweep_subspaces,
)

# inflation factors this thin are treated as construction failures rather
# than emitted as certificates
EPSILON_FLOOR = 1e-4
_RESTARTS = 50        # normal selections a build tries
_REFINE_STEPS = 40    # per local refinement in epsilon_gap's cross-check


class ConstructionError(RuntimeError):
    """Restart budget exhausted or a hypothesis cannot be met."""


@dataclass(frozen=True, eq=False)
class NormalSelection:
    """n+1 regular unit normals at distinct exposed points of a body.

    coefficients are the positive dependence sum a_i u_i = 0, summing to 1,
    that certifies the origin interior to the hull of the normals, so the
    normals bound a genuine simplex.  The selection knows it exactly: the
    closing normal is drawn as a negative combination of the others.
    """

    normals: np.ndarray
    touch_indices: np.ndarray
    coefficients: np.ndarray

    def residual(self) -> float:
        return float(np.linalg.norm(self.coefficients @ self.normals))

    def validate(self, k: Polytope) -> bool:
        if self.residual() > TOL_FEAS:
            return False
        if np.min(self.coefficients) <= TOL_FEAS:
            return False
        touches = [int(t) for t in self.touch_indices]
        if len(set(touches)) != len(touches):
            return False
        for u, t in zip(self.normals, touches):
            if support_set(k, u) != [t]:
                return False
        return True


def _selection_pass(k: Polytope, rng: np.random.Generator, stats: dict) -> NormalSelection | None:
    n = k.dim
    chosen: list[np.ndarray] = []
    touched: list[int] = []
    budget = 80 * n
    while len(chosen) < n and budget > 0:
        budget -= 1
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        ss = support_set(k, u)
        if len(ss) != 1:
            stats["irregular"] += 1
            continue
        if ss[0] in touched:
            stats["reused_vertex"] += 1
            continue
        if chosen:
            sv = np.linalg.svd(np.vstack(chosen + [u]), compute_uv=False)
            if sv[-1] <= 1e-6:
                stats["dependent"] += 1
                continue
        chosen.append(u)
        touched.append(ss[0])
    if len(chosen) < n:
        return None
    base = np.vstack(chosen)
    # closing direction from the negative cone of the chosen normals, as the
    # spherical polar-dual argument prescribes
    for _ in range(60):
        a = rng.uniform(0.2, 1.0, n)
        u = -(a @ base)
        norm = np.linalg.norm(u)
        if norm <= 1e-12:
            continue
        u /= norm
        if np.max(base @ u) >= 0.0:
            stats["closing_rejected"] += 1
            continue
        ss = support_set(k, u)
        if len(ss) != 1 or ss[0] in touched:
            stats["irregular"] += 1
            continue
        # a @ base + norm * u = 0 by construction: the positive dependence,
        # unique up to scale as the chosen normals are independent
        coeffs = np.append(a, norm) / (a.sum() + norm)
        if coeffs.min() <= TOL_GEOM:
            stats["margin_rejected"] += 1
            continue
        return NormalSelection(np.vstack([base, u]), np.array(touched + [ss[0]]), coeffs)
    return None


def select_regular_normals(k: Polytope, rng: np.random.Generator,
                           restarts: int = 50) -> NormalSelection:
    """Rejection-sample n+1 regular unit normals at distinct exposed points
    with the origin interior to their convex hull.

    Regular directions of a polytope have full measure, so sampling
    terminates quickly.  The closing normal is u = -(a @ base) / |a @ base|
    for positive weights a, so (a, |a @ base|), normalised to sum 1, is the
    set's positive dependence in closed form; a set whose least coefficient
    is at most TOL_GEOM is rejected.  No LP is solved.  Exhausting
    the restart budget raises with the rejection statistics, never a silent
    fallback.  Requires a canonical body with at least n+1 vertices; it need
    not be full-dimensional.
    """
    n = k.dim
    if k.nverts < n + 1:
        raise ConstructionError(
            f"normal selection needs at least {n + 1} canonical vertices, got {k.nverts}")
    stats = {"restarts": 0, "irregular": 0, "reused_vertex": 0,
             "dependent": 0, "closing_rejected": 0, "margin_rejected": 0}
    for _ in range(max(1, restarts)):
        stats["restarts"] += 1
        sel = _selection_pass(k, rng, stats)
        if sel is not None:
            return sel
    raise ConstructionError(f"selection failed after {restarts} restarts: {stats}")


def circumscribe_simplex(k: Polytope, sel: NormalSelection) -> Polytope:
    """The simplex {x : x.u_i <= h_K(u_i)} in vertex representation.

    Vertex j solves the n x n system formed by the other n supporting
    hyperplanes; ill-conditioned systems raise so the caller can reselect.
    Solved in K's unit frame, so a far-off K loses no digits to its offset.
    """
    w, c, s = _unit_frame(k.vertices)
    unit = simplex_from_supports(sel.normals, (w @ sel.normals.T).max(axis=0))
    return Polytope(s * unit.vertices + c, canonical=True)


def verify_touching(k: Polytope, s: Polytope) -> bool:
    """Does K touch every facet of the simplex S at a single vertex in the
    facet's relative interior, away from every ridge?

    This is the hypothesis that keeps the inflation gap bounded away from 1:
    the touch margin demands each touching vertex stays at least TOL_GEOM
    times K's extent inside all other facets.  Equal vertices count once,
    so neither duplicates nor a similarity of the pair change the verdict.
    """
    normals, heights = simplex_facet_normals(s)
    v = k.vertices[_distinct_indices(k.vertices)]
    extent = _unit_frame(v)[2]
    margin = TOL_GEOM * extent
    vals = v @ normals.T  # (mk, n+1)
    if np.any(vals > heights[None, :] + 1e2 * TOL_FEAS * extent):
        return False  # K is not inside S at all
    for i in range(normals.shape[0]):
        touching = np.nonzero(vals[:, i] >= heights[i] - margin)[0]
        if touching.shape[0] != 1:
            return False
        x = touching[0]
        others = [j for j in range(normals.shape[0]) if j != i]
        if np.any(vals[x, others] > heights[others] - margin):
            return False
    return True


def direction_sigmas(k: Polytope, s: Polytope, directions: np.ndarray) -> np.ndarray:
    """Hyperplane-shadow scale fit of (K, S) per direction."""
    return sweep_sigmas(k, s, [Subspace(hyperplane_basis(u)) for u in directions])


def epsilon_gap(k: Polytope, s: Polytope, directions: np.ndarray,
                rng: np.random.Generator | None = None) -> float:
    """Exact inflation gap of a touching pair: the least hyperplane-shadow
    scale fit, which Theorem 2 makes min_subset_sigma(k, s, n).

    The touching hypothesis guarantees it exceeds 1.  The minimum over the
    sampled directions, sharpened by local refinement from the five smallest
    samples, is a cross-check: falling below eps* (1 - TOL_GEOM) raises
    ConstructionError.
    """
    if not verify_touching(k, s):
        raise ValueError("epsilon gap requires the touching hypothesis; verify_touching failed")
    eps = min_subset_sigma(k, s, k.dim)
    directions = np.asarray(directions, dtype=np.float64)
    sigmas = direction_sigmas(k, s, directions)
    sampled = float(np.min(sigmas))
    if rng is None:
        rng = np.random.default_rng(0)
    for idx in np.argsort(sigmas)[:5]:
        start = Subspace(hyperplane_basis(directions[idx]))
        _, refined = refine_min_margin(k, s, k.dim - 1, start, steps=_REFINE_STEPS, rng=rng)
        sampled = min(sampled, refined)
    if sampled < eps * (1.0 - TOL_GEOM):
        raise ConstructionError(f"sampled gap {sampled:.9g} is below the exact {eps:.9g}")
    return eps


@dataclass(frozen=True, eq=False)
class Counterexample:
    """A certified pair: shadows of epsilon * body fit in the cover's
    shadows, while the cover cannot contain epsilon * body."""

    body: Polytope
    cover: Polytope
    epsilon: float
    d: int
    sample_log: dict
    certificate: NormalSelection
    checks: dict
    seed: int | None = None

    def to_dict(self) -> dict:
        vectors = np.asarray(self.sample_log["vectors"])
        return {
            "body": body_to_dict(self.body),
            "cover": body_to_dict(self.cover),
            "epsilon": float(self.epsilon),
            "d": self.d,
            "seed": self.seed,
            "sample_count": int(len(self.sample_log["sigmas"])),
            "sample_log": {
                "kind": self.sample_log["kind"],
                "vector_shape": list(vectors.shape),
                "vectors": vectors.reshape(vectors.shape[0], -1).tolist(),
                "sigmas": [float(x) for x in self.sample_log["sigmas"]],
            },
            "certificate": {
                "normals": self.certificate.normals.tolist(),
                "touch_indices": [int(t) for t in self.certificate.touch_indices],
                "coefficients": [float(a) for a in self.certificate.coefficients],
            },
            "checks": {key: bool(val) for key, val in self.checks.items()},
        }


def farkas_excludes_translate(body: Polytope, cover: Polytope,
                              factor: float) -> bool:
    """Is there an exact certificate that no translate of factor * body lies
    in the cover?  False for a cover that is not a simplex.

    The barycentric coordinates of a simplex p_0, ..., p_k (k <= n, so a
    cover lifted into a flat counts) sum to 1 everywhere: lambda_j = mu_j
    and lambda_0 = 1 - sum_j mu_j, where mu(x) = G^-1 E^T (x - p_0) is the
    dual basis of the edges E = [p_j - p_0], through their Gram matrix G.
    If factor * body + v lies in the simplex, the all-ones dual ray sums
    lambda_f(factor x_f + v) >= 0 over any body points x_f to
    1 - factor * D >= 0, D = sum_j (mu_j(x_0) - mu_j(x_j)); so factor * D > 1
    certifies exclusion.  The x_f are the body points of least lambda_f in
    floats, where D = 1 / sigma, and D is worked in fractions.Fraction.
    """
    p = cover.vertices
    k = len(p) - 1
    if not 1 <= k <= cover.dim:
        return False
    mu = np.linalg.lstsq((p[1:] - p[0]).T, (body.vertices - p[0]).T, rcond=None)[0]
    x = [[Fraction(c) for c in body.vertices[i].tolist()]
         for i in [int(mu.sum(axis=0).argmax())] + mu.argmin(axis=1).tolist()]
    q = [[Fraction(c) for c in row] for row in p.tolist()]
    e = [[a - b for a, b in zip(row, q[0])] for row in q[1:]]
    # [G | R] with column j of R = E^T (x_0 - x_j): D is the trace of G^-1 R
    rows = [[sum(map(mul, ei, ej)) for ej in e] +
            [sum(c * (a - b) for c, a, b in zip(ei, x[0], xj)) for xj in x[1:]] for ei in e]
    for j in range(k):   # Gauss-Jordan: G is singular exactly when p is no simplex
        i = next((i for i in range(j, k) if rows[i][j]), None)
        if i is None:
            return False
        rows[i], rows[j] = rows[j], [a / rows[i][j] for a in rows[i]]
        rows = [r if t == j else [a - r[j] * b for a, b in zip(r, rows[j])]
                for t, r in enumerate(rows)]
    return Fraction(factor) * sum(rows[j][k + j] for j in range(k)) > 1


def _certify(body: Polytope, cover: Polytope, eps: float, d: int, sweep_count: int) -> dict:
    """The four invariants of a counterexample, computed from scratch.

    The cover circumscribes the body (scale fit 1), epsilon exceeds 1, no
    translate of epsilon * body fits in the cover, and the sampled d-shadow
    sweep of epsilon * body covers.  Construction and replay both call it.
    """
    inflated = scale(body, eps)
    fits, _ = translate_fits(inflated, cover)
    sweep = shadow_sweep(inflated, cover, d, count=sweep_count)
    fit = scale_fit(body, cover)
    return {
        "circumscribes": abs(fit.sigma - 1.0) <= 10.0 * TOL_GEOM,
        "epsilon_gt_one": eps > 1.0 + TOL_GEOM,
        "translate_excluded": not fits,
        "sweep_covers": sweep.verdict == COVERS,
    }


def replay_counterexample(ce: Counterexample, sweep_count: int = 1000) -> dict:
    """Re-run every invariant of an emitted counterexample from scratch: the
    four of construction, the exact exclusion certificate, epsilon against
    the exact eps* recomputed from the cover's dual rays, the sample log
    (every sample is at least eps*, so it cross-checks the exact value) and
    the normal selection."""
    checks = _certify(ce.body, ce.cover, ce.epsilon, ce.d, sweep_count)
    checks["farkas_backed"] = farkas_excludes_translate(ce.body, ce.cover, ce.epsilon)
    checks["epsilon_leq_exact"] = ce.epsilon <= min_subset_sigma(ce.body, ce.cover, ce.d + 1)
    checks["log_min_geq_epsilon"] = float(np.min(ce.sample_log["sigmas"])) >= ce.epsilon - TOL_GEOM
    checks["certificate_valid"] = ce.certificate.validate(ce.body)
    return checks


def _as_rng(rng) -> tuple[np.random.Generator, int | None]:
    if rng is None:
        return np.random.default_rng(0), 0
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng)), int(rng)
    return rng, None


def _build_touching_counterexample(
        kc: Polytope, rng: np.random.Generator,
        emit: Callable[[Polytope, NormalSelection], Counterexample]) -> Counterexample:
    """Hyperplane engine: normals -> simplex -> touching -> emit.

    Needs at least n+1 canonical vertices; full dimensionality is not needed,
    because the facet-interior touching argument never uses it.  emit turns
    the simplex and its selection into a counterexample, or raises
    ConstructionError, and then a fresh selection is tried.
    """
    last_error = "no attempt succeeded"
    for _ in range(_RESTARTS):
        try:
            sel = select_regular_normals(kc, rng, restarts=1)
        except ConstructionError as exc:
            last_error = str(exc)
            continue
        try:
            simplex = circumscribe_simplex(kc, sel)
        except ValueError as exc:
            last_error = f"circumscription failed: {exc}"
            continue
        if not verify_touching(kc, simplex):
            last_error = "touching hypothesis failed; reselecting"
            continue
        try:
            return emit(simplex, sel)
        except ConstructionError as exc:
            last_error = str(exc)
    raise ConstructionError(f"counterexample construction failed: {last_error}")


def build_counterexample(k: Polytope, rng=None, directions: int = 1200,
                         sweep_count: int = 1000) -> Counterexample:
    """Counterexample for a full-dimensional body with >= n+1 vertices.

    Emits a simplex circumscribing K and an inflation factor epsilon > 1,
    a hair below the exact eps* of Theorem 2, such that every hyperplane
    shadow of epsilon * K fits inside the simplex's shadow while
    epsilon * K itself cannot fit (the facet walk's verdict, and an exact
    certificate in the replay).  directions sizes the logged sample sweep,
    which the replay reads as a cross-check of eps*.
    """
    kc = canonicalize(k)
    if affine_dim(kc) != kc.dim:
        raise ValueError(
            "body is not full-dimensional; use build_counterexample_d for flat bodies")
    return build_counterexample_d(kc, kc.dim - 1, rng, directions, sweep_count)


def build_counterexample_d(k: Polytope, d: int, rng=None, directions: int = 1200,
                           sweep_count: int = 1000, lift_checks: int = 100) -> Counterexample:
    """Counterexample whose d-dimensional shadows cover those of K.

    The cover lives in a flat of dimension n' = max(dim K, d+1).  When
    n' = n the circumscribing simplex is grown around K in the ambient
    space (K may be flat).  When n' < n the construction runs inside an
    n'-flat through K and the cover is lifted back, with the lift checked
    on sampled d-subspaces.  Either way epsilon sits a hair below the exact
    eps*_d = min_subset_sigma(K, cover, d + 1).  Since a (d+1)-subset fits
    no worse than the n-subsets that contain it, eps*_d is at least the
    hyperplane value eps*_{n-1}, so the emitted epsilon can exceed the one
    of a hyperplane build on the same cover; both are valid.  directions
    sizes the logged sample sweep.  Needs at least d+2 canonical vertices.
    """
    generator, seed = _as_rng(rng)
    kc = canonicalize(k)
    n = kc.dim
    if not (1 <= d <= n - 1):
        raise ValueError(f"need 1 <= d <= {n - 1}, got {d}")
    if kc.nverts < d + 2:
        raise ValueError(
            f"the hypothesis needs at least d+2 = {d + 2} canonical vertices, got {kc.nverts}")
    p0, frame, rank = affine_frame(kc.vertices)
    nprime = max(rank, d + 1)
    if nprime == n:
        return _build_touching_counterexample(
            kc, generator,
            lambda simplex, sel: _emit(kc, simplex, d, sel, seed, generator, directions,
                                       sweep_count))

    frame = frame[:, :nprime]  # hull directions first, arbitrary padding after
    k_flat = canonicalize(Polytope((kc.vertices - p0) @ frame))
    lift_subs = _subspace_rows(haar_subspaces(n, d, lift_checks, generator))

    def emit_lifted(simplex: Polytope, sel: NormalSelection) -> Counterexample:
        cover = Polytope(simplex.vertices @ frame.T + p0, canonical=True)
        certificate = NormalSelection(sel.normals @ frame.T, sel.touch_indices,
                                      sel.coefficients)
        return _emit(kc, cover, d, certificate, seed, generator, directions, sweep_count,
                     lift_subs)

    return _build_touching_counterexample(k_flat, generator, emit_lifted)


def _emit(body: Polytope, cover: Polytope, d: int, certificate: NormalSelection,
          seed: int | None, rng: np.random.Generator, directions: int, sweep_count: int,
          lift_subs: tuple[Subspace, ...] = ()) -> Counterexample:
    """Emit a counterexample at shadow dimension d of the body's ambient space.

    Epsilon is eps* (1 - 2 TOL_GEOM) with eps* = min_subset_sigma(body,
    cover, d + 1), the least d-shadow sigma: at eps* itself a sample near
    the minimizing subspace would land in the borderline band, not in
    "covers".  Each lift subspace must pass flat_lift_check, and then
    _certify decides.  The log holds sigma on the sweep_subspaces sample of
    size directions and on the lift subspaces; each is at least eps*.
    """
    eps = min_subset_sigma(body, cover, d + 1) * (1.0 - 2.0 * TOL_GEOM)
    if eps <= 1.0 + EPSILON_FLOOR:
        raise ConstructionError(f"inflation gap too thin (eps={eps:.6g}); reselecting")
    if lift_subs:
        # inflate about K's centroid, which keeps K in the flat of the cover
        c = body.vertices.mean(axis=0)
        inflated = translate(scale(body, eps), (1.0 - eps) * c)
        for eta in lift_subs:
            rep = flat_lift_check(inflated, cover, eta)
            if not (rep.applicable and rep.holds):
                raise ConstructionError(
                    f"flat lift failed on a sampled subspace (sigma={rep.sigma_ambient:.6g})")
    checks = _certify(body, cover, eps, d, sweep_count)
    if lift_subs:
        checks["flat_lift_certified"] = True
    if not all(checks.values()):
        raise ConstructionError(f"invariant replay failed: {checks}")
    subs = sweep_subspaces(body.dim, d, directions, rng) + lift_subs
    log = {"kind": "subspace_bases", "vectors": np.asarray([s.basis for s in subs]),
           "sigmas": sweep_sigmas(body, cover, subs)}
    return Counterexample(body, cover, eps, d, log, certificate, checks, seed)


def canonical_tetra_quad() -> tuple[Polytope, Polytope]:
    """The regular tetrahedron and its inscribed planar quadrilateral.

    The quadrilateral takes one vertex from the relative interior of each
    facet: the average of the endpoints of the facet's intersection segment
    with the plane z = 0.  Deterministic, and verified to satisfy the
    touching hypothesis before returning.
    """
    verts = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                      [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    delta = Polytope(verts, canonical=True)
    quad_pts = []
    for j in range(4):
        facet = [i for i in range(4) if i != j]
        crossings = []
        for a in range(3):
            for b in range(a + 1, 3):
                p, q = verts[facet[a]], verts[facet[b]]
                if (p[2] > 0) == (q[2] > 0):
                    continue
                s = p[2] / (p[2] - q[2])
                crossings.append(p + s * (q - p))
        if len(crossings) != 2:
            raise AssertionError("tetrahedron facet must cross z=0 in a segment")
        quad_pts.append(0.5 * (crossings[0] + crossings[1]))
    quad = Polytope(np.array(quad_pts), canonical=True)
    if not verify_touching(quad, delta):
        raise AssertionError("canonical quadrilateral must touch every facet interior")
    return delta, quad
