"""Self-contained dense LP solver in equality standard form, with certificates.

Problems are ``maximize c.z  subject to  A z = b`` where each variable is
either sign-free or constrained nonnegative (``nonneg`` mask).  Solved by
tableau simplex with Bland's anti-cycling rule; free variables are split into
differences of nonnegative parts.  ``solve`` finds a feasible basis itself
(phase 1 over artificial variables), and its phase 2 solves the final basis
afresh for z and for the dual.  Its one library caller is
``bodies.point_in_hull``; every scale fit runs its own small simplex in
``containment``.

Every verdict carries a certificate: optimal outcomes return a dual vector
(weak duality and complementary slackness hold within tolerance), infeasible
outcomes return a Farkas vector y with y.A <= 0 on nonnegative columns,
y.A = 0 on free columns, and y.b > 0.  An optimal outcome whose primal
residual or dual slack fails _CERT_TOL, relative to the size of its terms,
or an unbounded one whose ray fails the same check, is not returned: the run
counts as a stall.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TOL_FEAS

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
_CERT_TOL = 1e-7   # of a certificate's residuals, relative to the size of their terms


class LpError(RuntimeError):
    """Numerical failure inside the solver (stall that survives perturbation)."""


@dataclass(frozen=True, eq=False)
class LpProblem:
    """maximize c.z subject to A z = b, with z[i] >= 0 where nonneg[i]."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    nonneg: np.ndarray

    def __post_init__(self):
        a = np.ascontiguousarray(self.A, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"A must be 2-D, got shape {a.shape}")
        b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        c = np.asarray(self.c, dtype=np.float64).reshape(-1)
        nn = np.asarray(self.nonneg, dtype=bool).reshape(-1)
        m, nvar = a.shape
        if nvar < 1:
            raise ValueError("problem must have at least one variable")
        if b.shape[0] != m:
            raise ValueError(f"b has length {b.shape[0]}, expected {m}")
        if c.shape[0] != nvar or nn.shape[0] != nvar:
            raise ValueError("c and nonneg must match the number of columns of A")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(c).all()):
            raise ValueError("problem data has non-finite entries")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "nonneg", nn)

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """Solver verdict plus certificate.

    status        one of "optimal" / "infeasible" / "unbounded"
    z             primal solution (optimal only)
    objective     c.z at the optimum (optimal only)
    dual          length-m certificate: optimality multipliers, or the Farkas
                  vector for infeasible problems
    """

    status: str
    z: np.ndarray | None = None
    objective: float | None = None
    dual: np.ndarray | None = None


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    prow = T[row]
    prow /= prow[col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= colvals[:, None] * prow
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: np.ndarray, n_eligible: int,
                 allow_unbounded: bool, max_iter: int) -> str:
    """Run Bland-rule simplex on tableau T in place.

    The last row holds reduced costs (maximization: enter while any > tol),
    the last column the right-hand side.  Only the first ``n_eligible``
    columns may enter the basis.  Returns "optimal", "unbounded", or "stall".
    """
    m = T.shape[0] - 1
    obj = T[-1]
    for _ in range(max_iter):
        mask = obj[:n_eligible] > TOL_FEAS
        j = int(mask.argmax())  # Bland: smallest eligible index
        if not mask[j]:
            return OPTIMAL
        col = T[:m, j]
        pos = (col > TOL_FEAS).nonzero()[0]
        if pos.size == 0:
            if allow_unbounded:
                return UNBOUNDED
            # phase 1 is always bounded; a flat column here is numerical noise
            obj[j] = 0.0
            continue
        ratios = T[pos, -1] / col[pos]
        np.maximum(ratios, 0.0, out=ratios)
        rmin = ratios.min()
        ties = pos[ratios <= rmin]
        row = int(ties[0]) if ties.size == 1 else int(ties[np.argmin(basis[ties])])
        _pivot(T, basis, row, j)
    return "stall"


def solve(problem: LpProblem) -> LpOutcome:
    """Solve an equality-form LP; deterministic for identical input.

    A numerical stall, or an outcome that fails its check (see the module
    docstring), triggers one re-solve with the right-hand side perturbed by
    1e-12; if that fails too, ``LpError("ill-conditioned")``.
    """
    out = _solve_once(problem)
    if out is not None:
        return out
    m = problem.b.shape[0]
    bump = 1e-12 * (1.0 + np.arange(m, dtype=np.float64))
    perturbed = LpProblem(problem.A, problem.b + bump, problem.c, problem.nonneg)
    out = _solve_once(perturbed)
    if out is None:
        raise LpError("ill-conditioned")
    return out


def _split_free(nonneg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Variable and sign of each extended column: a free one is followed by its negation."""
    col_var = np.repeat(np.arange(nonneg.shape[0]), np.where(nonneg, 1, 2))
    col_sgn = np.ones(col_var.shape[0])
    col_sgn[1:][col_var[1:] == col_var[:-1]] = -1.0
    return col_var, col_sgn


def _small(residual: np.ndarray, terms: np.ndarray) -> bool:
    """|residual| <= _CERT_TOL times the largest term it sums, or 1."""
    return bool(np.abs(residual).max(initial=0.0)
                <= _CERT_TOL * max(1.0, terms.max(initial=0.0)))


def _certified(problem: LpProblem, z: np.ndarray, dual: np.ndarray) -> bool:
    """Does A z = b hold, and y = dual satisfy y.A >= c on nonnegative
    columns and y.A = c on free ones, each within _small?"""
    a, b, c, nonneg = problem.A, problem.b, problem.c, problem.nonneg
    abs_a = np.abs(a)
    slack = dual @ a - c
    scale = np.abs(dual) @ abs_a + np.abs(c)
    return (_small(a @ z - b, abs_a @ np.abs(z) + np.abs(b))
            and _small(np.minimum(slack[nonneg], 0.0), scale[nonneg])
            and _small(slack[~nonneg], scale[~nonneg]))


def _ray_checks(problem: LpProblem, ray: np.ndarray) -> bool:
    """Is ray a direction of unbounded ascent: c.ray > 0, and A ray = 0 and
    ray >= 0 on nonnegative columns, each within _small?"""
    return (problem.c @ ray > 0.0
            and _small(problem.A @ ray, np.abs(problem.A) @ np.abs(ray))
            and _small(np.minimum(ray[problem.nonneg], 0.0), np.abs(ray)))


def _solve_once(problem: LpProblem) -> LpOutcome | None:
    a, b, c, nonneg = problem.A, problem.b, problem.c, problem.nonneg
    m, nvar = a.shape

    col_var, col_sgn = _split_free(nonneg)
    a_ext = a[:, col_var] * col_sgn
    n_ext = a_ext.shape[1]

    if m == 0:
        if np.any(c[col_var] * col_sgn > TOL_FEAS):
            return LpOutcome(UNBOUNDED)
        z = np.zeros(nvar)
        return LpOutcome(OPTIMAL, z=z, objective=0.0, dual=np.zeros(0))

    # flip rows so the right-hand side is nonnegative
    srow = np.where(b < 0.0, -1.0, 1.0)
    a_t = a_ext * srow[:, None]
    b_t = b * srow

    max_iter = 2000 + 40 * (m + n_ext)

    # phase 1: maximize -sum(artificials), starting basis = artificials
    T = np.zeros((m + 1, n_ext + m + 1))
    T[:m, :n_ext] = a_t
    T[:m, n_ext:n_ext + m] = np.eye(m)
    T[:m, -1] = b_t
    T[-1, :] = T[:m, :].sum(axis=0)   # reduced costs for cost (0,...,0,-1,...,-1)
    T[-1, n_ext:n_ext + m] = 0.0
    basis = np.arange(n_ext, n_ext + m)

    status = _run_simplex(T, basis, n_ext, allow_unbounded=False, max_iter=max_iter)
    if status == "stall":
        return None

    art_sum = float(T[-1, -1])  # equals sum of artificials at phase-1 optimum
    scale = max(1.0, float(np.abs(b_t).max(initial=0.0)))
    if art_sum > TOL_FEAS * scale:
        # Farkas certificate from the phase-1 multipliers
        y = np.where(basis >= n_ext, -1.0, 0.0) @ T[:m, n_ext:n_ext + m]
        return LpOutcome(INFEASIBLE, dual=-(srow * y))

    # drive leftover artificials out of the basis, or drop redundant rows
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if basis[i] >= n_ext:
            structural = np.nonzero(np.abs(T[i, :n_ext]) > TOL_FEAS)[0]
            if structural.size:
                _pivot(T, basis, i, int(structural[0]))
            else:
                keep[i] = False  # redundant constraint
    rows = np.flatnonzero(keep)
    T, basis = T[np.r_[rows, m]][:, np.r_[:n_ext, -1]], basis[keep]

    # phase 2 on the kept rows; z_B and the dual y solve B z_B = b and y B = c_B afresh from
    # the final basis, with y = 0 on a dropped row: the tableau's carry the rounding of every
    # pivot, which a small pivot grows
    c_ext = c[col_var] * col_sgn
    T[-1] = -(c_ext[basis] @ T[:-1])
    T[-1, :n_ext] += c_ext
    status = _run_simplex(T, basis, n_ext, allow_unbounded=True, max_iter=max_iter)
    if status == "stall":
        return None
    if status == UNBOUNDED:
        # the ray of the entering column j, which _run_simplex found bounded by no row
        j = int((T[-1, :n_ext] > TOL_FEAS).argmax())
        d_ext = np.zeros(T.shape[1])
        d_ext[j] = 1.0
        d_ext[basis] = -T[:-1, j]
        ray = np.bincount(col_var, weights=col_sgn * d_ext[:n_ext], minlength=nvar)
        return LpOutcome(UNBOUNDED) if _ray_checks(problem, ray) else None
    bmat = a[rows][:, col_var[basis]] * col_sgn[basis]
    dual = np.zeros(m)
    try:
        values = np.linalg.solve(bmat, b[rows])
        dual[rows] = np.linalg.solve(bmat.T, c_ext[basis])
    except np.linalg.LinAlgError:
        return None
    z_ext = np.zeros(n_ext)
    z_ext[basis] = np.maximum(values, 0.0)
    z = np.bincount(col_var, weights=col_sgn * z_ext, minlength=nvar)
    return LpOutcome(OPTIMAL, z=z, objective=float(c @ z), dual=dual) \
        if _certified(problem, z, dual) else None
