"""Scalar conventions, small dense linear algebra, and direction/subspace sampling.

Two tolerances are used everywhere, both fixed constants with no per-call
override:

* ``TOL_FEAS`` (1e-9) governs LP feasibility and incidence decisions.
* ``TOL_GEOM`` (1e-6) governs geometric verdict margins (fits / fails bands).
  It only absorbs floating-point error: the paper's equivalences are exact.

Points of G(n, d) are orthonormal n x d bases.  One Gram-Schmidt kernel with
no LAPACK call orthonormalizes a stack and one check tests a stack, both on
the stack's columns, a (d, n, count) array whose sums along n run over whole
(count,) rows in index order; ``Subspace`` and ``orthonormalize`` hand them
one matrix's (d, n) columns.  The Haar sampler draws one (count, n, d)
Gaussian array and orthonormalizes its columns: ``kubota_check`` projects
onto those columns directly, and ``haar_subspaces`` returns their transpose,
whose rows are wrapped as ``Subspace`` objects with no second check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_FEAS = 1e-9
TOL_GEOM = 1e-6

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def as_vector(v) -> np.ndarray:
    """Coerce to a 1-D float64 array of finite entries."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector has non-finite entries")
    return arr


def unit(v) -> np.ndarray:
    """Normalize a nonzero vector to unit length."""
    arr = as_vector(v)
    norm = float(np.linalg.norm(arr))
    if norm <= TOL_FEAS:
        raise ValueError("cannot normalize a (near-)zero vector")
    return arr / norm


def _sum_rows(p: np.ndarray) -> np.ndarray:
    """p[0] + p[1] + ..., added in index order whatever p's shape."""
    total = p[0]
    for i in range(1, len(p)):
        total = total + p[i]
    return total


def _orthonormal_stack(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q of the QR of each matrix of a stack given by its columns, a
    (d, n, count) array (or (d, n) for one matrix), with diag(R) > 0
    (unique, idempotent), and a mask, False where a pivot r_jj is at most
    TOL_FEAS * max(1, largest column norm).  Classical Gram-Schmidt, each
    column projected twice; every sum runs in index order over whole
    (count,) rows, so a matrix gets the bits it gets alone, and a failed
    pivot divides by 1."""
    q = np.array(cols, dtype=np.float64, order="C")
    r = np.sqrt(_sum_rows((q * q).swapaxes(0, 1)))
    floor = TOL_FEAS * np.maximum(1.0, r.max(axis=0))
    for j in range(len(q)):
        v = q[j]
        if j:
            done = q[:j]
            for _ in range(2):
                coef = _sum_rows((done * v).swapaxes(0, 1))
                v = v - _sum_rows(done * coef[:, None])
            r[j] = np.sqrt(_sum_rows(v * v))
        q[j] = v / np.where(r[j] > floor, r[j], 1.0)
    return q, (r > floor).all(axis=0)


def _check_orthonormal(cols: np.ndarray) -> None:
    """Raise ValueError unless every matrix of a stack given by its columns,
    a (d, n, count) array (or (d, n) for one matrix), has orthonormal
    columns: its Gram matrix, summed along n from one broadcast product of
    the columns, within 1e2 * TOL_FEAS of I."""
    d = len(cols)
    dev = np.add.reduce(cols[:, None] * cols, axis=2)
    diagonal = dev.reshape(d * d, -1)[::d + 1]     # a view: dev is contiguous
    np.subtract(diagonal, 1.0, out=diagonal)
    if not np.maximum.reduce(np.abs(dev), axis=None, initial=0.0) <= 1e2 * TOL_FEAS:
        raise ValueError("basis columns are not orthonormal")


@dataclass(frozen=True, eq=False)
class Subspace:
    """A d-dimensional linear subspace of R^n, stored as an n x d orthonormal basis.

    Points of the Grassmannian G(n, d).  The orthonormality invariant
    (basis^T basis = I within ``1e2 * TOL_FEAS``) is checked on construction.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=np.float64)
        if b.ndim != 2 or b.shape[1] < 1 or b.shape[0] < b.shape[1]:
            raise ValueError(f"basis must be n x d with 1 <= d <= n, got shape {b.shape}")
        _check_orthonormal(b.T)
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def d(self) -> int:
        return self.basis.shape[1]


def _subspace_rows(stack: np.ndarray) -> tuple[Subspace, ...]:
    """The rows of a read-only (count, n, d) stack that has passed
    _check_orthonormal, as Subspaces sharing its memory, with no second check."""
    subs = tuple(object.__new__(Subspace) for _ in stack)
    for s, b in zip(subs, stack):
        object.__setattr__(s, "basis", b)
    return subs


def orthonormalize(m) -> Subspace:
    """Orthonormalize the columns of an n x d matrix into a Subspace.

    The returned basis spans the same column space.  Idempotent: feeding a
    returned basis back in reproduces it within ``TOL_FEAS``.

    Raises ``ValueError`` on a non-finite entry, and ("degenerate basis")
    when a Gram-Schmidt pivot is at most ``TOL_FEAS`` times max(1, largest
    column norm).
    """
    a = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("basis has non-finite entries")
    if a.ndim == 1:
        a = a[:, None]
    if a.shape[0] < a.shape[1]:
        raise ValueError(f"more columns than rows: shape {a.shape}")
    q, ok = _orthonormal_stack(a.T)
    if not ok:
        raise ValueError("degenerate basis")
    return Subspace(q.T.copy())


def haar_subspace(n: int, d: int, rng: np.random.Generator) -> Subspace:
    """Sample a subspace from the rotation-invariant measure on G(n, d): the
    draw ``haar_subspaces(n, d, 1, rng)``."""
    return _subspace_rows(haar_subspaces(n, d, 1, rng))[0]


def _haar_columns(n: int, d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar samples of G(n, d) as the (d, n, count) columns of their
    orthonormal bases, checked by _check_orthonormal.

    Orthonormalizes one (count, n, d) standard-Gaussian sample, read as
    columns, in one kernel call, each basis with the bits it gets alone;
    the Gaussian's rotation invariance makes each basis Haar-distributed.  A
    degenerate matrix (measure zero) is redrawn in place.  Deterministic for
    a given generator.
    """
    if not (1 <= d <= n):
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    q, ok = _orthonormal_stack(rng.standard_normal((count, n, d)).T)
    while not ok.all():
        bad = np.flatnonzero(~ok)
        q[..., bad], ok[bad] = _orthonormal_stack(rng.standard_normal((bad.size, n, d)).T)
    _check_orthonormal(q)
    return q


def haar_subspaces(n: int, d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar samples of G(n, d): a read-only (count, n, d) array of
    orthonormal bases, empty for count 0; the transpose of
    ``_haar_columns``' draw, laid out row by row."""
    q = np.ascontiguousarray(_haar_columns(n, d, count, rng).T)
    q.flags.writeable = False
    return q


def direction_grid(n: int, count: int) -> np.ndarray:
    """Deterministic well-spread unit directions: angles in R^2, a Fibonacci
    sphere lattice in R^3.  Returns a (count, n) array.

    Only n in {2, 3} is supported; higher dimensions should use Haar samples.
    """
    if n not in (2, 3):
        raise ValueError("grid unsupported; use haar sampling")
    if count < 4:
        raise ValueError(f"count must be >= 4, got {count}")
    if n == 2:
        theta = 2.0 * np.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = GOLDEN_ANGLE * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def hyperplane_basis(u) -> np.ndarray:
    """Deterministic orthonormal basis of u-perp for a unit vector u.

    Built from the Householder reflection mapping e1 onto -sign(u[0]) * u;
    its trailing columns span the orthogonal complement of u.
    """
    uu = unit(u)
    n = uu.shape[0]
    if n < 2:
        raise ValueError("hyperplane basis needs ambient dimension >= 2")
    w = uu.copy()
    w[0] += 1.0 if uu[0] >= 0.0 else -1.0
    h = np.eye(n) - 2.0 * np.outer(w, w) / float(w @ w)
    return h[:, 1:]
