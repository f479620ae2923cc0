"""Scalar conventions, small dense linear algebra, and direction/subspace sampling.

Two tolerances are used everywhere:

* ``TOL_FEAS`` (1e-9) governs LP feasibility and incidence decisions.
* ``TOL_GEOM`` (1e-6) governs geometric verdict margins (fits / fails bands).

Both can be overridden per call through keyword arguments.

Points of G(n, d) are orthonormal n x d bases.  One Gram-Schmidt kernel with
no LAPACK call orthonormalizes a stack and one check tests a stack; ``Subspace``,
``orthonormalize`` and the Haar sampler, whose draw is one (count, n, d) array,
use both.  Haar rows are wrapped as ``Subspace`` objects with no second check.
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


def _orthonormal_stack(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q of the QR of each (n, d) matrix of a stack (or of one matrix), with
    diag(R) > 0 (unique, idempotent), and a mask, False where a pivot r_jj is
    at most TOL_FEAS * max(1, largest column norm).  Classical Gram-Schmidt,
    each column projected twice; every dot product sums along n, so a matrix
    gets the bits it gets alone, and a failed pivot divides by 1."""
    q = np.array(a, dtype=np.float64)
    r = np.sqrt((q * q).sum(axis=-2))
    floor = TOL_FEAS * np.maximum(1.0, r.max(axis=-1))
    for j in range(q.shape[-1]):
        v, done = q[..., j], q[..., :j]
        for _ in range(2 if j else 0):
            v = v - (done * (done * v[..., None]).sum(axis=-2)[..., None, :]).sum(axis=-1)
        r[..., j] = np.sqrt((v * v).sum(axis=-1))
        q[..., j] = v / np.where(r[..., j] > floor, r[..., j], 1.0)[..., None]
    return q, (r > floor[..., None]).all(axis=-1)


def _check_orthonormal(b: np.ndarray) -> None:
    """Raise ValueError unless every (n, d) matrix of a stack (or one matrix)
    has orthonormal columns: its Gram matrix, summed from one broadcast
    product of the columns, within 1e2 * TOL_FEAS of I."""
    gram = (b[..., :, :, None] * b[..., :, None, :]).sum(axis=-3)
    if not np.abs(gram - np.eye(b.shape[-1])).max(initial=0.0) <= 1e2 * TOL_FEAS:
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
        _check_orthonormal(b)
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

    Raises ``ValueError`` ("degenerate basis") when a Gram-Schmidt pivot is
    at most ``TOL_FEAS`` times max(1, largest column norm).
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.shape[0] < a.shape[1]:
        raise ValueError(f"more columns than rows: shape {a.shape}")
    q, ok = _orthonormal_stack(a)
    if not ok:
        raise ValueError("degenerate basis")
    return Subspace(q)


def haar_subspace(n: int, d: int, rng: np.random.Generator) -> Subspace:
    """Sample a subspace from the rotation-invariant measure on G(n, d): the
    draw ``haar_subspaces(n, d, 1, rng)``."""
    return _subspace_rows(haar_subspaces(n, d, 1, rng))[0]


def haar_subspaces(n: int, d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count Haar samples of G(n, d): a read-only (count, n, d) array of
    orthonormal bases, empty for count 0.

    Orthonormalizes one (count, n, d) standard-Gaussian sample in one kernel
    call, each basis with the bits it gets alone; the Gaussian's rotation
    invariance makes each basis Haar-distributed.  A degenerate matrix
    (measure zero) is redrawn in place.  Deterministic for a given generator.
    """
    if not (1 <= d <= n):
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    q, ok = _orthonormal_stack(rng.standard_normal((count, n, d)))
    while not ok.all():
        bad = np.flatnonzero(~ok)
        q[bad], ok[bad] = _orthonormal_stack(rng.standard_normal((bad.size, n, d)))
    _check_orthonormal(q)
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
