import numpy as np
import pytest

from shadowcover import core
from shadowcover.core import (
    Subspace,
    direction_grid,
    haar_subspace,
    haar_subspaces,
    hyperplane_basis,
    orthonormalize,
    unit,
)


def test_orthonormalize_identity_columns():
    m = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    s = orthonormalize(m)
    assert np.allclose(s.basis, m, atol=1e-12)


def test_orthonormalize_single_column():
    s = orthonormalize(np.array([[3.0], [4.0]]))
    assert np.allclose(s.basis[:, 0], [0.6, 0.8], atol=1e-12)


def test_orthonormalize_gram_schmidt_step():
    m = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    s = orthonormalize(m)
    expect = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(s.basis, expect, atol=1e-12)


def test_orthonormalize_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = orthonormalize(rng.standard_normal((5, 3)))
        again = orthonormalize(s.basis)
        assert np.max(np.abs(again.basis - s.basis)) <= 1e-9


def test_orthonormalize_rank_deficient():
    m = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(ValueError, match="degenerate basis"):
        orthonormalize(m)


def test_subspace_invariant_checked():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_haar_full_plane():
    s = haar_subspace(2, 2, np.random.default_rng(0))
    assert s.basis.shape == (2, 2)
    assert np.allclose(s.basis.T @ s.basis, np.eye(2), atol=1e-12)


def test_haar_mean_direction_shrinks():
    # law of large numbers on the implemented sampler
    rng = np.random.default_rng(7)
    total = np.zeros(3)
    n = 10**5
    g = rng.standard_normal((n, 3))
    total = (g / np.linalg.norm(g, axis=1, keepdims=True)).mean(axis=0)
    assert np.linalg.norm(total) < 0.02


def test_haar_deterministic_given_seed():
    a = haar_subspace(4, 2, np.random.default_rng(11))
    b = haar_subspace(4, 2, np.random.default_rng(11))
    assert np.array_equal(a.basis, b.basis)


def _lapack_reference(g):
    # numpy's qr of one matrix with the signs fixed so diag(R) >= 0
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def _alone(g):
    # the kernel run on one matrix by itself
    q, ok = core._orthonormal_stack(g)
    assert ok
    return q


@pytest.mark.parametrize("n,d", [(3, 2), (3, 1), (4, 2), (2, 2)])
def test_haar_subspaces_match_one_draw_at_a_time(n, d):
    # one stacked draw gives the same bits, and leaves the same generator
    # state, as orthonormalizing count Gaussian draws one at a time, and
    # it is LAPACK's sign-fixed QR up to rounding
    loop, batch = np.random.default_rng(5), np.random.default_rng(5)
    draws = [loop.standard_normal((n, d)) for _ in range(1000)]
    got = haar_subspaces(n, d, 1000, batch)
    assert got.shape == (1000, n, d)
    assert np.array_equal(got, np.stack([_alone(g) for g in draws]))
    assert np.max(np.abs(got - np.stack([_lapack_reference(g) for g in draws]))) <= 1e-14
    assert batch.standard_normal() == loop.standard_normal()
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0, 0] = 0.0
    empty = haar_subspaces(n, d, 0, batch)
    assert empty.shape == (0, n, d)
    assert batch.standard_normal() == loop.standard_normal()


def test_haar_subspaces_redraw_degenerate_rows_in_place(monkeypatch):
    # at this tolerance 3 of these 60 draws are degenerate by the pivot rule,
    # least |r_jj| of LAPACK's R at most TOL_FEAS * max(1, largest column
    # norm): those rows are redrawn, and every other row is the plain
    # stacked draw's
    monkeypatch.setattr(core, "TOL_FEAS", 0.1)
    plain = np.random.default_rng(9)
    g = plain.standard_normal((60, 3, 2))
    pivots = np.abs(np.diagonal(np.linalg.qr(g, mode="r"), axis1=-2, axis2=-1))
    largest = np.sqrt((g * g).sum(axis=1)).max(axis=1)
    flagged = pivots.min(axis=1) <= 0.1 * np.maximum(1.0, largest)
    assert 0 < flagged.sum() < 60
    batch = np.random.default_rng(9)
    got = haar_subspaces(3, 2, 60, batch)
    assert batch.bit_generator.state != plain.bit_generator.state   # something was redrawn
    for row, gi, bad in zip(got, g, flagged):
        assert np.array_equal(row, core._orthonormal_stack(gi)[0]) != bad
        assert np.max(np.abs(row.T @ row - np.eye(2))) <= 1e-12
    again = np.random.default_rng(9)
    assert np.array_equal(haar_subspaces(3, 2, 60, again), got)
    assert again.bit_generator.state == batch.bit_generator.state


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (6, 4), (12, 5)])
def test_orthonormal_stack_keeps_ill_conditioned_matrices_orthonormal(n, d):
    # U diag(s) V^T with cond from 1 to 1e8: Q^T Q is I to 1e-14, Q Q^T A
    # is A to 1e-12 of its size, and a matrix gets the same bits alone
    rng = np.random.default_rng(31)
    stack = []
    for cond in np.logspace(0, 8, 9):
        for _ in range(20):
            u = np.linalg.qr(rng.standard_normal((n, d)))[0]
            v = np.linalg.qr(rng.standard_normal((d, d)))[0]
            s = np.geomspace(1.0, 1.0 / cond, d) * 10.0 ** rng.uniform(0, 3)
            stack.append(u * s @ v.T)
    a = np.array(stack)
    q, ok = core._orthonormal_stack(a)
    assert ok.all()
    assert np.max(np.abs(np.swapaxes(q, 1, 2) @ q - np.eye(d))) <= 1e-14
    back = q @ (np.swapaxes(q, 1, 2) @ a)
    size = np.abs(a).max(axis=(1, 2))
    assert np.max(np.abs(back - a).max(axis=(1, 2)) / size) <= 1e-12
    assert all(np.array_equal(qi, _alone(ai)) for qi, ai in zip(q[::17], a[::17]))


@pytest.mark.parametrize("m", [
    [[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]],     # a zero first column
    [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],     # a zero last column
    [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]],     # a repeated column
    [[1.0, -3.0], [2.0, -6.0], [4.0, -12.0]],  # an exact multiple
    [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]],   # a sum of the others
    np.zeros((4, 2)),
])
def test_orthonormalize_rejects_dependent_and_zero_columns(m):
    # the failed pivot divides by 1, so no 0/0 warning comes before the error
    with pytest.raises(ValueError, match="degenerate basis"):
        orthonormalize(np.array(m))
    q, ok = core._orthonormal_stack(np.array([m, np.eye(*np.shape(m))]))
    assert ok.tolist() == [False, True] and np.isfinite(q).all()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_orthonormalize_rejects_non_finite_entries(bad):
    # rejected before Gram-Schmidt runs, so no invalid-value warning comes first
    with pytest.raises(ValueError, match="non-finite"):
        orthonormalize([[bad, 0.0], [0.0, 1.0], [0.0, 0.0]])


def test_orthonormality_check_rejects_a_stretched_column():
    stack = np.array(haar_subspaces(3, 2, 10, np.random.default_rng(2)))
    core._check_orthonormal(stack)
    stack[4, :, 1] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="not orthonormal"):
        core._check_orthonormal(stack)
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(stack[4])
    stack[4, 0, 0] = np.nan          # a NaN Gram entry fails the bound too
    with pytest.raises(ValueError, match="not orthonormal"):
        core._check_orthonormal(stack)


def test_haar_column_moments():
    # entries of a Haar column are coordinates of a uniform unit vector:
    # mean 0, variance 1/n; check the mean at 3 sigma over 1e4 draws
    rng = np.random.default_rng(23)
    n_draws = 10**4
    vals = np.empty(n_draws)
    for i in range(n_draws):
        vals[i] = haar_subspace(3, 2, rng).basis[0, 0]
    bound = 3.0 * np.sqrt((1.0 / 3.0) / n_draws)
    assert abs(vals.mean()) < bound


def test_direction_grid_quarter_turns():
    g = direction_grid(2, 4)
    expect = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(g, expect, atol=1e-12)


def test_direction_grid_2d_gap():
    g = direction_grid(2, 1000)
    ang = np.arctan2(g[:, 1], g[:, 0])
    gaps = np.diff(np.unwrap(ang))
    assert np.allclose(gaps, 2 * np.pi / 1000, atol=1e-12)


def test_direction_grid_fibonacci_spread():
    g = direction_grid(3, 100)
    assert np.allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-9)
    dots = np.clip(g @ g.T, -1.0, 1.0)
    np.fill_diagonal(dots, -1.0)
    min_angle = np.arccos(dots.max())
    assert min_angle > 0.1


def test_direction_grid_unsupported_dimension():
    with pytest.raises(ValueError, match="grid unsupported"):
        direction_grid(4, 100)


def test_hyperplane_basis_orthogonal_to_direction():
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = unit(rng.standard_normal(4))
        b = hyperplane_basis(u)
        assert b.shape == (4, 3)
        assert np.allclose(b.T @ b, np.eye(3), atol=1e-12)
        assert np.allclose(b.T @ u, 0.0, atol=1e-12)
