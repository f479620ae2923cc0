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


def _orthonormal_reference(g):
    # numpy's qr of one matrix with the signs fixed so diag(R) >= 0
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


@pytest.mark.parametrize("n,d", [(3, 2), (3, 1), (4, 2), (2, 2)])
def test_haar_subspaces_match_one_draw_at_a_time(n, d):
    # one stacked draw gives the same bits, and leaves the same generator
    # state, as orthonormalizing count Gaussian draws one at a time
    loop, batch = np.random.default_rng(5), np.random.default_rng(5)
    want = np.stack([_orthonormal_reference(loop.standard_normal((n, d)))
                     for _ in range(1000)])
    got = haar_subspaces(n, d, 1000, batch)
    assert got.shape == (1000, n, d)
    assert np.array_equal(got, want)
    assert batch.standard_normal() == loop.standard_normal()
    assert not got.flags.writeable
    with pytest.raises(ValueError):
        got[0, 0, 0] = 0.0
    empty = haar_subspaces(n, d, 0, batch)
    assert empty.shape == (0, n, d)
    assert batch.standard_normal() == loop.standard_normal()


def test_haar_subspaces_redraw_degenerate_rows_in_place(monkeypatch):
    # at this tolerance 4 of these 60 draws are degenerate: those rows are
    # redrawn, and every other row is the plain stacked draw's
    monkeypatch.setattr(core, "TOL_FEAS", 0.1)
    plain = np.random.default_rng(9)
    g = plain.standard_normal((60, 3, 2))
    sv = np.linalg.svd(g, compute_uv=False)
    flagged = sv[:, -1] <= 0.1 * np.maximum(1.0, sv[:, 0])
    assert 0 < flagged.sum() < 60
    batch = np.random.default_rng(9)
    got = haar_subspaces(3, 2, 60, batch)
    assert batch.bit_generator.state != plain.bit_generator.state   # something was redrawn
    for row, gi, bad in zip(got, g, flagged):
        assert np.array_equal(row, _orthonormal_reference(gi)) != bad
        assert np.max(np.abs(row.T @ row - np.eye(2))) <= 1e-12
    again = np.random.default_rng(9)
    assert np.array_equal(haar_subspaces(3, 2, 60, again), got)
    assert again.bit_generator.state == batch.bit_generator.state


def test_orthonormality_check_rejects_a_stretched_column():
    stack = np.array(haar_subspaces(3, 2, 10, np.random.default_rng(2)))
    core._check_orthonormal(stack)
    stack[4, :, 1] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="not orthonormal"):
        core._check_orthonormal(stack)
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(stack[4])


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
