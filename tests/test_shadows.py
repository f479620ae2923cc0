import math
from functools import cached_property

import numpy as np
import pytest

from oracles import width_1d

from shadowcover.bodies import Polytope, canonicalize, scale
from shadowcover.containment import scale_fit, translate_fits
from shadowcover.core import (
    Subspace,
    direction_grid,
    haar_subspace,
    haar_subspaces,
    hyperplane_basis,
    orthonormalize,
)
from shadowcover.shadows import (
    flat_lift_check,
    oblique_equivalence_check,
    refine_min_margin,
    shadow_fit,
    shadow_sweep,
    simplex_edge_criterion,
    simplex_edge_directions,
    sweep_subspaces,
)

CUBE = Polytope([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], canonical=True)
SQUARE105 = Polytope(1.05 * np.array([[0, 0], [1, 0], [0, 1], [1, 1]]), canonical=True)
DISK64 = Polytope(0.6 * direction_grid(2, 64), canonical=True)


@pytest.mark.parametrize("n,d,count", [(3, 1, 64), (5, 2, 40)])
def test_haar_sweep_wraps_the_checked_stack(n, d, count):
    # the sweep's subspaces are the rows of one Haar draw, read-only, and
    # leave the generator where the draw leaves it
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    subs = sweep_subspaces(n, d, count, rng)
    want = haar_subspaces(n, d, count, ref)
    assert len(subs) == count
    for s, b in zip(subs, want):
        assert type(s) is Subspace and (s.n, s.d) == (n, d)
        assert s.basis.tobytes() == b.tobytes()
        with pytest.raises(ValueError):
            s.basis[0, 0] = 0.0
    assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(ValueError):
        Subspace(2.0 * want[0])


def test_shadow_fit_inclusion_preserved():
    rng = np.random.default_rng(3)
    inner = Polytope(rng.standard_normal((6, 3)))
    outer = Polytope(np.vstack([inner.vertices, rng.standard_normal((4, 3)) * 2.0]))
    for _ in range(20):
        s = orthonormalize(rng.standard_normal((3, 2)))
        fit = shadow_fit(inner, outer, s)
        assert fit.degenerate or fit.sigma >= 1.0 - 1e-9


def test_shadow_fit_rejects_bodies_of_different_dimension():
    s = Subspace(np.array([[1.0], [0.0], [0.0]]))
    with pytest.raises(ValueError, match="ambient dimension"):
        shadow_fit(CUBE, Polytope(np.eye(4)), s)
    with pytest.raises(ValueError, match="ambient dimension"):
        shadow_fit(Polytope(np.eye(2)), CUBE, s)


def test_shadow_fit_cube_self():
    s = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    assert shadow_fit(CUBE, CUBE, s).sigma == pytest.approx(1.0, abs=1e-9)


def test_shadow_sweep_self_covers():
    rep = shadow_sweep(CUBE, CUBE, 2, count=50)
    assert rep.verdict == "covers"
    assert rep.min_sigma == pytest.approx(1.0, abs=1e-6)
    assert rep.samples == 50


@pytest.mark.parametrize("d", [1, 2])
def test_shadow_sweep_point_body_covers(d):
    # a point K has sigma = inf on every subspace
    rep = shadow_sweep(Polytope([[0.2, 0.1, -0.3]]), CUBE, d, count=16)
    assert np.isinf(rep.sigmas).all()
    assert rep.min_sigma == math.inf
    assert rep.verdict == "covers"
    assert rep.borderline_count == 0
    assert rep.argmin.basis is rep.bases[0]


@pytest.mark.parametrize("d", [1, 2])
def test_sweep_sigmas_are_the_bytes_of_a_per_shadow_loop(d):
    # Haar lines for d = 1, the hyperplane grid for d = 2: each sigma is the fit
    # of two freshly built shadows, and at d = 1 the ratio of their widths
    rng = np.random.default_rng(20 + d)
    k, l = Polytope(rng.standard_normal((8, 3))), Polytope(2.0 * rng.standard_normal((11, 3)))
    rep = shadow_sweep(k, l, d, count=200, rng=np.random.default_rng(d))
    assert rep.samples == 200
    want = np.array([scale_fit(Polytope(k.vertices @ b), Polytope(l.vertices @ b)).sigma
                     for b in rep.bases])
    assert rep.sigmas.tobytes() == want.tobytes()
    if d == 1:
        widths = np.array([np.ptp(l.vertices @ b) / np.ptp(k.vertices @ b) for b in rep.bases])
        assert rep.sigmas.tobytes() == widths.tobytes()


def test_a_sweep_bounds_each_body_once(monkeypatch):
    calls = []
    prop = Polytope.__dict__["_bound"]
    assert isinstance(prop, cached_property)
    bound = prop.func
    monkeypatch.setattr(prop, "func", lambda p: calls.append(p) or bound(p))
    rng = np.random.default_rng(9)
    k, l = Polytope(rng.standard_normal((6, 3))), Polytope(rng.standard_normal((9, 3)))
    for d in (1, 2):
        assert shadow_sweep(k, l, d, count=50).samples == 50
    assert len(calls) == 2 and calls[0] is k and calls[1] is l


def test_sweep_subspaces_share_the_grid_and_draw_haar_from_rng():
    grid = sweep_subspaces(3, 2, 40)
    assert sweep_subspaces(3, 2, 40) is grid
    assert np.array_equal(grid[7].basis, hyperplane_basis(direction_grid(3, 40)[7]))
    drawn = sweep_subspaces(3, 1, 40, np.random.default_rng(2))
    rng = np.random.default_rng(2)
    assert all(np.array_equal(s.basis, haar_subspace(3, 1, rng).basis) for s in drawn)


def test_shadow_sweep_double_covers():
    rep = shadow_sweep(CUBE, scale(CUBE, 2.0), 2, count=50)
    assert rep.verdict == "covers"
    assert rep.min_sigma == pytest.approx(2.0, abs=1e-6)


def test_shadow_sweep_square_vs_polygon_fails():
    # 1D shadows are widths; the diagonal width of the square exceeds the
    # polygon's diameter, so some direction must fail
    rep = shadow_sweep(SQUARE105, DISK64, 1, count=200)
    assert rep.verdict == "fails"
    u = rep.argmin.basis[:, 0]
    wk = width_1d(SQUARE105.vertices, u)
    wl = width_1d(DISK64.vertices, u)
    assert wl / wk < 1.0
    assert rep.min_sigma == pytest.approx(wl / wk, abs=1e-6)


def test_shadow_sweep_width_oracle_agreement():
    # every 1D sample sigma equals the closed-form width ratio
    rep = shadow_sweep(SQUARE105, DISK64, 1, count=64)
    for basis, sigma in zip(rep.bases, rep.sigmas):
        u = basis[:, 0]
        expect = width_1d(DISK64.vertices, u) / width_1d(SQUARE105.vertices, u)
        assert sigma == pytest.approx(expect, abs=1e-7)


def test_shadow_sweep_min_recomputable():
    rep = shadow_sweep(SQUARE105, DISK64, 1, count=100)
    assert rep.min_sigma == np.min(rep.sigmas[np.isfinite(rep.sigmas)])


def test_refine_min_margin_descends():
    rep = shadow_sweep(SQUARE105, DISK64, 1, count=32)
    sub, refined = refine_min_margin(SQUARE105, DISK64, 1, rep.argmin, steps=60,
                                     rng=np.random.default_rng(1))
    assert refined <= rep.min_sigma + 1e-12
    # global optimum: diagonal direction of the square
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    best = width_1d(DISK64.vertices, diag) / width_1d(SQUARE105.vertices, diag)
    assert refined >= best - 1e-9


def test_refine_stays_above_one_for_contained():
    inner = Polytope(0.5 * CUBE.vertices, canonical=True)
    rep = shadow_sweep(inner, CUBE, 2, count=32)
    _, refined = refine_min_margin(inner, CUBE, 2, rep.argmin, steps=40,
                                   rng=np.random.default_rng(2))
    assert refined >= 1.0 - 1e-6


def test_simplex_edge_directions_count():
    t = Polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], canonical=True)
    assert len(simplex_edge_directions(t)) == 6


def test_edge_criterion_point_and_own_edge():
    t = Polytope([[0, 0], [2, 0], [0, 2]], canonical=True)
    assert simplex_edge_criterion(Polytope([[0.5, 0.5]]), t)
    edge = Polytope([[0.0, 0.0], [2.0, 0.0]])
    assert simplex_edge_criterion(edge, t)
    ok, _ = translate_fits(edge, t)
    assert ok


def test_edge_criterion_matches_translate_fits():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 60:
        n = int(rng.integers(2, 4))
        t = Polytope(rng.standard_normal((n + 1, n)) * 1.5)
        tc = canonicalize(t)
        if tc.nverts != n + 1:
            continue
        q = Polytope(rng.standard_normal((int(rng.integers(1, n + 1)), n)))
        sigma = scale_fit(q, tc).sigma
        if not math.isfinite(sigma) or abs(sigma - 1.0) <= 1e-5:
            continue
        verdict = simplex_edge_criterion(q, tc)
        direct, _ = translate_fits(q, tc)
        assert verdict == direct
        checked += 1


def test_edge_criterion_sigma_equals_min_edge_shadow():
    # the binding edge direction attains the full-body scale exactly
    rng = np.random.default_rng(21)
    from shadowcover.core import hyperplane_basis as hb
    checked = 0
    while checked < 25:
        n = int(rng.integers(2, 4))
        tc = canonicalize(Polytope(rng.standard_normal((n + 1, n)) * 1.5))
        if tc.nverts != n + 1:
            continue
        q = Polytope(rng.standard_normal((n, n)))
        full = scale_fit(q, tc).sigma
        if not math.isfinite(full):
            continue
        per_edge = []
        for e in simplex_edge_directions(tc):
            per_edge.append(shadow_fit(q, tc, Subspace(hb(e))).sigma)
        assert min(per_edge) == pytest.approx(full, rel=1e-6, abs=1e-8)
        checked += 1


def test_edge_criterion_preconditions():
    t = Polytope([[0, 0], [1, 0], [0, 1]], canonical=True)
    with pytest.raises(ValueError, match="at most"):
        simplex_edge_criterion(Polytope([[0, 0], [0.1, 0], [0, 0.1]]), t)
    degenerate = Polytope([[0, 0], [1, 0], [2, 0]])
    with pytest.raises(ValueError, match="simplex"):
        simplex_edge_criterion(Polytope([[0.0, 0.0]]), degenerate)


def test_oblique_identity_and_scaling_agree():
    rng = np.random.default_rng(5)
    k = Polytope(rng.standard_normal((5, 3)))
    l = Polytope(rng.standard_normal((6, 3)) * 1.5)
    u = rng.standard_normal(3)
    for m in (np.eye(3), 3.0 * np.eye(3)):
        rep = oblique_equivalence_check(k, l, m, u)
        assert rep.agrees


def test_oblique_shear_preserves_sigma():
    rng = np.random.default_rng(6)
    for _ in range(20):
        k = Polytope(rng.standard_normal((5, 3)))
        l = Polytope(rng.standard_normal((6, 3)) * 1.4)
        shear = np.eye(3)
        shear[0, 1] = rng.uniform(-1.0, 1.0)
        shear[2, 0] = rng.uniform(-1.0, 1.0)
        u = rng.standard_normal(3)
        rep = oblique_equivalence_check(k, l, shear, u)
        assert rep.agrees
        assert rep.sigma_mapped == pytest.approx(rep.sigma_orig, rel=1e-6, abs=1e-8)


def test_oblique_singular_rejected():
    m = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="singular"):
        oblique_equivalence_check(CUBE, CUBE, m, np.array([0, 0, 1.0]))


def test_oblique_singularity_is_relative_to_the_map():
    # a small multiple of the identity is as regular as the identity, and a
    # map of condition number 1e10 is singular at TOL_FEAS, whatever their
    # determinants (1e-12 and 1)
    rng = np.random.default_rng(9)
    k = Polytope(rng.standard_normal((5, 3)))
    l = Polytope(rng.standard_normal((6, 3)) * 1.5)
    u = rng.standard_normal(3)
    rep = oblique_equivalence_check(k, l, 1e-4 * np.eye(3), u)
    assert rep.agrees and rep.sigma_mapped == pytest.approx(rep.sigma_orig, rel=1e-9)
    with pytest.raises(ValueError, match="singular"):
        oblique_equivalence_check(k, l, np.diag([1e5, 1.0, 1e-5]), u)


def _plane_embed(points2d, z=0.0):
    pts = np.asarray(points2d, float)
    return Polytope(np.column_stack([pts, np.full(len(pts), z)]))


def test_flat_lift_orthogonal_subspace():
    k = _plane_embed([[0, 0], [1, 0], [0, 1]])
    l = _plane_embed([[-1, -1], [2, -1], [-1, 2], [2, 2]])
    rep = flat_lift_check(k, l, Subspace(np.array([[0.0], [0.0], [1.0]])))
    assert rep.applicable and rep.holds


def test_flat_lift_random_lines():
    rng = np.random.default_rng(11)
    k = _plane_embed([[0, 0], [1, 0], [0, 1], [1, 1]])
    l = _plane_embed([[-1, -1], [2.5, -1], [-1, 2.5], [2.5, 2.5]])
    for _ in range(25):
        eta = orthonormalize(rng.standard_normal((3, 1)))
        rep = flat_lift_check(k, l, eta)
        assert rep.applicable
        assert rep.holds
        assert rep.support_dominates


def test_flat_lift_rejects_full_dimensional_bodies():
    with pytest.raises(ValueError, match="ambient"):
        flat_lift_check(CUBE, CUBE, Subspace(np.array([[0.0], [0.0], [1.0]])))


def test_few_vertex_covering_implies_containment():
    # Q with at most n canonical vertices: hyperplane-shadow covering with a
    # healthy margin implies full containment
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 10:
        q = Polytope(rng.standard_normal((3, 3)))
        l = Polytope(rng.standard_normal((7, 3)) * 1.6)
        rep = shadow_sweep(q, l, 2, count=400)
        if rep.verdict != "covers" or rep.min_sigma < 1.05:
            continue
        ok, _ = translate_fits(q, l)
        assert ok
        checked += 1


def test_simplex_edge_criterion_is_unit_free():
    # the edge directions were normalized under an absolute zero test,
    # which raised for a simplex at 1e-10 scale
    t = Polytope([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
    q = Polytope([[0.1, 0.1, 0.1], [0.3, 0.1, 0.1], [0.1, 0.3, 0.1]])
    for factor in (1e-10, 1.0, 1e9):
        assert simplex_edge_criterion(scale(q, 3.0 * factor), scale(t, factor))
        assert not simplex_edge_criterion(scale(q, 6.0 * factor), scale(t, factor))

def test_flat_lift_check_is_unit_free():
    # criterion 7's pair: the common flat had an absolute rank cutoff, so
    # it raised at 1e-7 scale and found no flat directions at 1e-9
    from shadowcover.construct import build_counterexample_d, canonical_tetra_quad
    _, quad = canonical_tetra_quad()
    ce = build_counterexample_d(quad, 1, rng=7, directions=600, sweep_count=1000,
                                lift_checks=50)
    inflated = scale(ce.body, ce.epsilon)
    rng = np.random.default_rng(77)
    for _ in range(5):
        eta = haar_subspace(3, 1, rng)
        base = flat_lift_check(inflated, ce.cover, eta)
        assert base.applicable and base.holds and base.support_dominates
        for factor in (1e-7, 1e-9):
            rep = flat_lift_check(scale(inflated, factor), scale(ce.cover, factor), eta)
            assert (rep.applicable, rep.holds, rep.support_dominates) == (True, True, True)
            assert rep.sigma_inflat == pytest.approx(base.sigma_inflat, rel=1e-12, abs=0.0)
            assert rep.sigma_ambient == pytest.approx(base.sigma_ambient, rel=1e-12, abs=0.0)
            assert np.allclose(rep.translation, factor * base.translation,
                               rtol=0.0, atol=1e-12 * factor)
