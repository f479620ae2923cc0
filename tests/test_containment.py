import math
from fractions import Fraction
from itertools import chain, combinations, product

import numpy as np
import pytest

from oracles import (
    _scale_fit_lp,
    grid_scale_fit_2d,
    highs_sigma,
    highs_subset_sigmas,
    ray_sigma,
)

from shadowcover import bodies, containment, lp
from shadowcover.bodies import Polytope, canonicalize, point_in_hull, project, scale, translate
from shadowcover.containment import (
    inscribed_equivalence_check,
    min_subset_sigma,
    scale_fit,
    subset_witness,
    translate_fits,
)
from shadowcover.construct import build_counterexample
from shadowcover.core import TOL_GEOM, Subspace
from shadowcover.shadows import shadow_fit, sweep_subspaces

UNIT_SQUARE = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], canonical=True)
TRIANGLE = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], canonical=True)


def square(side, corner=(0.0, 0.0)):
    cx, cy = corner
    return Polytope([[cx, cy], [cx + side, cy], [cx, cy + side], [cx + side, cy + side]],
                    canonical=True)


def fit_replays(k, l, fit):
    """Certificate replay: every sigma*x + v lies in L (point-in-hull LP)."""
    return all(point_in_hull(fit.sigma * x + fit.translation, l) for x in k.vertices)


def test_scale_fit_identical_bodies():
    fit = scale_fit(UNIT_SQUARE, UNIT_SQUARE)
    assert fit.status == "ok"
    assert fit.sigma == pytest.approx(1.0, abs=1e-9)


def test_scale_fit_homothety():
    fit = scale_fit(UNIT_SQUARE, square(2.0))
    assert fit.sigma == pytest.approx(2.0, abs=1e-9)


def test_scale_fit_reflected_triangle_known_ratio():
    # reflected simplex fits at exactly 1/n
    neg = Polytope(-TRIANGLE.vertices)
    fit = scale_fit(neg, TRIANGLE)
    assert fit.sigma == pytest.approx(0.5, abs=1e-9)
    oracle = grid_scale_fit_2d(neg.vertices, TRIANGLE.vertices)
    assert abs(fit.sigma - oracle) <= 2e-3


def test_scale_fit_triangle_in_square():
    fit = scale_fit(TRIANGLE, UNIT_SQUARE)
    assert fit.sigma == pytest.approx(1.0, abs=1e-9)
    oracle = grid_scale_fit_2d(TRIANGLE.vertices, UNIT_SQUARE.vertices)
    assert abs(fit.sigma - oracle) <= 2e-3


def test_scale_fit_single_point_degenerate():
    pt = Polytope([[0.3, 0.4]])
    fit = scale_fit(pt, UNIT_SQUARE)
    assert fit.degenerate
    assert fit.sigma == math.inf


@pytest.mark.parametrize("dk,dl", [(1, 2), (2, 1), (2, 3), (3, 2)])
def test_scale_fit_rejects_bodies_of_different_dimension(dk, dl):
    # every route, the interval and planar ones included, checks both bodies
    rng = np.random.default_rng(dk + dl)
    k, l = Polytope(rng.standard_normal((5, dk))), Polytope(rng.standard_normal((6, dl)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        scale_fit(k, l)


def test_scale_fit_certificate_replay():
    rng = np.random.default_rng(5)
    for _ in range(15):
        k = Polytope(rng.standard_normal((5, 2)))
        l = Polytope(rng.standard_normal((6, 2)) * 1.5)
        fit = scale_fit(k, l)
        assert fit_replays(k, l, fit)


def test_translate_fits_verdicts():
    ok, v = translate_fits(UNIT_SQUARE, square(2.0))
    assert ok
    shifted = UNIT_SQUARE.vertices + v
    assert all(point_in_hull(x, square(2.0)) for x in shifted)
    bad, w = translate_fits(square(2.0), UNIT_SQUARE)
    assert not bad and w is None
    same, v0 = translate_fits(UNIT_SQUARE, UNIT_SQUARE)
    assert same
    assert np.allclose(UNIT_SQUARE.vertices + v0, UNIT_SQUARE.vertices, atol=1e-7)


@pytest.mark.parametrize("n", [2, 3])
def test_translate_fits_witness_replays(n):
    # the unit-scale witness comes from the scale fit by convexity: K + v
    # lies in L for sigma well above and just above 1; inside the band
    # [1 - tol, 1) it is the optimal-scale translation, so sigma*K + v does
    rng = np.random.default_rng(71 + n)
    for target in (40.0, 1.0 + 1e-7, 1.0 - 0.5 * TOL_GEOM):
        for _ in range(8):
            k = Polytope(rng.standard_normal((int(rng.integers(n + 1, n + 5)), n)))
            l0 = Polytope(rng.standard_normal((int(rng.integers(n + 1, n + 6)), n)))
            l = scale(l0, target / scale_fit(k, l0).sigma)
            fit = scale_fit(k, l)
            ok, v = translate_fits(k, l)
            assert ok
            t = 1.0 if fit.sigma >= 1.0 else fit.sigma
            assert t == 1.0 or target < 1.0
            assert all(point_in_hull(t * x + v, l) for x in k.vertices)
    ok, v = translate_fits(Polytope(np.full((2, n), 0.3)), l)
    assert ok and v == pytest.approx(l.vertices[0] - 0.3)


def test_scale_fit_translation_invariance():
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = Polytope(rng.standard_normal((5, 3)))
        l = Polytope(rng.standard_normal((6, 3)) * 1.3)
        base = scale_fit(k, l).sigma
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        moved = scale_fit(translate(k, a), translate(l, b)).sigma
        assert moved == pytest.approx(base, abs=1e-9)


def test_scale_fit_scaling_covariance():
    rng = np.random.default_rng(13)
    for _ in range(10):
        k = Polytope(rng.standard_normal((5, 2)))
        l = Polytope(rng.standard_normal((6, 2)))
        c = float(rng.uniform(0.5, 2.5))
        base = scale_fit(k, l).sigma
        scaled = scale_fit(scale(k, c), l).sigma
        assert scaled == pytest.approx(base / c, rel=1e-9)


def test_scale_fit_monotone_in_target():
    rng = np.random.default_rng(17)
    for _ in range(10):
        k = Polytope(rng.standard_normal((5, 2)))
        l = Polytope(rng.standard_normal((5, 2)))
        bigger = Polytope(np.vstack([l.vertices, rng.standard_normal((3, 2)) * 2.0]))
        assert scale_fit(k, l).sigma <= scale_fit(k, bigger).sigma + 1e-6


def test_lp_vs_grid_oracle_random_pairs():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 12:
        k = Polytope(rng.standard_normal((int(rng.integers(4, 9)), 2)))
        l = Polytope(rng.standard_normal((int(rng.integers(4, 9)), 2)))
        fit = scale_fit(k, l)
        if fit.degenerate:
            continue
        oracle = grid_scale_fit_2d(k.vertices, l.vertices)
        assert abs(fit.sigma - oracle) <= 2e-3
        checked += 1


def test_subset_witness_found_and_replays():
    shrunk = scale(UNIT_SQUARE, 0.99)
    w = subset_witness(UNIT_SQUARE, shrunk, 3)
    assert w is not None and len(w) == 3
    sub = Polytope(UNIT_SQUARE.vertices[w])
    assert scale_fit(sub, shrunk).sigma < 1.0


def test_subset_witness_none_when_fits():
    big = square(10.0, corner=(-5.0, -5.0))
    assert subset_witness(TRIANGLE, big, 3) is None


def test_subset_witness_segment_endpoints():
    k = Polytope([[0.0], [2.0]], canonical=True)
    l = Polytope([[0.0], [1.0]], canonical=True)
    assert subset_witness(k, l, 2) == [0, 1]


def test_helly_vertex_reduction():
    # every (n+1)-subset fits  =>  the whole body fits
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        k = canonicalize(Polytope(rng.standard_normal((6, n))))
        l = Polytope(rng.standard_normal((7, n)) * 1.5)
        if subset_witness(k, l, n + 1) is None:
            ok, _ = translate_fits(k, l)
            assert ok


def test_equivalence_check_randomized():
    rng = np.random.default_rng(31)
    hard_failures = 0
    for _ in range(30):
        n = int(rng.integers(2, 4))
        k = canonicalize(Polytope(rng.standard_normal((6, n))))
        l0 = Polytope(rng.standard_normal((6, n)))
        base = scale_fit(k, l0)
        if base.degenerate or base.sigma <= 0:
            continue
        target = float(rng.choice([0.7, 1.3]))
        l = scale(l0, target / base.sigma)
        rep = inscribed_equivalence_check(k, l)
        if not rep.agrees and not rep.borderline:
            hard_failures += 1
        if not rep.borderline:
            assert rep.agrees
            assert rep.fits == (target > 1.0)
    assert hard_failures == 0


def test_min_subset_sigma_matches_witness_verdict():
    shrunk = scale(UNIT_SQUARE, 0.9)
    assert min_subset_sigma(UNIT_SQUARE, shrunk, 3) < 1.0
    assert min_subset_sigma(TRIANGLE, square(5.0, corner=(-2.0, -2.0)), 3) > 1.0


def _lp_sigma(k, l):
    out = lp.solve(_scale_fit_lp(k.vertices, l.vertices))
    return math.inf if out.status == lp.UNBOUNDED else out.objective


def _dual_route(k, l):
    """The 1-D/2-D scale fit against the plain LP, with its witness replayed."""
    fit = scale_fit(k, l)
    ref = _lp_sigma(k, l)
    if fit.degenerate:
        assert ref == math.inf
        return fit
    assert fit.sigma == pytest.approx(ref, rel=1e-9, abs=1e-12)
    assert fit_replays(k, l, fit)
    return fit


def test_low_dim_fit_matches_lp_random():
    rng = np.random.default_rng(53)
    for trial in range(80):
        n = 1 + trial % 2
        k = Polytope(rng.standard_normal((int(rng.integers(2, 8)), n)))
        l = Polytope(rng.standard_normal((int(rng.integers(2, 10)), n)) * rng.uniform(0.5, 2.0))
        _dual_route(k, l)


def test_interval_fit_of_a_point_is_unbounded():
    # K's extremes compare exactly, as the equal-points test did: a point,
    # and a segment orthogonal to the line it is projected on
    seg = Polytope([[-1.0], [2.0]])
    for k in (Polytope([[0.5]]), Polytope([[0.5], [0.5], [0.5]])):
        fit = scale_fit(k, seg)
        assert fit.sigma == math.inf and fit.translation is None
    line = Subspace(np.array([[1.0], [0.0]]))
    fit = shadow_fit(Polytope([[0.3, -1.0], [0.3, 4.0]]), UNIT_SQUARE, line)
    assert fit.sigma == math.inf and fit.translation is None
    assert scale_fit(Polytope([[0.5], [np.nextafter(0.5, 1.0)]]), seg).sigma < math.inf


def test_low_dim_fit_point_is_degenerate():
    # a point K is degenerate before any route is taken, a flat L in R^3 included
    flat = np.column_stack([np.random.default_rng(4).standard_normal((5, 2)), np.zeros(5)])
    cases = [(n, Polytope(np.random.default_rng(n).standard_normal((5, n)))) for n in (1, 2, 3)]
    for n, l in cases + [(3, Polytope(flat))]:
        for value in (0.25, 0.1):
            pt = Polytope(np.full((3, n), value))
            fit = _dual_route(pt, l)
            assert fit.degenerate and fit.sigma == math.inf and fit.translation is None


def test_low_dim_fit_segment_in_polygon():
    seg = Polytope([[0.0, 0.0], [1.0, 0.5]])
    fit = _dual_route(seg, square(1.0))
    assert fit.sigma == pytest.approx(1.0, abs=1e-12)
    fit = _dual_route(Polytope([[0.0], [0.5]]), Polytope([[-1.0], [2.0], [0.3]]))
    assert fit.sigma == pytest.approx(6.0, abs=1e-12)
    assert fit.translation == pytest.approx([-1.0], abs=1e-12)


def test_subset_witness_on_a_raw_body_solves_no_lp(lp_calls):
    # K carries an interior point and a duplicate: the least subset fit and its
    # argmin subset come from L's dual rays over all of K's points, with no
    # LP, and match a HiGHS enumeration of the subsets of K's distinct points
    rng = np.random.default_rng(137)
    pairs = []
    for i in range(40):
        n = 2 + i % 2
        pts = rng.standard_normal((7, n))
        k = Polytope(np.vstack([pts, pts.mean(axis=0), pts[0]]))
        pairs.append((k, Polytope(rng.standard_normal((8, n)) * (1.5 + i % 4))))
    witnesses = [subset_witness(k, l, k.dim + 1) for k, l in pairs]
    margins = [min_subset_sigma(k, l, k.dim + 1) for k, l in pairs]
    scale_fit(*pairs[1])
    assert lp_calls == []
    point_in_hull(pairs[1][0].vertices[0], pairs[1][1])
    assert lp_calls == ["solve"]  # the spy sees the library's LPs
    for (k, l), w, margin in zip(pairs, witnesses, margins):
        least = highs_subset_sigmas(k.vertices, l.vertices, k.dim + 1)[1].min()
        assert margin == pytest.approx(least, rel=1e-12, abs=0.0)
        assert (w is None) == (least >= 1.0 - TOL_GEOM)
        if w is not None:
            assert len(w) <= k.dim + 1 and w == sorted(set(w))
            assert highs_sigma(k.vertices[w], l.vertices) == pytest.approx(least, rel=1e-12,
                                                                            abs=0.0)
    for n in (2, 3):
        found = [w for (k, _), w in zip(pairs, witnesses) if k.dim == n]
        assert any(w is None for w in found) and any(w is not None for w in found)


def test_planar_fit_of_a_flat_or_large_l_solves_no_lp(lp_calls, monkeypatch):
    # a flat L in the plane is fit in its own frame, and an L of any number of
    # edges by the planar walk, with no LP; the dual simplex walk over a
    # 60-gon's edges, the fallback of a planar walk that fails, matches HiGHS
    # and its witness replays
    edge_walks = []
    original = containment._walk
    monkeypatch.setattr(containment, "_walk",
                        lambda *args: edge_walks.append(len(args[4])) or original(*args))
    rng = np.random.default_rng(127)
    segment = Polytope([[0.0, 0.0], [2.0, 1.0], [1.0, 0.5]])
    fit = _dual_route(Polytope([[0.0, 0.0], [1.0, 0.5]]), segment)
    assert fit.sigma == pytest.approx(2.0, abs=1e-9)
    assert _dual_route(TRIANGLE, segment).sigma == 0.0
    _dual_route(TRIANGLE, UNIT_SQUARE)
    theta = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
    sixty_gon = Polytope(np.column_stack([np.cos(theta), np.sin(theta)]) * 3.0 + 1e3)
    for k in (TRIANGLE, Polytope(rng.standard_normal((7, 2)) + 1e3)):
        lp_calls.clear()
        fit = scale_fit(k, sixty_gon)
        assert lp_calls == []
        assert fit.sigma == pytest.approx(_dual_route(k, sixty_gon).sigma, rel=1e-12, abs=0.0)
        assert min_subset_sigma(k, sixty_gon, 3) == pytest.approx(fit.sigma, rel=1e-9, abs=0.0)
        for factor in (1e-9, 1e9):
            small = scale_fit(scale(k, factor), scale(sixty_gon, factor))
            assert small.sigma == pytest.approx(fit.sigma, rel=1e-9, abs=0.0)
        assert edge_walks == []
        lp_calls.clear()
        walk = containment._walk(k.vertices, sixty_gon.vertices,
                                 *containment._supports(k, sixty_gon))
        assert lp_calls == [] and edge_walks == [60]
        want = highs_sigma(k.vertices, sixty_gon.vertices)
        assert walk.sigma == pytest.approx(want, rel=1e-12, abs=0.0)
        assert fit.sigma == pytest.approx(want, rel=1e-12, abs=0.0)
        assert fit_replays(k, sixty_gon, walk)
        edge_walks.clear()


def test_planar_walk_fits_a_200_gon_like_highs(lp_calls):
    # no edge count sends a planar fit to the facet LP: K in a 200-gon, and a
    # 200-gon K in a triangle and a turned 12-gon, against HiGHS's V-form LP
    rng = np.random.default_rng(173)
    theta = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    ring = np.column_stack([np.cos(theta), np.sin(theta)])
    gon = Polytope(ring * 5.0 + 2.0)
    assert len(containment._supports(TRIANGLE, gon)[2]) == 200
    twelve = np.column_stack([np.cos(theta[::17]), np.sin(theta[::17])])
    pairs = [(Polytope(rng.standard_normal((int(rng.integers(2, 9)), 2))), gon) for _ in range(8)]
    pairs += [(gon, Polytope(30.0 * TRIANGLE.vertices)),
              (gon, Polytope(twelve @ _rotation(rng, 2).T))]
    for k, l in pairs:
        lp_calls.clear()
        fit = scale_fit(k, l)
        assert lp_calls == []   # fit_replays' point-in-hull LPs call lp.solve
        assert fit.sigma == pytest.approx(highs_sigma(k.vertices, l.vertices), rel=1e-9, abs=0.0)
        assert fit_replays(k, l, fit)


def test_planar_fit_parallelogram_target():
    # edge normals come in antipodal pairs, so strips compete with triangles
    rng = np.random.default_rng(59)
    for _ in range(30):
        e1, e2, o = rng.standard_normal((3, 2))
        l = Polytope(np.array([[0.0, 0.0], e1, e2, e1 + e2]) + o)
        k = Polytope(rng.standard_normal((int(rng.integers(2, 7)), 2)) * 0.3)
        _dual_route(k, l)
    _dual_route(scale(UNIT_SQUARE, 0.5), UNIT_SQUARE)
    _dual_route(Polytope([[0.0, 0.0], [0.0, 1.0]]), square(2.0))


def test_planar_fit_repeated_and_collinear_vertices():
    rng = np.random.default_rng(61)
    for _ in range(30):
        lv = rng.standard_normal((6, 2))
        w = rng.uniform(0.1, 0.9)
        l = Polytope(np.vstack([lv, lv[:2], lv[2], (1 - w) * lv[0] + w * lv[1]]))
        kv = rng.standard_normal((4, 2))
        k = Polytope(np.vstack([kv, kv[1], 0.5 * (kv[0] + kv[2])]))
        _dual_route(k, l)
    _dual_route(TRIANGLE, Polytope([[0, 0], [1, 0], [2, 0], [2, 2], [0, 2], [0, 1], [2, 2]]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_low_dim_fit_is_scale_and_offset_free(n):
    rng = np.random.default_rng(67 + n)
    for _ in range(10):
        kv = rng.standard_normal((5, n))
        lv = rng.standard_normal((7, n)) * 1.5
        base = scale_fit(Polytope(kv), Polytope(lv)).sigma
        for factor in (1e9, 1e-9):
            got = scale_fit(Polytope(kv * factor), Polytope(lv * factor)).sigma
            assert got == pytest.approx(base, rel=1e-12, abs=0.0)
        off = np.full(n, 1e9)
        got = scale_fit(Polytope(kv + off), Polytope(lv + off)).sigma
        assert got == pytest.approx(base, rel=1e-6)


def test_lp_fit_witness_replays_and_matches_highs():
    # the 3-D fit walks L's facets from n + 1 half-spaces that support L; its
    # witness replays, and its sigma matches HiGHS's V-form LP and the
    # library's two-phase lp.solve of the same LP
    rng = np.random.default_rng(79)
    for _ in range(30):
        k = Polytope(rng.standard_normal((6, 3)) + rng.uniform(-3.0, 3.0, 3))
        l = Polytope(rng.standard_normal((8, 3)) * rng.uniform(0.5, 3.0))
        fit = scale_fit(k, l)
        assert fit.status == "ok" and fit_replays(k, l, fit)
        want = highs_sigma(k.vertices, l.vertices)
        assert fit.sigma == pytest.approx(want, rel=1e-12, abs=0.0)
        assert fit.sigma == pytest.approx(_lp_sigma(k, l), rel=1e-9, abs=0.0)


def _scale_fit_lp_loop(kv, lv, fixed_t=None):
    """Reference: the scale-fit LP filled one K-vertex block at a time."""
    mk, n = kv.shape
    ml = lv.shape[0]
    off = 1 if fixed_t is None else 0
    a = np.zeros((mk * (n + 1), off + n + mk * ml))
    b = np.zeros(mk * (n + 1))
    for i in range(mk):
        r0, lam0 = i * (n + 1), off + n + i * ml
        if fixed_t is None:
            a[r0:r0 + n, 0] = kv[i]
        else:
            b[r0:r0 + n] = -fixed_t * kv[i]
        a[r0:r0 + n, off:off + n] = np.eye(n)
        a[r0:r0 + n, lam0:lam0 + ml] = -lv.T
        a[r0 + n, lam0:lam0 + ml] = 1.0
        b[r0 + n] = 1.0
    c = np.zeros(a.shape[1])
    c[0] = 1.0 if fixed_t is None else 0.0
    nonneg = np.ones(a.shape[1], dtype=bool)
    nonneg[off:off + n] = False
    return a, b, c, nonneg


@pytest.mark.parametrize("fixed_t", [None, 1.0, 0.7])
def test_scale_fit_lp_matches_loop_reference(fixed_t):
    rng = np.random.default_rng(83)
    for n, mk, ml in [(1, 1, 1), (2, 3, 4), (3, 4, 8), (3, 7, 5), (4, 2, 9)]:
        kv, lv = rng.standard_normal((mk, n)), rng.standard_normal((ml, n))
        prob = _scale_fit_lp(kv, lv, fixed_t=fixed_t)
        for got, want in zip((prob.A, prob.b, prob.c, prob.nonneg),
                             _scale_fit_lp_loop(kv, lv, fixed_t)):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def _random_pair(rng, mk=(2, 11), ml=(4, 17)):
    k = rng.standard_normal((int(rng.integers(*mk)), 3)) + rng.uniform(-3.0, 3.0, 3)
    l = rng.standard_normal((int(rng.integers(*ml)), 3)) * rng.uniform(0.3, 3.0)
    return k, l


def test_facet_fit_matches_vform_lp():
    # the fit over L's facets and HiGHS's LP over convex combinations agree
    # on random pairs and on their scaled and offset copies
    rng = np.random.default_rng(109)
    for _ in range(40):
        kv, lv = _random_pair(rng)
        for kk, ll in ((kv, lv), (kv * 1e9, lv * 1e9), (kv * 1e-9, lv * 1e-9),
                       (kv + 1e9, lv + 1e9)):
            fit = scale_fit(Polytope(kk), Polytope(ll))
            assert fit.sigma == pytest.approx(highs_sigma(kk, ll), rel=1e-12, abs=0.0)


def test_facet_fit_witness_replays(lp_calls):
    rng = np.random.default_rng(113)
    for _ in range(20):
        kv, lv = _random_pair(rng)
        k, l = Polytope(kv), Polytope(lv)
        fit = scale_fit(k, l)
        ok, v = translate_fits(k, scale(l, 1.1 / fit.sigma))
        assert lp_calls == []
        assert fit_replays(k, l, fit)
        assert ok and all(point_in_hull(x + v, scale(l, 1.1 / fit.sigma)) for x in k.vertices)
        lp_calls.clear()


def test_facet_fit_witnesses_meet_the_unit_frame_rule():
    # the facet walk's witness is checked in the frame where L's polar points
    # have unit second moment; mapped back to the facets a.x <= b of L's
    # hull record, it meets TOL_FEAS of the largest b there too, on clouds
    # from R^3 to R^5 and on K in a 60-gon, which the planar walk fits otherwise
    rng = np.random.default_rng(157)
    theta = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
    gon = 3.0 * np.column_stack([np.cos(theta), np.sin(theta)]) + 1e3
    cases = [(rng.standard_normal((7, 2)) + 1e3, gon) for _ in range(10)]
    for i in range(60):
        n = 3 + i % 3
        kv, lv = rng.standard_normal((n + 1 + i % 5, n)), rng.standard_normal((n + 4 + i % 7, n))
        cases.append((kv + rng.uniform(-3.0, 3.0, n), lv * rng.uniform(0.5, 3.0)))
    for kv, lv in cases:
        lc, s, a, b = containment._supports(Polytope(kv), Polytope(lv))
        fit = containment._walk(kv, lv, lc, s, a, b)
        kc = kv.sum(axis=0) / len(kv)
        h = (a @ ((kv - kc) / s).T).max(axis=1)
        v = (fit.translation - lc + fit.sigma * kc) / s
        assert (a @ v + fit.sigma * h - b).max() <= containment.TOL_FEAS * b.max()


def _rotation(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)))[0]


def test_full_l_reaches_only_the_facet_lp(lp_calls):
    # a flat L in R^3 or R^4 is fit in its own frame, and a full one in any
    # dimension over its facets, by the planar walk or the facet walk: none
    # of these fits, subset searches or canonicalizations calls lp
    rng = np.random.default_rng(127)
    k = Polytope(rng.standard_normal((4, 3)) * 0.1)
    k_flat = Polytope(k.vertices * [1.0, 1.0, 0.0])
    flat = Polytope(np.column_stack([rng.standard_normal((6, 2)), np.zeros(6)]))
    assert scale_fit(k_flat, flat).sigma == pytest.approx(_lp_sigma(k_flat, flat), rel=1e-9,
                                                          abs=0.0)
    assert scale_fit(k, flat).sigma == 0.0
    big = Polytope(rng.standard_normal((25, 3)))
    assert scale_fit(k, big).sigma == pytest.approx(_lp_sigma(k, big), rel=1e-9, abs=0.0)
    scale_fit(k, Polytope(rng.standard_normal((200, 3))))
    line = np.array([[1.0, 2.0, -1.0]])
    for ends, sigma in (([[0.0], [0.5]], 6.0), ([[0.0], [0.5], [0.2]], 6.0)):
        k_seg = Polytope(np.array(ends) @ line + [0.3, -0.2, 0.1])
        l_seg = Polytope(np.array([[-1.0], [2.0], [0.5]]) @ line)
        fit = scale_fit(k_seg, l_seg)
        assert fit.sigma == pytest.approx(sigma, rel=1e-12, abs=0.0)
        assert fit.sigma == pytest.approx(_lp_sigma(k_seg, l_seg), rel=1e-9, abs=0.0)
        assert fit_replays(k_seg, l_seg, fit)
    assert scale_fit(k_flat, l_seg).sigma == 0.0
    kv, lv = rng.standard_normal((5, 3)), 2.0 * rng.standard_normal((9, 3))
    embed = _rotation(rng, 4)[:, :3]
    k4, l4 = Polytope(kv @ embed.T + 5.0), Polytope(lv @ embed.T + 5.0)
    fit = scale_fit(k4, l4)
    assert fit.sigma == pytest.approx(scale_fit(Polytope(kv), Polytope(lv)).sigma, rel=1e-12,
                                      abs=0.0)
    assert fit_replays(k4, l4, fit)
    lp_calls.clear()
    for n in (2, 3, 4, 5):
        for _ in range(4):
            k, l = Polytope(rng.standard_normal((n + 3, n))), Polytope(rng.standard_normal((9, n)))
            fit = scale_fit(k, l)
            eps = [min_subset_sigma(k, l, d + 1) for d in range(1, n + 1)]
            subset_witness(k, l, n + 1)
            canonicalize(Polytope(np.vstack([l.vertices, l.vertices.mean(axis=0)])))
            assert lp_calls == []
            want = highs_sigma(k.vertices, l.vertices)
            assert fit.sigma == pytest.approx(want, rel=1e-12, abs=0.0)
            assert eps[-1] == pytest.approx(want, rel=1e-9, abs=0.0)
            assert fit_replays(k, l, fit)
            lp_calls.clear()


def test_flat_pairs_of_equal_rank():
    # non-parallel flats: no t > 0 fits, and sigma = 0 at a vertex of L.
    # Parallel flats: the fit in L's frame, whose witness carries K onto L's
    # flat and replays there
    rng = np.random.default_rng(149)
    for n in (2, 3):
        rot = _rotation(rng, n)
        base = np.zeros((6, n))
        base[:, :n - 1] = rng.standard_normal((6, n - 1))
        l = Polytope(base @ rot.T + 2.0)
        tilted = base.copy()
        tilted[:, -1] = tilted[:, 0]
        k = Polytope(0.1 * tilted[:4] @ rot.T)
        fit = scale_fit(k, l)
        assert fit.sigma == 0.0 and fit_replays(k, l, fit)
        k = Polytope((0.3 * base[:4] + np.eye(n)[-1]) @ rot.T + 2.0)
        fit = scale_fit(k, l)
        want = scale_fit(Polytope(0.3 * base[:4, :n - 1]), Polytope(base[:, :n - 1])).sigma
        assert fit.sigma == pytest.approx(want, rel=1e-12, abs=0.0)
        assert fit_replays(k, l, fit)
        assert min_subset_sigma(k, l, n) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_flat_pair_fits_match_the_planar_fit():
    # K in a plane parallel to a flat L, offset up to 1e3, both rotated
    # into R^3: the fit is the planar fit of their 2-D coordinates
    rng = np.random.default_rng(151)
    worst = 0.0
    for i in range(150):
        kv2 = rng.standard_normal((int(rng.integers(2, 8)), 2)) * 0.5
        lv2 = rng.standard_normal((int(rng.integers(3, 10)), 2)) * rng.uniform(0.5, 2.0)
        want = scale_fit(Polytope(kv2), Polytope(lv2)).sigma
        rot = _rotation(rng, 3)
        offset = 10.0 ** rng.uniform(-3.0, 3.0) * rng.choice([-1.0, 1.0])
        place = rng.uniform(-1e3, 1e3, 3) * (i % 2)
        k = Polytope(np.column_stack([kv2, np.full(len(kv2), offset)]) @ rot.T + place)
        l = Polytope(np.column_stack([lv2, np.zeros(len(lv2))]) @ rot.T + place)
        fit = scale_fit(k, l)
        worst = max(worst, abs(fit.sigma - want) / want)
        # the witness carries sigma*K onto L's plane, inside L
        moved = ((fit.sigma * k.vertices + fit.translation) - place) @ rot
        assert np.abs(moved[:, 2]).max() <= 1e-9 * (1.0 + np.abs(place).max())
    assert worst <= 1e-12


def _degenerate_ls(rng):
    """L with exactly or nearly antipodal or coplanar normals, whose short
    rays arrive through the subsets that pad them: a cube, a rotated
    hexagonal prism, a cube with repeated points, a square and a rotated
    regular hexagon; and a rotated slab 1e-6 thick, whose normals crowd
    near two antipodal directions.  Each comes with the relative tolerance
    of its check: 1e-8 on the slab, the per-subset LP's own accuracy there."""
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    cube = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)])
    turns = np.arange(6) * np.pi / 3.0
    hexagon = np.column_stack([np.cos(turns), np.sin(turns)])
    prism = np.vstack([np.column_stack([hexagon, np.full(6, z)]) for z in (-1.0, 1.0)])
    ls = [cube, prism @ rot.T + 5.0, np.vstack([cube, cube[:3]]),
          np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]), hexagon @ rot[:2, :2].T]
    slab = rng.standard_normal((10, 3)) * [1.0, 1.0, 1e-6] @ rot.T
    return [(lv, 1e-12) for lv in ls] + [(slab, 1e-8)]


def test_subset_fits_share_facets_and_match_enumeration(hull_calls):
    # decide-style pairs and degenerate L: the least subset fit from L's dual
    # rays equals a HiGHS enumeration of the subsets, the witness is its
    # argmin subset, and every search reads L's facets from its one hull
    rng = np.random.default_rng(131)
    cases = []
    for i in range(60):
        k = canonicalize(Polytope(rng.standard_normal((6 + i % 5, 3))))
        l = Polytope(rng.standard_normal((8 + i % 7, 3)) * (1.5, 2.0, 2.5, 3.0)[i % 4])
        cases.append((k, l, 4, 1e-12))
    for lv, rel in _degenerate_ls(rng):
        n = lv.shape[1]
        for kcount in (3, 4):
            k = canonicalize(Polytope(rng.standard_normal((7, n)) * (0.6 if n == 3 else 0.8)))
            cases.append((k, Polytope(lv), kcount, rel))
    for k, l, kcount, rel in cases:
        hull_calls.clear()
        witness, eps = subset_witness(k, l, kcount), min_subset_sigma(k, l, kcount)
        assert len(hull_calls) == (l.dim == 3)
        least = highs_subset_sigmas(k.vertices, l.vertices, kcount)[1].min()
        assert eps == pytest.approx(least, rel=rel)
        assert (witness is None) == (least >= 1.0 - TOL_GEOM)
        if witness is not None:
            assert len(witness) <= kcount
            assert highs_sigma(k.vertices[witness], l.vertices) == pytest.approx(least, rel=rel)


def _refuse_skeletons(monkeypatch):
    def refuse(*args):
        raise AssertionError("a fit derived a hull skeleton")

    monkeypatch.setattr(bodies, "_hull_skeleton", refuse)


def test_a_decide_pair_builds_each_hull_once(monkeypatch, hull_calls):
    # translate_fits and the Helly search on one raw K and one L: one
    # Quickhull in all, L's for its facets, and no hull skeleton; K is read
    # through its points
    _refuse_skeletons(monkeypatch)
    rng = np.random.default_rng(139)
    for i in range(20):
        k = Polytope(rng.standard_normal((6 + i % 5, 3)))
        l = Polytope(rng.standard_normal((8 + i % 7, 3)) * (1.5, 2.0, 2.5, 3.0)[i % 4])
        hull_calls.clear()
        fits, _ = translate_fits(k, l)
        assert fits == (subset_witness(k, l, 4) is None)
        assert min_subset_sigma(k, l, 4) == pytest.approx(scale_fit(k, l).sigma, rel=1e-9)
        assert hull_calls == [l.nverts]
        assert "_skeleton" not in vars(k) and "_skeleton" not in vars(l)


def test_r5_fits_build_no_hull_skeleton(monkeypatch, hull_calls):
    # the R^5 twin of the test above, with eps*_1 and eps*_2 too: the fits read
    # L's facet record alone, and neither body derives its extreme points
    _refuse_skeletons(monkeypatch)
    rng = np.random.default_rng(149)
    for i in range(6):
        k = Polytope(rng.standard_normal((7 + i % 3, 5)))
        l = Polytope(rng.standard_normal((8, 5)) * (1.5, 2.5)[i % 2])
        hull_calls.clear()
        fits, _ = translate_fits(k, l)
        assert fits == (subset_witness(k, l, 6) is None)
        eps = [min_subset_sigma(k, l, kcount) for kcount in (2, 3, 6)]
        assert eps == sorted(eps, reverse=True)
        assert eps[-1] == pytest.approx(scale_fit(k, l).sigma, rel=1e-9)
        assert hull_calls == [l.nverts]
        assert "_skeleton" not in vars(k) and "_skeleton" not in vars(l)


def _kernel_cases(rng):
    """(K, L, (k, l) at unit scale, rel) for the partition kernel: R^2 and R^3 clouds with repeated
    and interior points moved by a scale and an offset of up to 1e6, whose oracle reads them back
    at unit scale; and K in each _degenerate_ls body, the 1e-6 slab among them."""
    cases = []
    for i in range(24):
        n = 2 + i % 2
        pts = rng.standard_normal((int(rng.integers(2, 7)), n))
        kv = np.vstack([pts, pts[:2], pts.mean(axis=0)])
        lv = rng.standard_normal((int(rng.integers(n + 2, 11)), n)) * rng.uniform(1.0, 3.0)
        size = 10.0 ** rng.uniform(-6.0, 6.0)
        offset = 10.0 ** rng.uniform(0.0, 6.0) * size * rng.standard_normal(n)
        k, l = Polytope(kv * size + offset), Polytope(lv * size + offset)
        cases.append((k, l, ((k.vertices - offset) / size, (l.vertices - offset) / size), 1e-12))
    for lv, rel in _degenerate_ls(rng):
        n = lv.shape[1]
        pts = rng.standard_normal((5, n)) * (0.6 if n == 3 else 0.8)
        kv = np.vstack([pts, pts[-1], 0.5 * (pts[0] + pts[1])])
        cases.append((Polytope(kv), Polytope(lv), (kv, lv), rel))
    return cases


def test_partition_kernel_matches_the_highs_enumeration():
    # the least fit over K's sets of at most kcount points, for every kcount
    # from 1 (a point fits at inf) to n + 2 (clamped to n + 1, the whole-K
    # fit), equals a HiGHS enumeration of the subsets of K's distinct points;
    # its argmin set fits at that value, and the span of its u_B, completed
    # to dimension d = kcount - 1, is a plane whose shadow fit attains it
    rng = np.random.default_rng(181)
    for k, l, (kv, lv), rel in _kernel_cases(rng):
        n = k.dim
        supports = containment._supports(k, l)
        assert min_subset_sigma(k, l, 1) == math.inf and subset_witness(k, l, 1) is None
        assert min_subset_sigma(Polytope(np.full((3, n), 0.5)), l, n + 1) == math.inf
        for kcount in range(2, n + 3):
            least = highs_subset_sigmas(kv, lv, kcount)[1].min()
            eps, q, u = containment._partition_fit(k.vertices, supports, kcount)
            assert eps == pytest.approx(least, rel=rel)
            assert min_subset_sigma(k, l, kcount) == eps
            witness = sorted(set(q.tolist()))
            assert highs_sigma(kv[witness], lv) == pytest.approx(least, rel=rel)
            assert subset_witness(k, l, kcount) == (witness if eps < 1.0 - TOL_GEOM else None)
            d = min(kcount, n + 1) - 1
            assert u.shape == (d + 1, n) and np.abs(u.sum(axis=0)).max() <= 1e-12 * np.abs(u).max()
            plane = Subspace(np.linalg.svd(u.T)[0][:, :d])
            assert shadow_fit(k, l, plane).sigma == pytest.approx(eps, rel=1e-9)
        assert eps == pytest.approx(scale_fit(k, l).sigma, rel=rel)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_reflected_simplex_fits_in_closed_form(n):
    # for the simplex D = conv(0, e_1, ..., e_n), -D fits in D at 1/n, while
    # its least (d+1)-subset fit, and so by Theorem 2 its least d-shadow fit,
    # is 1/d: the shadow gap is exactly n/d
    delta = Polytope(np.vstack([np.zeros(n), np.eye(n)]))
    minus = Polytope(-delta.vertices)
    assert scale_fit(minus, delta).sigma == pytest.approx(1.0 / n, rel=1e-12, abs=0.0)
    for d in range(1, n):
        assert min_subset_sigma(minus, delta, d + 1) == pytest.approx(1.0 / d, rel=1e-12,
                                                                      abs=0.0)


def test_scale_fit_and_subset_fits_match_highs():
    # an LP solver outside the library: the facet-form fit of the whole K and
    # the least 4-subset fit from L's dual rays (equal to it by Helly) agree
    # with its V-form optimum on decide-style pairs
    rng = np.random.default_rng(137)
    for i in range(40):
        k = Polytope(rng.standard_normal((6 + i % 5, 3)))
        l = Polytope(rng.standard_normal((8 + i % 7, 3)) * (1.5, 2.0, 2.5, 3.0)[i % 4])
        want = highs_sigma(k.vertices, l.vertices)
        assert scale_fit(k, l).sigma == pytest.approx(want, rel=1e-9)
        assert min_subset_sigma(k, l, 4) == pytest.approx(want, rel=1e-9)


def _sphere_facets(m, seed):
    """The facet normals of m Gaussian points put on the unit sphere: a simplicial hull of
    2m - 4 facets."""
    g = np.random.default_rng(seed).standard_normal((m, 3))
    return Polytope(g / np.linalg.norm(g, axis=1, keepdims=True))._hull_record.a


def _enumerated_rays(a):
    """(rays, triple): ``_dual_rays``' rule on one itertools enumeration of a's 4-subsets, once
    over the n-row determinants of a's left singular vectors u and once over u's triple
    products, each as (sets, c)."""
    f = len(a)
    u = np.linalg.svd(a, full_matrices=False)[0]
    triples = list(combinations(range(f), 3))
    det = dict(zip(triples, containment._determinants(u.T[:, np.array(triples).T].swapaxes(0, 1))))
    sets = np.array(list(combinations(range(f), 4)))
    minors = np.array([[(-1) ** t * det[s[:t] + s[t + 1:]] for t in range(4)]
                       for s in map(tuple, sets)])
    cross = np.einsum("pqd,rd->pqr", np.cross(u[:, None], u), u)
    i, j, k, l = sets.T
    triple = np.column_stack([cross[j, k, l], cross[k, i, l], cross[i, j, l], cross[j, i, k]])
    want = []
    for c in (minors, triple):
        c *= np.sign(c.sum(axis=1, keepdims=True))
        top = c.max(axis=1, keepdims=True)
        c = np.where(c < -containment._RAY_TOL * top, c, np.maximum(c, 0.0))
        c[top[:, 0] <= containment._RAY_TOL] = -1.0
        keep = c.min(axis=1) >= 0.0
        want.append((sets[keep], c[keep]))
    return want


@pytest.mark.parametrize("m,f", [(4, 4), (8, 12), (14, 24), (24, 44)])
def test_dual_rays_match_an_enumeration_in_order(monkeypatch, m, f):
    # m points on a sphere have a simplicial hull of 2m - 4 facets; the blocked
    # kernel gives the rays of one itertools enumeration over the same
    # determinants, bit for bit and in order, the rays of the triple-product
    # table to rounding, and each block stays within _BLOCK_BYTES
    a = _sphere_facets(m, m)
    assert a.shape == (f, 3)
    want = _enumerated_rays(a)
    got_sets, got_c = containment._dual_rays(a)
    assert got_sets.tolist() == want[0][0].tolist() == want[1][0].tolist()
    assert got_sets.dtype == np.intp and got_c.tobytes() == want[0][1].tobytes()
    assert np.abs(got_c - want[1][1]).max(initial=0.0) <= 1e-14
    for n, count in ((3, f), (2, 48)):
        cap = containment._BLOCK_BYTES // (8 * (n + 1))
        blocks = list(containment._subset_blocks(count, n + 1, cap))
        want = [list(r) for r in combinations(range(count), n + 1)]
        assert np.concatenate(blocks).tolist() == want
        assert all(b.nbytes <= containment._BLOCK_BYTES for b in blocks)
    if f == 24:   # past one block, whose tables are built once per facet count
        def refuse(*args):
            raise AssertionError("the tables of 24 facets were built again")

        for name in ("_minor_index", "_subset_blocks"):
            monkeypatch.setattr(containment, name, refuse)
        other = _sphere_facets(m, 2 * m)
        assert other.shape == (f, 3)
        want = _enumerated_rays(other)[0]
        got_sets, got_c = containment._dual_rays(other)
        assert got_sets.tolist() == want[0].tolist() and got_c.tobytes() == want[1].tobytes()


def test_kept_ray_tables_stay_within_their_byte_bound(monkeypatch):
    # the tables past one block are kept in their least types, the least recently used
    # dropped first while their bytes pass _TABLE_BYTES, and a dropped table is built again
    monkeypatch.setattr(containment, "_TABLES", {})
    blocks = {f: containment._many_blocks(f, 3)[1] for f in (19, 20, 21)}
    size = {f: containment._TABLES[f, 3][0] for f in blocks}
    assert {(b.dtype.name, m.dtype.name) for b, m in blocks[21]} == {("uint8", "uint16")}
    assert size[21] == sum(x.nbytes for x in (*containment._faces(21, 3), *chain(*blocks[21])))
    monkeypatch.setattr(containment, "_TABLES", {})
    monkeypatch.setattr(containment, "_TABLE_BYTES", size[19] + size[21])
    for f in (19, 20, 19, 21):
        containment._many_blocks(f, 3)
    assert list(containment._TABLES) == [(19, 3), (21, 3)]
    assert containment._many_blocks(19, 3)[1] is containment._TABLES[19, 3][2]
    assert containment._many_blocks(20, 3)[1] is not blocks[20]
    assert list(containment._TABLES) == [(19, 3), (20, 3)]


def test_flat_l_fits_no_body_of_higher_rank():
    # rotated L of 4-8 points, 1e-11 to 1e-8 thick, that affine_dim calls
    # flat: the V-form LP raised "unexpectedly infeasible" on about a quarter
    # of these scale_fit and min_subset_sigma calls against a round K
    rng = np.random.default_rng(1)
    g = rng.standard_normal((12, 3))
    k = Polytope(g / np.linalg.norm(g, axis=1, keepdims=True))
    flat = 0
    while flat < 12:
        m = int(rng.integers(4, 9))
        x = np.column_stack([rng.standard_normal((m, 2)),
                             10 ** rng.uniform(-11, -8) * rng.standard_normal(m)])
        l = Polytope(x @ np.linalg.qr(rng.standard_normal((3, 3)))[0].T)
        if bodies.affine_dim(l) == 2:
            flat += 1
            fit = scale_fit(k, l)
            assert 0.0 <= fit.sigma <= 1e-8 and fit.translation is not None
            assert 0.0 <= min_subset_sigma(k, l, 4) <= 1e-8


def test_subset_fits_in_thin_slabs_match_the_vform_lp():
    # 5-point slabs 10^-9.5 to 10^-7.5 thick that affine_dim calls full now
    # have facets, and the dual-ray kernel reads each subset's fit from them,
    # and the least of these from all of K; the facet LP of scale_fit, in
    # the frame where the slab is round, fits each subset and the whole K
    # without raising.  The reference is HiGHS's LP over convex
    # combinations, which puts L's principal axes at unit spread first: a
    # fit does not change under an affine map
    rng = np.random.default_rng(7)
    done = 0
    while done < 50:
        rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        thick = np.array([1.0, 1.0, 10 ** rng.uniform(-9.5, -7.5)])
        l = Polytope(rng.standard_normal((5, 3)) * thick @ rot.T)
        if bodies.affine_dim(l) < 3:
            continue
        done += 1
        k = canonicalize(Polytope(0.5 * rng.standard_normal((6, 3)) * thick @ rot.T))
        supports = containment._supports(k, l)
        rows = [list(r) for r in combinations(range(k.nverts), min(4, k.nverts))]
        sigmas = [containment._partition_fit(k.vertices[r], supports, 4)[0] for r in rows]
        want = [highs_sigma(k.vertices[r], l.vertices) for r in rows]
        assert sigmas == pytest.approx(want, rel=1e-6)
        assert min_subset_sigma(k, l, 4) == pytest.approx(min(want), rel=1e-6)
        fits = [scale_fit(Polytope(k.vertices[r]), l).sigma for r in rows]
        assert fits == pytest.approx(want, rel=1e-6)
        whole = highs_sigma(k.vertices, l.vertices)
        assert scale_fit(k, l).sigma == pytest.approx(whole, rel=1e-6)


def _array_supports(lv):
    """The planar (lc, a, b) by the ndarray formulas that _supports' float loop
    reproduces, and whether the hull is thin enough to be tested for flatness."""
    hull = bodies.planar_hull(lv, tol=1e-12)
    lc = np.add.reduce(lv, axis=0) / lv.shape[0]
    q = lv[hull + hull[:1]]
    edge = q[1:] - q[:-1]
    length = np.sqrt(np.add.reduce(edge * edge, axis=1, keepdims=True))
    a = (edge / length)[:, ::-1] * np.array([1.0, -1.0])
    b = np.add.reduce(a * (q[:-1] - lc), axis=1)
    return lc, a, b, bool(np.minimum.reduce(b) <= 1e-5 * np.maximum.reduce(length, axis=None))


def _planar_bodies(rng, i):
    """(K, L, kind) at a scale of 1e-9 to 1e6 and offset up to 1e6 times that scale: a cloud of
    3-60 points; one with duplicate points and points on its hull's edges; or a rotated slab
    whose least edge offset is near 1e-5 of its longest edge, or 1e-12 of its extent thick."""
    size = 10.0 ** rng.uniform(-9.0, 6.0)
    offset = 10.0 ** rng.uniform(0.0, 6.0) * size * rng.standard_normal(2)
    kind = ("cloud", "repeats", "slab", "flat")[i % 4]
    lv = rng.standard_normal((int(rng.integers(3, 61)), 2))
    if kind == "repeats":
        hull = bodies.planar_hull(lv)
        w = rng.uniform(0.1, 0.9, (len(hull), 1))
        on_edges = (1.0 - w) * lv[hull] + w * lv[hull[1:] + hull[:1]]
        lv = np.vstack([lv, lv[:3], on_edges])
    elif kind != "cloud":
        lv[:, 1] *= 10.0 ** rng.uniform(-5.3, -4.3) if kind == "slab" else 1e-12
        lv = lv @ _rotation(rng, 2).T
    kv = rng.standard_normal((int(rng.integers(2, 9)), 2)) * rng.uniform(0.2, 1.0)
    return Polytope(kv * size + offset), Polytope(lv * size + offset), kind


def _witness_holds(k, fit, supports):
    """Does sigma*K + v lie within TOL_FEAS of L's largest offset of each edge line a.x <= b of
    L - lc, give or take the rounding of v, lc and K's mean at their own size?"""
    lc, _, a, b = supports
    kc = np.add.reduce(k.vertices, axis=0) / k.nverts
    v = fit.translation - lc + fit.sigma * kc
    gap = np.maximum.reduce(a @ (fit.sigma * (k.vertices - kc)).T, axis=1) + a @ v - b
    size = np.abs(fit.translation).max() + np.abs(lc).max() + fit.sigma * np.abs(kc).max()
    return bool(gap.max() <= containment.TOL_FEAS * b.max() + 1e-15 * size)


def test_planar_supports_and_fits_match_the_array_formulas(monkeypatch):
    # the float loop of _supports does numpy's operations in numpy's order, so
    # the supports are bit-identical to the ndarray formulas; the walk's sigma
    # matches the least bound over L's dual rays, from the ndarray formulas, to
    # 1e-12, and its witness puts sigma*K + v within TOL_FEAS of L's largest
    # offset of every edge line; a slab just above or just below the 1e-5 thin
    # ratio keeps its edges, and only a flat one reaches _flat_fit
    flat_fits, facet_fits = [], []
    for name, calls in (("_flat_fit", flat_fits), ("_walk", facet_fits)):
        original = getattr(containment, name)
        monkeypatch.setattr(containment, name,
                            lambda *args, _f=original, _c=calls: _c.append(1) or _f(*args))
    rng = np.random.default_rng(163)
    seen = {"thin": 0, "wide": 0, "flat": 0, "walk": 0}
    for i in range(400):
        k, l, kind = _planar_bodies(rng, i)
        lc, a, b, thin = _array_supports(l.vertices)
        flat_fits.clear()
        facet_fits.clear()
        got, fit = containment._supports(k, l), scale_fit(k, l)
        if got is None:
            assert kind == "flat" and thin and flat_fits == [1]
            seen["flat"] += 1
            continue
        assert kind != "flat" and flat_fits == []
        if kind == "slab":
            seen["thin" if thin else "wide"] += 1
        assert got[1] == 1.0
        for x, y in zip((lc, a, b), (got[0], got[2], got[3])):
            assert np.array_equal(x, y)
        assert fit.sigma == pytest.approx(ray_sigma(k.vertices, a, b), rel=1e-12, abs=0.0)
        assert _witness_holds(k, fit, got)
        seen["walk"] += facet_fits == []
    assert min(seen.values()) >= 20, seen
    assert seen["walk"] >= 0.9 * (400 - seen["flat"]), seen


def _degenerate_planar_pairs(rng):
    """(kind, K, L): parallelograms, whose edge normals come in antipodal pairs, and axis-parallel
    rectangles; regular m-gons, whose rays tie, holding random K's and turned regular K's;
    slivers of ratio 1e-6 and 1e-9 as K in a polygon, and of ratio 1e-6 as L about a K of its
    shape (``_supports`` calls an L of ratio 1e-9 flat); a segment K parallel to an edge of L;
    a point K; and thin pairs, turned K's and L's both of ratio 1e-9, every edge of L within
    1e-9 of its vertex mean, every other K turned with its L (about half these L's are flat)."""
    for i in range(40):
        e1, e2, o = rng.standard_normal((3, 2))
        k = Polytope(0.3 * rng.standard_normal((int(rng.integers(2, 7)), 2)))
        yield "parallelogram", k, Polytope(np.array([[0.0, 0.0], e1, e1 + e2, e2]) + o)
        width, height = rng.uniform(0.5, 3.0, 2)
        yield "rectangle", k, Polytope([[0.0, 0.0], [width, 0.0], [width, height], [0.0, height]])
        m = 3 + i
        ring = np.column_stack([np.cos(2.0 * np.pi * np.arange(m) / m),
                                np.sin(2.0 * np.pi * np.arange(m) / m)])
        gon = Polytope(ring @ _rotation(rng, 2).T + o)
        yield "regular", k, gon
        yield "regular", Polytope(0.5 * ring @ _rotation(rng, 2).T), gon
        for ratio in (1e-6, 1e-9):
            points = rng.standard_normal((int(rng.integers(3, 12)), 2)) * (1.0, ratio)
            yield "sliver", Polytope(0.3 * points @ _rotation(rng, 2).T), gon
        points[:, 1] *= 1e3
        yield "sliver", Polytope(0.3 * points[:, ::-1]), Polytope(points[:, ::-1] + (0.0, 1.0))
        hull = bodies.planar_hull(lv := rng.standard_normal((int(rng.integers(3, 10)), 2)))
        edge = lv[hull[1]] - lv[hull[0]]
        yield "segment", Polytope(np.array([o, o + 0.3 * edge])), Polytope(lv)
        yield "segment", Polytope(np.array([[0.0, 0.0], 0.3 * e1])), Polytope(
            np.array([[0.0, 0.0], e1, e1 + e2, e2]))
        yield "point", Polytope(np.tile(o, (3, 1))), Polytope(lv)
        for j in range(3):
            turn = _rotation(rng, 2)
            thin = rng.standard_normal((int(rng.integers(3, 10)), 2)) * (1.0, 1e-9)
            kv = 0.3 * rng.standard_normal((int(rng.integers(2, 8)), 2)) * (1.0, 1e-9)
            yield "thin", Polytope(kv @ (turn if (i + j) % 2 else _rotation(rng, 2)).T), Polytope(
                thin @ turn.T)


def _exact_gaps_hold(k, fit, supports):
    """Does sigma*K + v lie, in rational arithmetic on the same floats, within the planar walk's
    bound of every edge line a.x <= b of L - lc: the larger of TOL_FEAS of L's largest offset
    and _ROUNDING of the sizes of the row's terms sigma*h_K(a), a.v and b?  Here v = t - lc +
    sigma*kc, of the returned translation t and K's vertex mean kc, and a.v's size is that of
    its parts a_d*t_d, a_d*lc_d and sigma*a_d*kc_d, as the translation rounds their sum."""
    lc, _, a, b = supports
    sigma, t = Fraction(fit.sigma), [Fraction(x) for x in fit.translation.tolist()]
    lc = [Fraction(x) for x in lc.tolist()]
    points = [[Fraction(x) for x in p] for p in k.vertices.tolist()]
    kc = [sum(p[d] for p in points) / len(points) for d in (0, 1)]
    feas = containment.TOL_FEAS * Fraction(b.max())
    for (ax, ay), bj in zip(a.tolist(), b.tolist()):
        ax, ay, bj = Fraction(ax), Fraction(ay), Fraction(bj)
        h = max(ax * (p[0] - kc[0]) + ay * (p[1] - kc[1]) for p in points)
        av = sum(ad * (t[d] - lc[d] + sigma * kc[d]) for d, ad in enumerate((ax, ay)))
        terms = abs(sigma * h) + abs(bj) + sum(
            abs(ad) * (abs(t[d]) + abs(lc[d]) + sigma * abs(kc[d])) for d, ad in enumerate((ax, ay))
        )
        if sigma * h + av - bj > max(feas, containment._ROUNDING * terms):
            return False
    return True


def test_planar_walk_on_degenerate_input(monkeypatch):
    # the walk's sigma matches the ray enumeration to 1e-12 on tied rays,
    # antipodal normals, slivers and segments, and to 1e-14 on thin pairs,
    # where its witness holds every edge in rational arithmetic; no fit
    # reaches the iteration cap or the facet-walk fallback, and a point K's
    # sigma is inf
    stalls, facet_fits = [], []
    walk, facet = containment._planar_fit, containment._walk
    monkeypatch.setattr(containment, "_planar_fit",
                        lambda *args: (out := walk(*args)) or stalls.append(1) or out)
    monkeypatch.setattr(containment, "_walk", lambda *args: facet_fits.append(1) or facet(*args))
    seen = {}
    for kind, k, l in _degenerate_planar_pairs(np.random.default_rng(179)):
        fit = scale_fit(k, l)
        if kind == "point":
            assert fit.sigma == math.inf and fit.translation is None
        elif (supports := containment._supports(k, l)) is None:
            assert kind == "thin"
            kind = "flat thin"
        else:
            want = ray_sigma(k.vertices, *supports[2:])
            rel = 1e-14 if kind == "thin" else 1e-12
            assert fit.sigma == pytest.approx(want, rel=rel, abs=0.0)
            assert _witness_holds(k, fit, supports)
            assert kind != "thin" or _exact_gaps_hold(k, fit, supports)
        seen[kind] = seen.get(kind, 0) + 1
    assert stalls == [] and facet_fits == []
    assert seen.pop("thin") >= 40 and seen.pop("flat thin") >= 1
    assert seen == {"parallelogram": 40, "rectangle": 40, "regular": 80, "sliver": 120,
                    "segment": 80, "point": 40}


def test_planar_walk_pivots_at_most_twice_on_build_shadows(monkeypatch):
    # the shadows that counterexample sweeps fit, of 6 to 12 point Gaussian
    # clouds as in the build benchmark: the walk's start basis is at most two
    # pivots from the optimum, and each pivot evaluates the three swaps of its
    # basis, so the fit's _edge_ray calls count its pivots
    rays = []
    original = containment._edge_ray
    monkeypatch.setattr(containment, "_edge_ray", lambda *args: rays.append(1) or original(*args))
    pivots = []
    for seed, m in enumerate((6, 9, 12)):
        body = Polytope(np.random.default_rng(190 + seed).standard_normal((m, 3)))
        ce = build_counterexample(body, rng=seed, directions=60, sweep_count=60)
        inflated = scale(ce.body, ce.epsilon)
        for s in sweep_subspaces(3, 2, 200):
            for k in (inflated, ce.body):
                rays.clear()
                shadow_fit(k, ce.cover, s)
                pivots.append((len(rays) - 1) // 3)
    assert len(pivots) == 1200 and max(pivots) <= 2 and 0 < sum(pivots) < len(pivots)


def test_planar_shadow_fits_of_built_covers_match_highs():
    # the triangle and quadrilateral shadows that a build's sweeps fit, on
    # 200 grid planes for each of 3 seeded covers, against HiGHS's V-form LP
    shapes = set()
    for seed in range(3):
        body = Polytope(np.random.default_rng(170 + seed).standard_normal((6 + 2 * seed, 3)))
        ce = build_counterexample(body, rng=seed, directions=60, sweep_count=60)
        inflated = scale(ce.body, ce.epsilon)
        for s in sweep_subspaces(3, 2, 200):
            kp, lp_ = project(inflated, s), project(ce.cover, s)
            shapes.add(len(bodies.planar_hull(lp_.vertices)))
            want = highs_sigma(kp.vertices, lp_.vertices)
            assert scale_fit(kp, lp_).sigma == pytest.approx(want, rel=1e-9)
    assert shapes == {3, 4}


def _r4_r5_pairs(n):
    """(K, L, slab, rel) in R^n: clouds, clouds with interior and repeated
    points, and slabs 1e-8 thick at an offset of 1e3 with K in the same
    slab.  A coordinate's rounding, 1e-16 of the extent, is 1e-8 of such a
    slab's thickness, and moves sigma by up to 1e-6: that is the slabs'
    tolerance, 1e-12 the others'."""
    rng = np.random.default_rng(229 + n)
    for i in range(12):
        rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
        thick = np.ones(n)
        if i % 3 == 2:
            thick[-1] = 1e-8
        kv = 0.5 * rng.standard_normal((int(rng.integers(n + 1, 9)), n)) * thick @ rot.T
        lv = rng.standard_normal((int(rng.integers(n + 2, 13)), n)) * thick @ rot.T
        if i % 3 == 1:
            kv = np.vstack([kv, kv.mean(axis=0), kv[0]])
            lv = np.vstack([lv, lv.mean(axis=0), lv[1]])
        offset, rel = (1e3, 1e-6) if i % 3 == 2 else (rng.uniform(-2.0, 2.0), 1e-12)
        yield Polytope(kv + offset), Polytope(lv + offset), i % 3 == 2, rel


@pytest.mark.parametrize("n", [4, 5])
def test_fits_in_r4_and_r5_match_highs(n):
    # sigma and eps*_d read L's facets and their dual rays; HiGHS solves the
    # LP over convex combinations (see _r4_r5_pairs for the cases)
    for k, l, slab, rel in _r4_r5_pairs(n):
        fit = scale_fit(k, l)
        assert fit.sigma == pytest.approx(highs_sigma(k.vertices, l.vertices), rel=rel, abs=0.0)
        if not slab:   # a slab's replay LP fails on its 1e-8 thickness
            assert fit_replays(k, l, fit)
        for d in range(1, n):
            want = highs_subset_sigmas(k.vertices, l.vertices, d + 1)[1].min()
            assert min_subset_sigma(k, l, d + 1) == pytest.approx(want, rel=rel, abs=0.0)


@pytest.mark.parametrize("n", [4, 5])
def test_slab_fits_solve_their_dual_afresh(monkeypatch, n):
    # on the slabs of _r4_r5_pairs the facet walk inverts each basis afresh;
    # for every fit of the whole K and its subsets, the final basis's dual ray
    # y = M^-T e_0, read from the walk's last inverse, is nonnegative to 1e-12
    # of its largest entry and sums to sigma, so it bounds sigma from above
    fits, inverses, walk, inv = [], [], containment._walk, np.linalg.inv

    def spy(*args):
        inverses.clear()
        fits.append((out := walk(*args), inverses[-1][0]))
        return out

    monkeypatch.setattr(containment, "_walk", spy)
    monkeypatch.setattr(np.linalg, "inv", lambda m: inverses.append(out := inv(m)) or out)
    for k, l, slab, _ in _r4_r5_pairs(n):
        if slab:
            scale_fit(k, l)
            for d in range(1, n):
                for rows in combinations(range(k.nverts), d + 1):
                    scale_fit(Polytope(k.vertices[list(rows)]), l)
    assert len(fits) > 100
    for fit, y in fits:
        assert y.min() >= -1e-12 * y.max()
        assert y.sum() == pytest.approx(fit.sigma, rel=1e-12, abs=0.0)


def _degenerate_full_pairs(rng, n):
    """(K, L) in R^n: rotated cubes and cross-polytopes, whose vertices lie on n and 2^(n-1)
    facets, as K and L of each other; K = L/2 moved, where every facet of L is tight at the
    optimum, for those L's and a cloud; and clouds with duplicated and interior points."""
    cube = np.array(list(product((-1.0, 1.0), repeat=n)))
    cross = np.vstack([np.eye(n), -np.eye(n)])
    for _ in range(2):
        for body in (cube, cross):
            for inner in (cube, cross):
                yield (Polytope(0.5 * inner @ _rotation(rng, n).T),
                       Polytope(body @ _rotation(rng, n).T + rng.uniform(-5.0, 5.0, n)))
            lv = body @ _rotation(rng, n).T + rng.standard_normal(n)
            yield Polytope(0.5 * lv + rng.standard_normal(n)), Polytope(lv)
        lv, kv = 2.0 * rng.standard_normal((n + 6, n)), rng.standard_normal((n + 3, n))
        yield Polytope(0.5 * lv + rng.standard_normal(n)), Polytope(lv)
        yield (Polytope(np.vstack([kv, kv[0], kv.mean(axis=0)])),
               Polytope(np.vstack([lv, lv[:3], lv.mean(axis=0)])))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_facet_walk_on_degenerate_input(monkeypatch, n):
    # on dual-degenerate bases the facet walk matches HiGHS to 1e-12 and its
    # witness replays; no walk gives up, by its checks or by its pivot cap of
    # 4 (f + n), so no fit reaches LpError
    walks, inverses, walk, inv = [], [], containment._walk, np.linalg.inv

    def spy(*args):
        inverses.clear()
        walks.append((out := walk(*args), len(inverses), 4 * sum(args[4].shape)))
        return out

    monkeypatch.setattr(containment, "_walk", spy)
    monkeypatch.setattr(np.linalg, "inv", lambda m: inverses.append(1) or inv(m))
    for k, l in _degenerate_full_pairs(np.random.default_rng(191 + n), n):
        walks.clear()
        fit = scale_fit(k, l)
        assert len(walks) == 1 and walks[0][0] is not None and walks[0][1] <= walks[0][2]
        assert fit.sigma == pytest.approx(highs_sigma(k.vertices, l.vertices), rel=1e-12, abs=0.0)
        assert fit_replays(k, l, fit)



def test_facet_walk_rejects_a_final_dual_that_is_no_ray():
    # the walk's start rows support L's points (lv - lc) / s, so their dual ray y is positive;
    # about points 3 or 5 to the side of L, some start row bounds t from below instead, and
    # the walk ends at a vertex that holds every edge while y has a negative entry there: its
    # t, -15 to 5 here, bounds no sigma, and only the final y >= 0 check turns it away
    square = Polytope([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    k = Polytope([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2]])
    lc, s, a, b = containment._supports(k, square)
    fit = containment._walk(k.vertices, square.vertices, lc, s, a, b)
    assert fit.sigma == pytest.approx(10.0, rel=1e-12, abs=0.0) and fit_replays(k, square, fit)
    for shift in ([3.0, 0.0], [-3.0, 0.0], [0.0, -3.0], [-3.0, -3.0], [5.0, -5.0]):
        assert containment._walk(k.vertices, square.vertices + shift, lc, s, a, b) is None
