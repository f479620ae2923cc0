import math

import numpy as np
import pytest

from oracles import highs_sigma, hull2d, perimeter2d

from shadowcover import bodies, containment, widths
from shadowcover.bodies import (
    Polytope,
    canonical_vertex_indices,
    canonicalize,
    point_in_hull,
    scale,
    translate,
)
from shadowcover.containment import min_subset_sigma, scale_fit
from shadowcover.core import Subspace, haar_subspaces
from shadowcover.widths import (
    corollary_checks,
    kubota_check,
    mean_width_exact,
    mean_width_mc,
)

CUBE = Polytope([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], canonical=True)
SQUARE = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], canonical=True)


def random_3poly(rng, nv=8):
    while True:
        p = canonicalize(Polytope(rng.standard_normal((nv, 3))))
        if p.nverts >= 5:
            return p


def test_mean_width_exact_square():
    assert mean_width_exact(SQUARE) == pytest.approx(4.0 / math.pi, abs=1e-12)


def test_mean_width_exact_cube():
    assert mean_width_exact(CUBE) == pytest.approx(1.5, abs=1e-12)


def test_mean_width_exact_rejects_degenerate():
    seg = Polytope([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="full-dimensional"):
        mean_width_exact(seg)


def _rigid(rng, x, size):
    """x under a random rotation and an offset of up to 5 times size."""
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    return x @ rot.T + rng.uniform(-5.0, 5.0, 3) * size


@pytest.mark.parametrize("a", [1e-6, 1.0, 3e4])
def test_mean_width_exact_matches_closed_forms(a):
    # W = sum of edge length times exterior angle over 4 pi: a regular
    # tetrahedron's angle is arccos(-1/3), a regular octahedron's arccos(1/3),
    # and a right prism over a regular m-gon has W = (h + perimeter / 2) / 2
    rng = np.random.default_rng(41)
    tetra = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) * a / math.sqrt(8.0)
    assert mean_width_exact(Polytope(_rigid(rng, tetra, a))) == pytest.approx(
        3.0 * a * math.acos(-1.0 / 3.0) / (2.0 * math.pi), rel=1e-12)
    octa = np.vstack([np.eye(3), -np.eye(3)]) * a / math.sqrt(2.0)
    assert mean_width_exact(Polytope(_rigid(rng, octa, a))) == pytest.approx(
        3.0 * a * math.acos(1.0 / 3.0) / math.pi, rel=1e-12)
    m, radius, h = 200, 0.7 * a, 1.3 * a
    ring = np.column_stack([radius * np.cos(2.0 * math.pi * np.arange(m) / m),
                            radius * np.sin(2.0 * math.pi * np.arange(m) / m)])
    prism = np.vstack([np.column_stack([ring, np.zeros(m)]), np.column_stack([ring, np.full(m, h)])])
    assert mean_width_exact(Polytope(_rigid(rng, prism, a))) == pytest.approx(
        (h + m * radius * math.sin(math.pi / m)) / 2.0, rel=1e-12)


@pytest.mark.parametrize("t", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_mean_width_exact_of_thin_prisms(t):
    # a prism of height t over a polygon P has W = perimeter(P) / 4 + t / 2;
    # the angles between facet normals keep their digits as t goes to 0
    rng = np.random.default_rng(43)
    for _ in range(5):
        turn = np.sort(rng.uniform(0.0, 2.0 * math.pi, 7))
        base = np.column_stack([np.cos(turn), np.sin(turn)])
        perimeter = np.linalg.norm(np.roll(base, -1, axis=0) - base, axis=1).sum()
        prism = np.vstack([np.column_stack([base, np.zeros(7)]),
                           np.column_stack([base, np.full(7, t)])])
        assert mean_width_exact(Polytope(_rigid(rng, prism, 1.0))) == pytest.approx(
            perimeter / 4.0 + t / 2.0, rel=1e-12)


def _qhull_mean_width(points):
    """W from Qhull's triangles: over each pair of adjacent triangles, the
    shared edge's length times the angle between their normals, over 4 pi;
    the triangles of one merged facet share its normal and add 0."""
    hull = pytest.importorskip("scipy.spatial").ConvexHull(points)
    total = 0.0
    for f, (tri, near) in enumerate(zip(hull.simplices, hull.neighbors)):
        for k, g in enumerate(near):
            if g > f:
                i, j = np.delete(tri, k)
                a, b = hull.equations[f, :3], hull.equations[g, :3]
                angle = math.atan2(np.linalg.norm(np.cross(a, b)), a @ b)
                total += np.linalg.norm(points[i] - points[j]) * angle
    return total / (4.0 * math.pi)


def test_mean_width_exact_matches_qhull_triangles():
    rng = np.random.default_rng(47)
    for _ in range(100):
        cloud = rng.standard_normal((rng.integers(5, 30), 3))
        inner = cloud.mean(axis=0) + 0.3 * (cloud[:4] - cloud.mean(axis=0))
        points = np.vstack([cloud, inner, cloud[rng.integers(0, len(cloud), 3)]])
        points = points[rng.permutation(len(points))]
        assert mean_width_exact(Polytope(points)) == pytest.approx(
            _qhull_mean_width(points), rel=1e-12)


def test_mean_width_exact_reads_one_hull_skeleton(monkeypatch, hull_calls):
    # one Quickhull serves a Kubota check's flatness test, its canonical
    # vertices and its exact width, with no affine rank taken
    body = Polytope(np.random.default_rng(53).standard_normal((16, 3)))

    def refuse(*args):
        raise AssertionError("the Kubota check took the affine rank")

    monkeypatch.setattr(bodies, "affine_frame", refuse)
    report = kubota_check(body, 50, np.random.default_rng(0))
    assert len(hull_calls) == 1
    assert mean_width_exact(body) == mean_width_exact(canonicalize(body)) == report.width_exact
    assert len(hull_calls) == 1
    monkeypatch.undo()
    flat = Polytope([[0.0, 0.0, 1.0], [2.0, 0.0, 1.0], [0.0, 3.0, 1.0], [1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="full-dimensional"):
        mean_width_exact(flat)
    with pytest.raises(ValueError, match="full-dimensional"):
        kubota_check(flat, 50, np.random.default_rng(0))


def test_r4_fits_read_one_hull_per_body(monkeypatch, hull_calls):
    # the R^4 twin of the test above: canonicalize, scale_fit and the subset
    # fits on a Gaussian pair build one Quickhull per body, and no affine rank
    rng = np.random.default_rng(59)
    k, l = Polytope(0.5 * rng.standard_normal((9, 4))), Polytope(rng.standard_normal((12, 4)))

    def refuse(*args):
        raise AssertionError("an R^4 fit took the affine rank")

    for module in (bodies, containment):
        monkeypatch.setattr(module, "affine_frame", refuse)
    kc = canonicalize(k)
    sigma = scale_fit(kc, l).sigma
    eps = [min_subset_sigma(k, l, d + 1) for d in range(1, 5)]
    assert sorted(hull_calls) == [9, 12]
    monkeypatch.undo()
    # eps*_d falls with d, to the whole K's sigma for n + 1 points (Helly)
    assert sigma == pytest.approx(highs_sigma(k.vertices, l.vertices), rel=1e-9)
    assert eps == sorted(eps, reverse=True) and eps[-1] == pytest.approx(sigma, rel=1e-9)


def test_mean_width_mc_ball_surrogate():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((4096, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    ball = Polytope(pts, canonical=True)
    est = mean_width_mc(ball, 4096, rng)
    assert abs(est.value - 2.0) <= 0.02


def test_mean_width_mc_segment():
    # spherical average of |cos| is 1/2, so W(segment of length L) = L / 2
    length = 3.0
    seg = Polytope([[0.0, 0.0, 0.0], [length, 0.0, 0.0]])
    est = mean_width_mc(seg, 40000, np.random.default_rng(3))
    assert abs(est.value - length / 2.0) <= 2.0 * est.stderr


def test_mean_width_mc_cube():
    est = mean_width_mc(CUBE, 40000, np.random.default_rng(5))
    assert abs(est.value - 1.5) <= 2.0 * est.stderr


def test_mc_agrees_with_exact_random_bodies():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_3poly(rng)
        exact = mean_width_exact(p)
        est = mean_width_mc(p, 4000, rng)
        assert abs(est.value - exact) <= 3.0 * max(est.stderr, 1e-9)


def test_exact_vs_perimeter_oracle_2d():
    rng = np.random.default_rng(7)
    for _ in range(15):
        p = Polytope(rng.standard_normal((7, 2)))
        assert mean_width_exact(p) == pytest.approx(perimeter2d(p.vertices) / math.pi,
                                                    abs=1e-9)


def _shadow_with_boundary_extras(rng, m):
    """m planar points: a Gaussian cloud plus copies of its lowest leftmost
    point and of another hull vertex, points inside hull edges and the mean."""
    pts = rng.standard_normal((m - 5, 2))
    hull = hull2d(pts)
    w = rng.uniform(0.2, 0.8, 2)[:, None]
    lexmin = pts[np.lexsort((pts[:, 1], pts[:, 0]))[0]]
    extra = [lexmin, hull[1], (1 - w[0]) * hull[0] + w[0] * hull[1],
             (1 - w[1]) * hull[-1] + w[1] * hull[0], pts.mean(axis=0)]
    out = np.vstack([pts, extra])
    return out[rng.permutation(m)]


def test_batched_perimeters_match_monotone_chain():
    rng = np.random.default_rng(29)
    m = 12
    shadows = [_shadow_with_boundary_extras(rng, m) for _ in range(40)]
    # collinear runs and signed zeros on grids: columns and rows of equal
    # coordinates, vertical edges at the leftmost column, segments
    for _ in range(40):
        grid = rng.integers(0, 3, (m, 2)).astype(float)
        grid[rng.random((m, 2)) < 0.3] *= -1.0
        shadows.append(grid)
    segment = np.outer(rng.uniform(-1, 1, m), [1.0, -2.0]) + [0.5, 0.0]
    shadows += [segment, np.column_stack([np.zeros(m), segment[:, 1]]),
                np.array([[0.0, 0.0], [-0.0, 1.0], [0.0, 2.0], [1.0, 1.0]] * 3)]
    got = widths._hull_perimeters(np.array(shadows))
    want = np.array([perimeter2d(s) for s in shadows])
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert widths._hull_perimeters(np.ones((1, 5, 2)))[0] == 0.0


def test_batched_perimeters_match_the_oracle_on_hard_cases():
    # points 1e-17 outside the bottom and right edges of a box, noisy
    # near-collinear runs inside an edge, and duplicates of hull points and
    # of the start, each set also walked in reverse order
    rng = np.random.default_rng(41)
    shadows = []
    for _ in range(60):
        corners = [[-1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]
        t = rng.uniform(0.0, 1.0, 2)
        shadows.append(np.vstack([corners, rng.uniform(0, 1, (4, 2)) - [1, 0],
                                  [[-t[0], -1e-17], [1e-17, t[1]], [-t[0], 0.0], [0.0, t[1]]]]))
        hull = hull2d(rng.standard_normal((8, 2)))
        p, q = hull[0], hull[1]
        run = p + np.linspace(0.0, 1.0, 9)[1:-1, None] * (q - p)
        shadows.append(np.vstack([hull, run + 1e-15 * rng.standard_normal(run.shape)]))
        shadows.append(np.vstack([hull, hull[:3], [hull[0]] * 2]))
    for s in shadows:
        got = widths._hull_perimeters(np.array([s, s[::-1]]))
        assert np.allclose(got, perimeter2d(s), rtol=1e-12, atol=0.0)


def test_batched_perimeters_close_past_a_start_extreme_by_rounding():
    # the start lies 1e-17 left of the box's left edge: the way back from
    # the top-left corner ties it with the bottom-left corner beyond it
    box = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1e-17, 0.5]])
    assert mean_width_exact(Polytope(box)) * math.pi == pytest.approx(4.0, rel=0, abs=1e-15)
    rng = np.random.default_rng(43)
    shadows = [rng.standard_normal((5, 2)) for _ in range(6)]
    shadows.insert(3, box)
    got = widths._hull_perimeters(np.array(shadows))
    assert got[3] == pytest.approx(4.0, rel=0, abs=1e-15)
    assert np.allclose(got, [perimeter2d(s) for s in shadows], rtol=1e-12, atol=0.0)


def test_batched_perimeters_are_right_or_raise_on_near_duplicates():
    # a step to a point 1e-15 away leaves a heading of rounding noise; a
    # turn rank blind to the turn's sign (the cosine) then walks back along
    # the hull and returns a short perimeter, and this one must not
    rng = np.random.default_rng(5)
    closed = 0
    for _ in range(600):
        pts = rng.standard_normal((8, 2))
        s = np.vstack([pts, pts[rng.integers(8)] + 1e-15 * rng.standard_normal(2)])
        try:
            got = widths._hull_perimeters(s[None])[0]
        except ValueError:
            continue
        closed += 1
        assert got == pytest.approx(perimeter2d(s), rel=1e-12)
    assert closed >= 590


def test_batched_perimeters_raise_on_a_walk_that_does_not_close(monkeypatch):
    # a turn rank that always puts point 0 first never lets a walk from
    # point 2 back: the kernel raises, it returns no partial sum
    monkeypatch.setattr(widths.np, "copysign",
                        lambda a, b: np.broadcast_to(-np.arange(b.shape[0], dtype=float)[:, None],
                                                     b.shape).copy())
    square = np.array([[[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="did not close"):
        widths._hull_perimeters(square)


def test_width_monotone_under_inclusion():
    rng = np.random.default_rng(13)
    for _ in range(10):
        inner = random_3poly(rng, nv=6)
        outer = canonicalize(Polytope(np.vstack([inner.vertices,
                                                 rng.standard_normal((4, 3)) * 2.0])))
        assert mean_width_exact(inner) <= mean_width_exact(outer) + 1e-9


def test_width_translation_invariance():
    rng = np.random.default_rng(17)
    p = random_3poly(rng)
    w = rng.standard_normal(3)
    a = mean_width_mc(p, 4000, np.random.default_rng(1))
    b = mean_width_mc(translate(p, w), 4000, np.random.default_rng(2))
    assert abs(a.value - b.value) <= 2.0 * (a.stderr + b.stderr)
    assert mean_width_exact(translate(p, w)) == pytest.approx(mean_width_exact(p), abs=1e-9)


def test_kubota_cube():
    rep = kubota_check(CUBE, 600, np.random.default_rng(0))
    assert rep.width_exact == pytest.approx(1.5, abs=1e-12)
    assert rep.rel_error <= 0.02


def test_kubota_ball_surrogate():
    # constant-width consistency: both sides agree tightly and sit near 2
    # (a 48-vertex inscribed hull keeps edge enumeration affordable)
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((48, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    ball = Polytope(pts, canonical=True)
    rep = kubota_check(ball, 60, rng)
    assert rep.rel_error <= 0.02
    assert rep.width_exact == pytest.approx(2.0, abs=0.1)
    assert rep.width_projected_mean == pytest.approx(2.0, abs=0.1)


def test_kubota_random_body():
    rng = np.random.default_rng(23)
    p = random_3poly(rng)
    rep = kubota_check(p, 800, rng)
    assert rep.rel_error <= 0.03


@pytest.mark.parametrize("factor,offset", [(1e-13, 0.0), (1e-11, 0.0), (1.0, 0.0), (1e9, 1e6)])
def test_canonical_vertices_and_mean_width_do_not_depend_on_units(factor, offset):
    cube = Polytope(CUBE.vertices * factor + offset)
    assert canonicalize(cube).nverts == 8
    assert mean_width_exact(cube) == pytest.approx(1.5 * factor, rel=1e-12, abs=0.0)
    assert np.allclose(bodies._hull_skeleton(cube.vertices)[2], math.pi / 2, rtol=1e-14, atol=0)
    cloud = np.random.default_rng(37).standard_normal((12, 3))
    body = Polytope(cloud * factor + offset)
    assert canonical_vertex_indices(body) == canonical_vertex_indices(Polytope(cloud))
    assert mean_width_exact(body) == pytest.approx(
        factor * mean_width_exact(Polytope(cloud)), rel=1e-12, abs=0.0)


def test_kubota_check_solves_no_lp_and_matches_a_per_shadow_loop(lp_calls):
    rng = np.random.default_rng(31)
    body = Polytope(rng.standard_normal((16, 3)))
    rep = kubota_check(body, 300, np.random.default_rng(5))
    assert lp_calls == []
    point_in_hull(body.vertices[0], body)
    assert "solve" in lp_calls
    vals = np.array([perimeter2d(body.vertices @ basis) / math.pi
                     for basis in haar_subspaces(3, 2, 300, np.random.default_rng(5))])
    assert rep.width_exact == mean_width_exact(body)
    assert rep.width_projected_mean == pytest.approx(vals.mean(), rel=1e-12)
    assert rep.stderr == pytest.approx(vals.std(ddof=1) / math.sqrt(300), rel=1e-12)
    assert rep.rel_error == pytest.approx(abs(vals.mean() - rep.width_exact) / rep.width_exact,
                                          abs=1e-12)


def test_kubota_check_builds_no_subspace(monkeypatch):
    # the Haar bases stay one stacked array from the draw to the projection
    def refuse(self):
        raise AssertionError("kubota_check built a Subspace")

    monkeypatch.setattr(Subspace, "__post_init__", refuse)
    body = Polytope(np.random.default_rng(31).standard_normal((12, 3)))
    assert kubota_check(body, 50, np.random.default_rng(5)).samples == 50


def test_corollary_translate_pair():
    moved = translate(CUBE, np.array([0.3, -0.7, 0.1]))
    rep = corollary_checks(CUBE, moved, d=2)
    assert rep.triangle_condition
    assert rep.diameter_applicable and rep.diameter_holds
    assert rep.width_applicable and rep.width_holds


def test_corollary_not_applicable_on_width_mismatch():
    rep = corollary_checks(scale(CUBE, 2.0), CUBE, d=2)
    assert not rep.widths_equal
    assert not rep.width_applicable and rep.width_holds is None
    assert not rep.triangle_condition  # the doubled cube's triangles cannot all fit


def test_corollary_diameter_forced_pair():
    # a slightly larger triangle prism pair with diameters forced equal
    rng = np.random.default_rng(3)
    k = random_3poly(rng, nv=6)
    grown = canonicalize(Polytope(np.vstack([k.vertices * 1.05])))
    from shadowcover.bodies import diameter
    ratio = diameter(k) / diameter(grown)
    equalized = scale(grown, ratio)  # same diameter, similar shape
    rep = corollary_checks(k, equalized, d=2)
    if rep.diameter_applicable:
        assert rep.diameter_holds
    else:
        assert not rep.triangle_condition or not rep.diameters_equal


def test_corollary_requires_d_at_least_two():
    with pytest.raises(ValueError, match="d >= 2"):
        corollary_checks(CUBE, CUBE, d=1)


def test_full_r4_bodies_raise_in_the_3d_readers():
    # a full body in R^4 has a hull record too, with facets and no edges or
    # angles: the readers of a 3-D record check the dimension first
    rng = np.random.default_rng(29)
    body = Polytope(rng.standard_normal((9, 4)))
    assert body._hull_record is not None and body._hull_record.edges is None
    with pytest.raises(ValueError, match="n in \\{2, 3\\} only"):
        mean_width_exact(body)
    with pytest.raises(ValueError, match="full-dimensional body in R\\^3"):
        kubota_check(body, 50, np.random.default_rng(0))
    with pytest.raises(ValueError, match="full-dimensional body in R\\^3"):
        kubota_check(canonicalize(body), 50, np.random.default_rng(0))
