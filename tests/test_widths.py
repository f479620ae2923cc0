import math
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from oracles import highs_sigma, hull2d, perimeter2d

from shadowcover import bodies, containment, core, widths
from shadowcover.bodies import (
    Polytope,
    affine_dim,
    canonical_vertex_indices,
    canonicalize,
    planar_hull,
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
    # one Quickhull and one skeleton serve a Kubota check's flatness test, its
    # canonical vertices and its exact width, with no affine rank taken: the
    # facet record the first, the skeleton derived from it the others, and
    # canonicalize hands both parts on
    body = Polytope(np.random.default_rng(53).standard_normal((16, 3)))
    skeletons, original = [], bodies._hull_skeleton

    def refuse(*args):
        raise AssertionError("the Kubota check took the affine rank")

    monkeypatch.setattr(bodies, "affine_frame", refuse)
    monkeypatch.setattr(bodies, "_hull_skeleton",
                        lambda v, hull: skeletons.append(len(v)) or original(v, hull))
    report = kubota_check(body, 50, np.random.default_rng(0))
    assert hull_calls == skeletons == [16]
    kc = canonicalize(body)
    assert kc._hull_record.a is body._hull_record.a and kc._skeleton.angles is body._skeleton.angles
    assert kc._skeleton.faces is body._skeleton.faces
    assert kc._skeleton.normals is body._skeleton.normals
    assert kc._skeleton.extreme.tolist() == kc._hull_record.keep.tolist() == list(range(kc.nverts))
    assert mean_width_exact(body) == mean_width_exact(kc) == report.width_exact
    assert hull_calls == skeletons == [16]
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


def _planes(*pairs):
    """The (2, 3, S) basis columns of the planes spanned by the orthonormal pairs."""
    return np.array(pairs, dtype=float).transpose(1, 2, 0)


def _perimeters_match_the_oracle(s):
    """The planar set s's mean width times pi, and the batched silhouette
    perimeters of the prism s x [0, 1] on the planes (e_x, e_y), (e_y, e_x)
    and (e_x, -e_y), are perimeter2d(s): every side facet of the prism is
    parallel to the planes' normal, a tie, and its top and bottom are not."""
    s = np.asarray(s, dtype=float)
    assert mean_width_exact(Polytope(s)) == pytest.approx(perimeter2d(s) / math.pi,
                                                          rel=1e-12, abs=0.0)
    x, y, _ = np.eye(3)
    prism = Polytope(np.vstack([np.column_stack([s, np.zeros(len(s))]),
                                np.column_stack([s, np.ones(len(s))])]))
    got = widths._silhouette_perimeters(canonicalize(prism), _planes((x, y), (y, x), (x, -y)))
    assert got == pytest.approx([perimeter2d(s)] * 3, rel=1e-12, abs=0.0)


def test_batched_perimeters_match_monotone_chain():
    # collinear runs and signed zeros on grids: columns and rows of equal
    # coordinates, vertical edges at the leftmost column; a grid on one line
    # and a segment are not full-dimensional
    rng = np.random.default_rng(29)
    m = 12
    shadows = [_shadow_with_boundary_extras(rng, m) for _ in range(40)]
    for _ in range(40):
        grid = rng.integers(0, 3, (m, 2)).astype(float)
        grid[rng.random((m, 2)) < 0.3] *= -1.0
        shadows.append(grid)
    shadows.append(np.array([[0.0, 0.0], [-0.0, 1.0], [0.0, 2.0], [1.0, 1.0]] * 3))
    full = [s for s in shadows if affine_dim(Polytope(s)) == 2]
    assert len(full) >= 75
    for s in full:
        _perimeters_match_the_oracle(s)
    segment = np.outer(rng.uniform(-1, 1, m), [1.0, -2.0]) + [0.5, 0.0]
    for flat in (segment, np.column_stack([np.zeros(m), segment[:, 1]]), np.ones((5, 2))):
        with pytest.raises(ValueError, match="full-dimensional"):
            mean_width_exact(Polytope(flat))


def test_batched_perimeters_match_the_oracle_on_hard_cases():
    # points 1e-17 outside the bottom and right edges of a box, noisy
    # near-collinear runs inside an edge, and duplicates of hull points and
    # of the lowest leftmost one, each set also read in reverse order
    rng = np.random.default_rng(41)
    for _ in range(60):
        corners = [[-1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]
        t = rng.uniform(0.0, 1.0, 2)
        box = np.vstack([corners, rng.uniform(0, 1, (4, 2)) - [1, 0],
                         [[-t[0], -1e-17], [1e-17, t[1]], [-t[0], 0.0], [0.0, t[1]]]])
        hull = hull2d(rng.standard_normal((8, 2)))
        p, q = hull[0], hull[1]
        run = p + np.linspace(0.0, 1.0, 9)[1:-1, None] * (q - p)
        noisy = np.vstack([hull, run + 1e-15 * rng.standard_normal(run.shape)])
        for s in (box, noisy, np.vstack([hull, hull[:3], [hull[0]] * 2])):
            _perimeters_match_the_oracle(s)
            _perimeters_match_the_oracle(s[::-1])


def test_batched_perimeters_close_past_a_start_extreme_by_rounding():
    # the lowest leftmost point lies 1e-17 left of the box's left edge, so
    # the chain from it turns by a sine of 2e-17 onto the corner (0, 0)
    # above, doubling back: that corner stays, and the perimeter is 4
    box = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1e-17, 0.5]])
    assert planar_hull(box) == [4, 0, 1, 3, 2]
    for s in (box, box[::-1]):
        assert mean_width_exact(Polytope(s)) * math.pi == pytest.approx(4.0, rel=0, abs=1e-15)
        _perimeters_match_the_oracle(s)
    rng = np.random.default_rng(43)
    for _ in range(6):
        _perimeters_match_the_oracle(rng.standard_normal((5, 2)))


def test_batched_perimeters_are_right_or_raise_on_near_duplicates():
    # a point 1e-15 from another leaves a step of rounding noise between
    # them: every set is right, and none raises
    rng = np.random.default_rng(5)
    for _ in range(600):
        pts = rng.standard_normal((8, 2))
        _perimeters_match_the_oracle(
            np.vstack([pts, pts[rng.integers(8)] + 1e-15 * rng.standard_normal(2)]))


def _oracle_perimeters(body, q):
    """perimeter2d of the body's vertices projected on each plane of the
    (2, 3, S) basis columns q."""
    return np.array([perimeter2d(body.vertices @ q[:, :, s].T) for s in range(q.shape[2])])


def _silhouette_matches_the_oracle(body, q):
    kc = canonicalize(body)
    got = widths._silhouette_perimeters(kc, q)
    assert got == pytest.approx(_oracle_perimeters(kc, q), rel=1e-12, abs=0.0)
    return got


def test_silhouette_perimeters_of_the_kubota_pool_match_the_oracle():
    # the seed-1 bodies of the bench's kubota workload, on 20 Haar planes each
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    import workloads
    rng = np.random.default_rng(61)
    for inst in workloads.WORKLOADS["kubota"].pool(1):
        _silhouette_matches_the_oracle(Polytope(inst["points"]), core._haar_columns(3, 2, 20, rng))


def test_silhouette_perimeters_of_the_cube_at_ties():
    # on an axis plane four facets, and on a plane through e_x two, have
    # a.u = 0: each projects to a side of the shadow, counted once
    x, y, z = np.eye(3)
    c, s = math.cos(0.3), math.sin(0.3)
    axis = _planes((x, y), (y, x), (y, z), (z, y), (x, z), (-z, x), (-x, -y))
    assert widths._silhouette_perimeters(CUBE, axis).tolist() == [4.0] * 7
    diagonal = _planes((x, (y + z) / math.sqrt(2.0)), (x, (y - z) / math.sqrt(2.0)))
    assert widths._silhouette_perimeters(CUBE, diagonal) == pytest.approx(
        2.0 + 2.0 * math.sqrt(2.0), rel=1e-15, abs=0.0)
    tilted = _planes((x, c * y + s * z), (c * y + s * z, x), (z, c * x - s * y))
    assert _silhouette_matches_the_oracle(CUBE, tilted) == pytest.approx(
        2.0 + 2.0 * (c + s), rel=1e-15, abs=0.0)
    _silhouette_matches_the_oracle(CUBE, np.concatenate([axis, diagonal], axis=2))
    # a rotated and moved cube on the rotated planes: the ties become near ties
    rng = np.random.default_rng(67)
    for _ in range(20):
        rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        body = Polytope(CUBE.vertices @ rot.T + rng.uniform(-3.0, 3.0, 3))
        planes = np.einsum("ij,kjs->kis", rot, np.concatenate([axis, diagonal, tilted], axis=2))
        _silhouette_matches_the_oracle(body, planes)


def test_silhouette_perimeters_of_the_regular_tetrahedron():
    # Haar planes, planes through a facet normal (a tie: that facet projects
    # to a segment) and planes across an edge (which projects to a point)
    tetra = Polytope(np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float))
    rng = np.random.default_rng(71)
    pairs = []
    for a in -tetra.vertices / math.sqrt(3.0):   # the facet opposite each vertex
        w = np.cross(a, rng.standard_normal(3))
        pairs.append((a, w / np.linalg.norm(w)))
    for i, j in combinations(range(4), 2):
        e = tetra.vertices[i] - tetra.vertices[j]
        q = np.linalg.qr(np.column_stack([e, rng.standard_normal((3, 2))]))[0]
        pairs.append((q[:, 1], q[:, 2]))
    special = _planes(*pairs)
    _silhouette_matches_the_oracle(tetra, special)
    _silhouette_matches_the_oracle(tetra, core._haar_columns(3, 2, 50, rng))


def test_silhouette_perimeters_after_a_short_edge_re_hull():
    # a point 1e-11 from a vertex makes an edge shorter than TOL_FEAS of the
    # extent: the skeleton drops it and keeps the facets of the re-hull
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((8, 3))
    v = spatial.ConvexHull(pts).vertices
    body = Polytope(np.vstack([pts, pts[v[0]] + 1e-11 * rng.standard_normal(3)]))
    assert canonicalize(body).nverts == len(v)
    assert not np.array_equal(body._skeleton.normals, body._hull_record.a)
    _silhouette_matches_the_oracle(body, core._haar_columns(3, 2, 50, rng))


def test_silhouette_perimeters_of_jittered_cubes_with_merged_facets():
    # jitter of 1e-13 leaves nearly every side of the cube one merged facet
    # of four corners within about 1e-12 of one plane, and 3e-13 about half
    # of them: on Haar planes and on the axis planes, where those facets
    # give near ties
    x, y, z = np.eye(3)
    axis = _planes((x, y), (y, z), (x, z), (x, (y + z) / math.sqrt(2.0)))
    rng = np.random.default_rng(73)
    for jitter in (1e-13, 3e-13):
        facets = []
        for _ in range(20):
            body = Polytope(CUBE.vertices + jitter * rng.standard_normal((8, 3)))
            facets.append(len(canonicalize(body)._skeleton.normals))
            _silhouette_matches_the_oracle(body, axis)
            _silhouette_matches_the_oracle(body, core._haar_columns(3, 2, 20, rng))
        assert max(facets) < 12 and sum(facets) <= (150 if jitter < 2e-13 else 200)


@pytest.mark.parametrize("damage", ["drop", "repeat", "reassign"])
def test_kubota_check_refuses_a_skeleton_that_does_not_bound_its_facets(monkeypatch, damage):
    # both sides read the skeleton's edges, so a missing or extra edge would
    # move them alike and pass; the check proves V - E + F = 2, and that
    # every facet has 3 edges, before it reads them
    def damaged(v, hull, real=bodies._hull_skeleton):
        skeleton = real(v, hull)
        rows = {"drop": np.arange(1, len(skeleton.edges)),
                "repeat": np.r_[np.arange(len(skeleton.edges)), 0]}.get(damage)
        if rows is None:   # edge 0 leaves its first facet for a third one
            faces = skeleton.faces.copy()
            faces[0, 0] = np.setdiff1d(np.arange(len(skeleton.normals)), faces[0])[0]
            return skeleton._replace(faces=faces)
        return skeleton._replace(edges=skeleton.edges[rows], angles=skeleton.angles[rows],
                                 faces=skeleton.faces[rows])

    body = Polytope(np.random.default_rng(79).standard_normal((12, 3)))
    assert kubota_check(body, 50, np.random.default_rng(0)).rel_error < 0.1
    monkeypatch.setattr(bodies, "_hull_skeleton", damaged)
    with pytest.raises(ValueError, match="do not bound its facets"):
        kubota_check(Polytope(body.vertices), 50, np.random.default_rng(0))


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
    assert np.allclose(cube._skeleton.angles, math.pi / 2, rtol=1e-14, atol=0)
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
    assert rep.width_projected_mean == pytest.approx(vals.mean(), rel=1e-12, abs=0.0)
    assert rep.stderr == pytest.approx(vals.std(ddof=1) / math.sqrt(300), rel=1e-12, abs=0.0)
    assert rep.rel_error == pytest.approx(abs(vals.mean() - rep.width_exact) / rep.width_exact,
                                          abs=1e-12)


def test_kubota_check_draws_once_and_walks_no_hull(monkeypatch):
    # one kernel call draws the (2, 3, count) basis columns, which go as
    # they come to the silhouette sum over the canonical body's edges: no
    # planar hull is walked and no (count, m, 2) shadow stack is built
    draws, reads = [], []

    def kernel(cols, real=core._orthonormal_stack):
        draws.append(np.shape(cols))
        return real(cols)

    def read(k, q, real=widths._silhouette_perimeters):
        reads.append((k, q))
        return real(k, q)

    def refuse(*args, **kwargs):
        raise AssertionError("the Kubota check built a planar hull or a shadow stack")

    monkeypatch.setattr(core, "_orthonormal_stack", kernel)
    monkeypatch.setattr(widths, "_silhouette_perimeters", read)
    for name in ("_planar_hull", "project"):
        monkeypatch.setattr(bodies, name, refuse)
    monkeypatch.setattr(core, "haar_subspaces", refuse)
    body = Polytope(np.random.default_rng(31).standard_normal((12, 3)))
    report = kubota_check(body, 300, np.random.default_rng(5))
    monkeypatch.undo()
    assert draws == [(2, 3, 300)]
    [(kc, q)] = reads
    assert kc.canonical and kc.vertices.tolist() == canonicalize(body).vertices.tolist()
    want = np.ascontiguousarray(haar_subspaces(3, 2, 300, np.random.default_rng(5)).T)
    assert q.shape == (2, 3, 300) and np.array_equal(q, want)
    assert report.width_projected_mean == pytest.approx(
        _oracle_perimeters(kc, q).mean() / math.pi, rel=1e-12, abs=0.0)


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
    assert body._hull_record is not None and body._skeleton.edges is None
    with pytest.raises(ValueError, match="n in \\{2, 3\\} only"):
        mean_width_exact(body)
    with pytest.raises(ValueError, match="full-dimensional body in R\\^3"):
        kubota_check(body, 50, np.random.default_rng(0))
    with pytest.raises(ValueError, match="full-dimensional body in R\\^3"):
        kubota_check(canonicalize(body), 50, np.random.default_rng(0))
