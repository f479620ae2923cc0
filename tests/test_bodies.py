import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from oracles import highs_sigma

from shadowcover import bodies
from shadowcover.bodies import (
    Polytope,
    affine_dim,
    body_from_dict,
    body_to_dict,
    canonical_vertex_indices,
    canonicalize,
    diameter,
    edges,
    hyperplane_shadow,
    linear_image,
    planar_hull,
    point_in_hull,
    project,
    simplex_facet_normals,
    simplex_from_supports,
    support,
    support_set,
    translate,
)
from shadowcover.containment import scale_fit
from shadowcover.core import Subspace, orthonormalize

UNIT_SQUARE = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], canonical=True)
TETRA = Polytope([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], canonical=True)
CUBE = Polytope([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], canonical=True)


def test_support_square_diagonal():
    assert support(UNIT_SQUARE, np.array([1.0, 1.0])) == pytest.approx(2.0)


def test_support_segment_orthogonal():
    seg = Polytope([[-1.0, 0.0], [1.0, 0.0]])
    assert support(seg, np.array([0.0, 1.0])) == pytest.approx(0.0)


def test_support_tetrahedron():
    assert support(TETRA, np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)


def test_support_set_edge_and_vertex():
    edge = support_set(UNIT_SQUARE, np.array([1.0, 0.0]))
    got = {tuple(UNIT_SQUARE.vertices[i]) for i in edge}
    assert got == {(1.0, 0.0), (1.0, 1.0)}
    corner = support_set(UNIT_SQUARE, np.array([1.0, 1.0]))
    assert [tuple(UNIT_SQUARE.vertices[i]) for i in corner] == [(1.0, 1.0)]


def test_support_set_homogeneous():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = Polytope(rng.standard_normal((6, 3)))
        u = rng.standard_normal(3)
        assert support_set(p, u) == support_set(p, 2.0 * u)


def test_project_cube_to_square():
    s = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    q = project(CUBE, s)
    assert q.dim == 2
    assert sorted(map(tuple, q.vertices)) == sorted(
        [(0, 0), (0, 0), (0, 1), (0, 1), (1, 0), (1, 0), (1, 1), (1, 1)])


def test_project_tetra_drops_coordinate():
    s = Subspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    q = project(TETRA, s)
    assert sorted(map(tuple, q.vertices)) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_project_identity_is_same_body():
    s = Subspace(np.eye(3))
    q = project(TETRA, s)
    assert np.allclose(q.vertices, TETRA.vertices)


def test_project_rejects_a_subspace_of_another_space():
    for basis in (np.eye(2)[:, :1], np.eye(4)[:, :2]):
        with pytest.raises(ValueError, match="subspace lives in R"):
            project(TETRA, Subspace(basis))


def test_project_keeps_its_product_read_only_and_rejects_overflow():
    # the shadow is vertices @ basis itself, set read-only, with no copy
    rng = np.random.default_rng(2)
    p = Polytope(rng.standard_normal((7, 3)))
    s = orthonormalize(rng.standard_normal((3, 2)))
    q = project(p, s)
    assert q.vertices.shape == (7, 2) and not q.canonical
    assert q.vertices.tobytes() == (p.vertices @ s.basis).tobytes()
    with pytest.raises(ValueError):
        q.vertices[0, 0] = 0.0
    # the product of finite vertices can overflow under a basis that mixes axes
    huge = Polytope([[1.5e308, 1.5e308, 0.0], [-1.5e308, 1.5e308, 0.0]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        project(huge, orthonormalize([[1.0], [1.0], [0.0]]))
    # the public constructor still validates its input
    for bad in ([[0.0, np.nan]], [[np.inf, 0.0]], np.zeros((0, 2)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            Polytope(bad)


def test_project_scans_only_past_the_body_bound(monkeypatch):
    # n max |v| at most 1e307 proves the product finite; past it the product
    # is scanned, and a finite one is still the plain product
    rng = np.random.default_rng(4)
    small = Polytope(rng.standard_normal((7, 3)))
    large = Polytope(small.vertices / np.abs(small.vertices).max() * 3.5e306)
    assert 3 * small._bound <= bodies._FINITE < 3 * large._bound
    subs = [orthonormalize(rng.standard_normal((3, d))) for d in (1, 2, 3)]
    scans = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: scans.append(a.shape) or isfinite(a))
    for s in subs:
        assert project(small, s).vertices.tobytes() == (small.vertices @ s.basis).tobytes()
    assert scans == []
    for s in subs:
        q = project(large, s)
        assert q.vertices.tobytes() == (large.vertices @ s.basis).tobytes()
        assert isfinite(q.vertices).all()
    assert scans == [(7, 1), (7, 2), (7, 3)]
    # the bound is on |v|, so a product that overflows downward is caught too
    low = Polytope([[-1.5e308, -1.5e308, 0.0], [0.0, 0.0, 1.0]])
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        project(low, orthonormalize([[1.0], [1.0], [0.0]]))


def test_a_shadow_of_a_shadow_has_its_own_bound():
    rng = np.random.default_rng(6)
    p = Polytope(rng.standard_normal((9, 4)))
    s1 = orthonormalize(rng.standard_normal((4, 3)))
    s2 = orthonormalize(rng.standard_normal((3, 2)))
    q = project(p, s1)
    assert q._bound == np.abs(q.vertices).max()
    r = project(q, s2)
    assert r.vertices.tobytes() == (q.vertices @ s2.basis).tobytes()
    assert np.allclose(r.vertices, p.vertices @ (s1.basis @ s2.basis), rtol=0, atol=1e-14)
    # a finite shadow past the bound overflows under a basis that mixes its axes
    huge = project(Polytope([[1.5e308, 1.5e308, 0.0], [-1.5e308, 1.5e308, 0.0]]),
                   Subspace(np.eye(3)[:, :2]))
    assert np.isfinite(huge.vertices).all()
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        project(huge, orthonormalize([[1.0], [1.0]]))


def test_projection_support_compatibility():
    # h of the projection equals the restriction of h to the subspace
    rng = np.random.default_rng(8)
    for _ in range(10):
        p = Polytope(rng.standard_normal((7, 4)))
        s = orthonormalize(rng.standard_normal((4, 2)))
        q = project(p, s)
        for _ in range(10):
            w = rng.standard_normal(2)
            assert support(q, w) == pytest.approx(support(p, s.basis @ w), abs=1e-9)


def test_hyperplane_shadow_cube():
    sq = hyperplane_shadow(CUBE, np.array([0.0, 0.0, 1.0]))
    assert sq.dim == 2
    assert diameter(sq) == pytest.approx(np.sqrt(2.0))


def test_hyperplane_shadow_of_aligned_segment_is_point():
    seg = Polytope([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    shadow = hyperplane_shadow(seg, np.array([0.0, 0.0, 1.0]))
    assert np.allclose(shadow.vertices, shadow.vertices[0])


def test_hyperplane_shadow_translates():
    rng = np.random.default_rng(4)
    p = Polytope(rng.standard_normal((6, 3)))
    w = rng.standard_normal(3)
    u = rng.standard_normal(3)
    a = hyperplane_shadow(p, u)
    b = hyperplane_shadow(translate(p, w), u)
    shift = b.vertices[0] - a.vertices[0]
    assert np.allclose(a.vertices + shift, b.vertices, atol=1e-9)


def test_linear_image_identity_and_scaling():
    assert np.allclose(linear_image(TETRA, np.eye(3)).vertices, TETRA.vertices)
    doubled = linear_image(TETRA, 2.0 * np.eye(3))
    u = np.array([0.3, -0.2, 0.9])
    assert support(doubled, u) == pytest.approx(2.0 * support(TETRA, u))


def test_linear_image_rank_deficient_allowed():
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    flat = linear_image(CUBE, m)
    assert affine_dim(flat) == 2


def test_affine_dim_cases():
    assert affine_dim(Polytope([[1.0, 2.0, 3.0]])) == 0
    assert affine_dim(Polytope([[0.0, 0.0], [1.0, 1.0]])) == 1
    sq3 = Polytope([[0, 0, 1], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
    assert affine_dim(sq3) == 2


def test_diameter_cases():
    assert diameter(UNIT_SQUARE) == pytest.approx(np.sqrt(2.0))
    assert diameter(Polytope([[3.0, 4.0]])) == 0.0
    assert diameter(Polytope([[0.0, 0.0], [3.0, 0.0]])) == pytest.approx(3.0)


def test_translation_invariance_of_measures():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = Polytope(rng.standard_normal((6, 3)))
        w = rng.standard_normal(3)
        q = translate(p, w)
        assert diameter(q) == pytest.approx(diameter(p), abs=1e-9)
        assert affine_dim(q) == affine_dim(p)


def test_canonicalize_removes_interior_and_duplicate_points():
    verts = np.vstack([UNIT_SQUARE.vertices, [[0.5, 0.5], [0.25, 0.75], [1.0, 1.0]]])
    p = canonicalize(Polytope(verts))
    assert p.canonical
    assert sorted(map(tuple, p.vertices)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_canonicalize_keeps_boundary_midpoint_out():
    # a vertex on an edge of the hull is redundant
    tri = Polytope([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    p = canonicalize(tri)
    assert p.nverts == 3


def _planar_cloud(rng):
    """Random planar points plus interior, duplicate and collinear-boundary ones."""
    pts = rng.standard_normal((int(rng.integers(3, 12)), 2))
    hull = pts[planar_hull(pts)]
    w = rng.uniform(0.1, 0.9)
    extra = [
        pts.mean(axis=0),                                   # interior
        pts[int(rng.integers(len(pts)))],                   # duplicate
        (1.0 - w) * hull[0] + w * hull[1],                  # on a hull edge
    ]
    out = np.vstack([pts, extra])
    return out[rng.permutation(len(out))]


def _lp_extreme_points(v):
    """First copies of the points that are not in the hull of the others,
    in input order, by one point-in-hull LP each."""
    keep = [i for i in range(len(v)) if not (v[:i] == v[i]).all(axis=1).any()]
    i = 0
    while i < len(keep):
        if point_in_hull(v[keep[i]], Polytope(v[keep[:i] + keep[i + 1:]])):
            keep.pop(i)
        else:
            i += 1
    return keep


def test_planar_canonicalize_matches_lp_route_in_input_order():
    rng = np.random.default_rng(41)
    flat = Polytope([[0.0, 0.0], [2.0, 1.0], [1.0, 0.5], [2.0, 1.0], [-1.0, -0.5]])
    for p in [flat] + [Polytope(_planar_cloud(rng)) for _ in range(60)]:
        idx = _lp_extreme_points(p.vertices)
        assert canonical_vertex_indices(p) == idx
        assert canonicalize(p).vertices.tolist() == p.vertices[idx].tolist()


def test_planar_hull_is_counterclockwise():
    rng = np.random.default_rng(43)
    for _ in range(20):
        pts = _planar_cloud(rng)
        hull = pts[planar_hull(pts)]
        e = np.roll(hull, -1, axis=0) - hull
        turns = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
        assert np.all(turns > 0.0)
    assert planar_hull([[1.0, 1.0], [0.0, 0.0], [2.0, 2.0], [0.0, 0.0]]) == [1, 2]
    assert planar_hull([[3.0, 1.0], [3.0, 1.0]]) == [0]


def _planes(a, b):
    """Facet planes as sorted rows (a, b), rounded so that equal planes match."""
    return np.unique(np.round(np.column_stack([a, b]), 8), axis=0)


def _facets(points):
    """The facets {x : a.x <= b} of the points' hull record, in their own
    coordinates; None when the record is."""
    hull = Polytope(points)._hull_record
    return None if hull is None else (hull.a, hull.s * hull.b + hull.a @ hull.c)


def _scipy_planes(points):
    spatial = pytest.importorskip("scipy.spatial")
    eq = spatial.ConvexHull(points).equations   # a.x + e <= 0, one row per triangle
    return _planes(eq[:, :3], -eq[:, 3])


def test_hull_facets_match_scipy_on_clouds():
    rng = np.random.default_rng(97)
    for m in [4, 5, 8, 12, 16, 20, 24, 26, 48, 200] * 3:
        pts = rng.standard_normal((m, 3)) * rng.uniform(0.5, 3.0) + rng.uniform(-4, 4, 3)
        a, b = _facets(pts)
        assert np.allclose(np.linalg.norm(a, axis=1), 1.0)
        assert (pts @ a.T - b).max() <= 1e-12 * np.abs(pts).max()
        want = _scipy_planes(pts)
        got = _planes(a, b)
        assert got.shape == want.shape and np.allclose(got, want, atol=1e-7)


def test_hull_facets_merge_coplanar_points():
    # a cube has four points on each facet, and C(4, 3) triples span it
    a, b = _facets(CUBE.vertices)
    assert len(b) == 6
    assert np.array_equal(_planes(a, b), _scipy_planes(CUBE.vertices))
    assert np.allclose(np.abs(a).sum(axis=1), 1.0)
    assert np.allclose(b, (a > 0.5).any(axis=1))
    # a rotated 4 x 4 x 4 grid: rounding moves its edge points off their
    # lines by a hair, and the slivers the hull builds on them join a face
    rot = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))[0]
    grid = np.array(list(product(range(4), repeat=3)), dtype=float) @ rot.T + 3.0
    a, b = _facets(grid)
    assert len(b) == 6 and np.allclose(_planes(a, b), _scipy_planes(grid), atol=1e-7)
    # a prism over a regular 100-gon: two facets of 100 vertices each
    turns = np.arange(100) * np.pi / 50
    prism = np.vstack([np.column_stack([np.cos(turns), np.sin(turns), np.full(100, z)])
                       for z in (0.0, 1.0)])
    a, b = _facets(prism)
    assert len(b) == 102 and np.allclose(_planes(a, b), _scipy_planes(prism), atol=1e-7)


def test_hull_facets_ignore_duplicate_and_interior_points():
    rng = np.random.default_rng(101)
    for _ in range(10):
        pts = rng.standard_normal((9, 3))
        weights = rng.dirichlet(np.ones(9), size=4)
        cloud = np.vstack([pts, pts[[2, 5, 2]], weights @ pts, pts.mean(axis=0)])
        want = _planes(*_facets(pts))
        assert np.allclose(_planes(*_facets(cloud)), want, atol=1e-9)
        assert np.allclose(_planes(*_facets(cloud)), _scipy_planes(cloud), atol=1e-7)


def test_hull_facets_are_scale_and_offset_free():
    rng = np.random.default_rng(103)
    pts = rng.standard_normal((10, 3))
    a, b = _facets(pts)
    for factor in (1e9, 1e-9):
        a2, b2 = _facets(pts * factor)
        assert np.allclose(a2, a, atol=1e-12) and np.allclose(b2 / factor, b, atol=1e-12)
    a3, b3 = _facets(pts + 1e6)
    assert np.allclose(a3, a, atol=1e-8) and np.allclose(b3 - a3.sum(axis=1) * 1e6, b, atol=1e-6)


def test_hull_facets_none_only_when_flat():
    rng = np.random.default_rng(107)
    planar = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 3)) + 1.0
    line = np.outer(rng.standard_normal(6), [1.0, 2.0, -1.0])
    for pts in (planar, line, np.ones((5, 3)), rng.standard_normal((3, 3))):
        assert _facets(pts) is None
    pts = rng.standard_normal((25, 3))
    assert np.allclose(_planes(*_facets(pts)), _scipy_planes(pts), atol=1e-7)
    assert Polytope(rng.standard_normal((6, 2)))._hull_record is None
    with pytest.raises(ValueError):
        bodies._hull_skeleton(rng.standard_normal((6, 2)))


def test_hull_facets_flat_exactly_when_affine_dim_says_so():
    # rotated 5-point slabs 10^-9.5 to 10^-7.5 thick straddle the rank rule;
    # a flatness test of the hull's own once called many of them flat
    rng = np.random.default_rng(5)
    ranks = []
    for _ in range(2000):
        rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        thick = 10 ** rng.uniform(-9.5, -7.5)
        pts = rng.standard_normal((5, 3)) * [1.0, 1.0, thick] @ rot.T
        ranks.append(affine_dim(Polytope(pts)))
        assert (_facets(pts) is None) == (ranks[-1] < 3)
    assert 200 < ranks.count(3) < 1800


def _spatial_cloud(rng, m):
    """A Gaussian cloud with an interior point, a duplicate of a hull vertex,
    and points inside a hull edge and inside a hull facet, shuffled."""
    spatial = pytest.importorskip("scipy.spatial")
    pts = rng.standard_normal((m, 3)) * rng.uniform(0.5, 3.0) + rng.uniform(-4, 4, 3)
    i, j, k = spatial.ConvexHull(pts).simplices[0]   # a triangular facet
    w = rng.uniform(0.2, 0.8)
    extra = [pts.mean(axis=0), pts[i], (1.0 - w) * pts[i] + w * pts[j],
             (pts[i] + pts[j] + pts[k]) / 3.0]
    out = np.vstack([pts, extra])
    return out[rng.permutation(len(out))]


def _first_copies(points, indices):
    """Sorted first indices of the rows equal to points[indices]."""
    return sorted({int(np.flatnonzero((points == points[i]).all(axis=1))[0]) for i in indices})


def test_canonical_vertex_indices_match_scipy_on_both_routes(lp_calls):
    # below and above 24 points one hull decides, with no LP
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(109)
    for m in [5, 8, 12, 16, 20] * 4 + [26, 48, 200]:
        cloud = _spatial_cloud(rng, m)
        idx = canonical_vertex_indices(Polytope(cloud))
        assert idx == _first_copies(cloud, spatial.ConvexHull(cloud).vertices)
    assert lp_calls == []


def test_canonical_vertex_indices_keep_one_of_a_near_duplicate_pair():
    # a point 1e-11 from a vertex: the hull edge between them is shorter than
    # TOL_FEAS of the extent, and the first of its ends stands for both
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(6)
    pts = rng.standard_normal((8, 3))
    v = spatial.ConvexHull(pts).vertices
    cloud = np.vstack([pts, pts[v[0]] + 1e-11 * rng.standard_normal(3)])
    idx = canonical_vertex_indices(Polytope(cloud))
    assert set(idx) - {v[0], 8} == set(v) - {v[0]} and len(set(idx) & {v[0], 8}) == 1


def _near_degenerate_cloud(rng):
    """A Gaussian cloud and one point 1e-9 to 1e-14 of its size off a hull
    vertex, the midpoint of a hull edge or the centre of a hull facet."""
    spatial = pytest.importorskip("scipy.spatial")
    pts = rng.standard_normal((int(rng.integers(6, 20)), 3)) * rng.uniform(0.5, 3.0)
    pts += rng.uniform(-4, 4, 3)
    tri = spatial.ConvexHull(pts).simplices
    i, j, k = tri[rng.integers(len(tri))]
    near = [pts[i], (pts[i] + pts[j]) / 2.0, (pts[i] + pts[j] + pts[k]) / 3.0][rng.integers(3)]
    step = rng.standard_normal(3)
    step *= 10 ** rng.uniform(-14, -9) * np.abs(pts).max() / np.linalg.norm(step)
    out = np.vstack([pts, near + step])
    return out[rng.permutation(len(out))]


def test_hull_of_near_degenerate_clouds(lp_calls):
    # the triple planes and the point-in-hull LPs disagreed on 732 of 2455
    # such clouds, so the extreme points changed past 24 points; now every
    # point lies within 1e-12 of the extent below every facet, V - E + F = 2,
    # and interior points that keep the vertex mean and extent change nothing
    rng = np.random.default_rng(17)
    for _ in range(300):
        cloud = _near_degenerate_cloud(rng)
        extent = np.abs(cloud - cloud.mean(axis=0)).max()
        a, b = _facets(cloud)
        assert (cloud @ a.T - b).max() <= 1e-12 * extent
        kept = canonicalize(Polytope(cloud)).vertices
        extreme, pairs, angles = bodies._hull_skeleton(kept)[:3]
        assert len(angles) == len(pairs) and 0.0 < angles.min() and angles.max() < np.pi
        incident = bodies._hull(kept)[4][:, extreme]
        assert len(extreme) - len(pairs) + int((incident.sum(axis=1) >= 3).sum()) == 2
        idx = canonical_vertex_indices(Polytope(cloud))
        inner = cloud.mean(axis=0) + 0.5 * (cloud - cloud.mean(axis=0))
        bigger = np.vstack([cloud] + [inner] * (24 // len(cloud) + 1))
        assert len(cloud) <= 24 < len(bigger)
        assert canonical_vertex_indices(Polytope(bigger)) == idx
    assert lp_calls == []


def test_canonical_body_keeps_the_skeleton_that_chose_its_vertices():
    # cloud 427 of the probe: a point near a hull edge leaves two triangles
    # within about 1e-12 of one plane, which merge in the frame of all 18
    # points and not in that of the 14 extreme points, whose own hull has 36
    # edges; the canonical body reads the 35 of the skeleton that chose it
    rng = np.random.default_rng(0)
    for _ in range(428):
        cloud = _near_degenerate_cloud(rng)
    p = Polytope(cloud)
    chosen = p._hull_record
    kc = canonicalize(p)
    assert (len(cloud), kc.nverts, len(chosen.edges)) == (18, 14, 35)
    where = {int(i): j for j, i in enumerate(chosen.extreme)}
    assert edges(kc) == [(where[i], where[j]) for i, j in chosen.edges.tolist()]
    assert canonicalize(kc) is kc and edges(kc) == edges(canonicalize(Polytope(cloud)))


def test_hull_record_is_read_only_on_raw_and_canonical_bodies():
    # every reader of a body shares its record, so no reader may write it
    p = Polytope(np.random.default_rng(7).standard_normal((12, 3)))
    for hull in (p._hull_record, canonicalize(p)._hull_record):
        for name in ("extreme", "edges", "angles", "a", "b", "c"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(hull, name)[0] += 1


def test_edges_match_scipy_simplices(lp_calls):
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(113)
    for m in [4, 6, 9, 12, 16, 20, 24, 30, 60] * 3:
        p = canonicalize(Polytope(rng.standard_normal((m, 3))))
        tri = spatial.ConvexHull(p.vertices).simplices
        want = sorted({tuple(sorted(map(int, e))) for t in tri for e in combinations(t, 2)})
        assert edges(p) == want
    assert lp_calls == []


def test_lp_extreme_points_are_unit_free():
    # the hull records in R^3 and R^4 run in the unit frame, so scaling the
    # cloud keeps every extreme point
    rng = np.random.default_rng(3)
    for shape in [(30, 3), (14, 4)]:
        cloud = rng.standard_normal(shape)
        want = canonical_vertex_indices(Polytope(cloud))
        for factor in [1e-9, 1e-10]:
            assert canonical_vertex_indices(Polytope(cloud * factor)) == want


def test_lp_edges_and_mean_width_are_unit_free():
    # 26 vertices: the hull runs in the unit frame
    from shadowcover.widths import mean_width_exact

    g = np.random.default_rng(1).standard_normal((26, 3))
    k = canonicalize(Polytope(g / np.linalg.norm(g, axis=1, keepdims=True)))
    small = Polytope(k.vertices * 1e-6, canonical=True)
    assert k.nverts == 26
    assert edges(small) == edges(k)
    assert mean_width_exact(small) / 1e-6 == pytest.approx(mean_width_exact(k), abs=1e-9)


def test_edges_cube():
    got = set(edges(CUBE))
    expect = set()
    v = CUBE.vertices
    for i in range(8):
        for j in range(i + 1, 8):
            if np.sum(np.abs(v[i] - v[j]) > 0.5) == 1:
                expect.add((i, j))
    assert got == expect
    assert len(got) == 12


def test_edges_tetrahedron_complete():
    assert len(edges(TETRA)) == 6


def test_edges_octahedron_no_antipodal():
    octa = Polytope(np.vstack([np.eye(3), -np.eye(3)]), canonical=True)
    got = set(edges(octa))
    assert len(got) == 12
    for i, j in got:
        assert not np.allclose(octa.vertices[i], -octa.vertices[j])


def test_edges_requires_canonical():
    with pytest.raises(ValueError, match="canonical"):
        edges(Polytope(CUBE.vertices))


def test_simplex_from_supports_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(10):
        verts = rng.standard_normal((4, 3))
        if affine_dim(Polytope(verts)) != 3:
            continue
        s = Polytope(verts, canonical=True)
        normals, heights = simplex_facet_normals(s)
        rebuilt = simplex_from_supports(normals, heights)
        assert np.allclose(sorted(map(tuple, rebuilt.vertices)),
                           sorted(map(tuple, s.vertices)), atol=1e-8)
        # normals are outward: every vertex satisfies all inequalities
        assert np.all(verts @ normals.T <= heights[None, :] + 1e-9)


def test_simplex_facet_normals_are_unit_free():
    corner = Polytope(np.vstack([np.zeros(3), np.eye(3)]), canonical=True)
    normals, heights = simplex_facet_normals(corner)
    tiny_normals, tiny_heights = simplex_facet_normals(
        Polytope(corner.vertices * 1e-10, canonical=True))
    assert np.allclose(tiny_normals, normals, atol=1e-12)
    assert np.allclose(tiny_heights, heights * 1e-10, rtol=1e-9, atol=1e-22)


def test_body_json_round_trip():
    d = body_to_dict(TETRA)
    p = body_from_dict(d)
    assert np.allclose(p.vertices, TETRA.vertices)


def test_body_json_ragged_rejected():
    with pytest.raises(ValueError, match="row 1"):
        body_from_dict({"dim": 2, "vertices": [[0.0, 0.0], [1.0]]})


def test_point_in_hull_is_unit_free():
    # with the LP's absolute tolerance, the scaled cube took in a point
    # 1e-7 of its size outside it for scales up to 1e-3
    for factor in (1e-9, 1e-6, 1e-3, 1.0, 1e6):
        cube = Polytope(factor * CUBE.vertices)
        assert not point_in_hull(factor * np.array([1.0 + 1e-7, 0.5, 0.5]), cube)
        assert point_in_hull(factor * np.array([1.0 - 1e-7, 0.5, 0.5]), cube)


def _record_cloud(rng, i):
    """(points, n) for the R^4 and R^5 hull-record oracle: a Gaussian cloud;
    one with its mean, a repeated point, a point on a hull edge and a facet
    centroid added; or a rotated slab 1e-8 thick at an offset of 1e3."""
    spatial = pytest.importorskip("scipy.spatial")
    n, kind = 4 + i % 2, ("cloud", "extras", "slab")[i % 3]
    pts = rng.standard_normal((int(rng.integers(n + 2, 15)), n)) * rng.uniform(0.5, 3.0)
    if kind == "extras":
        tri = spatial.ConvexHull(pts).simplices[0]
        w = rng.uniform(0.2, 0.8)
        extra = [pts.mean(axis=0), pts[tri[1]], (1.0 - w) * pts[tri[0]] + w * pts[tri[1]],
                 pts[tri].mean(axis=0)]
        pts = np.vstack([pts, extra])[rng.permutation(len(pts) + 4)]
    elif kind == "slab":
        pts[:, -1] *= 1e-8
        pts = pts @ np.linalg.qr(rng.standard_normal((n, n)))[0].T + 1e3
    else:
        pts += rng.uniform(-4.0, 4.0, n)
    return pts


def _check_record_against_scipy(pts):
    """The body's hull record against scipy's Quickhull: the same extreme
    points (first copies), every scipy simplex on one of the record's
    facets, and each facet carrying a simplex whose outward unit normal
    matches its own to 1e-9."""
    spatial = pytest.importorskip("scipy.spatial")
    hull = spatial.ConvexHull(pts)
    a, b = _facets(pts)
    assert canonical_vertex_indices(Polytope(pts)) == _first_copies(pts, hull.vertices)
    extent = np.abs(pts - pts.mean(axis=0)).max()
    gap = np.abs(pts @ a.T - b)   # (points, facets)
    assert (pts @ a.T - b).max() <= 1e-12 * extent
    on = (gap[hull.simplices] <= 1e-10 * extent).all(axis=1)   # (simplices, facets)
    assert on.any(axis=1).all()
    match = np.abs(hull.equations[:, None, :-1] - a[None]).max(axis=2) <= 1e-9
    assert (on & match).any(axis=0).all()
    return len(a)


def test_hull_records_in_r4_and_r5_match_scipy():
    rng = np.random.default_rng(211)
    for i in range(204):
        _check_record_against_scipy(_record_cloud(rng, i))
    for n in (4, 5):
        cube = np.array(list(product([0.0, 1.0], repeat=n)))
        assert _check_record_against_scipy(cube) == 2 * n
        record = Polytope(cube)._hull_record
        assert record.extreme.tolist() == list(range(2 ** n))
        incident = np.abs(cube @ record.a.T - (record.s * record.b + record.a @ record.c)) <= 1e-12
        assert incident.sum(axis=1).tolist() == [n] * 2 ** n
        jitter = cube + 1e-13 * rng.standard_normal(cube.shape)
        assert _check_record_against_scipy(jitter) == 2 * n
        cross = np.vstack([np.eye(n), -np.eye(n)]) * 2.0 + 0.5
        assert _check_record_against_scipy(np.vstack([cross, cross.mean(axis=0)])) == 2 ** n


def test_jittered_cubes_keep_no_partial_facets():
    # a facet of the record is all the points within 1e-12 of its plane in the record's unit
    # frame, and no two facets share points of affine rank n - 1: jitter that leaves co-facial
    # points just past 1e-12 of different planes must not leave one cube facet as several
    # overlapping partial ones
    for jitter, n in product((1e-13, 3e-13), (3, 4, 5)):
        rng = np.random.default_rng(1)
        cube = np.array(list(product([0.0, 1.0], repeat=n)))
        for _ in range(20):
            pts = cube + jitter * rng.standard_normal(cube.shape)
            record = Polytope(pts)._hull_record
            on = np.abs((pts - record.c) / record.s @ record.a.T - record.b) <= 1e-12
            share = on.T.astype(int) @ on
            for f, g in zip(*np.nonzero(np.triu(share >= n, 1))):
                common = pts[on[:, f] & on[:, g]]
                assert np.linalg.matrix_rank(common[1:] - common[0], tol=1e-9) < n - 1


def _pyramid_with_a_point_near_a_side_ridge(n):
    """The pyramid over the cube [-1, 1]^(n-1) with its apex 1e-4 above the
    centre, and one more point on its side x_1 = 1 - 1e4 x_n, midway up and
    5e-9 from the ridge that side shares with the side x_2 = 1 - 1e4 x_n."""
    base = np.array(list(product([-1.0, 1.0], repeat=n - 1)))
    base = np.column_stack([base, np.zeros(len(base))])
    apex = np.r_[np.zeros(n - 1), 1e-4]
    near = 0.5 * (apex + np.r_[1.0, 1.0, np.zeros(n - 2)])
    near[1] -= 5e-9
    return np.vstack([base, apex, near])


def test_pyramid_sides_at_a_small_angle_stay_two_facets():
    # the sides x_1 and x_2 of the pyramid meet at about 1e-4 radians, and the point near their
    # ridge lies within 1e-12 of the x_2 side's plane in the unit frame, so the points within
    # 1e-12 of both planes span n - 1 dimensions at the rank's relative tolerance; but the far
    # corners of each side lie about 1e-4 off the other's plane, and the sides stay two facets:
    # the base corners and the apex are extreme, as scipy finds, and a scale fit matches HiGHS
    for n, facets in ((3, 5), (4, 7)):
        pts = _pyramid_with_a_point_near_a_side_ridge(n)
        record = Polytope(pts)._hull_record
        assert abs(pts[-1, 1] + 1e4 * pts[-1, -1] - 1.0) / math.hypot(1.0, 1e4) < 1e-12 * record.s
        assert _check_record_against_scipy(pts) == facets
        assert record.extreme.tolist() == list(range(2 ** (n - 1) + 1))
        k = Polytope(np.random.default_rng(n).standard_normal((8, n)))
        assert scale_fit(k, Polytope(pts)).sigma == pytest.approx(highs_sigma(k.vertices, pts),
                                                                   rel=1e-9)


def test_r4_records_serve_canonicalize_and_refuse_edges(lp_calls):
    # a full body in R^4 hands its record on to its canonical body, with no
    # edges to renumber, and edges asks for affine dimension 3 as before
    rng = np.random.default_rng(223)
    cloud = np.vstack([rng.standard_normal((10, 4)), np.zeros((2, 4))])
    p = Polytope(cloud)
    kc = canonicalize(p)
    record = kc._hull_record
    assert lp_calls == [] and kc.vertices.tolist() == cloud[p._hull_record.extreme].tolist()
    assert record.extreme.tolist() == list(range(kc.nverts)) and record.edges is None
    assert record.a is p._hull_record.a
    with pytest.raises(ValueError, match="affine dimension 3"):
        edges(kc)
    frame = np.linalg.qr(rng.standard_normal((4, 3)))[0]
    embedded = canonicalize(Polytope(rng.standard_normal((8, 3)) @ frame.T))
    assert len(edges(embedded)) >= 6


def test_r4_and_r5_records_flat_exactly_when_affine_dim_says_so():
    # rotated slabs 10^-9.5 to 10^-7.5 thick straddle the rank rule, as in R^3:
    # Gaussian ones, and prisms with a simplex on top and its facet centroids
    # below, ten times longer on one axis, so that each wall's points span it
    # only through the thickness, with sines down to 0.02 of the rank's ratio.
    # A record exists exactly when the rank says full, and then it has the
    # facets and extreme points of the unsquashed body, an affine image, and
    # bounds the body: half of it fits twice
    rng = np.random.default_rng(17)
    for n in (4, 5):
        top = np.vstack([np.eye(n - 1), -np.ones(n - 1)])
        below = (top.sum(axis=0) - top) / (n - 1)
        prism = np.vstack([np.column_stack([top, np.ones(n)]),
                           np.column_stack([below, np.zeros(n)])])
        prism *= np.r_[10.0, np.ones(n - 2), 10.0]
        ranks = []
        for i in range(300):
            thick = np.r_[np.ones(n - 1), 10 ** rng.uniform(-9.5, -7.5)]
            base = (prism if i % 3 == 0 else
                    rng.standard_normal((int(rng.integers(n + 1, 2 * n + 3)), n)))
            rot, shift = np.linalg.qr(rng.standard_normal((n, n)))[0].T, rng.uniform(-3.0, 3.0, n)
            l = Polytope(base * thick @ rot + shift)
            ranks.append(affine_dim(l))
            assert (l._hull_record is None) == (ranks[-1] < n)
            if ranks[-1] == n:
                record = Polytope(base @ rot + shift)._hull_record
                assert len(l._hull_record.a) == len(record.a)
                assert l._hull_record.extreme.tolist() == record.extreme.tolist()
                half = Polytope(0.5 * l.vertices)
                assert scale_fit(half, l).sigma == pytest.approx(2.0, rel=1e-5)
        assert 50 < ranks[::3].count(n) < 95 and 120 < ranks.count(n) < 240


def test_large_r4_record_builds_no_whole_enumeration():
    # a record's work follows its facets, not the vertex n-subsets: those of a 48-point body in
    # R^4 are 5.9 MB as one index array, and the traced peak of its whole record build stays
    # below half of that; 100 points in R^4 and 60 in R^5 (3.9 M and 5.5 M subsets) match scipy
    spatial = pytest.importorskip("scipy.spatial")
    pts = np.random.default_rng(19).standard_normal((48, 4))
    tracemalloc.start()
    try:
        record = bodies._hull_skeleton(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * math.comb(48, 4) * 4 * 8
    assert record.extreme.tolist() == sorted(spatial.ConvexHull(pts).vertices.tolist())
    rng = np.random.default_rng(23)
    for n, m in ((4, 100), (5, 60)):
        _check_record_against_scipy(rng.standard_normal((m, n)))
