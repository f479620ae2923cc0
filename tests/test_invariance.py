"""Similarity invariance as properties.

A similarity x -> f (R x + t), with f = 10^k for k in [-9, 9], an orthogonal
R and an offset t of up to 1e6 body sizes, together with a vertex
permutation and duplicated vertices, must leave unchanged every answer that
reads a body's frame: the affine dimension, the canonical vertex set, the
scale fit and the least vertex-subset fit, the support set and the touching
verdict; the exact mean width scales by f, and in the plane, with f in
[1e-3, 1e3] and an offset of a few body sizes, to 1e-12, as do the
perimeters of a body's planar shadows read off its silhouette edges, which
match the planar hulls of its projected vertices.  A linear map x -> M x of
condition number up to 1e3 leaves the scale fit and the least vertex-subset
fits unchanged as well.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import perimeter2d  # noqa: E402

from shadowcover.bodies import (  # noqa: E402
    Polytope,
    affine_dim,
    canonical_vertex_indices,
    canonicalize,
    support_set,
)
from shadowcover.construct import verify_touching  # noqa: E402
from shadowcover.containment import min_subset_sigma, scale_fit  # noqa: E402
from shadowcover.core import _haar_columns  # noqa: E402
from shadowcover.widths import _silhouette_perimeters, mean_width_exact  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50, database=None)


@st.composite
def similarities(draw):
    """(n, rng, move, rot, factor): an ambient dimension, a generator for the
    bodies, and a random similarity of R^n with its orthogonal part and its
    factor."""
    n = draw(st.sampled_from((2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factor = 10.0 ** draw(st.integers(-9, 9))
    direction = rng.standard_normal(n)
    shift = draw(st.floats(0.0, 1e6)) * direction / np.linalg.norm(direction)
    rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return n, rng, lambda x: factor * (x @ rot.T + shift), rot, factor


@st.composite
def linear_maps(draw):
    """(n, rng, m): an ambient dimension, a generator for the bodies, and a
    random matrix of R^n, of either orientation, whose singular values lie
    in [1, 1e3]."""
    n = draw(st.sampled_from((2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _, vt = np.linalg.svd(rng.standard_normal((n, n)))
    return n, rng, u * 10.0 ** rng.uniform(0.0, 3.0, n) @ vt


def _reorder(rng, m, repeats=3):
    """A permutation of range(m) with `repeats` entries listed twice."""
    return rng.permutation(np.concatenate([np.arange(m), rng.integers(0, m, repeats)]))


@PROPERTY
@given(similarities(), st.integers(0, 3))
def test_affine_dim(case, rank):
    n, rng, move, *_ = case
    rank = min(rank, n)
    x = rng.standard_normal((8, rank)) @ rng.standard_normal((rank, n)) + rng.standard_normal(n)
    assert affine_dim(Polytope(x)) == rank
    assert affine_dim(Polytope(move(x)[_reorder(rng, 8)])) == rank


@PROPERTY
@given(similarities(), st.integers(5, 40))
def test_canonical_vertex_set(case, m):
    n, rng, move, *_ = case
    x = rng.standard_normal((m, n))
    order = _reorder(rng, m)
    moved = canonical_vertex_indices(Polytope(move(x)[order]))
    assert sorted(order[moved]) == canonical_vertex_indices(Polytope(x))


@PROPERTY
@given(similarities(), st.integers(2, 8), st.integers(4, 10))
def test_scale_fit_sigma(case, mk, ml):
    # also for a flat L on the plane x_n = 0, with K on the parallel plane
    # x_n = 1, which is fit in L's own frame
    n, rng, move, *_ = case
    k, l = rng.standard_normal((mk, n)), 2.0 * rng.standard_normal((ml, n))
    flat_k, flat_l = k.copy(), l.copy()
    flat_k[:, -1], flat_l[:, -1] = 1.0, 0.0
    for k, l in ((k, l), (flat_k, flat_l)):
        moved_k = Polytope(move(k)[_reorder(rng, mk)])
        moved_l = Polytope(move(l)[_reorder(rng, ml)])
        moved = scale_fit(moved_k, moved_l)
        assert moved.sigma == pytest.approx(scale_fit(Polytope(k), Polytope(l)).sigma, rel=1e-9)
        assert min_subset_sigma(moved_k, moved_l, n + 1) == pytest.approx(
            min_subset_sigma(Polytope(k), Polytope(l), n + 1), rel=1e-9)


@PROPERTY
@given(linear_maps(), st.integers(2, 8), st.integers(4, 10))
def test_scale_fits_under_a_linear_map(case, mk, ml):
    n, rng, m = case
    k, l = rng.standard_normal((mk, n)), 2.0 * rng.standard_normal((ml, n))
    assert np.linalg.cond(m) <= 1e3 * (1.0 + 1e-12)
    here, there = (Polytope(k), Polytope(l)), (Polytope(k @ m.T), Polytope(l @ m.T))
    assert scale_fit(*there).sigma == pytest.approx(scale_fit(*here).sigma, rel=1e-9)
    for kcount in (2, 3):
        assert min_subset_sigma(*there, kcount) == pytest.approx(
            min_subset_sigma(*here, kcount), rel=1e-9)


@PROPERTY
@given(similarities(), st.integers(3, 12))
def test_support_set(case, m):
    n, rng, move, rot, _ = case
    x, u = rng.standard_normal((m, n)), rng.standard_normal(n)
    order = _reorder(rng, m)
    moved = support_set(Polytope(move(x)[order]), rot @ u)
    assert sorted(set(order[moved])) == support_set(Polytope(x), u)


@PROPERTY
@given(similarities(), st.booleans())
def test_verify_touching_verdict(case, every_facet):
    # K holds a point inside facet j (opposite vertex j) of the simplex S for
    # every j, or for all but the last, and S's centroid
    n, rng, move, *_ = case
    s = rng.standard_normal((n + 1, n))
    while np.linalg.cond(s[1:] - s[0]) > 1e3:
        s = rng.standard_normal((n + 1, n))
    points = [np.full(n + 1, 1.0 / (n + 1)) @ s]
    for j in range(n + 1 if every_facet else n):
        w = rng.uniform(0.2, 1.0, n + 1)
        w[j] = 0.0
        points.append(w / w.sum() @ s)
    k = np.array(points)
    verdict = verify_touching(Polytope(k), Polytope(s))
    assert verdict == every_facet
    moved_k = Polytope(move(k)[_reorder(rng, len(k))])
    assert verify_touching(moved_k, Polytope(move(s)[rng.permutation(n + 1)])) == verdict


@PROPERTY
@given(similarities(), st.integers(4, 30))
def test_mean_width_exact(case, m):
    n, rng, move, _, factor = case
    x = rng.standard_normal((m, n))
    moved = mean_width_exact(Polytope(move(x)[_reorder(rng, m)]))
    assert moved == pytest.approx(factor * mean_width_exact(Polytope(x)), rel=1e-9)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(3, 30), st.floats(-3.0, 3.0),
       st.floats(0.0, 2.0 * np.pi), st.booleans())
def test_planar_mean_width_exact(seed, m, log_factor, angle, mirror):
    # the monotone chain's perimeter: the same under a vertex permutation
    # with duplicates, f times it under x -> f R x + v
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, 2))
    factor = 10.0 ** log_factor
    rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    rot[:, 1] *= -1.0 if mirror else 1.0
    shift = factor * rng.uniform(-3.0, 3.0, 2)
    order = _reorder(rng, m)
    want = mean_width_exact(Polytope(x))
    assert mean_width_exact(Polytope(x[order])) == pytest.approx(want, rel=1e-12, abs=0.0)
    moved = mean_width_exact(Polytope((factor * (x @ rot.T) + shift)[order]))
    assert moved == pytest.approx(factor * want, rel=1e-12, abs=0.0)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(4, 30), st.floats(-3.0, 3.0), st.booleans())
def test_silhouette_perimeters(seed, m, log_factor, mirror):
    # on 8 Haar planes, each shadow's perimeter is the oracle's for the
    # projected vertices, and under x -> f R x + v with a vertex permutation
    # and duplicates it is f times that on the planes R q
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, 3))
    factor = 10.0 ** log_factor
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    rot[:, 0] *= -1.0 if mirror else 1.0
    q = _haar_columns(3, 2, 8, rng)
    want = [perimeter2d(x @ q[:, :, s].T) for s in range(8)]
    assert _silhouette_perimeters(canonicalize(Polytope(x)), q) == pytest.approx(
        want, rel=1e-12, abs=0.0)
    moved = Polytope((factor * (x @ rot.T + rng.uniform(-3.0, 3.0, 3)))[_reorder(rng, m)])
    got = _silhouette_perimeters(canonicalize(moved), np.einsum("ij,kjs->kis", rot, q))
    assert got == pytest.approx(factor * np.array(want), rel=1e-12, abs=0.0)
