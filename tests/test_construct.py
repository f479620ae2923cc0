from itertools import combinations

import numpy as np
import pytest

from shadowcover.bodies import Polytope, affine_dim, canonicalize, scale, support, support_set
from shadowcover import containment
from shadowcover.containment import min_subset_sigma, scale_fit, subset_witness, translate_fits
from shadowcover.construct import (
    ConstructionError,
    NormalSelection,
    build_counterexample,
    build_counterexample_d,
    canonical_tetra_quad,
    circumscribe_simplex,
    epsilon_gap,
    farkas_excludes_translate,
    replay_counterexample,
    select_regular_normals,
    verify_touching,
)
from shadowcover.core import TOL_GEOM, Subspace, direction_grid
from shadowcover.shadows import shadow_fit, shadow_sweep

SHARED_CHECKS = ("circumscribes", "epsilon_gt_one", "translate_excluded", "sweep_covers")


def assert_exact_epsilon(ce):
    """The emitted epsilon sits just below the exact eps* of Theorem 2."""
    exact = min_subset_sigma(ce.body, ce.cover, ce.d + 1)
    assert (1.0 - 3.0 * TOL_GEOM) * exact <= ce.epsilon <= exact


TETRA = Polytope([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                  [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]], canonical=True)


def test_select_regular_normals_tetrahedron():
    sel = select_regular_normals(TETRA, np.random.default_rng(0))
    assert sel.validate(TETRA)
    assert sorted(int(t) for t in sel.touch_indices) == [0, 1, 2, 3]
    assert sel.residual() <= 1e-9
    assert np.min(sel.coefficients) > 0


def test_select_regular_normals_square():
    sq = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], canonical=True)
    sel = select_regular_normals(sq, np.random.default_rng(1))
    assert sel.validate(sq)
    assert len(set(int(t) for t in sel.touch_indices)) == 3


def test_select_regular_normals_rejects_segment():
    seg = Polytope([[0.0, 0.0], [1.0, 0.0]], canonical=True)
    with pytest.raises(ConstructionError):
        select_regular_normals(seg, np.random.default_rng(2))


def test_select_regular_normals_flat_body():
    # the touching argument never needs a full-dimensional body
    _, quad = canonical_tetra_quad()
    sel = select_regular_normals(quad, np.random.default_rng(4))
    assert sel.validate(quad)
    assert sorted(int(t) for t in sel.touch_indices) == [0, 1, 2, 3]


def _random_canonical_body(rng):
    n = int(rng.integers(2, 5))
    return canonicalize(Polytope(rng.standard_normal((int(rng.integers(n + 3, 13)), n))))


def test_select_regular_normals_solves_no_lp(lp_calls):
    # canonicalize reads the hull record in R^4 as in R^3
    rng = np.random.default_rng(23)
    ks = [_random_canonical_body(rng) for _ in range(20)]
    assert lp_calls == [] and 4 in {k.dim for k in ks}
    for k in ks:
        assert select_regular_normals(k, rng).validate(k)
    assert lp_calls == []


def test_selection_coefficients_are_the_null_vector_of_the_normals():
    # the closed-form weights of the closing normal are the positive
    # dependence of the normals, which is unique up to scale
    rng = np.random.default_rng(29)
    for _ in range(200):
        sel = select_regular_normals(_random_canonical_body(rng), rng)
        null = np.linalg.svd(sel.normals.T)[2][-1]
        assert np.abs(sel.coefficients - null / null.sum()).max() <= 1e-14
        assert sel.coefficients.sum() == pytest.approx(1.0, abs=1e-15)


def test_circumscribe_tetrahedron_is_reflected_triple():
    # the idealized vertex-direction selection reproduces -3K
    normals = TETRA.vertices / np.sqrt(3.0)
    sel = NormalSelection(normals, np.arange(4), np.full(4, 0.25))
    assert sel.validate(TETRA)
    s = circumscribe_simplex(TETRA, sel)
    expect = sorted(map(tuple, -3.0 * TETRA.vertices))
    assert np.allclose(sorted(map(tuple, s.vertices)), expect, atol=1e-9)
    assert verify_touching(TETRA, s)
    assert scale_fit(TETRA, s).sigma == pytest.approx(1.0, abs=1e-5)


def test_circumscribe_supports_match():
    rng = np.random.default_rng(3)
    for _ in range(5):
        k = canonicalize(Polytope(rng.standard_normal((8, 3))))
        if affine_dim(k) != 3 or k.nverts < 4:
            continue
        sel = select_regular_normals(k, rng)
        s = circumscribe_simplex(k, sel)
        for u in sel.normals:
            assert support(s, u) == pytest.approx(support(k, u), abs=1e-9)


def test_verify_touching_failure_modes():
    delta, quad = canonical_tetra_quad()
    assert verify_touching(quad, delta)
    # sharing a vertex with the simplex touches a ridge
    shared = Polytope(np.vstack([quad.vertices[:3], delta.vertices[:1]]))
    assert not verify_touching(shared, delta)
    # strictly interior bodies touch nothing
    inner = scale(quad, 0.5)
    assert not verify_touching(inner, delta)


def test_epsilon_gap_requires_touching():
    delta, quad = canonical_tetra_quad()
    with pytest.raises(ValueError, match="touching"):
        epsilon_gap(scale(quad, 0.5), delta, direction_grid(3, 16))


def test_epsilon_gap_homothety_covariance():
    # doubling the simplex doubles every per-direction sigma; the gap
    # operation itself refuses the doubled pair (touching precondition)
    from shadowcover.construct import direction_sigmas
    delta, quad = canonical_tetra_quad()
    dirs = direction_grid(3, 64)
    base = direction_sigmas(quad, delta, dirs)
    doubled = direction_sigmas(quad, scale(delta, 2.0), dirs)
    assert np.allclose(doubled, 2.0 * base, rtol=1e-9)
    with pytest.raises(ValueError, match="touching"):
        epsilon_gap(quad, scale(delta, 2.0), dirs)


def test_canonical_tetra_quad_geometry():
    delta, quad = canonical_tetra_quad()
    assert affine_dim(quad) == 2
    assert sorted(map(tuple, quad.vertices)) == [(-0.5, -0.5, 0.0), (-0.5, 0.5, 0.0),
                                                 (0.5, -0.5, 0.0), (0.5, 0.5, 0.0)]
    assert scale_fit(quad, delta).sigma == pytest.approx(1.0, abs=1e-5)
    # each quad vertex is a singleton support set of the facet normal
    normals = -delta.vertices / np.sqrt(3.0)
    for u in normals:
        assert len(support_set(quad, u)) == 1


def test_canonical_pair_epsilon_and_exclusion():
    delta, quad = canonical_tetra_quad()
    eps = epsilon_gap(quad, delta, direction_grid(3, 2000))
    assert eps == pytest.approx(4.0 / 3.0, abs=1e-12)
    fits, _ = translate_fits(scale(quad, eps), delta)
    assert not fits


def test_build_counterexample_tetrahedron():
    ce = build_counterexample(TETRA, rng=0, directions=400, sweep_count=400)
    assert ce.epsilon > 1.0 + 1e-6
    assert_exact_epsilon(ce)
    rep = replay_counterexample(ce, sweep_count=400)
    assert all(rep.values()), rep


def _random_body_counterexample():
    rng = np.random.default_rng(42)
    k = canonicalize(Polytope(rng.standard_normal((10, 3))))
    return build_counterexample(k, rng=rng, directions=400, sweep_count=400)


def test_build_counterexample_random_body():
    ce = _random_body_counterexample()
    assert ce.epsilon > 1.0
    assert_exact_epsilon(ce)
    rep = replay_counterexample(ce, sweep_count=400)
    assert all(rep.values()), rep


def test_counterexample_covers_on_the_minimizing_plane():
    # Theorem 2's plane xi*, the span of the u_B of the cover's best dual ray
    # and partition, attains eps*, the least fit of the body's vertex triples,
    # each fit on its own; a sampled estimate of epsilon above eps* makes the
    # shadow of epsilon * K on it fail to fit
    ce = _random_body_counterexample()
    v = ce.body.vertices
    worst = min(scale_fit(Polytope(v[list(c)]), ce.cover).sigma
                for c in combinations(range(len(v)), 3))
    eps, _, u = containment._partition_fit(v, containment._supports(ce.body, ce.cover), 3)
    assert eps == pytest.approx(worst, rel=1e-12, abs=0.0)
    xi = Subspace(np.linalg.svd(u.T)[0][:, :2])
    assert shadow_fit(ce.body, ce.cover, xi).sigma == pytest.approx(worst, rel=1e-9, abs=0.0)
    assert shadow_fit(scale(ce.body, ce.epsilon), ce.cover, xi).sigma >= 1.0 - TOL_GEOM


def test_build_counterexample_rejects_flat_body():
    _, quad = canonical_tetra_quad()
    with pytest.raises(ValueError, match="full-dimensional"):
        build_counterexample(quad)


def test_build_counterexample_d_planar_quad_lifted():
    _, quad = canonical_tetra_quad()
    ce = build_counterexample_d(quad, 1, rng=1, directions=256, sweep_count=300,
                                lift_checks=25)
    assert ce.d == 1
    assert ce.epsilon > 1.0
    assert affine_dim(ce.cover) == 2  # triangle in the quad's plane
    assert_exact_epsilon(ce)
    rep = replay_counterexample(ce, sweep_count=300)
    assert all(rep.values()), rep


def test_build_counterexample_d_planar_quad_direct():
    # d equals the body's dimension: the cover grows around the flat body
    _, quad = canonical_tetra_quad()
    ce = build_counterexample_d(quad, 2, rng=2, directions=300, sweep_count=300)
    assert ce.d == 2
    assert affine_dim(ce.cover) == 3
    assert ce.checks["translate_excluded"]
    rep = replay_counterexample(ce, sweep_count=300)
    assert all(rep.values()), rep


def _replays_with_shared_checks(ce, sweep_count):
    """Epsilon is exact, replay at the build's sample count passes, and the
    build's own checks are the replay's four shared ones (plus the lift
    flag)."""
    assert_exact_epsilon(ce)
    rep = replay_counterexample(ce, sweep_count=sweep_count)
    assert all(rep.values()), rep
    own = {key: val for key, val in ce.checks.items() if key != "flat_lift_certified"}
    assert own == {key: rep[key] for key in SHARED_CHECKS}


def test_build_counterexample_d_full_body_lower_dim():
    # a full-dimensional body at d = 1 < n - 1 is re-emitted in the ambient space
    k = Polytope(np.random.default_rng(7).standard_normal((8, 3)))
    ce = build_counterexample_d(k, 1, rng=6, directions=300, sweep_count=300)
    assert ce.d == 1 and ce.sample_log["kind"] == "subspace_bases"
    assert ce.epsilon > 1.0
    assert "flat_lift_certified" not in ce.checks
    _replays_with_shared_checks(ce, 300)


def test_build_counterexample_d_pentagon_lifted_flat_in_flat():
    # a pentagon in R^4 at d = 2: the cover is a 3-simplex grown around the
    # pentagon inside a 3-flat, in which the pentagon is itself flat; the
    # flat misses the origin, so inflating about it would leave the flat
    ang = 2.0 * np.pi * np.arange(5) / 5.0
    pts = np.zeros((5, 4))
    pts[:, 0], pts[:, 1] = np.cos(ang), np.sin(ang)
    frame, _ = np.linalg.qr(np.random.default_rng(9).standard_normal((4, 4)))
    pentagon = Polytope(pts @ frame.T + 0.3)
    ce = build_counterexample_d(pentagon, 2, rng=3, directions=256, sweep_count=200,
                                lift_checks=20)
    assert ce.d == 2
    assert affine_dim(ce.cover) == 3
    assert ce.checks["flat_lift_certified"]
    _replays_with_shared_checks(ce, 200)


def test_build_counterexample_d_simplex_rejected():
    # a d-simplex has d+1 vertices: below the d+2 hypothesis
    tri = Polytope([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="d\\+2"):
        build_counterexample_d(tri, 2, rng=0)


def test_build_counterexample_d_dimension_guard():
    with pytest.raises(ValueError, match="1 <= d"):
        build_counterexample_d(TETRA, 3, rng=0)


def test_counterexample_serialization():
    ce = build_counterexample(TETRA, rng=0, directions=64, sweep_count=64)
    data = ce.to_dict()
    assert data["epsilon"] > 1.0
    assert data["sample_count"] == len(data["sample_log"]["sigmas"])
    assert set(data["checks"]) >= {"circumscribes", "epsilon_gt_one",
                                   "translate_excluded", "sweep_covers"}
    import json
    json.dumps(data)  # JSON-serializable end to end


def test_build_and_replay_follow_a_similarity_of_the_body():
    # support_set's tolerance was absolute, so at 1e-9 scale every direction
    # was irregular and at 1e-6 another selection won; at a 1e6 offset the
    # Farkas LP found no certificate
    cloud = Polytope(np.random.default_rng(3).standard_normal((9, 3)))
    base = build_counterexample(cloud, rng=5, directions=16, sweep_count=100)
    assert all(replay_counterexample(base, sweep_count=100).values())
    for factor, offset in [(1e-9, 0.0), (1e-6, 0.0), (1e6, 0.0), (1.0, 1e6)]:
        ce = build_counterexample(Polytope(factor * cloud.vertices + offset), rng=5,
                                  directions=16, sweep_count=100)
        # coordinates near 1e6 carry a 1.2e-10 rounding; the cover, solved in
        # K's unit frame, moves by about as much
        rel = 1e-12 if offset == 0.0 else 1e-9
        assert ce.epsilon == pytest.approx(base.epsilon, rel=rel)
        assert np.allclose(ce.cover.vertices, factor * base.cover.vertices + offset,
                           rtol=0.0, atol=1e-9 * factor if offset == 0.0 else 5e-10)
        assert all(replay_counterexample(ce, sweep_count=100).values())


def test_farkas_certificate_is_unit_free():
    delta, quad = canonical_tetra_quad()
    for factor, offset in [(1e-9, 0.0), (1.0, 0.0), (1e6, 0.0), (1.0, 1e6)]:
        q = Polytope(factor * quad.vertices + offset)
        d = Polytope(factor * delta.vertices + offset)
        assert farkas_excludes_translate(q, d, 1.2)
        assert not farkas_excludes_translate(q, d, 0.9)
    # the certificate is exact: it holds a hair past 1 / sigma and fails a
    # hair below, under vertex permutations of both bodies, for the lifted
    # flat cover of criterion 7 and for an R^4 cover
    rng = np.random.default_rng(31)
    lifted = build_counterexample_d(quad, 1, rng=7, directions=16, sweep_count=16)
    r4 = build_counterexample(Polytope(rng.standard_normal((7, 4))), rng=3, directions=16,
                              sweep_count=16)
    assert lifted.cover.nverts == 3 and r4.cover.dim == 4
    pairs = [(quad, delta), (lifted.body, lifted.cover), (r4.body, r4.cover)]
    pairs += [(Polytope(k.vertices[rng.permutation(k.nverts)]),
               Polytope(c.vertices[rng.permutation(c.nverts)])) for k, c in pairs]
    for k, cover in pairs:
        sigma = scale_fit(k, cover).sigma
        assert farkas_excludes_translate(k, cover, (1.0 + 1e-6) / sigma)
        assert not farkas_excludes_translate(k, cover, (1.0 - 1e-6) / sigma)
    # a cover that is not a simplex has none, however large the factor: too
    # many vertices, or n + 1 of them on a hyperplane
    square = Polytope([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0], [4.0, 4.0, 0.0]])
    centred = Polytope(np.vstack([delta.vertices, delta.vertices.mean(axis=0)]))
    for cover in (square, centred, Polytope(np.vstack([delta.vertices, -delta.vertices]))):
        assert not farkas_excludes_translate(quad, cover, 1e6)


def test_builds_replays_and_a_decide_pair_solve_only_the_facet_lp(lp_calls):
    # every fit walks its own small LP over L's edges or facets: a build and
    # replay in R^3, of criterion 7's lifted quad and in R^4, and a
    # decide-style pair call no entry point of lp
    _, quad = canonical_tetra_quad()
    rng = np.random.default_rng(41)
    builds = [build_counterexample(Polytope(rng.standard_normal((8, 3))), rng=1, directions=16,
                                   sweep_count=16),
              build_counterexample_d(quad, 1, rng=7, directions=16, sweep_count=16),
              build_counterexample(Polytope(rng.standard_normal((7, 4))), rng=3, directions=16,
                                   sweep_count=16)]
    assert all(all(replay_counterexample(ce, sweep_count=16).values()) for ce in builds)
    k, l = Polytope(rng.standard_normal((8, 3))), Polytope(2.0 * rng.standard_normal((11, 3)))
    translate_fits(k, l)
    subset_witness(k, l, 4)
    shadow_sweep(k, l, 1, count=64, rng=np.random.default_rng(5))
    assert lp_calls == []


def test_build_and_replay_build_two_hulls(hull_calls):
    # the body's Quickhull picks its canonical vertices and the cover's
    # serves every fit in it, at build and at replay
    for seed in range(3):
        body = Polytope(np.random.default_rng(seed).standard_normal((8, 3)))
        hull_calls.clear()
        ce = build_counterexample(body, rng=seed, directions=16, sweep_count=16)
        assert all(replay_counterexample(ce, sweep_count=16).values())
        assert hull_calls == [8, 4]
