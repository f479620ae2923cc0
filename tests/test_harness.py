import numpy as np
import pytest

from shadowcover.containment import min_subset_sigma, scale_fit
from shadowcover.harness import (
    margin_pair_for_subsets,
    random_polytope,
    scaled_pair,
    containment_equivalence_suite,
    verify_suite,
)


def test_random_polytope_is_canonical():
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = random_polytope(3, 6, rng)
        assert p.canonical
        assert p.nverts == 6


def test_scaled_pair_hits_target():
    rng = np.random.default_rng(2)
    for target in (0.8, 1.25):
        k, l = scaled_pair(2, rng, target)
        assert scale_fit(k, l).sigma == pytest.approx(target, rel=1e-9)


def test_margin_pair_pins_min_subset_sigma():
    rng = np.random.default_rng(3)
    k, l = margin_pair_for_subsets(3, 1, rng, covers=True, margin=0.1)
    assert min_subset_sigma(k, l, 2) == pytest.approx(1.1, rel=1e-9)
    k, l = margin_pair_for_subsets(3, 2, rng, covers=False, margin=0.15)
    assert min_subset_sigma(k, l, 3) == pytest.approx(0.85, rel=1e-9)


def test_containment_equivalence_suite_runs_clean():
    rep = containment_equivalence_suite(2, 20, np.random.default_rng(4))
    assert rep["disagreements"] == 0
    assert rep["witness_replay_failures"] == 0


def test_verify_suite_deterministic():
    a = verify_suite(2, 6, seed=9, samples=40)
    b = verify_suite(2, 6, seed=9, samples=40)
    assert a == b
    assert a["disagreements"] == 0
