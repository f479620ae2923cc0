"""Randomized instance generation and the containment-equivalence harness.

Instances are Gaussian vertex hulls rescaled so the fit scale lands away
from 1 (the verdict boundary); the harness then runs both routes of the
containment equivalences independently and counts disagreements, treating
the tolerance band around 1 as borderline rather than pass or fail.
"""

from __future__ import annotations

import numpy as np

from .bodies import Polytope, canonicalize, scale
from .containment import inscribed_equivalence_check, min_subset_sigma, scale_fit, subset_witness
from .core import TOL_GEOM, Subspace
from .shadows import refine_min_margin, shadow_sweep


def random_polytope(n: int, nverts: int, rng: np.random.Generator) -> Polytope:
    """Canonical hull of standard Gaussian points with the requested vertex count."""
    for _ in range(200):
        p = canonicalize(Polytope(rng.standard_normal((nverts, n))))
        if p.nverts == nverts:
            return p
    return p  # extremely lopsided draw: accept fewer vertices


def scaled_pair(n: int, rng: np.random.Generator, target: float) -> tuple[Polytope, Polytope]:
    """A pair (K, L) of 4 to 8 vertices each with scale_fit(K, L) equal to
    ``target`` by homothety.

    scale_fit is positively homogeneous in L, so rescaling a random L by
    target / sigma places the fit scale exactly where requested.
    """
    while True:
        k = random_polytope(n, int(rng.integers(4, 9)), rng)
        l0 = random_polytope(n, int(rng.integers(4, 9)), rng)
        sigma = scale_fit(k, l0).sigma
        if not 1e-9 < sigma < np.inf:
            continue
        return k, scale(l0, target / sigma)


def margin_pair_for_subsets(n: int, d: int, rng: np.random.Generator,
                            covers: bool, margin: float = 0.1) -> tuple[Polytope, Polytope]:
    """A pair of 4 to 6 vertices each whose minimal (d+1)-subset fit scale
    sits at 1 +/- margin.

    Rescaling L moves every subset sigma uniformly, so the minimum can be
    pinned exactly; the sign of the offset decides covers versus fails.
    """
    target = 1.0 + margin if covers else 1.0 - margin
    while True:
        k = random_polytope(n, int(rng.integers(4, 7)), rng)
        l0 = random_polytope(n, int(rng.integers(4, 7)), rng)
        base = min_subset_sigma(k, l0, d + 1)
        if not 1e-9 < base < np.inf:
            continue
        return k, scale(l0, target / base)


def containment_equivalence_suite(n: int, trials: int, rng: np.random.Generator) -> dict:
    """Randomized check of the inscribed-polytope containment equivalence."""
    disagreements = 0
    borderline = 0
    witness_replay_failures = 0
    for _ in range(trials):
        target = float(rng.choice([0.7, 0.8, 1.2, 1.3]))
        k, l = scaled_pair(n, rng, target)
        rep = inscribed_equivalence_check(k, l)
        if rep.borderline:
            borderline += 1
            continue
        if not rep.agrees:
            disagreements += 1
        if rep.witness is not None:
            sub = Polytope(k.vertices[rep.witness])
            if scale_fit(sub, l).sigma >= 1.0:
                witness_replay_failures += 1
    return {
        "checked": trials,
        "disagreements": disagreements,
        "borderline": borderline,
        "witness_replay_failures": witness_replay_failures,
    }


def shadow_equivalence_suite(n: int, d: int, trials: int, rng: np.random.Generator,
                   sweep_count: int = 1000, refine_steps: int = 60) -> dict:
    """Randomized check of the shadow-covering equivalence at dimension d.

    Subset-witness emptiness at k = d+1 against a sampled sweep with local
    refinement; failing instances must produce a subspace with sigma < 1.
    """
    disagreements = 0
    refine_failures = 0
    checked = 0
    for i in range(trials):
        covers = bool(i % 2 == 0)
        # a wider margin on failing instances keeps the violating subspace
        # region large enough for sampling plus refinement to pin down
        k, l = margin_pair_for_subsets(n, d, rng, covers=covers,
                                       margin=0.1 if covers else 0.15)
        witness = subset_witness(k, l, d + 1)
        rep = shadow_sweep(k, l, d, count=sweep_count, rng=rng)
        min_sigma = rep.min_sigma
        if rep.verdict != "fails" and witness is not None:
            # sampling may miss a thin violating region; refinement must find it
            order = np.argsort(rep.sigmas)[:5]
            for idx in order:
                start = Subspace(rep.bases[idx])
                _, refined = refine_min_margin(k, l, d, start, steps=refine_steps,
                                               rng=rng)
                min_sigma = min(min_sigma, refined)
                if min_sigma < 1.0 - TOL_GEOM:
                    break
        sweep_covers = min_sigma >= 1.0 - TOL_GEOM
        subset_covers = witness is None
        checked += 1
        if sweep_covers != subset_covers:
            disagreements += 1
        if witness is not None and min_sigma >= 1.0:
            refine_failures += 1
    return {
        "d": d,
        "checked": checked,
        "disagreements": disagreements,
        "refine_failures": refine_failures,
    }


def verify_suite(n: int, trials: int, seed: int, samples: int = 200) -> dict:
    """The randomized equivalence harness behind the verify-suite command.

    Runs the full-dimensional containment equivalence on every trial and the
    shadow equivalence at each 1 <= d < n on a subsample, all from one seed.
    """
    rng = np.random.default_rng(seed)
    containment = containment_equivalence_suite(n, trials, rng)
    shadow_trials = max(2, trials // 10)
    shadow = [shadow_equivalence_suite(n, d, shadow_trials, rng, sweep_count=samples)
              for d in range(1, n)]
    disagreements = containment["disagreements"] + sum(r["disagreements"] for r in shadow)
    return {
        "n": n,
        "trials": trials,
        "samples": samples,
        "disagreements": disagreements,
        "borderline": containment["borderline"],
        "containment_equivalence": containment,
        "shadow_equivalence": shadow,
    }
