"""The three benchmark workloads: seeded inputs, one instance, output checks.

Inputs come from the workload seed through numpy alone (Gaussian clouds and
scale draws), never through a library call such as ``random_polytope`` or
``canonicalize``, so a change to the library cannot change the inputs.

Every library call goes through the ``shadowcover`` package attribute at call
time, so the tracer's wrappers see it.  Checks take a route independent of
the measured call and run outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import shadowcover as sc
from shadowcover.construct import ConstructionError
from shadowcover.lp import LpError

# an instance raising one of these counts as failed, never as a crash
EXPECTED_ERRORS = (LpError, ConstructionError, ValueError)

OK = "ok"
BORDERLINE = "borderline"   # passes; the verdict sits inside the tolerance band
WRONG = "wrong"             # prefix of a verdict that marks an incorrect output

KUBOTA_REL_ERROR = 0.03     # acceptance criterion 9's bound
HULL_REL_TOL = 1e-9
SIGMA_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    index: int                # separates the workloads' random streams
    pool_size: int            # instances generated; a run cycles through them
    nominal_s: float          # untraced seconds per instance at the baseline
    window: int               # instances between two passes of the reference kernel
    generate: Callable[[np.random.Generator, int], dict]
    run: Callable[[dict], object]
    check: Callable[[dict, object], str]
    warm_up: Callable[[dict], None]

    def pool(self, seed: int) -> list[dict]:
        rng = np.random.default_rng([seed, self.index])
        return [self.generate(rng, i) for i in range(self.pool_size)]


def fingerprint(pool: list[dict]) -> str:
    """SHA-256 over every generated array and derived seed, in order."""
    h = hashlib.sha256()
    for inst in pool:
        for key in sorted(inst):
            arr = np.ascontiguousarray(inst[key], dtype="<f8" if key != "seed" else "<i8")
            h.update(key.encode())
            h.update(np.asarray(arr.shape, dtype="<i8").tobytes())
            h.update(arr.tobytes())
    return h.hexdigest()


def run_instance(wl: Workload, inst: dict):
    """(output or None, error text or None, seconds in the library call)."""
    t0 = time.perf_counter()
    try:
        out = wl.run(inst)
    except EXPECTED_ERRORS as exc:
        return None, f"error: {type(exc).__name__}: {exc}", time.perf_counter() - t0
    return out, None, time.perf_counter() - t0


class Tally:
    """Outcomes of checked instances.

    An instance fails when it raises one of EXPECTED_ERRORS or its output
    fails a check; an output that fails a check is also counted as wrong.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.borderline = 0
        self.first_failures: list[str] = []

    def add(self, wl: Workload, inst: dict, out, error: str | None) -> bool:
        """Check one instance's output; True when it counts as a success."""
        verdict = error if error is not None else wl.check(inst, out)
        self.attempted += 1
        if verdict == BORDERLINE:
            self.borderline += 1
        elif verdict != OK:
            self.failed += 1
            self.wrong += verdict.startswith(WRONG)
            if len(self.first_failures) < 5:
                self.first_failures.append(verdict)
            return False
        return True

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong,
                "borderline": self.borderline,
                "failed_share": {"value": self.failed / self.attempted, "unit": "share"},
                "first_failures": self.first_failures}


def _derived_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# --- build: certified counterexamples (acceptance criterion 6) --------------

# point counts 6..12, half of them at the centre 9 and the rest in pairs that
# sum to 18: a run that stops part-way through a cycle still sees a balanced
# mix, and the median instance falls among the many 9-point clouds instead of
# in the gap between two sizes
BUILD_POINTS = (6, 12, 9, 9, 7, 11, 9, 9, 8, 10, 9, 9)


def _gen_build(rng: np.random.Generator, i: int) -> dict:
    m = BUILD_POINTS[i % len(BUILD_POINTS)]
    return {"points": rng.standard_normal((m, 3)), "seed": _derived_seed(rng)}


def _run_build(inst: dict):
    body = sc.Polytope(inst["points"])
    ce = sc.build_counterexample(body, rng=inst["seed"], directions=600, sweep_count=1000)
    return ce, sc.construct.replay_counterexample(ce, sweep_count=1000)


def _check_build(inst: dict, out) -> str:
    ce, replay = out
    failed = sorted(key for key, passed in replay.items() if not passed)
    if failed:
        return f"{WRONG}: replay failed {failed}"
    if not ce.epsilon > 1.0 + sc.TOL_GEOM:
        return f"{WRONG}: epsilon {ce.epsilon!r} is not above 1 + tol_geom"
    return OK


def _warm_build(inst: dict) -> None:
    body = sc.Polytope(inst["points"])
    try:
        ce = sc.build_counterexample(body, rng=inst["seed"], directions=16, sweep_count=16)
        sc.construct.replay_counterexample(ce, sweep_count=16)
    except EXPECTED_ERRORS:
        pass


# --- decide: containment queries (acceptance criteria 2 and 3) --------------

SCALE_FACTORS = (1.5, 2.0, 2.5, 3.0)
SWEEP_COUNT = 64


def _gen_decide(rng: np.random.Generator, i: int) -> dict:
    # 5, 7 and 4 are coprime, so every 140 consecutive pairs hold each
    # (K points, L points, factor) combination once
    k = rng.standard_normal((6 + i % 5, 3))
    lv = rng.standard_normal((8 + i % 7, 3)) * SCALE_FACTORS[i % 4]
    return {"k": k, "l": lv, "seed": _derived_seed(rng)}


def _run_decide(inst: dict):
    k, l = sc.Polytope(inst["k"]), sc.Polytope(inst["l"])
    fits, _ = sc.translate_fits(k, l)
    witness = sc.subset_witness(k, l, 4)
    sweep = sc.shadow_sweep(k, l, 1, count=SWEEP_COUNT, rng=np.random.default_rng(inst["seed"]))
    return fits, witness, sweep


def _check_decide(inst: dict, out) -> str:
    fits, witness, sweep = out
    kv, lv = inst["k"], inst["l"]
    if fits != (witness is None):
        # Helly makes the 4-subset test complete in R^3, so only the
        # tolerance band may separate the two verdicts
        sigma = sc.scale_fit(sc.Polytope(kv), sc.Polytope(lv)).sigma
        if abs(sigma - 1.0) <= 10.0 * sc.TOL_GEOM:
            return BORDERLINE
        return f"{WRONG}: translate_fits={fits} but subset witness {witness} (sigma {sigma!r})"
    if len(sweep.bases) != SWEEP_COUNT or sweep.sigmas.shape != (SWEEP_COUNT,):
        return f"{WRONG}: sweep returned {len(sweep.bases)} samples, expected {SWEEP_COUNT}"
    # d = 1 shadows are intervals, so sigma is the ratio of the widths
    u = np.column_stack([b[:, 0] for b in sweep.bases])
    expect = np.ptp(lv @ u, axis=0) / np.ptp(kv @ u, axis=0)
    err = np.abs(sweep.sigmas - expect)
    if not np.all(err <= SIGMA_REL_TOL * expect):
        return f"{WRONG}: d=1 sigma off the width ratio by {float(np.max(err / expect)):.3g} (rel)"
    return OK


# --- kubota: mean width (acceptance criterion 9) ----------------------------

# 8..16, half at 12 and the rest in pairs that sum to 24; see BUILD_POINTS
KUBOTA_POINTS = (8, 16, 12, 12, 9, 15, 12, 12, 10, 14, 12, 12, 11, 13, 12, 12)
KUBOTA_SUBSPACES = 500
HULL_CHECKS = 3


def _gen_kubota(rng: np.random.Generator, i: int) -> dict:
    m = KUBOTA_POINTS[i % len(KUBOTA_POINTS)]
    return {"points": rng.standard_normal((m, 3)), "seed": _derived_seed(rng)}


def _run_kubota(inst: dict):
    body = sc.Polytope(inst["points"])
    return sc.kubota_check(body, KUBOTA_SUBSPACES, np.random.default_rng(inst["seed"]))


def hull_perimeter(points: np.ndarray) -> float:
    """Perimeter of the planar convex hull, by Andrew's monotone chain."""
    pts = sorted(map(tuple, points))

    def half(seq):
        chain: list[tuple[float, float]] = []
        for p in seq:
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = chain[-2], chain[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0.0:
                    break
                chain.pop()
            chain.append(p)
        return chain[:-1]

    hull = np.array(half(pts) + half(pts[::-1]))
    return float(np.linalg.norm(np.roll(hull, -1, axis=0) - hull, axis=1).sum())


def _check_kubota(inst: dict, rep) -> str:
    if not rep.rel_error <= KUBOTA_REL_ERROR:
        return f"{WRONG}: Kubota rel_error {rep.rel_error!r} above {KUBOTA_REL_ERROR}"
    rng = np.random.default_rng([inst["seed"], 1])
    for _ in range(HULL_CHECKS):
        frame, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        shadow = inst["points"] @ frame
        got = sc.mean_width_exact(sc.Polytope(shadow))
        expect = hull_perimeter(shadow) / math.pi
        if not abs(got - expect) <= HULL_REL_TOL * expect:
            return f"{WRONG}: planar mean width {got!r}, monotone chain gives {expect!r}"
    return OK


def _warm_kubota(inst: dict) -> None:
    sc.kubota_check(sc.Polytope(inst["points"]), 8, np.random.default_rng(inst["seed"]))


WORKLOADS = {
    w.name: w for w in (
        Workload("build", 1, 256, 2.3, 1, _gen_build, _run_build, _check_build, _warm_build),
        Workload("decide", 2, 4096, 0.085, 4, _gen_decide, _run_decide, _check_decide,
                 _run_decide),
        Workload("kubota", 3, 256, 1.6, 1, _gen_kubota, _run_kubota, _check_kubota, _warm_kubota),
    )
}
