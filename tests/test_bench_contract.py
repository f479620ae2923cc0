"""The bench calls the library by name, with fixed keyword arguments.

``bench/spans.py`` wraps every public function of the timed layers and
``layer_metrics`` reads some of them back by name, so renaming or deleting
one of those functions makes ``bench/run.py --trace`` fail with a KeyError.
An empty trace reaches every lookup without running a workload.  The
workloads pass keyword arguments and read result keys, such as the replay's
checks, so one instance of each runs through its own check here.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_layer_metrics_resolve_on_an_empty_trace():
    tracer = spans.Tracer()
    with tracer:
        pass
    metrics = tracer.layer_metrics(0)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    # the traced run adds its own overhead share; every other metric is here
    missing = [m["name"] for m in declared
               if m["name"] not in metrics and m["name"] != "trace.overhead_share"]
    assert not missing
    assert all(value == 0 for value, unit in metrics.values() if unit == "count")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_instance_of_each_workload_passes_its_check(name):
    wl = workloads.WORKLOADS[name]
    inst = wl.generate(np.random.default_rng([1, wl.index]), 0)
    out, error, _ = workloads.run_instance(wl, inst)
    assert error is None
    assert wl.check(inst, out) in (workloads.OK, workloads.BORDERLINE)


def test_a_traced_sweep_makes_one_fit_per_subspace():
    # bench/selftest.py runs these checks before every traced pass; here a
    # library change that would break that pass fails the test suite first
    import selftest

    selftest.check_sweep_spans(8)
    selftest.check_restored()


def test_sweeps_that_take_a_fallback_make_one_fit_per_subspace(monkeypatch):
    # the fallbacks run through private routes: a flat L shadow is fit in its own frame by
    # _flat_fit, and a planar walk that fails hands the fit to the facet walk _walk; a traced
    # sweep that takes either still records one shadow_fit and one scale_fit span per subspace
    from shadowcover import Polytope, containment, shadow_sweep

    count = 16
    taken = {"_flat_fit": 0, "_walk": 0}
    for name in taken:
        original = getattr(containment, name)
        monkeypatch.setattr(containment, name, lambda *args, _f=original, _n=name:
                            taken.__setitem__(_n, taken[_n] + 1) or _f(*args))

    def traced(k, l):
        with spans.Tracer() as tracer:
            report = shadow_sweep(k, l, 2, count=count)
        metrics = tracer.layer_metrics(0)
        assert metrics["shadows.shadow_fit.calls"][0] == count
        assert metrics["containment.scale_fit.calls"][0] == count
        return report.sigmas

    # every shadow of a segment is a segment: a parallel segment K fits at |L| / |K| = 2 in
    # L's frame, by a fit in R^1, and a round K at 0
    segment = Polytope([[0.0, 0.0, 0.0], [2.0, 1.0, 0.5], [1.0, 0.5, 0.25]])
    parallel = Polytope([[0.5, 0.0, 0.0], [1.5, 0.5, 0.25]])
    assert traced(parallel, segment) == pytest.approx(np.full(count, 2.0), rel=1e-12, abs=0.0)
    cloud = Polytope(np.random.default_rng(11).standard_normal((7, 3)))
    assert (traced(cloud, segment) == 0.0).all()
    assert taken == {"_flat_fit": 2 * count, "_walk": 0}
    # a planar walk that fails its witness check: every shadow takes the facet walk
    l = Polytope(np.random.default_rng(12).standard_normal((9, 3)) * 2.0)
    want = shadow_sweep(cloud, l, 2, count=count).sigmas
    monkeypatch.setattr(containment, "_planar_fit", lambda *args: None)
    assert traced(cloud, l) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert taken == {"_flat_fit": 2 * count, "_walk": count}
