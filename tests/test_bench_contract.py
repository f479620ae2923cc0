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
