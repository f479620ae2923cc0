"""The traced bench looks library functions up by name.

``bench/spans.py`` wraps every public function of the timed layers and
``layer_metrics`` reads some of them back by name, so renaming or deleting
one of those functions makes ``bench/run.py --trace`` fail with a KeyError.
An empty trace reaches every lookup without running a workload.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402


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
