"""Self-tests of the span recorder in ``spans.py``.

    python3 bench/selftest.py

Checks that a traced ``shadow_sweep(count=N)`` records exactly N
``shadow_fit`` and N ``scale_fit`` spans, for d = 1 and d = 2; that leaving
the tracer restores every patched attribute; and that two traced runs of a
few instances of each workload give identical per-layer counts.
"""

import bootstrap  # first: pins the BLAS threads before numpy loads

import sys  # noqa: E402

sc = bootstrap.load_library()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def check_sweep_spans(count: int) -> None:
    """A traced sweep of ``count`` subspaces makes that many fits, no more."""
    rng = np.random.default_rng(7)
    k = sc.Polytope(rng.standard_normal((7, 3)))
    l = sc.Polytope(rng.standard_normal((9, 3)) * 2.0)
    for d in (1, 2):
        with Tracer() as tracer:
            sc.shadow_sweep(k, l, d, count=count, rng=np.random.default_rng(d))
        got = tracer.layer_metrics(0)
        for key in ("shadows.shadow_fit.calls", "containment.scale_fit.calls"):
            if got[key][0] != count:
                raise AssertionError(f"d={d}: {key} = {got[key][0]}, expected {count}")


def _attributes() -> dict:
    mods = [m for name, m in sys.modules.items()
            if name == "shadowcover" or name.startswith("shadowcover.")]
    return {(mod.__name__, attr): value for mod in mods for attr, value in vars(mod).items()}


def check_restored() -> None:
    """Tracing wraps the aliases, and leaving it restores every attribute."""
    before = _attributes()
    with Tracer():
        if not hasattr(sc.shadows.scale_fit, "__wrapped__"):
            raise AssertionError("shadows.scale_fit was not wrapped")
    after = _attributes()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    if changed:
        raise AssertionError(f"attributes not restored: {changed}")


def check_repeatable_counts(seed: int = 5) -> None:
    """Two traced runs of the same instances give identical counts."""
    for wl in workloads.WORKLOADS.values():
        insts = wl.pool(seed)[:3 if wl.name == "decide" else 1]
        counts = []
        for _ in range(2):
            with Tracer() as tracer:
                for inst in insts:
                    workloads.run_instance(wl, inst)
            counts.append({key: value for key, (value, unit)
                           in tracer.layer_metrics(0).items() if unit == "count"})
        if counts[0] != counts[1]:
            diff = {key: (counts[0][key], counts[1][key]) for key in counts[0]
                    if counts[0][key] != counts[1][key]}
            raise AssertionError(f"{wl.name}: counts differ between traced runs: {diff}")


def main() -> int:
    for test, args in ((check_sweep_spans, (24,)), (check_restored, ()),
                       (check_repeatable_counts, ())):
        test(*args)
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
