"""In-memory span recorder around shadowcover's public functions.

Modules bind functions with ``from .x import y``, so one function sits under
several module attributes (``shadows.scale_fit`` is ``containment.scale_fit``).
Entering a ``Tracer`` therefore replaces every attribute, in every
``shadowcover.*`` module, that *is* one of the wrapped originals, so a call
through any alias is caught.  ``lp._run_simplex`` and ``lp._pivot`` are
looked up through the ``lp`` module at call time, so they are patched there,
as counters only: ``_pivot`` runs too often to time.

Spans live in flat arrays until the run ends; ``save`` writes them out and
``layer_metrics`` reduces them to per-layer calls, self times and ratios.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import time
from array import array

import numpy as np

# the package's modules that do timed work; core, harness and cli do not
LAYERS = ("lp", "containment", "bodies", "shadows", "construct", "widths")
COUNTERS = ("_run_simplex", "_pivot")


class Tracer:
    """Wraps the public functions of LAYERS inside each ``with`` block.

    Spans and counts accumulate over every block of one tracer.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")       # index into self.names
        self.parent = array("i")     # index of the enclosing span, -1 at the top
        self.instance = array("i")   # workload instance the span belongs to
        self.start = array("d")
        self.end = array("d")
        self.counts = {key: 0 for key in COUNTERS}
        self.current_instance = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] | None = None

    def __enter__(self) -> "Tracer":
        if self._patches is None:
            self._patches = self._build_patches()
        for mod, attr, _, replacement in self._patches:
            setattr(mod, attr, replacement)
        return self

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        import shadowcover
        modules = [shadowcover] + [importlib.import_module(f"shadowcover.{m.name}")
                                   for m in pkgutil.iter_modules(shadowcover.__path__)]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"shadowcover.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = (fn, self._span(fn, f"{layer}.{attr}"))
        patches = []
        for mod in modules:
            for attr, value in vars(mod).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((mod, attr, value, hit[1]))
        lp = sys.modules["shadowcover.lp"]
        for attr in COUNTERS:
            fn = getattr(lp, attr)
            patches.append((lp, attr, fn, self._counter(fn, attr)))
        return patches

    def __exit__(self, *exc) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def _span(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        names, parents, instances = self.name, self.parent, self.instance
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            instances.append(tracer.current_instance)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _counter(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _arrays(self) -> dict[str, np.ndarray]:
        if len(self._stack) != 1:
            raise RuntimeError("a traced call is still open")
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "instance": np.frombuffer(self.instance, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path) -> None:
        arrays = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), **arrays,
                            **{f"count{key}": np.int64(v) for key, v in self.counts.items()})

    def layer_metrics(self, emitted: int) -> dict[str, tuple[float, str]]:
        """Per-layer calls, self times and ratios, keyed by metric name.

        ``emitted`` is the number of counterexamples the traced calls built.
        """
        a = self._arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        child = np.zeros(name.size)
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        nn = len(self.names)
        calls = np.bincount(name, minlength=nn)
        self_s = np.bincount(name, weights=own, minlength=nn)
        incl_s = np.bincount(name, weights=dur, minlength=nn)
        nid = {n: i for i, n in enumerate(self.names)}

        def n_calls(fn):
            return int(calls[nid[fn]])

        def per_call_us(fn):
            c = n_calls(fn)
            return 1e6 * float(incl_s[nid[fn]]) / c if c else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            mask = np.array([n.startswith(layer + ".") for n in self.names])
            out[f"{layer}.self_s"] = (float(self_s[mask].sum()), "s")
        runs = self.counts["_run_simplex"]
        pivots = self.counts["_pivot"]
        out["lp.solve.calls"] = (n_calls("lp.solve"), "count")
        out["lp.solve.self_s"] = (float(self_s[nid["lp.solve"]]), "s")
        out["lp.simplex_runs"] = (runs, "count")
        out["lp.pivots"] = (pivots, "count")
        out["lp.pivots_per_run"] = (pivots / runs if runs else 0.0, "pivots/run")

        fits = name == nid["containment.scale_fit"]
        reached_solve = np.zeros(name.size, dtype=bool)
        reached_solve[parent[(name == nid["lp.solve"]) & nested]] = True
        n_fit = int(fits.sum())
        out["containment.scale_fit.calls"] = (n_fit, "count")
        out["containment.scale_fit.self_s"] = (float(self_s[nid["containment.scale_fit"]]), "s")
        out["containment.scale_fit.per_call_us"] = (per_call_us("containment.scale_fit"), "us")
        out["containment.scale_fit.general_share"] = (
            float(reached_solve[fits].sum()) / n_fit if n_fit else 0.0, "share")

        for fn, kinds in (
            ("containment.translate_fits", ("calls", "self_s")),
            ("containment.subset_witness", ("calls", "self_s")),
            ("bodies.canonicalize", ("calls", "self_s")),
            ("bodies.point_in_hull", ("calls", "per_call_us")),
            ("bodies.edges", ("self_s",)),
            ("bodies.project", ("calls", "self_s")),
            ("shadows.shadow_fit", ("calls", "self_s", "per_call_us")),
            ("shadows.shadow_sweep", ("self_s",)),
            ("shadows.refine_min_margin", ("calls", "self_s")),
            ("construct.build_counterexample", ("self_s",)),
            ("construct.replay_counterexample", ("self_s",)),
            ("construct.direction_sigmas", ("self_s",)),
            ("construct.farkas_excludes_translate", ("self_s",)),
            ("construct.circumscribe_simplex", ("calls",)),
            ("widths.kubota_check", ("self_s",)),
            ("widths.mean_width_exact", ("calls", "per_call_us")),
        ):
            for kind in kinds:
                if kind == "calls":
                    out[f"{fn}.calls"] = (n_calls(fn), "count")
                elif kind == "self_s":
                    out[f"{fn}.self_s"] = (float(self_s[nid[fn]]), "s")
                else:
                    out[f"{fn}.per_call_us"] = (per_call_us(fn), "us")

        # useful outcomes per attempt: each circumscribed simplex is one
        # candidate; reselection after a failed hypothesis wastes it
        attempts = n_calls("construct.circumscribe_simplex")
        out["construct.emitted_per_attempt"] = (emitted / attempts if attempts else 0.0, "share")
        return out
