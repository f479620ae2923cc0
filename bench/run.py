"""Benchmark of the shadowcover library, one workload per invocation.

    python3 bench/run.py --workload {build,decide,kubota} --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/`` there.
Each workload is a closed loop with one caller: the next instance starts when
the previous one returns.  Inputs come from ``--seed`` alone.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics,
with instance times scaled to a steady host speed by a reference kernel run
between instances (``reference.py``).
``--trace 1`` runs a fixed number of instances (sized from ``--seconds``),
each once plain and once with every public library function wrapped, prints
the per-layer metrics, and writes the spans to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine, the input fingerprint and the figures that are not
metrics (failed share, tail percentile).  See ``bench/README.md``.
"""

import bootstrap  # first: pins the BLAS threads before numpy loads

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

bootstrap.load_library()

import numpy as np  # noqa: E402

import reference  # noqa: E402
import selftest  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

OUT_DIR = bootstrap.BENCH_DIR / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10            # instances that must lie beyond the tail percentile
TRACE_SWEEP_COUNT = 32      # size of the span self-test run before a traced pass


def set_up(name: str, seed: int):
    """Input generation and warm-up; ``setup_s`` also counts the imports."""
    wl = workloads.WORKLOADS[name]
    pool = wl.pool(seed)
    digest = workloads.fingerprint(pool)
    wl.warm_up(pool[0])
    return wl, pool, digest


def probe_setup(name: str, seed: int) -> float:
    """Wall time of a fresh interpreter that sets up the workload and exits."""
    cmd = [sys.executable, str(bootstrap.BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=bootstrap.ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = bootstrap.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "commit": git_commit(), "seed": seed}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    instances beyond it; the maximum, at percentile 100, below that count."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timed_run(wl, pool, seconds: float, setup_times: list[float]):
    """Closed loop in windows of ``wl.window`` instances.  A pass of the
    reference kernel runs between windows, and each window's times are
    scaled by the kernel's times on either side (see ``reference.py``)."""
    tally = workloads.Tally()
    times: list[float] = []         # scaled seconds per instance
    raw_times: list[float] = []
    ok_count = 0
    deadline = time.perf_counter() + seconds
    ref_before = reference.seconds()
    i = 0
    while time.perf_counter() < deadline:
        dts = []
        for _ in range(wl.window):
            inst = pool[i % len(pool)]
            out, error, dt = workloads.run_instance(wl, inst)
            dts.append(dt)
            ok_count += tally.add(wl, inst, out, error)
            i += 1
        ref_after = reference.seconds()
        scale = reference.scale(ref_before, ref_after)
        ref_before = ref_after
        times += [dt * scale for dt in dts]
        raw_times += dts
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # library time only: neither the checks nor the kernel dilute it
        "throughput_per_s": (ok_count / sum(times), "1/s"),
        "instance_p50_s": (statistics.median(times), "s"),
        "instance_tail_s": (tail_value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"setup_probes_s": setup_times, "instance_tail_percentile": tail_pct,
            "unscaled": {
                "throughput_per_s": ok_count / sum(raw_times),
                "instance_p50_s": statistics.median(raw_times),
                "instance_time_sum_s": sum(raw_times)}}
    return metrics, tally, info


def trace_instances(wl, seconds: float) -> int:
    """Fixed instance count of a traced run, so its counts repeat exactly:
    the plain and the traced passes together take about ``seconds`` at the
    baseline."""
    return max(2, int(seconds / (2.5 * wl.nominal_s)))


def traced_run(wl, pool, seconds: float, seed: int):
    selftest.check_sweep_spans(TRACE_SWEEP_COUNT)
    insts = [pool[i % len(pool)] for i in range(trace_instances(wl, seconds))]
    tracer = Tracer()
    plain_s = 0.0
    results = []
    # each instance runs plain and traced back to back, in alternating
    # order, so drift in machine speed cancels out of the overhead
    for i, inst in enumerate(insts):
        if i % 2:
            plain_s += workloads.run_instance(wl, inst)[2]
        tracer.current_instance = i
        with tracer:
            results.append(workloads.run_instance(wl, inst))
        if not i % 2:
            plain_s += workloads.run_instance(wl, inst)[2]
    traced_s = sum(dt for _, _, dt in results)
    tally = workloads.Tally()
    for inst, (out, error, _) in zip(insts, results):
        tally.add(wl, inst, out, error)
    emitted = sum(error is None for _, error, _ in results) if wl.name == "build" else 0
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{wl.name}-seed{seed}.npz"
    tracer.save(span_file)
    metrics = tracer.layer_metrics(emitted)
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "share")
    info = {"instances": len(insts), "plain_s": plain_s, "traced_s": traced_s,
            "span_file": str(span_file.relative_to(bootstrap.ROOT))}
    return metrics, tally, info


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up the workload and exit (timed by the parent run)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        set_up(args.workload, args.seed)
        return 0
    setup_times = [] if args.trace else [probe_setup(args.workload, args.seed)
                                         for _ in range(SETUP_PROBES)]
    wl, pool, digest = set_up(args.workload, args.seed)
    if args.trace:
        metrics, tally, info = traced_run(wl, pool, args.seconds, args.seed)
    else:
        metrics, tally, info = timed_run(wl, pool, args.seconds, setup_times)
    record = {"bench": "shadowcover", "workload": wl.name, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(args.seed),
              "inputs_sha256": digest, **tally.summary(), **info}
    print(json.dumps(record))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
