"""Command-line surface: JSON reports for every query, seeded and replayable.

Every report embeds the command, the seed, and the tolerances in force, so
a third party can replay the verdict.  The tolerances are the library's
constants TOL_FEAS and TOL_GEOM; no flag overrides them.  Each command
declares only the flags it reads: --samples and --seed where it samples or
draws.  A command that draws nothing (fit, scale-fit, witness,
edge-criterion) reports "seed": null.  Reports are byte-identical across
runs with the same argv, except for the "timestamp" object, which carries
wall-clock time and elapsed seconds and is excluded from the determinism
contract.

Exit codes: 0 verdict computed (the verdict itself is in the JSON),
2 precondition or input error (a body file that cannot be read or parsed,
an -o file that cannot be written, which is written before the report
prints), 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone

import numpy as np

from .bodies import Polytope, body_to_dict, read_body, write_body
from .construct import (
    ConstructionError,
    build_counterexample,
    build_counterexample_d,
    canonical_tetra_quad,
    epsilon_gap,
    replay_counterexample,
    verify_touching,
)
from .containment import _unit_translation, scale_fit, subset_witness, translate_fits
from .core import TOL_FEAS, TOL_GEOM, direction_grid
from .harness import verify_suite
from .lp import LpError
from .shadows import oblique_equivalence_check, shadow_sweep, simplex_edge_criterion
from .widths import kubota_check, mean_width_exact, mean_width_mc

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _vec(v) -> list | None:
    if v is None:
        return None
    return [float(x) for x in np.asarray(v).reshape(-1)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowcover",
        description="Translative containment and shadow covering for convex polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, bodies=0, d=False, k=False, samples=False, seed=False):
        for i in range(bodies):
            p.add_argument(f"body{i + 1}", help="path to a body JSON file")
        if d:
            p.add_argument("--d", type=int, default=None, help="shadow dimension")
        if k:
            p.add_argument("--k", type=int, required=True, help="vertex-subset size")
        if samples:
            p.add_argument("--samples", type=int, default=1000)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("-o", "--output", default=None, help="also write the report here")

    add_common(sub.add_parser("fit", help="does L contain a translate of K"), bodies=2)
    add_common(sub.add_parser("scale-fit", help="maximal scale of K inside L"), bodies=2)
    add_common(sub.add_parser("witness", help="worst-fitting set of at most k points"),
               bodies=2, k=True)
    add_common(sub.add_parser("shadow-sweep", help="sampled shadow covering verdict"),
               bodies=2, d=True, samples=True, seed=True)
    add_common(sub.add_parser("edge-criterion",
                              help="finite edge-direction test against a simplex"),
               bodies=2)
    add_common(sub.add_parser("counterexample",
                              help="certified shadow-covering counterexample"),
               bodies=1, d=True, samples=True, seed=True)
    tq = sub.add_parser("tetra-quad", help="the canonical tetrahedron-quadrilateral pair")
    add_common(tq, samples=True, seed=True)
    tq.add_argument("--save", default=None,
                    help="prefix; writes PREFIX_delta.json and PREFIX_quad.json")
    mw = sub.add_parser("meanwidth", help="mean width (Monte Carlo, optionally exact)")
    add_common(mw, bodies=1, samples=True, seed=True)
    mw.add_argument("--exact", action="store_true")
    add_common(sub.add_parser("kubota", help="Grassmannian mean-width consistency"),
               bodies=1, samples=True, seed=True)
    ob = sub.add_parser("oblique", help="covering invariance under a random linear map")
    add_common(ob, bodies=2, seed=True)
    vs = sub.add_parser("verify-suite", help="randomized equivalence harness")
    add_common(vs, samples=True, seed=True)
    vs.add_argument("--n", type=int, default=3, dest="ambient")
    vs.add_argument("--trials", type=int, default=50)
    return parser


def _run_command(args) -> dict:
    # only the commands that take --seed draw random numbers
    rng = np.random.default_rng(args.seed) if hasattr(args, "seed") else None
    cmd = args.command

    if cmd == "fit":
        k, l = read_body(args.body1), read_body(args.body2)
        fit = scale_fit(k, l)
        fits = bool(fit.sigma >= 1.0 - TOL_GEOM)
        return {"fits": fits, "sigma": _num(fit.sigma), "status": fit.status,
                "translation": _vec(_unit_translation(k, l, fit) if fits else None)}

    if cmd == "scale-fit":
        k, l = read_body(args.body1), read_body(args.body2)
        fit = scale_fit(k, l)
        return {"sigma": _num(fit.sigma), "status": fit.status,
                "translation": _vec(fit.translation)}

    if cmd == "witness":
        k, l = read_body(args.body1), read_body(args.body2)
        w = subset_witness(k, l, args.k)
        detail = None
        if w is not None:
            detail = _num(scale_fit(Polytope(k.vertices[w]), l).sigma)
        return {"k": args.k, "witness": w, "witness_sigma": detail,
                "all_subsets_fit": w is None}

    if cmd == "shadow-sweep":
        k, l = read_body(args.body1), read_body(args.body2)
        d = args.d if args.d is not None else k.dim - 1
        rep = shadow_sweep(k, l, d, count=args.samples, rng=rng)
        return {"d": d, "samples": rep.samples, "verdict": rep.verdict,
                "min_sigma": _num(rep.min_sigma),
                "borderline_count": rep.borderline_count,
                "argmin_basis": [_vec(col) for col in rep.argmin.basis.T],
                "sigmas": [_num(s) for s in rep.sigmas]}

    if cmd == "edge-criterion":
        q, t = read_body(args.body1), read_body(args.body2)
        verdict = simplex_edge_criterion(q, t)
        direct, _ = translate_fits(q, t)
        return {"edge_criterion": bool(verdict), "translate_fits": bool(direct),
                "agrees": bool(verdict == direct)}

    if cmd == "counterexample":
        k = read_body(args.body1)
        if args.d is None:
            ce = build_counterexample(k, rng=args.seed, sweep_count=args.samples)
        else:
            ce = build_counterexample_d(k, args.d, rng=args.seed, sweep_count=args.samples)
        report = ce.to_dict()
        report["contains_translate"] = False
        report["replay"] = {key: bool(val) for key, val in replay_counterexample(
            ce, sweep_count=args.samples).items()}
        return report

    if cmd == "tetra-quad":
        delta, quad = canonical_tetra_quad()
        eps = epsilon_gap(quad, delta, direction_grid(3, args.samples), rng=rng)
        out = {"delta": body_to_dict(delta), "quad": body_to_dict(quad),
               "touching": bool(verify_touching(quad, delta)),
               "inscription_sigma": _num(scale_fit(quad, delta).sigma),
               "epsilon": _num(eps)}
        if args.save:
            write_body(delta, f"{args.save}_delta.json")
            write_body(quad, f"{args.save}_quad.json")
            out["saved"] = [f"{args.save}_delta.json", f"{args.save}_quad.json"]
        return out

    if cmd == "meanwidth":
        k = read_body(args.body1)
        est = mean_width_mc(k, args.samples, rng)
        out = {"mc": {"value": _num(est.value), "stderr": _num(est.stderr),
                      "samples": est.samples}}
        if args.exact:
            out["exact"] = _num(mean_width_exact(k))
        return out

    if cmd == "kubota":
        k = read_body(args.body1)
        rep = kubota_check(k, args.samples, rng)
        return {"width_exact": _num(rep.width_exact),
                "width_projected_mean": _num(rep.width_projected_mean),
                "stderr": _num(rep.stderr), "rel_error": _num(rep.rel_error),
                "samples": rep.samples}

    if cmd == "oblique":
        k, l = read_body(args.body1), read_body(args.body2)
        n = k.dim
        m = np.eye(n) + 0.5 * rng.standard_normal((n, n))
        while abs(np.linalg.det(m)) <= 1e-3:
            m = np.eye(n) + 0.5 * rng.standard_normal((n, n))
        u = rng.standard_normal(n)
        rep = oblique_equivalence_check(k, l, m, u)
        return {"matrix": [[float(x) for x in row] for row in m],
                "direction": _vec(u / np.linalg.norm(u)),
                "mapped_direction": _vec(rep.mapped_direction),
                "sigma_orig": _num(rep.sigma_orig),
                "sigma_mapped": _num(rep.sigma_mapped),
                "verdict_orig": rep.verdict_orig, "verdict_mapped": rep.verdict_mapped,
                "agrees": rep.agrees, "borderline": rep.borderline}

    if cmd == "verify-suite":
        return verify_suite(args.ambient, args.trials, args.seed, samples=args.samples)

    raise ValueError(f"unknown command {cmd!r}")


def _num(x) -> float | str:
    x = float(x)
    if np.isnan(x):
        raise FloatingPointError("a reported value is NaN")
    return x if np.isfinite(x) else ("inf" if x > 0 else "-inf")


def run(argv=None) -> int:
    """Entry point returning the exit code; the JSON report goes to stdout."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0

    seed = getattr(args, "seed", None)

    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    try:
        result = _run_command(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (LpError, ConstructionError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    report = {
        "command": args.command,
        "seed": seed,
        "tolerances": {"tol_feas": TOL_FEAS, "tol_geom": TOL_GEOM},
        "result": result,
        "timestamp": {"utc": started,
                      "elapsed_seconds": time.perf_counter() - t0},
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    print(text)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
