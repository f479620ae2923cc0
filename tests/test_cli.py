import json
import math
import subprocess
import sys

import pytest

from shadowcover import cli, containment
from shadowcover.bodies import read_body
from shadowcover.cli import run


def _invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def bodies(tmp_path):
    square = tmp_path / "square.json"
    square.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [2, 0], [0, 2], [2, 2]]}))
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [3, 0], [0, 3]]}))
    return {"square": str(square), "big": str(big), "tri": str(tri)}


def test_fit_command(bodies, capsys):
    code, rep = _invoke(capsys, "fit", bodies["square"], bodies["big"])
    assert code == 0
    assert rep["result"]["fits"] is True
    assert rep["result"]["sigma"] == pytest.approx(2.0, abs=1e-7)
    # the reported translation places the unit square inside [0, 2]^2
    tx, ty = rep["result"]["translation"]
    assert all(-1e-9 <= c <= 2.0 + 1e-9
               for x, y in [[0, 0], [1, 0], [0, 1], [1, 1]] for c in (x + tx, y + ty))
    assert rep["command"] == "fit"
    assert rep["tolerances"]["tol_feas"] == 1e-9
    assert "timestamp" in rep


def test_fit_failure_direction(bodies, capsys):
    code, rep = _invoke(capsys, "fit", bodies["big"], bodies["square"])
    assert code == 0
    assert rep["result"]["fits"] is False


@pytest.mark.parametrize("pair", [("square", "big"), ("big", "square"), ("tri", "big")])
def test_fit_command_solves_one_scale_fit(bodies, capsys, monkeypatch, pair):
    # the verdict and the witness come from the one fit the report prints
    calls = []
    original = containment.scale_fit

    def spy(k, l):
        calls.append(1)
        return original(k, l)

    monkeypatch.setattr(cli, "scale_fit", spy)
    monkeypatch.setattr(containment, "scale_fit", spy)
    code, rep = _invoke(capsys, "fit", bodies[pair[0]], bodies[pair[1]])
    assert code == 0 and len(calls) == 1
    monkeypatch.undo()
    k, l = read_body(bodies[pair[0]]), read_body(bodies[pair[1]])
    fits, v = containment.translate_fits(k, l)
    assert rep["result"]["fits"] is fits
    assert rep["result"]["translation"] == (None if v is None else [float(x) for x in v])


def test_scale_fit_command(bodies, capsys):
    code, rep = _invoke(capsys, "scale-fit", bodies["tri"], bodies["square"])
    assert code == 0
    assert rep["result"]["sigma"] == pytest.approx(1.0 / 3.0, abs=1e-7)


def test_witness_command(bodies, capsys):
    code, rep = _invoke(capsys, "witness", bodies["big"], bodies["square"], "--k", "3")
    assert code == 0
    assert rep["result"]["witness"] is not None
    assert rep["result"]["witness_sigma"] < 1.0
    code, rep = _invoke(capsys, "witness", bodies["square"], bodies["big"], "--k", "3")
    assert rep["result"]["all_subsets_fit"] is True


def test_shadow_sweep_command(bodies, capsys):
    code, rep = _invoke(capsys, "shadow-sweep", bodies["square"], bodies["big"],
                        "--d", "1", "--samples", "64")
    assert code == 0
    assert rep["result"]["verdict"] == "covers"
    assert len(rep["result"]["sigmas"]) == 64


def test_edge_criterion_command(bodies, tmp_path, capsys):
    seg = tmp_path / "seg.json"
    seg.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1.0, 0]]}))
    code, rep = _invoke(capsys, "edge-criterion", str(seg), bodies["tri"])
    assert code == 0
    assert rep["result"]["agrees"] is True


def test_tetra_quad_then_counterexample(tmp_path, capsys):
    prefix = str(tmp_path / "tq")
    code, rep = _invoke(capsys, "tetra-quad", "--save", prefix, "--samples", "1000")
    assert code == 0
    assert rep["result"]["touching"] is True
    assert rep["result"]["epsilon"] > 1.001
    code, rep = _invoke(capsys, "counterexample", prefix + "_quad.json",
                        "--d", "2", "--samples", "300", "--seed", "5")
    assert code == 0
    assert rep["result"]["epsilon"] > 1.0
    assert rep["result"]["contains_translate"] is False
    assert all(rep["result"]["replay"].values())


def test_counterexample_full_dim(tmp_path, capsys):
    tetra = tmp_path / "tetra.json"
    tetra.write_text(json.dumps({"dim": 3, "vertices":
                                 [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]}))
    code, rep = _invoke(capsys, "counterexample", str(tetra), "--samples", "300")
    assert code == 0
    assert rep["result"]["epsilon"] > 1.0
    assert rep["result"]["checks"]["translate_excluded"]


def test_counterexample_replays_at_its_samples(tmp_path, capsys, monkeypatch):
    # replay re-checks the sampled sweep on the grid construction swept
    tetra = tmp_path / "tetra.json"
    tetra.write_text(json.dumps({"dim": 3, "vertices":
                                 [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]}))
    counts, original = [], cli.replay_counterexample
    monkeypatch.setattr(cli, "replay_counterexample",
                        lambda ce, sweep_count: counts.append(sweep_count)
                        or original(ce, sweep_count=sweep_count))
    code, rep = _invoke(capsys, "counterexample", str(tetra), "--samples", "600")
    assert code == 0
    assert counts == [600]
    assert all(rep["result"]["replay"].values())


def test_meanwidth_command(tmp_path, capsys):
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({"dim": 3, "vertices":
                                [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}))
    code, rep = _invoke(capsys, "meanwidth", str(cube), "--exact", "--samples", "2000")
    assert code == 0
    assert rep["result"]["exact"] == pytest.approx(1.5, abs=1e-12)
    est = rep["result"]["mc"]
    assert abs(est["value"] - 1.5) <= 4 * est["stderr"]


def test_kubota_command(tmp_path, capsys):
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({"dim": 3, "vertices":
                                [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}))
    code, rep = _invoke(capsys, "kubota", str(cube), "--samples", "300")
    assert code == 0
    assert rep["result"]["rel_error"] <= 0.03


@pytest.mark.parametrize("argv", [("kubota", "--samples", "0"), ("kubota", "--samples", "1"),
                                  ("shadow-sweep", "--d", "1", "--samples", "0"),
                                  ("meanwidth", "--samples", "5")])
def test_too_few_samples_exit_code(tmp_path, capsys, argv):
    # these raised ZeroDivisionError, reported a "-inf" stderr, raised
    # AttributeError on an empty sweep, and ran 1000 samples in place of 5
    cube = tmp_path / "cube.json"
    cube.write_text(json.dumps({"dim": 3, "vertices":
                                [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]}))
    cmd, *flags = argv
    assert run([cmd] + [str(cube)] * (2 if cmd == "shadow-sweep" else 1) + flags) == 2
    assert capsys.readouterr().out == ""


def test_nan_result_exit_code(bodies, capsys, monkeypatch):
    monkeypatch.setattr(cli, "scale_fit", lambda k, l: containment.FitResult(math.nan, None))
    assert run(["scale-fit", bodies["square"], bodies["big"]]) == 3
    assert capsys.readouterr().out == ""


def test_oblique_command(tmp_path, capsys):
    k = tmp_path / "k.json"
    k.write_text(json.dumps({"dim": 3, "vertices":
                             [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}))
    l = tmp_path / "l.json"
    l.write_text(json.dumps({"dim": 3, "vertices":
                             [[-1, -1, -1], [2, 0, 0], [0, 2, 0], [0, 0, 2], [2, 2, 2]]}))
    code, rep = _invoke(capsys, "oblique", str(k), str(l), "--seed", "11")
    assert code == 0
    assert rep["result"]["agrees"] is True


def test_verify_suite_command(capsys):
    code, rep = _invoke(capsys, "verify-suite", "--n", "2", "--trials", "8",
                        "--samples", "50", "--seed", "7")
    assert code == 0
    assert rep["result"]["disagreements"] == 0
    assert "borderline" in rep["result"]


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 2, "vertices": [[0,0],')
    code = run(["fit", str(bad), str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


def test_ragged_body_exit_code(tmp_path, capsys):
    bad = tmp_path / "ragged.json"
    bad.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1]]}))
    code = run(["fit", str(bad), str(bad)])
    assert code == 2


@pytest.mark.parametrize("where", ["directory", "under a file"])
def test_unreadable_body_exit_code(bodies, tmp_path, capsys, where):
    path = tmp_path if where == "directory" else tmp_path / "square.json" / "body.json"
    (tmp_path / "square.json").write_text(json.dumps({"dim": 2, "vertices": [[0, 0]]}))
    code = run(["fit", str(path), bodies["big"]])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_output_into_a_missing_directory_exit_code(bodies, tmp_path, capsys):
    code = run(["fit", bodies["square"], bodies["big"], "-o", str(tmp_path / "no" / "r.json")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_boolean_dim_exit_code(tmp_path, capsys):
    bad = tmp_path / "bool.json"
    bad.write_text(json.dumps({"dim": True, "vertices": [[0], [1]]}))
    code = run(["fit", str(bad), str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: 'dim' must be a positive integer, got True\n"


def test_unknown_flag_exit_code():
    proc = subprocess.run([sys.executable, "-m", "shadowcover.cli", "fit", "a", "b",
                           "--nope"], capture_output=True)
    assert proc.returncode == 2


def test_workers_flag_removed(bodies):
    assert run(["fit", bodies["square"], bodies["big"], "--workers", "2"]) == 2


# (command, flag) pairs where the command does not read the flag, so does not declare it
UNREAD_FLAGS = ([(cmd, "--samples", "64") for cmd in
                 ["fit", "scale-fit", "witness", "edge-criterion", "oblique"]]
                + [(cmd, "--seed", "3") for cmd in
                   ["fit", "scale-fit", "witness", "edge-criterion"]])


@pytest.mark.parametrize("cmd,flag,value", UNREAD_FLAGS)
def test_unread_flags_removed(bodies, capsys, cmd, flag, value):
    argv = [cmd, bodies["square"]]
    if cmd not in ("meanwidth", "kubota"):
        argv.append(bodies["big"])
    if cmd == "witness":
        argv += ["--k", "3"]
    assert run(argv + [flag, value]) == 2
    assert capsys.readouterr().out == ""


SUBCOMMANDS = next(a for a in cli._build_parser()._actions if a.dest == "command").choices


@pytest.mark.parametrize("cmd", sorted(SUBCOMMANDS))
def test_tol_geom_flag_removed(bodies, capsys, cmd):
    # the verdict tolerance is the constant TOL_GEOM on every command
    positionals = [a for a in SUBCOMMANDS[cmd]._actions if not a.option_strings]
    argv = [cmd] + [bodies["square"]] * len(positionals)
    if cmd == "witness":
        argv += ["--k", "3"]
    assert run(argv + ["--tol-geom", "1e-3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --tol-geom 1e-3" in err


def test_unseeded_commands_report_null_seed(bodies, capsys):
    code, rep = _invoke(capsys, "scale-fit", bodies["square"], bodies["big"])
    assert code == 0 and rep["seed"] is None
    assert rep["tolerances"]["tol_geom"] == 1e-6
    code, rep = _invoke(capsys, "meanwidth", bodies["square"], "--exact")
    assert code == 0 and rep["seed"] == 0


def test_output_file_written(bodies, tmp_path, capsys):
    out = tmp_path / "report.json"
    code, rep = _invoke(capsys, "fit", bodies["square"], bodies["big"], "-o", str(out))
    assert code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk["result"] == rep["result"]


def test_determinism_modulo_timestamp(capsys):
    argv = ["verify-suite", "--n", "2", "--trials", "6", "--samples", "40", "--seed", "7"]
    code1, rep1 = _invoke(capsys, *argv)
    code2, rep2 = _invoke(capsys, *argv)
    assert code1 == code2 == 0
    rep1.pop("timestamp")
    rep2.pop("timestamp")
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)
