"""CLI surface: every documented subcommand runs and writes its outputs."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lmcflab import cli
from lmcflab import fixtures as fx
from lmcflab import flow


def run_cli(args):
    return cli.main(args)


def test_density_command(tmp_path):
    out = str(tmp_path)
    assert run_cli(["density", "--out", out]) == 0
    payload = json.loads((tmp_path / "density.json").read_text())
    assert abs(payload["value"] - 1.0) < 1e-6


def test_simulate_writes_trajectory(tmp_path):
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": "circle",
                               "fixture_params": {"radius": 1.0, "n": 64},
                               "dt": 1e-3, "steps": 20, "record_every": 5}))
    assert run_cli(["simulate", "--config", str(cfg), "--out", out]) == 0
    traj = flow.load_trajectory(tmp_path / "trajectory.txt")
    assert len(traj) >= 4
    assert (tmp_path / "diagnostics.csv").read_text().startswith("t,quantity,value")


def test_entropy_command(tmp_path):
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": "circle",
                               "fixture_params": {"radius": 1.0, "n": 128}}))
    assert run_cli(["entropy", "--config", str(cfg), "--out", out]) == 0
    payload = json.loads((tmp_path / "entropy.json").read_text())
    assert abs(payload["value"] - np.sqrt(2 * np.pi / np.e)) < 5e-3


def test_monotonicity_command(tmp_path):
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": "circle",
                               "fixture_params": {"radius": 1.0, "n": 128},
                               "dt": 1e-3, "steps": 50, "record_every": 10,
                               "x0": [0.2, 0.0], "t0": 0.7}))
    assert run_cli(["monotonicity", "--config", str(cfg), "--out", out]) == 0
    payload = json.loads((tmp_path / "monotonicity.json").read_text())
    assert payload["verdict"]
    assert (tmp_path / "monotonicity.csv").read_text().startswith(
        "t,value,dissipation,bound,pass")


def test_spectrum_command(tmp_path):
    out = str(tmp_path)
    assert run_cli(["spectrum", "--out", out]) == 0
    rows = (tmp_path / "spectrum.csv").read_text().strip().splitlines()
    assert rows[0] == "multi_index,degree,eigenvalue"
    payload = json.loads((tmp_path / "spectrum.json").read_text())
    assert "z*theta" in payload["pair_basis"]


def test_three_annulus_command(tmp_path):
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"degree": 2, "s": 1.5}))
    assert run_cli(["three-annulus", "--config", str(cfg), "--out", out]) == 0
    payload = json.loads((tmp_path / "three_annulus.json").read_text())
    assert payload["classification"] == "growing"
    assert abs(payload["degree_estimate"] - 2.0) < 1e-8


def test_heat_command(tmp_path):
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 64, "dt": 2e-3, "t1": 0.05}))
    assert run_cli(["heat", "--config", str(cfg), "--out", out]) == 0
    assert (tmp_path / "heat_residuals.csv").exists()


def test_translator_check_command(tmp_path):
    out = str(tmp_path)
    assert run_cli(["translator-check", "--out", out]) == 0
    fits = json.loads((tmp_path / "translator.json").read_text())
    assert abs(fits[0]["b"] + 1.0) < 1e-3


def test_run_and_compare_commands(tmp_path):
    a, b, c = (tmp_path / k for k in "abc")
    assert run_cli(["run", "--scenario", "three-annulus", "--out", str(a)]) == 0
    assert run_cli(["run", "--scenario", "three-annulus", "--out", str(b)]) == 0
    assert run_cli(["compare", str(a), str(b), "--out", str(c)]) == 0
    diff = json.loads((c / "compare.json").read_text())
    assert diff["identical"]


def test_linking_command(tmp_path):
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 400, "n_poles": 2}))
    assert run_cli(["linking", "--config", str(cfg), "--out", out]) == 0
    payload = json.loads((tmp_path / "linking.json").read_text())
    assert payload["value"] == 1
    assert (tmp_path / "slice1.csv").exists()


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "lmcflab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("simulate", "density", "entropy", "monotonicity", "spectrum",
                 "three-annulus", "heat", "translator-check", "linking",
                 "run", "compare"):
        assert name in proc.stdout


@pytest.mark.parametrize("name, params, want", [
    ("circle", {"n": 32}, lambda: fx.make_circle(n=32)),
    ("line", {"n": 33, "angle": 0.3}, lambda: fx.make_line(angle=0.3, n=33)),
    ("line-pair", {"n": 33}, lambda: fx.make_line_pair(0.5, -0.5, n=33)),
    ("line-pair", {"angle1": 0.2, "n": 33},
     lambda: fx.make_line_pair(0.2, -0.5, n=33)),
    ("grim-reaper", {"n": 64}, lambda: fx.make_grim_reaper(n=64)[0]),
])
def test_curve_fixtures_come_from_the_registry(name, params, want):
    got = flow.as_components(cli._make_fixture_state(
        {"fixture": name, "fixture_params": params}))
    ref = flow.as_components(want())
    assert [(c.closed, c.component_id) for c in got] == \
        [(c.closed, c.component_id) for c in ref]
    assert all(np.array_equal(a.vertices, b.vertices) for a, b in zip(got, ref))


def test_default_fixture_is_the_circle():
    got = cli._make_fixture_state({"fixture_params": {"n": 40}})
    assert np.array_equal(got.vertices, fx.make_circle(n=40).vertices)


@pytest.mark.parametrize("name", ["hopf-fibers", "circle-product", "no-such"])
def test_non_curve_fixtures_are_refused(name, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": name}))
    with pytest.raises(SystemExit, match="unsupported curve fixture"):
        run_cli(["density", "--config", str(cfg), "--out", str(tmp_path)])


def test_density_of_the_line_pair(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": "line-pair",
                               "fixture_params": {"extent": 30.0, "n": 601}}))
    assert run_cli(["density", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "density.json").read_text())
    assert abs(payload["value"] - 2.0) < 1e-6


@pytest.mark.parametrize("argv", [
    ["density", "--refine", "2"],
    ["density", "--seed", "1"],
    ["heat", "--seed", "1"],
    ["linking", "--refine", "2"],
])
def test_options_exist_only_where_they_are_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_seed_and_refine_reach_the_scenario(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["run", "--scenario", "three-annulus", "--seed", "3",
                    "--refine", "2", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["seed"], summary["params"]) == (3, {"refine": 2})
