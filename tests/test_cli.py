"""CLI surface: every documented subcommand runs and writes its outputs."""

import argparse
import functools
import inspect
import json
import subprocess
import sys

import numpy as np
import pytest

from lmcflab import cli
from lmcflab import fixtures as fx
from lmcflab import flow
from lmcflab import scenarios as sc
from lmcflab.errors import ConfigInvalid, EmptySlice


def run_cli(args):
    return cli.main(args)


def _lab_commands():
    """The parser's subcommands that take their keys as keyword arguments,
    with the function each runs: all but run and compare."""
    sub, = (a for a in cli.build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    return {name: q.get_default("fn") for name, q in sub.choices.items()
            if name not in ("run", "compare")}


LAB_COMMANDS = _lab_commands()


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
    got = flow.as_components(cli._make_fixture_state(name, params))
    ref = flow.as_components(want())
    assert [(c.closed, c.component_id) for c in got] == \
        [(c.closed, c.component_id) for c in ref]
    assert all(np.array_equal(a.vertices, b.vertices) for a, b in zip(got, ref))


class _Built(Exception):
    pass


def _stop_at_the_fixtures(monkeypatch):
    """Make each curve fixture of the CLI table raise _Built(name, params)
    in place of building; each stub keeps its generator's signature, which
    the checker reads."""
    def stub(name, gen):
        @functools.wraps(gen)
        def stop(**params):
            raise _Built(name, params)
        return stop
    for name, gen in cli.CURVE_FIXTURES.items():
        monkeypatch.setitem(cli.CURVE_FIXTURES, name, stub(name, gen))


def test_each_command_reads_its_own_default_fixture(tmp_path, monkeypatch):
    # the same fixture with no --config and with an empty one
    _stop_at_the_fixtures(monkeypatch)
    empty = tmp_path / "cfg.json"
    empty.write_text("{}")
    for command, want in [("simulate", ("circle", {"radius": 1.0, "n": 128})),
                          ("density", ("line", {"extent": 30.0, "n": 601})),
                          ("entropy", ("circle", {"radius": 1.0, "n": 256})),
                          ("monotonicity", ("circle", {"radius": 1.0, "n": 256}))]:
        for config in ([], ["--config", str(empty)]):
            with pytest.raises(_Built) as built:
                run_cli([command, *config, "--out", str(tmp_path / "out")])
            assert built.value.args == want, (command, config)


def test_a_named_fixture_gets_its_generators_defaults(tmp_path, monkeypatch):
    _stop_at_the_fixtures(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": "circle"}))
    with pytest.raises(_Built) as built:
        run_cli(["density", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert built.value.args == ("circle", {})


@pytest.mark.parametrize("command", sorted(LAB_COMMANDS))
def test_an_empty_config_writes_the_same_files_as_none(command, tmp_path):
    empty = tmp_path / "cfg.json"
    empty.write_text("{}")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli([command, "--out", str(a)]) == 0
    assert run_cli([command, "--config", str(empty), "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names and names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("config", [{"t0": 1.0}, {"t0": 1, "x0": [0, 0]}])
def test_density_records_the_window_it_used(config, tmp_path):
    # a float key also takes an int
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(["density", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "density.json").read_text())
    assert abs(payload["value"] - 1.0) < 1e-6   # the line, not the circle
    assert (payload["x0"], payload["t0"], payload["t"]) == ([0.0, 0.0], 1.0, 0.0)


@pytest.mark.parametrize("command, config, key", [
    ("density", {"fixture_params": [1]}, "fixture_params"),
    ("density", {"x0": "ab"}, "x0"),
    ("density", {"bogus": 1}, "bogus"),
    ("simulate", {"steps": 2.5}, "steps"),
    ("simulate", {"steps": True}, "steps"),
    ("heat", {"dt": "x"}, "dt"),
    ("heat", {"field": "z"}, "field"),
    ("translator-check", {"fixture": "circle"}, "fixture"),
    ("density", {"x0": [1, 2, 3]}, "x0"),
    ("density", {"x0": ["a", "b"]}, "x0"),
    ("monotonicity", {"x0": [0.3]}, "x0"),
    ("spectrum", {"angles": [0.5]}, "angles"),
    ("linking", {"b": [1.0, "x"]}, "b"),
    ("simulate", {"scheme": "bogus"}, "scheme"),
    ("density", {"fixture_params": {"bogus": 1}}, "bogus"),
    ("density", {"fixture": "circle", "fixture_params": {"extent": 1.0}}, "extent"),
    ("simulate", {"fixture": "grim-reaper", "fixture_params": {"n": 1.5}}, "n"),
    ("entropy", {"fixture": "grim-reaper", "fixture_params": {"graded": 1}}, "graded"),
    ("density", {"fixture": "grim-reaper",
                 "fixture_params": {"graded": True, "h_fine": "x"}}, "h_fine"),
    ("simulate", {"fixture": "grim-reaper", "fixture_params": {"h_coarse": [0.5]}},
     "h_coarse"),
])
def test_a_mistyped_or_unknown_key_is_refused(command, config, key, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    with pytest.raises(ConfigInvalid, match=repr(key)):
        run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["hopf-fibers", "circle-product", "no-such"])
def test_non_curve_fixtures_are_refused(name, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": name}))
    for command in ("simulate", "density", "entropy", "monotonicity"):
        with pytest.raises(ConfigInvalid, match="'fixture'"):
            run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, want", [
    ("three-annulus", {"taus": [-2.0, -1, 0], "degree": 2},
     {"classification": "growing"}),
    ("translator-check", {"fixture": "circle-product", "n": 64},
     {"component": 0, "degenerate": False}),
])
def test_a_list_of_any_length_and_a_fixture_without_params_are_taken(
        command, config, want, tmp_path):
    # taus has a list default; translator-check declares no fixture_params
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload, = (json.loads(p.read_text()) for p in tmp_path.glob("*.json")
                if p.name != "cfg.json")
    payload = payload[0] if isinstance(payload, list) else payload
    assert {k: payload[k] for k in want} == want


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
    ["compare", "a", "b", "--config", "c.json"],
])
def test_options_exist_only_where_they_are_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_seed_and_refine_reach_the_scenario(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["run", "--scenario", "grim-reaper-translator", "--seed", "3",
                    "--refine", "2", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["seed"], summary["params"]) == (3, {"refine": 2})


def test_refine_is_refused_by_a_scenario_that_does_not_read_it(tmp_path):
    with pytest.raises(ConfigInvalid, match="'refine'"):
        run_cli(["run", "--scenario", "three-annulus", "--refine", "2",
                 "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_refine_zero_reaches_the_scenario_and_is_refused(tmp_path):
    # 0 is a value like any other, not "not given": the scenario refuses it
    # as it refuses {"params": {"refine": 0}}
    with pytest.raises(ConfigInvalid, match="refine"):
        run_cli(["run", "--scenario", "grim-reaper-translator", "--refine", "0",
                 "--out", str(tmp_path / "run")])


@pytest.mark.parametrize("command", ["simulate", "density", "entropy",
                                     "monotonicity", "spectrum", "three-annulus",
                                     "heat", "translator-check", "linking", "run"])
def test_a_config_that_is_not_an_object_is_refused(command, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(ConfigInvalid, match="JSON object"):
        run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_a_misplaced_scenario_key_is_refused_before_out_is_made(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 1}))
    with pytest.raises(ConfigInvalid, match="top-level key 'samples'"):
        run_cli(["run", "--scenario", "linking-suite", "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["density", "linking", "run"])
@pytest.mark.parametrize("text, problem", [
    (None, "cannot read config"), ("{", "is not valid JSON"),
    ('{"samples": 400,}', "is not valid JSON"), (b"\xff\xfe", "is not valid JSON")])
def test_a_config_that_cannot_be_read_is_refused_before_out_is_made(
        command, text, problem, tmp_path):
    cfg = tmp_path / "cfg.json"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    elif text is not None:
        cfg.write_text(text)
    scenario = ["--scenario", "three-annulus"] if command == "run" else []
    with pytest.raises(ConfigInvalid, match=problem) as refused:
        run_cli([command, *scenario, "--config", str(cfg),
                 "--out", str(tmp_path / "out")])
    assert str(cfg) in str(refused.value)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("samples", [1, 2])
def test_linking_graphs_that_miss_the_sphere_are_refused_typed(samples, tmp_path):
    # one point, or the four corners of [-2, 2]^2, all outside the unit sphere
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": samples}))
    with pytest.raises(EmptySlice, match="crosses the sphere of radius 1.0"):
        run_cli(["linking", "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_refine_is_refused_with_params_that_are_not_an_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "three-annulus", "params": [1]}))
    with pytest.raises(ConfigInvalid, match="'params' must be an object"):
        run_cli(["run", "--config", str(cfg), "--refine", "2",
                 "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_run_without_refine_writes_empty_params(tmp_path):
    out = tmp_path / "run"
    assert run_cli(["run", "--scenario", "three-annulus", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["params"] == {}


@pytest.mark.parametrize("fn", [*LAB_COMMANDS.values(), *sc.SCENARIOS.values(),
                                *cli.CURVE_FIXTURES.values()],
                         ids=[*LAB_COMMANDS, *sc.SCENARIOS, *cli.CURVE_FIXTURES])
def test_every_declared_key_has_a_default_the_checker_knows(fn):
    # check_keys knows these JSON types; a key of any other default could
    # never be given a value that it takes
    for p in inspect.signature(fn).parameters.values():
        if p.default is not p.empty:
            assert type(p.default) in (float, int, bool, str, tuple, list, dict,
                                       type(None)), p.name
            if isinstance(p.default, tuple):
                assert all(type(x) is float for x in p.default), p.name


# the keys each lab command and scenario declares; a change here changes
# what every --config and scenario config may hold
DECLARED = {
    "simulate": {"dt", "fixture", "fixture_params", "record_every",
                 "redistribute_every", "scheme", "steps", "t0"},
    "density": {"fixture", "fixture_params", "t", "t0", "x0"},
    "entropy": {"fixture", "fixture_params"},
    "monotonicity": {"dt", "fixture", "fixture_params", "record_every", "steps",
                     "t0", "x0"},
    "spectrum": {"angles", "max_degree", "n"},
    "three-annulus": {"degree", "log_norms", "s", "taus"},
    "heat": {"dt", "field", "n", "radius", "t1"},
    "translator-check": {"extent", "fixture", "n", "radius", "speed"},
    "linking": {"b", "extent", "lam", "n_poles", "radius", "samples"},
}
SCENARIO_KEYS = {
    "plane-pair-density": {"extent", "samples"},
    "huisken-monotonicity": {"dt", "rtol"},
    "hermite-spectrum": {"max_degree"},
    "three-annulus": {"n_mixtures"},
    "grim-reaper-translator": {"refine"},
    "caloric-identities": set(),
    "linking-suite": {"samples"},
    "blow-down-ladder": {"base_speed", "dt", "lambdas", "s1"},
}


def test_every_command_and_scenario_declares_the_keys_it_did():
    assert {name: set(sc.check_keys(name, {}, fn))
            for name, fn in LAB_COMMANDS.items()} == DECLARED
    assert {name: set(sc.check_keys(name, {}, fn))
            for name, fn in sc.SCENARIOS.items()} == SCENARIO_KEYS


def test_every_choice_is_of_a_key_its_command_declares():
    # check_keys never looks up a choice whose key is not declared
    for command, choices in cli.CHOICES.items():
        assert set(choices) <= set(sc.check_keys(command, {}, LAB_COMMANDS[command])), \
            command


def test_the_curve_commands_take_the_fixtures_and_schemes_of_their_tables():
    for command in ("simulate", "density", "entropy", "monotonicity"):
        assert cli.CHOICES[command]["fixture"] == ("circle", "line", "line-pair",
                                                   "grim-reaper")
    assert cli.CHOICES["simulate"]["scheme"] == tuple(flow.SCHEMES) == \
        ("semi_implicit", "explicit")


@pytest.mark.parametrize("graded", [False, True])
def test_a_bool_default_takes_a_bool(graded, tmp_path, monkeypatch):
    _stop_at_the_fixtures(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fixture": "grim-reaper",
                               "fixture_params": {"graded": graded}}))
    with pytest.raises(_Built) as built:
        run_cli(["density", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert built.value.args == ("grim-reaper", {"graded": graded})
