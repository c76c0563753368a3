"""Scenario runner: determinism, bundle comparison, criterion mapping."""

import json
import os

import numpy as np
import pytest

from lmcflab import scenarios as sc
from lmcflab import fanout
from lmcflab.errors import ConfigInvalid, SchemaMismatch


def test_every_criterion_has_exactly_one_scenario():
    assert sorted(sc.CRITERION_SCENARIOS) == list(range(1, 9))
    names = list(sc.CRITERION_SCENARIOS.values())
    assert len(set(names)) == 8
    for name in names:
        assert name in sc.SCENARIOS


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        sc.validate_config({"scenario": "nonesuch"})
    with pytest.raises(ConfigInvalid):
        sc.validate_config({})
    cfg = sc.validate_config({"scenario": "three-annulus"})
    assert cfg["seed"] == 0 and cfg["schema_version"] == sc.SCHEMA_VERSION


@pytest.mark.parametrize("bad", [{"seed": 1.5}, {"seed": True}, {"seed": "abc"},
                                 {"seed": None}, {"params": [["refine", 2]]},
                                 {"params": "refine=2"}, {"params": None}])
def test_config_validation_refuses_bad_seed_and_params(bad):
    key, = bad
    with pytest.raises(ConfigInvalid, match=key):
        sc.validate_config({"scenario": "three-annulus", **bad})


@pytest.mark.parametrize("name", sorted(sc.SCENARIOS))
def test_every_scenario_refuses_an_unknown_param_before_any_fixture(name, monkeypatch,
                                                                   tmp_path):
    monkeypatch.setattr(sc, "fx", None)
    with pytest.raises(ConfigInvalid, match="'bogus'"):
        sc.run_scenario({"scenario": name, "params": {"bogus": 1}},
                        out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, params, key", [
    ("plane-pair-density", {"samples": "abc"}, "samples"),
    ("plane-pair-density", {"extent": [30.0]}, "extent"),
    ("huisken-monotonicity", {"dt": True}, "dt"),
    ("blow-down-ladder", {"lambdas": 0.1}, "lambdas"),
    ("linking-suite", {"samples": 400.0}, "samples"),
])
def test_a_mistyped_param_is_refused_by_name(name, params, key):
    with pytest.raises(ConfigInvalid, match=repr(key)):
        sc.validate_config({"scenario": name, "params": params})


@pytest.mark.parametrize("params", [{"lambdas": [0.1]},
                                    {"lambdas": [0.4, 0.2, 0.1, 0.05]},
                                    {"base_speed": 4, "s1": -1}])
def test_a_list_param_takes_any_length_and_a_float_param_an_int(params):
    assert sc.validate_config({"scenario": "blow-down-ladder",
                               "params": params})["params"] == params


# the short scenarios that declare keys (caloric-identities declares none)
@pytest.mark.parametrize("name", ["plane-pair-density", "huisken-monotonicity",
                                  "hermite-spectrum", "three-annulus",
                                  "grim-reaper-translator"])
def test_declared_defaults_given_explicitly_change_no_metric(name):
    # every default, as JSON would give it, is taken and is the value used
    declared = sc.check_keys(name, {}, sc.SCENARIOS[name])
    params = json.loads(json.dumps(declared))
    assert sc.run_scenario({"scenario": name, "params": params})["metrics"] == \
        sc.run_scenario({"scenario": name})["metrics"]


def test_numpy_integer_seed_runs_as_the_same_config():
    cfg = sc.validate_config({"scenario": "three-annulus", "seed": np.int64(1)})
    assert type(cfg["seed"]) is int and cfg["seed"] == 1
    assert sc.config_hash(cfg) == \
        sc.config_hash(sc.validate_config({"scenario": "three-annulus", "seed": 1}))


@pytest.mark.parametrize("key", ["samples", "refine", "seeds", "Params", "out"])
def test_an_unknown_top_level_key_is_refused_by_name(key):
    # a scenario key given beside "params" instead of inside it
    with pytest.raises(ConfigInvalid, match=f"top-level key {key!r}"):
        sc.validate_config({"scenario": "linking-suite", key: 1})


def test_a_config_of_the_four_top_level_keys_keeps_its_hash():
    cfg = sc.validate_config({"scenario": "linking-suite", "seed": 3,
                              "params": {"samples": 200}, "schema_version": 1})
    assert sc.config_hash(cfg) == "1e2fb83e416f659c"
    assert sc.config_hash(sc.validate_config({"scenario": "three-annulus"})) == \
        "5ea6e80c2ad7d018"


def test_config_hash_stable():
    a = sc.config_hash({"scenario": "x", "params": {"b": 1, "a": 2}})
    b = sc.config_hash({"params": {"a": 2, "b": 1}, "scenario": "x"})
    assert a == b


def test_run_determinism_byte_identical(tmp_path):
    cfg = {"scenario": "three-annulus", "seed": 3}
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    sc.run_scenario(cfg, out_dir=str(d1))
    sc.run_scenario(cfg, out_dir=str(d2))
    b1 = (d1 / "summary.json").read_bytes()
    b2 = (d2 / "summary.json").read_bytes()
    assert b1 == b2


def test_compare_identical_runs_empty_diff(tmp_path):
    cfg = {"scenario": "plane-pair-density"}
    d1, d2 = tmp_path / "a", tmp_path / "b"
    sc.run_scenario(cfg, out_dir=str(d1))
    sc.run_scenario(cfg, out_dir=str(d2))
    diff = sc.compare_runs(str(d1), str(d2))
    assert diff["identical"]
    assert not diff["flagged"]


def test_compare_schema_mismatch(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    sc.run_scenario({"scenario": "plane-pair-density"}, out_dir=str(d1))
    sc.run_scenario({"scenario": "three-annulus"}, out_dir=str(d2))
    with pytest.raises(SchemaMismatch):
        sc.compare_runs(str(d1), str(d2))


def test_compare_flags_drift_beyond_tolerance(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    sc.run_scenario({"scenario": "plane-pair-density"}, out_dir=str(d1))
    sc.run_scenario({"scenario": "plane-pair-density"}, out_dir=str(d2))
    summary = json.loads((d2 / "summary.json").read_text())
    summary["metrics"]["line_density"] += 1e-3  # beyond the 1e-6 tolerance
    (d2 / "summary.json").write_text(json.dumps(summary, sort_keys=True))
    diff = sc.compare_runs(str(d1), str(d2))
    assert "line_density" in diff["flagged"]


def _bundles(tmp_path, metrics_a, metrics_b, checks_a=None, checks_b=None):
    """Two hand-made bundles of one scenario with the given metrics."""
    dirs = []
    for name, metrics, checks in (("a", metrics_a, checks_a),
                                  ("b", metrics_b, checks_b)):
        d = tmp_path / name
        d.mkdir()
        (d / "summary.json").write_text(json.dumps({
            "schema_version": sc.SCHEMA_VERSION, "scenario": "three-annulus",
            "metrics": metrics, "checks": checks or {},
            "tolerances": {"x": 1.0}}))
        dirs.append(str(d))
    return sc.compare_runs(*dirs)


@pytest.mark.parametrize("metrics_a, metrics_b, key", [
    ({"uniqueness_bitwise": True}, {"uniqueness_bitwise": False},
     "uniqueness_bitwise"),
    ({"x": [1.0, 2.0]}, {"x": [1.0, 2.0, 3.0]}, "x"),
    ({"x": 1.0, "only_a": 2.0}, {"x": 1.0}, "only_a"),
    ({"x": 1.0}, {"x": 1.0, "only_b": [3]}, "only_b"),
    ({"d": {"k": 1.0}}, {"d": {"k": 1.0, "j": 2.0}}, "d.j"),
    ({"mode": "factor1"}, {"mode": "factor2"}, "mode"),
    ({"y": None}, {"y": 0.0}, "y"),
    ({"y": float("nan")}, {"y": 0.0}, "y"),
])
def test_compare_flags_every_non_numeric_change(tmp_path, metrics_a, metrics_b, key):
    # "x" has tolerance 1.0, yet none of these changes is within it
    diff = _bundles(tmp_path, metrics_a, metrics_b)
    assert list(diff["flagged"]) == [key]
    assert diff["flagged"][key]["tolerance"] == 0.0
    assert not diff["identical"]


def test_compare_flags_a_flipped_check(tmp_path):
    diff = _bundles(tmp_path, {"x": 1.0}, {"x": 1.0}, {"ok": True}, {"ok": False})
    assert list(diff["flagged"]) == ["checks.ok"] and not diff["identical"]


def test_compare_equal_values_of_every_kind_are_identical(tmp_path):
    metrics = {"b": True, "s": "factor1", "n": None, "nan": float("nan"),
               "inf": float("inf"), "l": [1, [2.0, False]], "d": {"k": 1}}
    diff = _bundles(tmp_path, metrics, dict(metrics, l=[1.0, [2, False]]),
                    {"ok": True}, {"ok": True})
    assert diff["identical"] and not diff["flagged"] and not diff["deltas"]


def test_summary_embeds_config_hash(tmp_path):
    cfg = {"scenario": "three-annulus", "seed": 7}
    out = sc.run_scenario(cfg, out_dir=str(tmp_path))
    assert out["config_hash"] == sc.config_hash(sc.validate_config(dict(cfg)))
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["config_hash"] == out["config_hash"]
    assert "timestamp" not in json.dumps(on_disk)


def test_compare_dt_halving_within_certificate(tmp_path):
    # halving dt moves the circle metrics only within their O(dt) tolerance
    d1, d2 = tmp_path / "a", tmp_path / "b"
    sc.run_scenario({"scenario": "huisken-monotonicity",
                     "params": {"dt": 1e-3}}, out_dir=str(d1))
    sc.run_scenario({"scenario": "huisken-monotonicity",
                     "params": {"dt": 5e-4}}, out_dir=str(d2))
    diff = sc.compare_runs(str(d1), str(d2))
    assert not diff["identical"]
    assert "circle_drop" not in diff["flagged"]
    assert "circle_dissipation" not in diff["flagged"]


# ---------------------------------------------------------------------------
# the fan-out of the blow-down ladder and the linking suite

COARSE_LADDER = {"scenario": "blow-down-ladder", "seed": 0, "params": {"dt": 2e-3}}
LINKING = {"scenario": "linking-suite", "seed": 1}


def _bundle_bytes(config, out_dir):
    sc.run_scenario(config, out_dir=str(out_dir))
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


@pytest.fixture(scope="module")
def serial_bundles(tmp_path_factory):
    """Each fanned-out scenario's bundle computed in this process alone."""
    root = tmp_path_factory.mktemp("serial")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fanout, "usable_cpus", lambda: 1)
        return {cfg["scenario"]: _bundle_bytes(cfg, root / cfg["scenario"])
                for cfg in (COARSE_LADDER, LINKING)}


@pytest.mark.parametrize("n", [1, 2, 8])
def test_ladder_bytes_equal_with_workers_and_on_one_cpu(tmp_path, serial_bundles,
                                                        forks, cpus, no_child_left, n):
    cpus(n)
    assert _bundle_bytes(COARSE_LADDER, tmp_path) == serial_bundles["blow-down-ladder"]
    # one child for the heaviest rung, none on one CPU
    assert len(forks) == min(n, 2) - 1
    no_child_left()


@pytest.mark.parametrize("n", [1, 2, 8])
def test_linking_suite_bytes_equal_with_workers_and_on_one_cpu(tmp_path, serial_bundles,
                                                               forks, cpus,
                                                               no_child_left, n):
    cpus(n)
    assert _bundle_bytes(LINKING, tmp_path) == serial_bundles["linking-suite"]
    # one child for the controls, up to four for the transverse link's poles
    assert len(forks) == {1: 0, 2: 2, 8: 5}[n]
    no_child_left()


def test_ladder_refuses_an_empty_lambda_list():
    # an empty ladder would pass both of its checks without a rung
    with pytest.raises(ConfigInvalid, match="at least one lambda"):
        sc.run_scenario({"scenario": "blow-down-ladder", "params": {"lambdas": []}})


@pytest.mark.parametrize("refine", [0, 1, True, "3"])
def test_reaper_refuses_a_bad_refine_before_any_fixture(refine, monkeypatch):
    # the Richardson slopes need two sizes at least
    monkeypatch.setattr(sc.fx, "make_grim_reaper_product", None)
    with pytest.raises(ConfigInvalid, match="refine"):
        sc.run_scenario({"scenario": "grim-reaper-translator",
                         "params": {"refine": refine}})


def test_worker_rung_error_reaches_the_caller_typed(monkeypatch, cpus, no_child_left):
    from lmcflab import flowheat
    from lmcflab.errors import NotExact

    caller = os.getpid()
    height = flowheat.approx_height_solution

    def in_workers_not_exact(*args, **kwargs):
        if os.getpid() != caller:
            raise NotExact(0.5, component_id=1)
        return height(*args, **kwargs)

    cpus(2)
    # the rungs import flowheat when they run and call it through the module
    monkeypatch.setattr(flowheat, "approx_height_solution", in_workers_not_exact)
    with pytest.raises(NotExact) as info:
        sc.run_scenario(COARSE_LADDER)
    assert (info.value.holonomy, info.value.component_id) == (0.5, 1)
    assert "Traceback" in str(info.value.__cause__)   # the worker's traceback
    no_child_left()


def test_ladder_forks_safely_after_a_linking_fan_out(tmp_path, serial_bundles,
                                                     forks, cpus, no_child_left):
    from lmcflab import fixtures as fx

    cpus(2)
    f1, f2 = fx.make_hopf_fibers(n=64)
    assert abs(sc.lk.linking_number(f1, f2, R=1.0, n_poles=2).value) == 1
    assert len(forks) == 1
    assert _bundle_bytes(COARSE_LADDER, tmp_path) == serial_bundles["blow-down-ladder"]
    assert len(forks) == 2
    no_child_left()
