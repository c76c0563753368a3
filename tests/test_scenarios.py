"""Scenario runner: determinism, bundle comparison, criterion mapping."""

import json
import os

import numpy as np
import pytest

from lmcflab import scenarios as sc
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
# the blow-down ladder's light rungs in forked workers

COARSE_LADDER = {"scenario": "blow-down-ladder", "seed": 0, "params": {"dt": 2e-3}}


def _ladder_bytes(out_dir):
    sc.run_scenario(COARSE_LADDER, out_dir=str(out_dir))
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


@pytest.fixture
def forks(monkeypatch):
    """Counts the forks of this process (the pool's workers)."""
    count = []
    fork = os.fork

    def counted():
        count.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count


@pytest.mark.parametrize("cpus", [2, 8])
def test_ladder_bytes_equal_with_workers_and_on_one_cpu(tmp_path, monkeypatch,
                                                        forks, cpus):
    monkeypatch.setattr(sc.lk, "usable_cpus", lambda: cpus)
    with_workers = _ladder_bytes(tmp_path / "workers")
    # at most usable_cpus() - 1 workers, one per rung the caller leaves
    assert len(forks) == min(cpus, 3) - 1
    monkeypatch.setattr(sc.lk, "usable_cpus", lambda: 1)
    forks.clear()
    assert _ladder_bytes(tmp_path / "one") == with_workers
    assert forks == []


def test_worker_rung_error_reaches_the_caller_typed(monkeypatch):
    from lmcflab.errors import NotExact

    caller = os.getpid()
    height = sc.fh.approx_height_solution

    def in_workers_not_exact(*args, **kwargs):
        if os.getpid() != caller:
            raise NotExact(0.5, component_id=1)
        return height(*args, **kwargs)

    monkeypatch.setattr(sc.lk, "usable_cpus", lambda: 2)
    monkeypatch.setattr(sc.fh, "approx_height_solution", in_workers_not_exact)
    with pytest.raises(NotExact) as info:
        sc.run_scenario(COARSE_LADDER)
    assert (info.value.holonomy, info.value.component_id) == (0.5, 1)
    assert "Traceback" in str(info.value.__cause__)   # the worker's traceback


def test_ladder_forks_safely_after_the_gauss_pool_started(tmp_path, monkeypatch,
                                                          forks):
    from lmcflab import fixtures as fx

    f1, f2 = fx.make_hopf_fibers(n=64)
    assert abs(sc.lk.linking_number(f1, f2, R=1.0, n_poles=2).value) == 1
    assert sc.lk._POOL is not None   # its threads are alive
    monkeypatch.setattr(sc.lk, "usable_cpus", lambda: 1)
    serial = _ladder_bytes(tmp_path / "one")
    monkeypatch.setattr(sc.lk, "usable_cpus", lambda: 2)
    assert _ladder_bytes(tmp_path / "workers") == serial
    assert len(forks) == 1
