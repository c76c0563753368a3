"""Tests of the benchmark itself: tracing must change no result, its counts
must repeat exactly, and the runner must print the declared metrics."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer as tr

SMALL = run.WORKLOADS["flows"][1:]   # the short scenarios


@pytest.fixture(scope="module")
def lab():
    scenarios, _ = run.setup(0)
    from lmcflab import fixtures, linking
    return scenarios, fixtures, linking


def test_self_time_subtracts_the_union_of_children():
    spans = [("a", 0.0, 10.0, None),
             ("b", 1.0, 4.0, 0),
             ("c", 3.0, 6.0, 0),     # overlaps b: a's children cover [1, 6]
             ("d", 2.0, 3.0, 1),
             ("e", 9.0, 12.0, 0),    # clipped to a's end: covers [9, 10]
             ("f", 20.0, 21.0, None)]
    assert tr.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])
    t = tr.Tracer()
    t.spans = spans
    assert t.self_time_by_name()["a"] == pytest.approx(4.0)
    assert t.top_level_time(0.0, 25.0) == pytest.approx(11.0)
    assert t.top_level_time(5.0, 20.5) == pytest.approx(5.5)


def _pass(lab, out_root, traced):
    """The short scenarios plus cheap linking calls, optionally traced."""
    scenarios, fixtures, linking = lab
    tracer = tr.Tracer()
    if traced:
        tracer.install()
    try:
        for name in SMALL:
            scenarios.run_scenario({"scenario": name, "seed": 0},
                                   out_dir=str(out_root / name))
        meshes, _, _ = fixtures.make_tilted_pair(extent=2.0, samples=60)
        verts = meshes[0][0]
        on_sphere = float(np.linalg.norm(verts[np.argmin(
            np.abs(np.linalg.norm(verts, axis=1) - 1.0))]))
        linking.sphere_slice(meshes[0], on_sphere)   # a vertex on |x| = R
        linking.surfaces_intersect(meshes[0], meshes[1])
        f1, f2 = fixtures.make_hopf_fibers(n=64)
        linking.linking_number(f1, f2, R=1.0, n_poles=2)
    finally:
        tracer.uninstall()
    return tracer


def test_traced_bundles_are_identical_and_counts_repeat(lab, tmp_path):
    scenarios, _, linking = lab
    originals = (linking.linking_number, scenarios.lk.sphere_slice)
    _pass(lab, tmp_path / "plain", traced=False)
    first = _pass(lab, tmp_path / "traced1", traced=True)
    second = _pass(lab, tmp_path / "traced2", traced=True)
    assert (linking.linking_number, scenarios.lk.sphere_slice) == originals
    for name in SMALL:
        plain = (tmp_path / "plain" / name / "summary.json").read_bytes()
        assert (tmp_path / "traced1" / name / "summary.json").read_bytes() == plain
    assert first.missing == []
    assert first.calls == second.calls
    assert first.work == second.work
    for name in ("flow.step_flow", "geometry.laplacian",
                 "geometry.DiscreteCurve.tangents", "drift.drift_apply",
                 "linking.linking_number", "linking.sphere_slice"):
        assert first.calls[name] > 0, name
    assert first.work["linking.gauss_pairs"] == 2 * 64 * 64
    assert first.work["linking.sphere_slice.retries"] == 1
    assert first.work["linking.surfaces_intersect.triangles"] == 4 * 59 * 59
    for name in ("flow.vertex_steps", "flowheat.vertex_steps", "flow.splu_calls",
                 "flow.banded_calls", "flowheat.splu_calls"):
        assert first.work[name] > 0, name
    window = {"start": first.spans[0][1], "end": first.spans[-1][2],
              "cpu": 1.0, "wall": first.spans[-1][2] - first.spans[0][1]}
    layers = run.layer_metrics(first, [window], [window])
    assert set(_declared("per_layer")) <= set(layers)
    assert layers["trace.covered_frac"] > 0.5


def test_tracer_rebinds_every_namespace_and_restores_it(lab):
    from lmcflab import flow, flowheat, geometry
    original = geometry.laplacian
    method = vars(geometry.DiscreteCurve)["tangents"]
    banded = flow.solve_banded
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert flowheat.laplacian is geometry.laplacian is not original
        assert vars(geometry.DiscreteCurve)["tangents"] is not method
        assert flow.solve_banded is flowheat.solve_banded is not banded
    finally:
        tracer.uninstall()
    assert flowheat.laplacian is geometry.laplacian is original
    assert vars(geometry.DiscreteCurve)["tangents"] is method
    assert flow.solve_banded is flowheat.solve_banded is banded


def _declared(section):
    return [m["name"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())[section]]


def test_runner_prints_the_end_to_end_metrics():
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
         "flows", "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and (result["attempted"], result["failed"]) == (1, 0)
    assert list(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
