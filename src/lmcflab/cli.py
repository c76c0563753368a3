"""Command-line interface: thin dispatch over fixtures, diagnostics and the
scenario runner. Subcommands mirror the lab operations; every run takes a
JSON config (--config) or inline arguments, writes CSV/JSON bundles under
--out, and is deterministic (given --seed where a command is seeded)."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import diagnostics as dg
from . import drift
from . import fixtures as fx
from . import flow
from . import flowheat as fh
from . import linking as lk
from . import scenarios as sc
from .geometry import make_plane_pair


def _load_config(args, default=None):
    if args.config:
        with open(args.config) as fhd:
            return json.load(fhd)
    return dict(default or {})


def _ensure_out(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_json(out, name, payload):
    path = os.path.join(out, name)
    with open(path, "w") as fhd:
        json.dump(payload, fhd, sort_keys=True, indent=1)
    print(path)


def _make_fixture_state(cfg):
    name = cfg.get("fixture", "circle")
    if name not in ("circle", "line", "line-pair", "grim-reaper"):
        raise SystemExit(f"unsupported curve fixture {name!r} for this command")
    params = {"angle1": 0.5, "angle2": -0.5} if name == "line-pair" else {}
    state = fx.generate_fixture(name, **{**params, **cfg.get("fixture_params", {})})
    return state[0] if name == "grim-reaper" else state   # (curve, theta_ref)


def cmd_simulate(args):
    cfg = _load_config(args, {"fixture": "circle",
                              "fixture_params": {"radius": 1.0, "n": 128},
                              "dt": 5e-4, "steps": 200, "scheme": "semi_implicit",
                              "record_every": 10})
    out = _ensure_out(args)
    state = _make_fixture_state(cfg)
    traj = flow.evolve(state, cfg.get("dt", 5e-4), cfg.get("steps", 200),
                       scheme=cfg.get("scheme", "semi_implicit"),
                       t0=cfg.get("t0", 0.0),
                       redistribute_every=cfg.get("redistribute_every", 0),
                       record_every=cfg.get("record_every", 10))
    traj_path = os.path.join(out, "trajectory.txt")
    flow.save_trajectory(traj_path, traj)
    with open(os.path.join(out, "diagnostics.csv"), "w") as fhd:
        fhd.write("t,quantity,value\n")
        for t, s in zip(traj.times, traj.states):
            total = sum(c.length() for c in flow.as_components(s))
            fhd.write(f"{t:.12g},length,{total:.12g}\n")
    print(traj_path)


def cmd_density(args):
    cfg = _load_config(args, {"fixture": "line",
                              "fixture_params": {"extent": 30.0, "n": 601},
                              "x0": [0.0, 0.0], "t0": 1.0, "t": 0.0})
    out = _ensure_out(args)
    state = _make_fixture_state(cfg)
    w = dg.GaussianWindow(np.asarray(cfg.get("x0", [0.0, 0.0])), cfg.get("t0", 1.0))
    val = dg.gaussian_density_ratio(state, w, t=cfg.get("t", 0.0))
    _write_json(out, "density.json", {"value": val, "x0": cfg.get("x0"),
                                      "t0": cfg.get("t0"), "t": cfg.get("t")})


def cmd_entropy(args):
    cfg = _load_config(args, {"fixture": "circle",
                              "fixture_params": {"radius": 1.0, "n": 256}})
    out = _ensure_out(args)
    state = _make_fixture_state(cfg)
    rep = dg.entropy(state, seed=args.seed)
    _write_json(out, "entropy.json",
                {"value": rep.value, "x0": [float(x) for x in rep.x0],
                 "r": rep.r, "seed": args.seed})


def cmd_monotonicity(args):
    cfg = _load_config(args, {"fixture": "circle",
                              "fixture_params": {"radius": 1.0, "n": 256},
                              "dt": 5e-4, "steps": 400, "record_every": 10,
                              "x0": [0.3, 0.0], "t0": 0.8})
    out = _ensure_out(args)
    state = _make_fixture_state(cfg)
    traj = flow.evolve(state, cfg.get("dt", 5e-4), cfg.get("steps", 400),
                       record_every=cfg.get("record_every", 10))
    w = dg.GaussianWindow(np.asarray(cfg.get("x0", [0.3, 0.0])), cfg.get("t0", 0.8))
    rep = dg.monotonicity_audit(traj, w)
    rep.write_csv(os.path.join(out, "monotonicity.csv"))
    _write_json(out, "monotonicity.json",
                {"verdict": rep.verdict, "nonincreasing": rep.nonincreasing,
                 "max_violation": rep.max_violation,
                 "values": [float(v) for v in rep.values]})


def cmd_spectrum(args):
    cfg = _load_config(args, {"n": 2, "max_degree": 4})
    out = _ensure_out(args)
    n = cfg.get("n", 2)
    rows = []
    for elem in drift.hermite_basis(n, cfg.get("max_degree", 4)):
        rows.append({"multi_index": list(elem.multi_index),
                     "degree": elem.degree, "eigenvalue": elem.eigenvalue})
    with open(os.path.join(out, "spectrum.csv"), "w") as fhd:
        fhd.write("multi_index,degree,eigenvalue\n")
        for r in rows:
            fhd.write(f"{'x'.join(map(str, r['multi_index']))},"
                      f"{r['degree']},{r['eigenvalue']}\n")
    pair = make_plane_pair(tuple(cfg.get("angles", (np.pi / 4, -np.pi / 4))), 1)
    basis, gram = drift.homogeneous_basis(pair, max_degree=1)
    np.savetxt(os.path.join(out, "pair_gram.csv"), gram, delimiter=",")
    _write_json(out, "spectrum.json",
                {"n": n, "elements": rows,
                 "pair_basis": [b.label for b in basis]})


def cmd_three_annulus(args):
    cfg = _load_config(args, {"degree": 1, "s": 0.5,
                              "taus": list(range(-10, 1))})
    out = _ensure_out(args)
    taus = np.asarray(cfg.get("taus", list(range(-10, 1))), dtype=float)
    if "log_norms" in cfg:
        seq = drift.NormSequence(taus, np.asarray(cfg["log_norms"], dtype=float))
    else:
        d = cfg.get("degree", 1)
        seq = drift.NormSequence(taus, -0.5 * d * taus)
    seq.write_csv(os.path.join(out, "norm_sequence.csv"))
    rep = drift.three_annulus_classify(seq, cfg.get("s", 0.5))
    freq = drift.frequency_audit(seq)
    _write_json(out, "three_annulus.json",
                {"classification": rep.classification, "s": rep.s,
                 "earliest_consistent_T": rep.earliest_consistent_T,
                 "homogeneous": freq.homogeneous,
                 "degree_estimate": freq.degree_estimate})


def cmd_heat(args):
    cfg = _load_config(args, {"n": 256, "dt": 1e-3, "t1": 0.2, "field": "x"})
    out = _ensure_out(args)
    traj = fx.shrinking_circle_trajectory(cfg.get("radius", 1.0), cfg.get("n", 256),
                                          t1=cfg.get("t1", 0.2),
                                          dt=cfg.get("dt", 1e-3))
    comp0 = flow.as_components(traj.states[0])[0]
    axis = 0 if cfg.get("field", "x") == "x" else 1
    f0 = [comp0.vertices[:, axis]]
    sol = fh.solve_heat_on_flow(traj, f0)
    sol.write_csv(os.path.join(out, "heat_residuals.csv"))
    _write_json(out, "heat.json",
                {"max_sup_residual": float(np.max(sol.residual_sup)),
                 "growth_constant": sol.growth_constant})


def cmd_translator_check(args):
    cfg = _load_config(args, {"fixture": "grim-reaper-product",
                              "speed": 1.0, "n": 512})
    out = _ensure_out(args)
    if cfg.get("fixture", "grim-reaper-product") == "circle-product":
        prod, frame = fx.make_circle_product(cfg.get("radius", 1.0),
                                             cfg.get("n", 256))
    else:
        prod, frame, _ = fx.make_grim_reaper_product(cfg.get("speed", 1.0),
                                                     extent=cfg.get("extent", 3.0),
                                                     n=cfg.get("n", 512))
    fits = dg.translator_fit(prod, frame)
    _write_json(out, "translator.json",
                [{"component": f.component_id, "a": f.a, "b": f.b,
                  "residual": f.residual, "rms_w": f.rms_w, "kappa": f.kappa,
                  "velocity_residual": f.velocity_residual,
                  "degenerate": f.degenerate} for f in fits])


def cmd_linking(args):
    cfg = _load_config(args, {"lam": 0.1, "b": [1.0, -1.0], "samples": 400})
    out = _ensure_out(args)
    meshes, frame, pair = fx.make_tilted_pair(lam=cfg.get("lam", 0.1),
                                              b=tuple(cfg.get("b", (1.0, -1.0))),
                                              extent=cfg.get("extent", 2.0),
                                              samples=cfg.get("samples", 400))
    s1 = lk.sphere_slice(meshes[0], cfg.get("radius", 1.0))
    s2 = lk.sphere_slice(meshes[1], cfg.get("radius", 1.0))
    s1.write_csv(os.path.join(out, "slice1.csv"))
    s2.write_csv(os.path.join(out, "slice2.csv"))
    rep = lk.linking_number(s1, s2, seed=args.seed,
                            n_poles=cfg.get("n_poles", 5))
    _write_json(out, "linking.json", rep.to_dict())


def cmd_run(args):
    cfg = _load_config(args)
    if args.scenario:
        cfg.setdefault("scenario", args.scenario)
    if "scenario" not in cfg:
        raise SystemExit("run needs --scenario NAME or a config with 'scenario'")
    cfg.setdefault("seed", args.seed)
    if args.refine:
        cfg.setdefault("params", {})["refine"] = args.refine
    out = _ensure_out(args)
    summary = sc.run_scenario(cfg, out_dir=out)
    print(os.path.join(out, "summary.json"))
    print(f"scenario={summary['scenario']} pass={summary['pass']}")
    return 0 if summary["pass"] else 1


def cmd_compare(args):
    diff = sc.compare_runs(args.bundle_a, args.bundle_b)
    out = _ensure_out(args)
    _write_json(out, "compare.json", diff)
    return 0 if not diff["flagged"] else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="lmcflab",
        description="Desk-scale numerical lab for Lagrangian mean curvature flow")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, seeded=False, **kw):
        q = sub.add_parser(name, **kw)
        q.add_argument("--config", help="JSON config path")
        q.add_argument("--out", help="output directory", default=".")
        if seeded:
            q.add_argument("--seed", type=int, default=0)
        q.set_defaults(fn=fn)
        return q

    add("simulate", cmd_simulate, help="run a flow and write the trajectory")
    add("density", cmd_density, help="Gaussian density of a fixture")
    add("entropy", cmd_entropy, seeded=True,
        help="entropy search over centres and scales")
    add("monotonicity", cmd_monotonicity, help="weighted monotonicity audit")
    add("spectrum", cmd_spectrum, help="drift Laplacian eigentable and pair basis")
    add("three-annulus", cmd_three_annulus, help="norm-sequence dichotomy audit")
    add("heat", cmd_heat, help="heat solve along a flow with residual audit")
    add("translator-check", cmd_translator_check, help="height-vs-angle fit")
    add("linking", cmd_linking, seeded=True, help="sphere slices and linking number")
    q = add("run", cmd_run, seeded=True, help="run a named scenario")
    q.add_argument("--scenario", help="scenario name", default=None)
    q.add_argument("--refine", type=int, default=0, help="Richardson ladder depth")
    q = add("compare", cmd_compare, help="diff two scenario bundles")
    q.add_argument("bundle_a")
    q.add_argument("bundle_b")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    code = args.fn(args)
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
