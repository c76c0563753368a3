"""Command-line interface: thin dispatch over fixtures, diagnostics and the
scenario runner. Subcommands mirror the lab operations; each lab command
takes its keys as keyword arguments, whose defaults a JSON --config
overrides, writes CSV/JSON bundles under --out, and is deterministic (given
--seed where a command is seeded)."""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial

import numpy as np

from . import diagnostics as dg
from . import drift
from . import fixtures as fx
from . import flow
from . import flowheat as fh
from . import scenarios as sc
from .errors import ConfigInvalid
from .geometry import make_plane_pair


# the curve commands' fixtures: name -> generator, whose keyword defaults
# declare the keys its fixture_params take
CURVE_FIXTURES = {"circle": fx.make_circle, "line": fx.make_line,
                  "line-pair": fx.make_line_pair, "grim-reaper": fx.make_grim_reaper}

# the values a key admits where the command branches on it
CHOICES = {"simulate": {"fixture": tuple(CURVE_FIXTURES), "scheme": tuple(flow.SCHEMES)},
           **dict.fromkeys(["density", "entropy", "monotonicity"],
                           {"fixture": tuple(CURVE_FIXTURES)}),
           "heat": {"field": ("x", "y")},
           "translator-check": {"fixture": ("grim-reaper-product", "circle-product")}}


def _load_config(args):
    """The command's keyword arguments, refused with ConfigInvalid before
    anything is written: the --config file's keys, which ``scenarios.check_keys``
    checks against the command's keyword defaults, or, for ``run``, the
    scenario config that ``scenarios.validate_config`` checks."""
    cfg = {}
    if getattr(args, "config", None):
        with open(args.config) as fhd:
            cfg = json.load(fhd)
        if not isinstance(cfg, dict):
            raise ConfigInvalid(f"config must be a JSON object, not {cfg!r}")
    if args.command == "run":
        if args.scenario:
            cfg.setdefault("scenario", args.scenario)
        if "scenario" not in cfg:
            raise SystemExit("run needs --scenario NAME or a config with 'scenario'")
        cfg.setdefault("seed", args.seed)
        # params that are not an object keep no refine; validate_config refuses them
        if args.refine is not None and isinstance(cfg.setdefault("params", {}), dict):
            cfg["params"]["refine"] = args.refine
        return {"config": sc.validate_config(cfg)}
    declared = sc.check_keys(args.command, cfg, args.fn, CHOICES.get(args.command))
    if "fixture_params" in declared:
        fixture = cfg.get("fixture", declared["fixture"])
        if "fixture" in cfg:
            cfg.setdefault("fixture_params", {})   # the generator's own defaults
        sc.check_keys(f"fixture {fixture!r}", cfg.get("fixture_params", {}),
                      CURVE_FIXTURES[fixture])
    return cfg


def _write_json(out, name, payload):
    path = os.path.join(out, name)
    with open(path, "w") as fhd:
        json.dump(payload, fhd, sort_keys=True, indent=1)
    print(path)


def _make_fixture_state(name, params):
    state = CURVE_FIXTURES[name](**params)
    return state[0] if name == "grim-reaper" else state   # (curve, theta_ref)


def cmd_simulate(args, *, fixture="circle", fixture_params={"radius": 1.0, "n": 128},
                 dt=5e-4, steps=200, scheme="semi_implicit", t0=0.0,
                 redistribute_every=0, record_every=10):
    traj = flow.evolve(_make_fixture_state(fixture, fixture_params), dt, steps,
                       scheme=scheme, t0=t0, redistribute_every=redistribute_every,
                       record_every=record_every)
    traj_path = os.path.join(args.out, "trajectory.txt")
    flow.save_trajectory(traj_path, traj)
    with open(os.path.join(args.out, "diagnostics.csv"), "w") as fhd:
        fhd.write("t,quantity,value\n")
        for t, s in zip(traj.times, traj.states):
            total = sum(c.length() for c in flow.as_components(s))
            fhd.write(f"{t:.12g},length,{total:.12g}\n")
    print(traj_path)


def cmd_density(args, *, fixture="line", fixture_params={"extent": 30.0, "n": 601},
                x0=(0.0, 0.0), t0=1.0, t=0.0):
    state = _make_fixture_state(fixture, fixture_params)
    val = dg.gaussian_density_ratio(state, dg.GaussianWindow(np.asarray(x0), t0), t=t)
    _write_json(args.out, "density.json", {"value": val, "x0": x0, "t0": t0, "t": t})


def cmd_entropy(args, *, fixture="circle", fixture_params={"radius": 1.0, "n": 256}):
    rep = dg.entropy(_make_fixture_state(fixture, fixture_params), seed=args.seed)
    _write_json(args.out, "entropy.json",
                {"value": rep.value, "x0": [float(x) for x in rep.x0],
                 "r": rep.r, "seed": args.seed})


def cmd_monotonicity(args, *, fixture="circle", fixture_params={"radius": 1.0, "n": 256},
                     dt=5e-4, steps=400, record_every=10, x0=(0.3, 0.0), t0=0.8):
    traj = flow.evolve(_make_fixture_state(fixture, fixture_params), dt, steps,
                       record_every=record_every)
    rep = dg.monotonicity_audit(traj, dg.GaussianWindow(np.asarray(x0), t0))
    rep.write_csv(os.path.join(args.out, "monotonicity.csv"))
    _write_json(args.out, "monotonicity.json",
                {"verdict": rep.verdict, "nonincreasing": rep.nonincreasing,
                 "max_violation": rep.max_violation,
                 "values": [float(v) for v in rep.values]})


def cmd_spectrum(args, *, n=2, max_degree=4, angles=(np.pi / 4, -np.pi / 4)):
    rows = [{"multi_index": list(e.multi_index), "degree": e.degree,
             "eigenvalue": e.eigenvalue}
            for e in drift.hermite_basis(n, max_degree)]
    with open(os.path.join(args.out, "spectrum.csv"), "w") as fhd:
        fhd.write("multi_index,degree,eigenvalue\n")
        for r in rows:
            fhd.write(f"{'x'.join(map(str, r['multi_index']))},"
                      f"{r['degree']},{r['eigenvalue']}\n")
    basis, gram = drift.homogeneous_basis(make_plane_pair(tuple(angles), 1),
                                          max_degree=1)
    np.savetxt(os.path.join(args.out, "pair_gram.csv"), gram, delimiter=",")
    _write_json(args.out, "spectrum.json",
                {"n": n, "elements": rows, "pair_basis": [b.label for b in basis]})


def cmd_three_annulus(args, *, degree=1, s=0.5, taus=list(range(-10, 1)),
                      log_norms=None):
    taus = np.asarray(taus, dtype=float)
    log_norms = (-0.5 * degree * taus if log_norms is None
                 else np.asarray(log_norms, dtype=float))
    seq = drift.NormSequence(taus, log_norms)
    seq.write_csv(os.path.join(args.out, "norm_sequence.csv"))
    rep = drift.three_annulus_classify(seq, s)
    freq = drift.frequency_audit(seq)
    _write_json(args.out, "three_annulus.json",
                {"classification": rep.classification, "s": rep.s,
                 "earliest_consistent_T": rep.earliest_consistent_T,
                 "homogeneous": freq.homogeneous,
                 "degree_estimate": freq.degree_estimate})


def cmd_heat(args, *, radius=1.0, n=256, dt=1e-3, t1=0.2, field="x"):
    traj = fx.shrinking_circle_trajectory(radius, n, t1=t1, dt=dt)
    comp0 = flow.as_components(traj.states[0])[0]
    sol = fh.solve_heat_on_flow(traj, [comp0.vertices[:, "xy".index(field)]])
    sol.write_csv(os.path.join(args.out, "heat_residuals.csv"))
    _write_json(args.out, "heat.json",
                {"max_sup_residual": float(np.max(sol.residual_sup)),
                 "growth_constant": sol.growth_constant})


def cmd_translator_check(args, *, fixture="grim-reaper-product", speed=1.0,
                         extent=3.0, radius=1.0, n=512):
    if fixture == "circle-product":
        prod, frame = fx.make_circle_product(radius, n)
    else:
        prod, frame, _ = fx.make_grim_reaper_product(speed, extent, n)
    fits = dg.translator_fit(prod, frame)
    _write_json(args.out, "translator.json",
                [{"component": f.component_id, "a": f.a, "b": f.b,
                  "residual": f.residual, "rms_w": f.rms_w, "kappa": f.kappa,
                  "velocity_residual": f.velocity_residual,
                  "degenerate": f.degenerate} for f in fits])


def cmd_linking(args, *, lam=0.1, b=(1.0, -1.0), extent=2.0, samples=400,
                radius=1.0, n_poles=5):
    tilted = partial(fx.make_tilted_pair, lam=lam, b=tuple(b), extent=extent,
                     samples=samples)
    s1, s2, rep = sc.transverse_link(tilted, args.seed, radius, n_poles)
    s1.write_csv(os.path.join(args.out, "slice1.csv"))
    s2.write_csv(os.path.join(args.out, "slice2.csv"))
    _write_json(args.out, "linking.json", rep.to_dict())


def cmd_run(args, *, config):
    summary = sc.run_scenario(config, out_dir=args.out)
    print(os.path.join(args.out, "summary.json"))
    print(f"scenario={summary['scenario']} pass={summary['pass']}")
    return 0 if summary["pass"] else 1


def cmd_compare(args):
    diff = sc.compare_runs(args.bundle_a, args.bundle_b)
    _write_json(args.out, "compare.json", diff)
    return 0 if not diff["flagged"] else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="lmcflab",
        description="Desk-scale numerical lab for Lagrangian mean curvature flow")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, seeded=False, **kw):
        q = sub.add_parser(name, **kw)
        if name != "compare":
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
    q.add_argument("--refine", type=int, default=None, help="Richardson ladder depth")
    q = add("compare", cmd_compare, help="diff two scenario bundles")
    q.add_argument("bundle_a")
    q.add_argument("bundle_b")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    cfg = _load_config(args)
    args.out = args.out or "."
    os.makedirs(args.out, exist_ok=True)
    code = args.fn(args, **cfg)
    return 0 if code is None else code


if __name__ == "__main__":
    sys.exit(main())
