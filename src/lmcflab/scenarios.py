"""Reproducible experiment orchestration: named scenarios binding fixtures,
flows, diagnostics and thresholds; deterministic CSV/JSON bundles.

Every acceptance check maps to exactly one named scenario; a scenario run
writes ``summary.json`` (config hash embedded, no timestamps, stable key
order) plus CSV streams, and reports a pass verdict per check.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
from fractions import Fraction
from functools import partial

import numpy as np
from scipy.spatial import cKDTree

from . import diagnostics as dg
from . import drift
from . import fixtures as fx
from . import flow
from . import flowheat as fh
from . import linking as lk
from .errors import ConfigInvalid, SchemaMismatch
from .fanout import fan_out
from .geometry import AffineLine, make_plane_pair

SCHEMA_VERSION = 1
# the keys a run config may have; a scenario's own keys go under "params"
CONFIG_KEYS = ("scenario", "seed", "params", "schema_version")


def canonical_config(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_config(config).encode()).hexdigest()[:16]


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigInvalid("config must be a JSON object")
    for key in config:
        if key not in CONFIG_KEYS:
            raise ConfigInvalid(f"unknown top-level key {key!r}; known: "
                                f"{list(CONFIG_KEYS)} (a scenario's keys go "
                                f"under 'params')")
    if config.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigInvalid(f"unsupported schema_version {config.get('schema_version')}")
    if "scenario" not in config:
        raise ConfigInvalid("config needs a 'scenario' field")
    if config["scenario"] not in SCENARIOS:
        raise ConfigInvalid(f"unknown scenario {config['scenario']!r}; "
                            f"known: {sorted(SCENARIOS)}")
    config.setdefault("schema_version", SCHEMA_VERSION)
    seed = config.setdefault("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ConfigInvalid(f"'seed' must be an integer, not {seed!r}")
    config["seed"] = int(seed)
    if not isinstance(config.setdefault("params", {}), dict):
        raise ConfigInvalid(f"'params' must be an object, not {config['params']!r}")
    check_keys(config["scenario"], config["params"], SCENARIOS[config["scenario"]])
    return config


def check_keys(where, given, fn, choices=None) -> dict:
    """Refuse with ConfigInvalid, naming the key, any key of ``given`` that
    is not a parameter of ``fn`` with a default, that is not of its default's
    JSON type, or that lies outside ``choices[key]``. A float default also
    takes an int, a None default takes anything, a tuple default takes a list
    of as many numbers, and a bool is never a number. Returns the declared
    keys with their defaults."""
    declared = {p.name: p.default for p in inspect.signature(fn).parameters.values()
                if p.default is not p.empty}
    for key, value in given.items():
        if key not in declared:
            raise ConfigInvalid(f"unknown key {key!r} for {where}; "
                                f"known: {sorted(declared)}")
        if not _fits(value, declared[key]):
            raise ConfigInvalid(f"{key!r} must be of the JSON type and shape of "
                                f"its default {json.dumps(declared[key])}, not {value!r}")
        allowed = (choices or {}).get(key)
        if allowed and value not in allowed:
            raise ConfigInvalid(f"{key!r} must be one of {list(allowed)}, not {value!r}")
    return declared


def _fits(value, default):
    """Whether a JSON value has the JSON type (and a tuple's length) of the
    default."""
    if default is None:
        return True
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(_fits(v, d) for v, d in zip(value, default)))
    kind = (int, float) if isinstance(default, float) else type(default)
    return isinstance(value, kind) and isinstance(value, bool) == isinstance(default, bool)


def hausdorff_distance(pts_a: np.ndarray, pts_b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point samples."""
    ta, tb = cKDTree(pts_a), cKDTree(pts_b)
    d_ab = tb.query(pts_a)[0].max()
    d_ba = ta.query(pts_b)[0].max()
    return float(max(d_ab, d_ba))


# ---------------------------------------------------------------------------
# scenarios (one per acceptance criterion)


def scenario_plane_pair_density(seed, outputs, *, extent=30.0, samples=601):
    w2 = dg.GaussianWindow(np.zeros(2), t0=1.0)
    w4 = dg.GaussianWindow(np.zeros(4), t0=1.0)
    line = fx.make_line(angle=0.4, extent=extent, n=samples)
    line_density = dg.gaussian_density_ratio(line, w2, t=0.0)
    pair1 = make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    plane_state = pair1.planes[0].as_product(extent=extent, samples=samples)
    plane_density = dg.gaussian_density_ratio(plane_state, w4, t=0.0)
    metrics = {"line_density": line_density, "plane_density": plane_density}
    checks = {"line_density_one": abs(line_density - 1.0) < 1e-6,
              "plane_density_one": abs(plane_density - 1.0) < 1e-6}
    for m in (0, 1):
        pair = make_plane_pair((np.pi / 4, -np.pi / 4), m)
        state = [p.as_product(extent=extent, samples=samples) for p in pair.planes]
        val = dg.gaussian_density_ratio(state, w4, t=0.0)
        analytic = dg.gaussian_density_ratio(pair, w4, t=0.0)
        metrics[f"pair_density_m{m}"] = val
        metrics[f"pair_density_m{m}_analytic"] = analytic
        checks[f"pair_density_m{m}_two"] = abs(val - 2.0) < 1e-6
    tolerances = {k: 1e-6 for k in metrics}
    return metrics, checks, tolerances


def scenario_huisken_monotonicity(seed, outputs, *, rtol=1e-8, dt=5e-4):
    metrics, checks = {}, {}
    # static plane
    line = fx.make_line(angle=0.3, extent=25.0, n=501)
    traj = flow.FlowTrajectory([0.0, 0.1, 0.2], [line] * 3)
    rep = dg.monotonicity_audit(traj, dg.GaussianWindow(np.zeros(2), 0.5), rtol=rtol)
    metrics["plane_max_violation"] = rep.max_violation
    checks["plane_monotone"] = rep.verdict and rep.nonincreasing
    # shrinking circle: decrement matches dissipation within 2%
    circ = fx.make_circle(1.0, 256)
    traj_c = flow.evolve(circ, dt, int(round(0.2 / dt)),
                         record_every=max(1, int(round(0.005 / dt))))
    rep_c = dg.monotonicity_audit(traj_c, dg.GaussianWindow(np.array([0.3, 0.0]), 0.8),
                                  rtol=rtol)
    drop = rep_c.values[0] - rep_c.values[-1]
    diss = sum(r[2] for r in rep_c.rows)
    metrics["circle_drop"] = drop
    metrics["circle_dissipation"] = diss
    metrics["circle_mismatch"] = abs(drop - diss) / drop
    checks["circle_monotone"] = rep_c.verdict and rep_c.nonincreasing
    checks["circle_dissipation_2pc"] = abs(drop - diss) / drop < 0.02
    if outputs:
        rep_c.write_csv(os.path.join(outputs, "circle_monotonicity.csv"))
    # grim reaper and its product with a line
    curve, _ = fx.make_grim_reaper(speed=1.0, extent=9.0, graded=True,
                                   h_fine=0.02, h_coarse=0.25, fine_radius=3.0)
    traj_g = flow.evolve(curve, 2e-4, 300, record_every=15)
    w_g = dg.GaussianWindow(np.array([0.2, 1.0]), traj_g.times[-1] + 0.25)
    rep_g = dg.monotonicity_audit(traj_g, w_g, rtol=rtol)
    metrics["reaper_max_violation"] = rep_g.max_violation
    checks["reaper_monotone"] = rep_g.verdict and rep_g.nonincreasing
    prod_traj = flow.product_evolve(traj_g, AffineLine((0.0, 0.0), (1.0, 0.0)))
    w_p = dg.GaussianWindow(np.array([0.2, 1.0, 0.0, 0.0]), traj_g.times[-1] + 0.25)
    rep_p = dg.monotonicity_audit(prod_traj, w_p, rtol=rtol)
    metrics["reaper_product_max_violation"] = rep_p.max_violation
    checks["reaper_product_monotone"] = rep_p.verdict and rep_p.nonincreasing
    # O(dt) certificates: reruns at comparable dt must agree this closely
    tolerances = {"circle_drop": 20.0 * dt, "circle_dissipation": 20.0 * dt,
                  "circle_mismatch": 0.02}
    return metrics, checks, tolerances


def scenario_hermite_spectrum(seed, outputs, *, max_degree=4):
    metrics, checks = {}, {}
    worst_sym = 0
    worst_grid = 0.0
    rows = []

    def on_grid(poly, axes):
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        return poly.evaluate(pts).reshape(grids[0].shape)

    for n in (1, 2):
        axes = [np.linspace(-3.0, 3.0, 41) for _ in range(n)]
        for elem in drift.hermite_basis(n, max_degree):
            resid = drift.drift_apply(elem.poly) + elem.poly.scale(
                Fraction(elem.degree, 2))
            worst_sym = max(worst_sym, len(resid.coeffs))
            rows.append((n, elem.multi_index, elem.degree, elem.eigenvalue))
            inner_axes, out = drift.drift_apply_grid(axes, on_grid(elem.poly, axes))
            worst_grid = max(worst_grid, float(np.max(np.abs(
                out + elem.eigenvalue * on_grid(elem.poly, inner_axes)))))
    metrics["symbolic_nonzero_residual_terms"] = worst_sym
    metrics["grid_eigen_residual"] = worst_grid
    checks["symbolic_exact"] = worst_sym == 0
    checks["grid_within_1e8"] = worst_grid < 1e-8
    if outputs:
        with open(os.path.join(outputs, "eigenvalue_table.csv"), "w") as fhd:
            fhd.write("n,multi_index,degree,eigenvalue\n")
            for n, k, d, ev in rows:
                fhd.write(f"{n},{'x'.join(map(str, k))},{d},{ev}\n")
    # pair basis structure
    pair = make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    basis, gram = drift.homogeneous_basis(pair, max_degree=1)
    deg1 = [b for b in basis if b.degree == 1]
    z = next(b for b in basis if b.label == "z")
    zt = next(b for b in basis if b.label == "z*theta")
    ip = drift.pair_inner(z, zt, 0.0)
    scale = drift.weighted_norm(z) * drift.weighted_norm(zt)
    metrics["pair_degree1_dimension"] = len(deg1)
    metrics["ztheta_z_inner"] = abs(ip) / scale
    checks["degree1_dim_2n"] = len(deg1) == 2 * pair.n
    checks["ztheta_orthogonal_z"] = abs(ip) < 1e-10 * scale
    if outputs:
        np.savetxt(os.path.join(outputs, "pair_gram.csv"), gram, delimiter=",")
    tolerances = {"grid_eigen_residual": 1e-8, "ztheta_z_inner": 1e-10}
    return metrics, checks, tolerances


def scenario_three_annulus(seed, outputs, *, n_mixtures=100):
    taus = np.arange(-10.0, 1.0)
    checks = {}
    ok = True
    for d in range(5):
        seq = drift.NormSequence(taus, -0.5 * d * taus + 0.3)
        for s in (0.5, 1.5, 2.5, 3.5, 4.5):
            rep = drift.three_annulus_classify(seq, s)
            want = "growing" if s < d else "decaying"
            ok &= rep.classification == want
    checks["homogeneous_classification"] = bool(ok)
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(n_mixtures):
        degs = rng.integers(0, 5, size=3)
        amps = rng.uniform(0.1, 2.0, size=3)
        norm_sq = sum(a * np.exp(-d * taus) for a, d in zip(amps, degs))
        seq = drift.NormSequence(taus, 0.5 * np.log(norm_sq))
        s = float(rng.uniform(0.1, 4.9))
        if abs(s - round(s)) < 1e-6:
            s += 0.05
        if drift.three_annulus_classify(seq, s).classification == "violation":
            violations += 1
    metrics = {"mixture_violations": violations, "n_mixtures": n_mixtures}
    checks["zero_violations"] = violations == 0
    if outputs:
        drift.NormSequence(taus, -0.5 * taus).write_csv(
            os.path.join(outputs, "sample_norm_sequence.csv"))
    return metrics, checks, {}


def scenario_grim_reaper_translator(seed, outputs, *, refine=3):
    # two sizes at least: the Richardson slopes compare neighbouring sizes
    if refine < 2:
        raise ConfigInvalid(f"grim-reaper-translator needs refine >= 2, got {refine!r}")
    sizes = [128 * 2 ** k for k in range(refine)]
    resids = []
    fits = []
    for n in sizes:
        prod, frame, _ = fx.make_grim_reaper_product(speed=1.0, extent=3.0, n=n)
        fit = dg.translator_fit(prod, frame)[0]
        resids.append(fit.residual)
        fits.append(fit)
    slopes = [float(np.log2(resids[k] / resids[k + 1])) for k in range(len(resids) - 1)]
    fit = fits[-1]
    metrics = {"residuals": resids, "richardson_slopes": slopes,
               "fit_a": fit.a, "fit_b": fit.b, "fit_kappa": fit.kappa,
               "velocity_residual": fit.velocity_residual,
               "b_times_kappa_fixture": fit.b * 1.0}
    checks = {"residual_small": resids[-1] < 1e-3,
              "richardson_slope": min(slopes) >= 1.8,
              # paper sign: w = a + b theta forces b*kappa = -1
              "b_kappa_identity": abs(fit.b * 1.0 + 1.0) < 1e-3,
              "velocity_identity": fit.velocity_residual < 1e-3}
    lows = []
    for n in (64, 128, 256):
        prod_c, frame_c = fx.make_circle_product(1.0, n)
        fc = dg.translator_fit(prod_c, frame_c)[0]
        lows.append(fc.residual / fc.rms_w)
    metrics["circle_residual_over_rms"] = lows
    checks["circle_not_translator"] = min(lows) >= 0.1
    tolerances = {"fit_b": 1e-6, "fit_a": 1e-6, "velocity_residual": 1e-6}
    return metrics, checks, tolerances


def scenario_caloric_identities(seed, outputs):
    metrics, checks = {}, {}
    # constants are caloric with zero residual on every fixture
    traj0 = fx.shrinking_circle_trajectory(1.0, 128, t1=0.05, dt=1e-3)
    sol0 = fh.solve_heat_on_flow(traj0, [np.ones(128)])
    metrics["constant_residual"] = float(np.max(sol0.residual_sup))
    checks["constant_caloric"] = metrics["constant_residual"] < 1e-12
    # coordinates on the shrinking circle: Richardson in h with dt ~ h^2
    sups = []
    for n in (64, 128, 256):
        dt = 2.0 * (2 * np.pi / n) ** 2
        traj = fx.shrinking_circle_trajectory(2.0, n, t1=0.3, dt=dt)
        # x at every time: plane 0 of the one curve's (2, T, N) planes
        sup, _ = fh.heat_residual(traj, [traj.planes(0, len(traj))[0][1][0]])
        sups.append(float(np.max(sup)))
    slopes = [float(np.log2(sups[k] / sups[k + 1])) for k in range(len(sups) - 1)]
    metrics["circle_coordinate_residuals"] = sups
    metrics["circle_coordinate_slopes"] = slopes
    checks["circle_coordinate_richardson"] = min(slopes) >= 1.8
    # static line: coordinates have zero residual
    line = fx.make_line(angle=0.5, extent=6.0, n=101)
    traj_l = flow.FlowTrajectory(np.linspace(0, 0.1, 11), [line] * 11)
    sup_l, _ = fh.heat_residual(traj_l, [traj_l.planes(0, 11)[0][1][0]])
    metrics["line_coordinate_residual"] = float(np.max(sup_l))
    checks["line_coordinate_caloric"] = metrics["line_coordinate_residual"] < 1e-10
    # on one material reaper per size: the coordinate ladder, the
    # beta + 2 t theta ladder (Lemma-style identity) and its product reduction
    sups_g, sups_b, hs = [], [], []
    for n in (101, 201, 401):
        h = 8.0 / (n - 1)
        dt = 0.5 * h * h
        traj = fx.grim_reaper_material_trajectory(1.0, extent=4.0, n=n,
                                                  t1=60 * dt, dt=dt)
        sup, _ = fh.heat_residual(traj, [traj.planes(0, len(traj))[0][1][1]], collar=4)
        sups_g.append(float(np.max(sup)))
        rep = fh.caloric_primitive(traj, collar=4)
        sups_b.append(float(np.max(rep.residual_sup)))
        hs.append(h)
        if n == 201:
            prod = flow.product_evolve(traj, AffineLine((0.0, 0.0), (1.0, 0.0)))
            rep_p = fh.caloric_primitive(prod, collar=4)
            metrics["beta_product_delta"] = float(np.max(np.abs(
                rep.residual_sup - rep_p.residual_sup)))
            checks["beta_product_additivity"] = metrics["beta_product_delta"] < 1e-12
    slopes_g = [float(np.log(sups_g[k] / sups_g[k + 1]) / np.log(2.0))
                for k in range(len(sups_g) - 1)]
    metrics["reaper_coordinate_residuals"] = sups_g
    checks["reaper_coordinate_richardson"] = min(slopes_g) >= 1.8
    slope_b = float(np.log(sups_b[0] / sups_b[2]) / np.log(hs[0] / hs[2]))
    metrics["beta_residuals"] = sups_b
    metrics["beta_richardson_slope"] = slope_b
    checks["beta_richardson"] = slope_b >= 1.8
    # uniqueness: bitwise determinism and O(dt) agreement under halving
    circle = partial(fx.shrinking_circle_trajectory, 1.0, 128, t1=0.1)
    f0 = [circle(t1=0.0).planes(0, 1)[0][1][1, 0]]   # y at t = 0
    outs = {dt: fh.solve_heat_on_flow(circle(dt=dt), f0) for dt in (2e-3, 1e-3, 5e-4)}
    bitwise = np.array_equal(outs[2e-3].values[0],
                             fh.solve_heat_on_flow(circle(dt=2e-3), f0).values[0])
    e1, e2 = [float(np.max(np.abs(outs[a].values[0][-1] - outs[b].values[0][-1])))
              for a, b in ((2e-3, 1e-3), (1e-3, 5e-4))]
    metrics["uniqueness_bitwise"] = bool(bitwise)
    metrics["dt_halving_errors"] = [e1, e2]
    metrics["dt_halving_ratio"] = e1 / e2
    checks["uniqueness_bitwise"] = bitwise
    checks["dt_halving_first_order"] = 1.5 <= e1 / e2 <= 2.8
    if outputs:
        outs[1e-3].write_csv(os.path.join(outputs, "heat_residuals.csv"))
    return metrics, checks, {"dt_halving_ratio": 0.2}


def scenario_linking_suite(seed, outputs, *, samples=400):
    graph = partial(fx.tilted_graph, lam=0.1, b=(1.0, -1.0), extent=2.0,
                    samples=samples)
    # the controls run in a forked child beside the transverse link; each
    # process builds its own graphs, so the caller holds none while it forks
    (metrics, checks), (s1, s2, rep) = fan_out(
        _call, [partial(_linking_controls, graph, seed),
                partial(transverse_link, graph, seed)])
    metrics = {"transverse_raw": rep.raw, "transverse_value": rep.value,
               "transverse_per_pole": rep.per_pole, **metrics}
    checks = {"transverse_link_one": rep.value == 1,
              "pole_independent": all(int(np.round(v)) == 1 for v in rep.per_pole),
              **checks}
    if outputs:
        s1.write_csv(os.path.join(outputs, "slice1.csv"))
        s2.write_csv(os.path.join(outputs, "slice2.csv"))
        with open(os.path.join(outputs, "linking.json"), "w") as fhd:
            json.dump(rep.to_dict(), fhd, sort_keys=True, indent=1)
    return metrics, checks, {"transverse_raw": 1e-6}


def _call(task):
    return task()


def transverse_link(graph, seed, radius=1.0, n_poles=5):
    """The slices by the sphere of the given radius of the transverse
    pair's graphs graph(0) and graph(1) and their link over n_poles poles.
    Each graph is sliced before the next is built, so at most one is held,
    and none by the Gauss sums."""
    s1, s2 = (lk.sphere_slice(graph(j), radius) for j in (0, 1))
    return s1, s2, lk.linking_number(s1, s2, seed=seed, n_poles=n_poles)


def _linking_controls(graph, seed):
    """The linking suite's checks besides the transverse link: the graphs
    graph(0) and graph(1) of the transverse pair meet, parallel translates
    and Hopf fibers link as expected and the half-space separation holds
    exactly for opposite b."""
    metrics, checks = {}, {}
    checks["linked_slices_intersect"] = (
        lk.surfaces_intersect(graph(0), graph(1)) is not None)
    # parallel translates: unlinked
    mp, frame_p, _ = fx.make_tilted_pair(lam=0.05, b=(1.0, 1.0),
                                         extent=2.0, samples=240)
    pa = np.asarray(mp[0])
    sa = lk.sphere_slice(pa, 1.0)
    sb = lk.sphere_slice(pa + 0.4 * frame_p.e_w, 1.0)
    rep0 = lk.linking_number(sa, sb, seed=seed)
    metrics["parallel_value"] = rep0.value
    checks["parallel_unlinked"] = rep0.value == 0
    # Hopf fibers: +-1 per orientation
    f1, f2 = fx.make_hopf_fibers(n=128)
    hopf = lk.linking_number(f1, f2, R=1.0, seed=seed)
    hopf_rev = lk.linking_number(f1[::-1].copy(), f2, R=1.0, seed=seed)
    metrics["hopf_value"] = hopf.value
    metrics["hopf_reversed"] = hopf_rev.value
    checks["hopf_unit"] = abs(hopf.value) == 1 and hopf_rev.value == -hopf.value
    # half-space separation
    lam = 0.2
    mt, frame_t, _ = fx.make_tilted_pair(lam=lam, b=(1.0, -1.0),
                                         extent=3.4, samples=120)
    sep = lk.halfspace_separation(mt[0], mt[1], frame_t,
                                  phi=np.zeros(4), lam=lam, b0=0.0)
    spacing = 2 * 3.4 / 119
    metrics["separation_margins"] = sep.margins
    checks["separation_holds"] = sep.holds and all(
        lam / 2 - 1e-12 <= m <= lam / 2 + lam * spacing
        for m in sep.margins.values())
    me, frame_e, _ = fx.make_tilted_pair(lam=lam, b=(1.0, 1.0),
                                         extent=3.4, samples=120)
    sep_eq = lk.halfspace_separation(me[0], me[1], frame_e,
                                     phi=np.zeros(4), lam=lam, b0=1.0)
    checks["equal_b_fails"] = not sep_eq.holds
    return metrics, checks


def ladder_rung(lam, base_speed, s1, dt):
    """The curve factor of one blow-down-ladder rung: the sliding grim reaper
    of speed base_speed / lam from t = -1 to s1."""
    c = base_speed / lam
    lo, hi = max(c * abs(s1) - 8.0, 0.5), c + 10.0
    # resolve the tip (curvature ~ c), the window band, and the arms
    s_half = np.unique(np.concatenate([np.arange(0.0, 6.0 / c, 0.2 / c),
                                       np.arange(6.0 / c, lo, 0.4),
                                       np.arange(lo, hi, 0.04), [hi]]))
    s_half = s_half[np.concatenate([[True], np.diff(s_half) > 1e-9])]
    s_grid = np.concatenate([-s_half[::-1][:-1], s_half])
    return fx.grim_reaper_sliding_trajectory(c, s_grid, t0=-1.0, t1=s1, dt=dt)


def _rung_height(lam, base_speed, s1, dt) -> float:
    """The largest sup |b_bar z - h| of the approximate caloric height on the
    product of one blow-down-ladder rung with a static line."""
    traj = ladder_rung(lam, base_speed, s1, dt)
    prod_traj = flow.product_evolve(traj, AffineLine((0.0, 0.0), (1.0, 0.0)))
    _, frame, _ = fx.make_grim_reaper_product(speed=1.0, extent=1.0, n=8)
    rep = fh.approx_height_solution(prod_traj, s1=s1, frame=frame)
    return max(rep.sup_difference)


def _hausdorff_rung(lam, base_speed):
    """Hausdorff distance on B_1 at t = -1 between the rescaled product of
    one rung and its limiting (multiplicity-two) plane configuration."""
    c = base_speed / lam
    # fine sampling where the unit ball sits (arclength ~ c from the tip)
    s_half = np.unique(np.concatenate([np.arange(0.0, max(c - 3.0, 0.0), 0.4),
                                       np.arange(max(c - 3.0, 0.0), c + 4.0,
                                                 0.02)]))
    s_grid = np.concatenate([-s_half[::-1][:-1], s_half])
    curve = fx.grim_reaper_point(s_grid, c) + np.array([0.0, -c])
    g = np.linspace(-1.0, 1.0, 81)
    # product points (p, q, 0) in B_1, |p|^2 + q^2 <= 1, q-major
    qi, pi = np.nonzero(np.linalg.norm(curve, axis=1) ** 2 + (g * g)[:, None] <= 1.0)
    pts4 = np.column_stack([curve[pi], g[qi], np.zeros(len(qi))])
    # the limit plane's points (0, y, q, 0) in B_1, q-major
    Q, Y = np.meshgrid(g, g, indexing="ij")
    inside = Y * Y + Q * Q <= 1.0
    zero = np.zeros(np.count_nonzero(inside))
    return hausdorff_distance(pts4, np.column_stack([zero, Y[inside], Q[inside], zero]))


def scenario_blow_down_ladder(seed, outputs, *, lambdas=[0.2, 0.1, 0.05],
                              base_speed=4.0, s1=-0.4, dt=5e-4):
    if not lambdas:
        raise ConfigInvalid("blow-down-ladder needs at least one lambda")
    metrics, checks = {}, {}
    rungs = [(lam, base_speed, s1, dt) for lam in lambdas]
    # a forked child marches the heaviest rung (vertices x times), where its
    # temporaries page-fault far less than in a long-running caller; the
    # caller computes the Hausdorff ladder and the light rungs meanwhile
    cost = [len(t) * t.states[0].n_vertices for t in (ladder_rung(*r) for r in rungs)]
    heaviest = cost.index(max(cost))
    light = [r for i, r in enumerate(rungs) if i != heaviest]

    def mine():
        return ([_hausdorff_rung(lam, base_speed) for lam in lambdas],
                [_rung_height(*r) for r in light])

    top, (haus, sups) = fan_out(_call, [partial(_rung_height, *rungs[heaviest]),
                                        mine])
    sups.insert(heaviest, top)
    metrics["hausdorff_ladder"] = haus
    checks["hausdorff_decreasing"] = all(a > b for a, b in zip(haus, haus[1:]))
    metrics["height_sup_ladder"] = sups
    checks["height_sup_decreasing"] = all(a > b for a, b in zip(sups, sups[1:]))
    if outputs:
        with open(os.path.join(outputs, "ladders.json"), "w") as fhd:
            json.dump({"lambdas": lambdas, "hausdorff": haus,
                       "height_sup": sups}, fhd, sort_keys=True, indent=1)
    return metrics, checks, {}


SCENARIOS = {
    "plane-pair-density": scenario_plane_pair_density,
    "huisken-monotonicity": scenario_huisken_monotonicity,
    "hermite-spectrum": scenario_hermite_spectrum,
    "three-annulus": scenario_three_annulus,
    "grim-reaper-translator": scenario_grim_reaper_translator,
    "caloric-identities": scenario_caloric_identities,
    "linking-suite": scenario_linking_suite,
    "blow-down-ladder": scenario_blow_down_ladder,
}

# acceptance criterion number -> scenario name (exactly one each)
CRITERION_SCENARIOS = {
    1: "plane-pair-density",
    2: "huisken-monotonicity",
    3: "hermite-spectrum",
    4: "three-annulus",
    5: "grim-reaper-translator",
    6: "caloric-identities",
    7: "linking-suite",
    8: "blow-down-ladder",
}


def _jsonable(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return repr(obj)


def run_scenario(config: dict, out_dir=None) -> dict:
    """Execute a scenario config; returns (and optionally writes) the bundle.

    The summary embeds the config hash; byte-identical reruns are
    guaranteed for identical config + seed (no timestamps are written).
    """
    config = validate_config(dict(config))
    name = config["scenario"]
    seed = config["seed"]
    params = dict(config["params"])
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    metrics, checks, tolerances = SCENARIOS[name](seed, out_dir, **params)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "scenario": name,
        "seed": seed,
        "params": params,
        "config_hash": config_hash(config),
        "metrics": _jsonable(metrics),
        "checks": {k: bool(v) for k, v in checks.items()},
        "tolerances": _jsonable(tolerances),
        "pass": bool(all(checks.values())),
    }
    if out_dir is not None:
        with open(os.path.join(out_dir, "summary.json"), "w") as fhd:
            json.dump(summary, fhd, sort_keys=True, indent=1)
    return summary


def compare_runs(dir_a, dir_b) -> dict:
    """Diff two bundles of the same scenario; flags drift beyond tolerances.

    Numbers differ by |a - b| (a NaN on one side only by inf) and are flagged
    beyond their metric's tolerance. Any other change is flagged with
    tolerance 0: a flipped bool, a changed string, a list of another length,
    a value of another type, or a key present in only one bundle. The
    checks are compared as well, under keys ``checks.<name>``.
    """
    with open(os.path.join(dir_a, "summary.json")) as fhd:
        a = json.load(fhd)
    with open(os.path.join(dir_b, "summary.json")) as fhd:
        b = json.load(fhd)
    if a.get("scenario") != b.get("scenario") or \
            a.get("schema_version") != b.get("schema_version"):
        raise SchemaMismatch(
            f"cannot compare {a.get('scenario')!r} with {b.get('scenario')!r}")
    tol = a.get("tolerances", {})
    deltas = {}
    flagged = {}

    def walk(key, va, vb):
        if _is_number(va) and _is_number(vb):
            d = abs(float(va) - float(vb)) if va != vb else 0.0
            if d != d:   # NaN on one side or both
                d = 0.0 if va != va and vb != vb else float("inf")
            if d > 0:
                deltas[key] = d
            t = tol.get(key.split(".")[0], 0.0)
            if d > t:
                flagged[key] = {"a": va, "b": vb, "tolerance": t}
        elif isinstance(va, list) and isinstance(vb, list) and len(va) == len(vb):
            for i, (xa, xb) in enumerate(zip(va, vb)):
                walk(f"{key}.{i}", xa, xb)
        elif isinstance(va, dict) and isinstance(vb, dict):
            walk_keys(f"{key}.", va, vb)
        elif type(va) is not type(vb) or va != vb:
            flagged[key] = {"a": va, "b": vb, "tolerance": 0.0}

    def walk_keys(prefix, da, db):
        for k in sorted(set(da) | set(db)):
            if k in da and k in db:
                walk(prefix + k, da[k], db[k])
            else:
                flagged[prefix + k] = {"a": da.get(k), "b": db.get(k),
                                       "tolerance": 0.0}

    walk_keys("", a["metrics"], b["metrics"])
    walk_keys("checks.", a.get("checks", {}), b.get("checks", {}))
    return {"scenario": a["scenario"], "deltas": deltas, "flagged": flagged,
            "identical": not deltas and not flagged}


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)
