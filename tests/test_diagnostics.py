"""Gaussian diagnostics against closed forms and quadrature oracles."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from lmcflab import diagnostics as dg
from lmcflab import fixtures as fx
from lmcflab import flow
from lmcflab import geometry as geo
from lmcflab.errors import (FieldShapeMismatch, NonFiniteVertex, ScanTooLarge,
                            WindowInPast)

CIRCLE_ENTROPY = np.sqrt(2.0 * np.pi / np.e)  # ~ 1.5203


def circle_density_oracle(r, x0, delta):
    """1-d quadrature of the kernel over the exact circle of radius r."""

    def integrand(phi):
        p = np.array([r * np.cos(phi), r * np.sin(phi)])
        return np.exp(-np.sum((p - x0) ** 2) / (4 * delta)) * r

    val, _ = quad(integrand, 0.0, 2.0 * np.pi, epsabs=1e-13, epsrel=1e-13)
    return val / np.sqrt(4.0 * np.pi * delta)


def test_window_in_past():
    w = dg.GaussianWindow(np.zeros(2), t0=1.0)
    with pytest.raises(WindowInPast):
        w.scale(1.0)


def test_line_density_one():
    line = fx.make_line(angle=0.4, extent=30.0, n=601)
    w = dg.GaussianWindow(np.zeros(2), t0=1.0)
    val = dg.gaussian_density_ratio(line, w, t=0.0)
    assert abs(val - 1.0) < 1e-6


def test_plane_through_center_density_one():
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    plane = pair.planes[0].as_product(extent=30.0, samples=601)
    w = dg.GaussianWindow(np.zeros(4), t0=1.0)
    val = dg.gaussian_density_ratio(plane, w, t=0.0)
    assert abs(val - 1.0) < 1e-6


def test_plane_pair_density_two():
    for m in (0, 1):
        pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), m)
        state = [p.as_product(extent=30.0, samples=601) for p in pair.planes]
        w = dg.GaussianWindow(np.zeros(4), t0=1.0)
        val = dg.gaussian_density_ratio(state, w, t=0.0)
        assert abs(val - 2.0) < 1e-6
        # analytic path agrees
        assert abs(dg.gaussian_density_ratio(pair, w, t=0.0) - 2.0) < 1e-12


def test_circle_density_against_oracle_and_monotone():
    # window at the extinction spacetime point of the shrinking circle
    def gen(t):
        return fx.make_circle(np.sqrt(-2.0 * t), 256)

    w = dg.GaussianWindow(np.zeros(2), t0=0.0)
    vals = []
    h2 = (2 * np.pi / 256) ** 2
    for t in (-0.5, -0.3, -0.1):
        state = gen(t)
        val = dg.gaussian_density_ratio(state, w, t=t)
        oracle = circle_density_oracle(np.sqrt(-2.0 * t), np.zeros(2), -t)
        # module integrates the polygon exactly; oracle the smooth circle
        assert abs(val - oracle) < 0.2 * h2
        vals.append(val)
        # self-shrinker: density constant = sqrt(2 pi / e) up to discretization
        assert abs(val - CIRCLE_ENTROPY) < 1e-3
    assert vals[0] >= vals[-1] - 1e-9


def test_offcenter_circle_density_decreasing():
    def gen(t):
        return fx.make_circle(np.sqrt(1.0 - 2.0 * t), 256)

    w = dg.GaussianWindow(np.array([0.3, 0.0]), t0=0.9)
    vals = [dg.gaussian_density_ratio(gen(t), w, t=t) for t in (0.0, 0.2, 0.4)]
    assert vals[0] > vals[1] > vals[2]


def test_entropy_line():
    line = fx.make_line(angle=1.0, extent=25.0, n=501)
    rep = dg.entropy(line)
    assert abs(rep.value - 1.0) < 1e-4


def test_entropy_circle():
    # oracle: golden-section over r of the closed form for the exact circle
    from scipy.optimize import minimize_scalar
    res = minimize_scalar(lambda lr: -circle_density_oracle(1.0, np.zeros(2), np.exp(lr)),
                          bounds=(-6, 3), method="bounded")
    oracle = -res.fun
    assert abs(oracle - CIRCLE_ENTROPY) < 1e-9

    circ = fx.make_circle(1.0, 256)
    rep = dg.entropy(circ)
    assert abs(rep.value - CIRCLE_ENTROPY) < 1e-3
    assert np.linalg.norm(rep.x0) < 0.05
    assert abs(rep.r - 0.5) < 0.1


def test_entropy_two_lines():
    state = fx.make_line_pair(0.5, -0.5, extent=25.0, n=501)
    rep = dg.entropy(state)
    assert abs(rep.value - 2.0) < 1e-3
    assert np.linalg.norm(rep.x0) < 0.05


def test_entropy_scale_equivariance():
    circ = fx.make_circle(1.0, 128)
    big = flow.scale_state(circ, 7.0)
    r1 = dg.entropy(circ)
    r2 = dg.entropy(big)
    assert abs(r1.value - r2.value) < 1e-8


def test_entropy_refuses_large_crossing_scan():
    # 10k segments with themselves are 1e8 pairs: refused before allocating
    circ = fx.make_circle(1.0, 10_000)
    tracemalloc.start()
    try:
        with pytest.raises(ScanTooLarge):
            dg.entropy(circ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_crossing_limit_counts_segment_pairs(monkeypatch):
    closed, line = fx.make_circle(1.0, 64), fx.make_line(angle=0.3, extent=2.0, n=33)
    monkeypatch.setattr(dg, "CROSSING_MAX_PAIRS", 64 * 64)
    dg._crossing_points([closed, line])
    monkeypatch.setattr(dg, "CROSSING_MAX_PAIRS", 64 * 64 - 1)
    with pytest.raises(ScanTooLarge):
        dg._crossing_points([closed, line])
    monkeypatch.setattr(dg, "CROSSING_MAX_PAIRS", 32 * 32)
    dg._crossing_points([line])
    monkeypatch.setattr(dg, "CROSSING_MAX_PAIRS", 32 * 32 - 1)
    with pytest.raises(ScanTooLarge):
        dg._crossing_points([line])


def per_hit_crossings(curves):
    """The crossing points of _crossing_points, each from its own segment
    pair's parameter t, scanned one pair at a time."""
    pts = []
    for i, a in enumerate(curves):
        for b in curves[i:]:
            pa, qa = geo.edge_ends(a.vertices, a.closed)
            pb, qb = geo.edge_ends(b.vertices, b.closed)
            hits = []
            for i0 in range(len(pa)):
                for j0 in range(i0 + 2 if a is b else 0, len(pb)):
                    d1, d2, dp = qa[i0] - pa[i0], qb[j0] - pb[j0], pb[j0] - pa[i0]
                    denom = d1[0] * d2[1] - d1[1] * d2[0]
                    if abs(denom) > 1e-15:
                        t = (dp[0] * d2[1] - dp[1] * d2[0]) / denom
                        u = (dp[0] * d1[1] - dp[1] * d1[0]) / denom
                        if 1e-12 < t < 1 - 1e-12 and 1e-12 < u < 1 - 1e-12:
                            hits.append(pa[i0] + t * d1)
            pts += hits[:8]
    return pts


def test_crossing_points_equal_the_per_hit_formula():
    # a self-crossing curve, a wave crossing it 18 times (8 kept) and a circle
    phi = np.linspace(0.0, 2.0 * np.pi, 121, endpoint=False)
    lissajous = geo.DiscreteCurve(np.stack([np.sin(3 * phi), np.sin(2 * phi)], axis=1),
                                  closed=True)
    x = np.linspace(-1.2, 1.2, 81)
    wave = geo.DiscreteCurve(np.stack([x, 0.1 + 0.5 * np.sin(15.0 * x)], axis=1))
    curves = [lissajous, wave, fx.make_circle(0.7, 48)]
    got, want = dg._crossing_points(curves), per_hit_crossings(curves)
    assert len(got) == len(want) == 22
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    hit, t, u = flow.segments_intersect(np.array([[0.0, 0.0]]), np.array([[2.0, 0.0]]),
                                        np.array([[1.0, -1.0]]), np.array([[1.0, 3.0]]))
    assert (hit.tolist(), t.tolist(), u.tolist()) == ([True], [0.5], [0.25])


def test_density_between_one_and_entropy():
    circ = fx.make_circle(1.0, 256)
    ent = dg.entropy(circ).value
    for t0, x0 in ((0.5, circ.vertices[0]), (0.2, circ.vertices[31])):
        w = dg.GaussianWindow(x0, t0=t0)
        val = dg.gaussian_density_ratio(circ, w, t=0.0)
        assert 1.0 - 1e-6 <= val <= ent + 1e-6


def test_monotonicity_static_plane_constant():
    line = fx.make_line(angle=0.3, extent=25.0, n=501)
    traj = flow.FlowTrajectory([0.0, 0.1, 0.2], [line] * 3)
    w = dg.GaussianWindow(np.zeros(2), t0=0.5)
    rep = dg.monotonicity_audit(traj, w)
    assert rep.verdict
    assert np.max(np.abs(rep.values - 1.0)) < 1e-6
    assert np.max(rep.dissipations) < 1e-10


def test_monotonicity_circle_decrement_matches_dissipation():
    n = 256
    circ = fx.make_circle(1.0, n)
    dt = 5e-4
    steps = 400
    traj = flow.evolve(circ, dt, steps, record_every=10)
    w = dg.GaussianWindow(np.array([0.3, 0.0]), t0=0.8)
    rep = dg.monotonicity_audit(traj, w)
    assert rep.verdict, f"max violation {rep.max_violation}"
    assert rep.nonincreasing
    drop = rep.values[0] - rep.values[-1]
    diss = sum(r[2] for r in rep.rows)
    assert drop > 1e-3
    assert abs(drop - diss) / drop < 0.02


def test_monotonicity_caloric_coordinate_constant():
    # f = coordinate on a static plane through the centre: equality case
    line = fx.make_line(angle=0.3, extent=25.0, n=501)
    traj = flow.FlowTrajectory([0.0, 0.1, 0.2], [line] * 3)
    w = dg.GaussianWindow(np.zeros(2), t0=0.5)
    f_vals = [np.tile(line.vertices @ np.array([1.0, 0.0]), (3, 1))]
    res_vals = [np.zeros((3, line.n_vertices))]
    rep = dg.monotonicity_audit(traj, w, f_values=f_vals, residual_values=res_vals)
    assert np.max(np.abs(rep.values - rep.values[0])) < 1e-8


@pytest.mark.parametrize("shape", [(3, 50), (2, 51), (4, 51)])
def test_monotonicity_audit_refuses_mis_shaped_fields(shape):
    # a 51-vertex line at 3 times takes one (3, 51) array per field: a short
    # row or a missing time used to raise IndexError, an extra time passed
    line = fx.make_line(angle=0.3, extent=25.0, n=51)
    traj = flow.FlowTrajectory([0.0, 0.1, 0.2], [line] * 3)
    w = dg.GaussianWindow(np.zeros(2), t0=0.5)
    good, bad = [np.ones((3, 51))], [np.ones(shape)]
    with pytest.raises(FieldShapeMismatch):
        dg.monotonicity_audit(traj, w, f_values=bad, residual_values=good)
    with pytest.raises(FieldShapeMismatch):
        dg.monotonicity_audit(traj, w, f_values=good, residual_values=bad)


def test_translator_fit_plane_containing_ez():
    # plane containing e_z: w and theta constant, b = 0, tiny residual
    prod, frame = fx.make_circle_product(1.0, 64)
    line1 = fx.make_line(angle=0.0, extent=5.0, n=41)
    state = geo.ProductLagrangian(line1, geo.AffineLine((0, 0), (1.0, 0.0)))
    fits = dg.translator_fit(state, frame)
    assert len(fits) == 1
    assert not fits[0].degenerate
    assert abs(fits[0].b) < 1e-10
    assert fits[0].residual < 1e-12


def test_translator_fit_grim_reaper_product():
    prod, frame, _ = fx.make_grim_reaper_product(speed=1.0, extent=3.0, n=512)
    fits = dg.translator_fit(prod, frame)
    fit = fits[0]
    h = np.max(prod.factor1.edge_lengths())
    assert fit.residual < 5.0 * h * h
    # paper sign: w = a + b*theta with b = -1/kappa, so b*kappa = -1
    assert abs(fit.b * 1.0 + 1.0) < 1e-3
    assert abs(fit.kappa - 1.0) < 1e-3
    assert fit.velocity_residual < 1e-3


def test_translator_fit_grim_reaper_richardson():
    resids = []
    for n in (128, 256, 512):
        prod, frame, _ = fx.make_grim_reaper_product(speed=1.0, extent=3.0, n=n)
        resids.append(dg.translator_fit(prod, frame)[0].residual)
    slope = np.log2(resids[0] / resids[1])
    slope2 = np.log2(resids[1] / resids[2])
    assert slope >= 1.8 and slope2 >= 1.8


def test_translator_fit_circle_product_rejected():
    prod, frame = fx.make_circle_product(1.0, 128)
    fit = dg.translator_fit(prod, frame)[0]
    assert fit.residual >= 0.1 * fit.rms_w


def grid_translator_fit(state, frame):
    """translator_fit on whole (N1, N2, 4) grids of points, tangents and
    mean curvature: the formula before the row blocks, kept as the oracle."""
    fits = []
    for comp in geo.as_components(state):
        if isinstance(comp, geo.ProductLagrangian):
            f1, f2 = comp.factor1, comp.factor2
            w = geo._factor_grid(f1.vertices, f2.vertices) @ frame.e_w
            th, wt = comp.angle_grid(), comp.weight_grid()
            t1, t2 = f1.tangents(), f2.tangents()
            T1 = geo._factor_grid(t1, np.zeros_like(t2))
            T2 = geo._factor_grid(np.zeros_like(t1), t2)
            ez = frame.e_z
            ez_perp = (ez - np.einsum("ijk,k->ij", T1, ez)[:, :, None] * T1
                       - np.einsum("ijk,k->ij", T2, ez)[:, :, None] * T2)
            H = geo._factor_grid(geo.mean_curvature(f1), np.zeros_like(f2.vertices))
            mask = np.outer(f1.interior_mask(), f2.interior_mask()).ravel()
            w, th, wt = w.ravel()[mask], th.ravel()[mask], wt.ravel()[mask]
            H, ez_perp = H.reshape(-1, 4)[mask], ez_perp.reshape(-1, 4)[mask]
        else:
            t = comp.tangents()
            ez = frame.e_z[0:2]
            mask = comp.interior_mask()
            w = (comp.vertices @ frame.e_w[0:2])[mask]
            th = geo.lagrangian_angle(comp)[mask]
            wt = comp.dual_lengths()[mask]
            H = geo.mean_curvature(comp)[mask]
            ez_perp = (ez - (t @ ez)[:, None] * t)[mask]
        wsum = wt.sum()
        th_mean = (wt * th).sum() / wsum
        w_mean = (wt * w).sum() / wsum
        th_var = (wt * (th - th_mean) ** 2).sum() / wsum
        w_var = (wt * (w - w_mean) ** 2).sum() / wsum
        rms_w = float(np.sqrt((wt * w ** 2).sum() / wsum))
        if np.sqrt(th_var) < 1e-9 * (1.0 + abs(th_mean)):
            degenerate = np.sqrt(w_var) > 1e-9 * (1.0 + abs(w_mean))
            fits.append(dg.TranslatorFit(
                getattr(comp, "component_id", 0), float(w_mean),
                float("nan") if degenerate else 0.0, float(np.sqrt(w_var)),
                rms_w, None, None, degenerate=degenerate))
            continue
        b = float((wt * (th - th_mean) * (w - w_mean)).sum()
                  / (wt * (th - th_mean) ** 2).sum())
        a = float(w_mean - b * th_mean)
        resid = float(np.sqrt((wt * (w - a - b * th) ** 2).sum() / wsum))
        kappa = vel_res = None
        if abs(b) > 1e-12:
            kappa = -1.0 / b
            dev = H - kappa * ez_perp
            num = (wt * np.einsum("ij,ij->i", dev, dev)).sum()
            den = (wt * np.einsum("ij,ij->i", H, H)).sum() + 1e-300
            vel_res = float(np.sqrt(num / den))
        fits.append(dg.TranslatorFit(getattr(comp, "component_id", 0), a, b,
                                     resid, rms_w, kappa, vel_res))
    return fits


def _translator_cases():
    """The grim-reaper-translator scenario's six products, the plane that
    contains e_z and a bare reaper curve."""
    for n in (128, 256, 512):
        prod, frame, _ = fx.make_grim_reaper_product(speed=1.0, extent=3.0, n=n)
        yield f"reaper-{n}", prod, frame
    for n in (64, 128, 256):
        prod, frame = fx.make_circle_product(1.0, n)
        yield f"circle-{n}", prod, frame
    line1 = fx.make_line(angle=0.0, extent=5.0, n=41)
    yield ("plane", geo.ProductLagrangian(line1, geo.AffineLine((0, 0), (1.0, 0.0))),
           frame)
    prod, frame, _ = fx.make_grim_reaper_product(speed=1.0, extent=3.0, n=200)
    yield "bare-curve", prod.factor1, frame


@pytest.mark.parametrize("rows", [1, 7, "default", "N1"])
def test_translator_fit_equals_the_grid_formula(monkeypatch, rows):
    for name, state, frame in _translator_cases():
        n1 = getattr(state, "factor1", state).n_vertices
        if rows != "default":
            monkeypatch.setattr(dg, "FIT_ROWS", n1 if rows == "N1" else rows)
        got = [repr(dataclasses.astuple(f)) for f in dg.translator_fit(state, frame)]
        want = [repr(dataclasses.astuple(f)) for f in grid_translator_fit(state, frame)]
        assert got == want, name


def test_translator_fit_holds_no_grid_of_four_vectors():
    prod, frame, _ = fx.make_grim_reaper_product(speed=1.0, extent=3.0, n=512)
    tracemalloc.start()
    try:
        dg.translator_fit(prod, frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # whole (512, 97, 4) grids took 13.1 MiB; the per-point scalars are
    # about 0.4 MiB an array
    assert peak < 4 * 2**20


def test_growth_certificate_guard():
    line = fx.make_line(angle=0.0, extent=10.0, n=101)
    vals = line.vertices[:, 0] ** 2
    with pytest.raises(dg.GrowthUnbounded):
        dg.check_polynomial_growth(vals, line.vertices.T, degree=1, bound=0.5)
    c = dg.check_polynomial_growth(vals, line.vertices.T, degree=2, bound=None)
    assert c <= 1.0 + 1e-12


def test_density_scale_equivariance():
    # density is invariant under parabolic rescaling of state and window
    circ = fx.make_circle(1.0, 128)
    w = dg.GaussianWindow(np.array([0.2, 0.1]), t0=0.7)
    base = dg.gaussian_density_ratio(circ, w, t=0.0)
    for lam in (0.5, 3.0):
        scaled = flow.scale_state(circ, lam)
        w_scaled = dg.GaussianWindow(lam * w.x0, t0=lam * lam * 0.7)
        val = dg.gaussian_density_ratio(scaled, w_scaled, t=0.0)
        assert abs(val - base) < 1e-8


def test_nan_vertex_never_reaches_the_gaussian_mass():
    # such a curve used to build, and its Gaussian mass at the origin read 0.0
    with pytest.raises(NonFiniteVertex):
        geo.DiscreteCurve([[0.0, 0.0], [np.nan, 1.0], [1.0, 0.0]])
    with pytest.raises(NonFiniteVertex):
        geo.DiscreteCurve([[0.0, 0.0], [np.inf, 1.0], [1.0, 0.0]])
    curve = geo.DiscreteCurve([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]])
    assert dg.edge_gaussian_mass(curve, np.zeros(2), 0.25) > 0.0
