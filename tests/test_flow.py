"""Flow engine against exact solutions: circles, grim reapers, rescalings."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from lmcflab import flow
from lmcflab import fixtures as fx
from lmcflab import geometry as geo
from lmcflab.errors import (NonFiniteVertex, RangeError, ScanTooLarge,
                            SolverFailure, StabilityViolation, TimeGridMismatch)
from lmcflab.flow import SingularCollapse


def circle_radius_oracle(r0, t):
    # exact ODE r' = -1/r  =>  r(t) = sqrt(r0^2 - 2t)
    return np.sqrt(r0 * r0 - 2.0 * t)


def test_line_static_both_schemes():
    line = fx.make_line(angle=0.3, extent=4.0, n=65)
    h = line.edge_lengths().min()
    for scheme in ("explicit", "semi_implicit"):
        out = flow.step_flow(line, 0.3 * h * h, scheme=scheme)
        assert np.max(np.abs(out.vertices - line.vertices)) < 1e-12


def test_explicit_stability_guard():
    circ = fx.make_circle(1.0, 64)
    h = circ.edge_lengths().min()
    with pytest.raises(StabilityViolation):
        flow.step_flow_explicit(circ, 0.5 * h * h)


@pytest.mark.parametrize("scheme", ["explicit", "semi_implicit"])
def test_circle_radius_law(scheme):
    n = 256
    circ = fx.make_circle(1.0, n)
    h = 2 * np.pi / n
    dt = h * h / 4
    # explicit CFL: dt <= 0.4 h_min(t)^2 must hold down to the final radius
    t_end = 0.1 if scheme == "explicit" else 0.2
    steps = int(round(t_end / dt))
    traj = flow.evolve(circ, dt, steps, scheme=scheme, record_every=steps)
    final = flow.as_components(traj.states[-1])[0]
    r_num = np.mean(np.linalg.norm(final.vertices, axis=1))
    r_exact = circle_radius_oracle(1.0, traj.times[-1])
    assert abs(r_num - r_exact) / r_exact < 1e-3


def test_grim_reaper_translates():
    # pinned ends lag by t*erfc(ds/sqrt(4t)); pad arms and trim the collar
    n, extent, trim = 801, 5.0, 2.5
    curve, _ = fx.make_grim_reaper(speed=1.0, extent=extent, n=n)
    dt = 2e-4
    steps = 500
    traj = flow.evolve(curve, dt, steps, record_every=steps)
    final = flow.as_components(traj.states[-1])[0]
    t_end = traj.times[-1]
    # the exact evolution is translation by t * e_y; compare as graphs over x
    x = final.vertices[:, 0]
    y_exact = -np.log(np.cos(x)) + t_end
    mask = np.abs(np.linspace(-extent, extent, n)) < extent - trim
    err = np.max(np.abs(final.vertices[:, 1] - y_exact)[mask])
    h = np.max(curve.edge_lengths())
    assert err < 10.0 * (h * h + dt)


def test_length_decreases():
    circ = fx.make_circle(1.0, 128)
    traj = flow.evolve(circ, 1e-3, 20)
    lengths = [flow.as_components(s)[0].length() for s in traj.states]
    assert all(l2 < l1 for l1, l2 in zip(lengths, lengths[1:]))


def test_parabolic_rescale_identity_and_circle_law():
    circ = fx.make_circle(1.0, 64)
    traj = flow.evolve(circ, 1e-3, 10, t0=-0.5)
    same = flow.parabolic_rescale(traj, 1.0)
    assert np.array_equal(same.times, traj.times)
    assert np.allclose(flow.as_components(same.states[0])[0].vertices,
                       circ.vertices)
    doubled = flow.parabolic_rescale(traj, 2.0)
    assert np.allclose(doubled.times, 4.0 * traj.times)
    v0 = flow.as_components(doubled.states[0])[0].vertices
    assert np.allclose(np.linalg.norm(v0, axis=1), 2.0, atol=1e-12)


def test_parabolic_rescale_scales_curvature():
    circ = fx.make_circle(1.0, 64)
    traj = flow.FlowTrajectory([-1.0, -0.5], [circ, circ])
    lam = 3.0
    out = flow.parabolic_rescale(traj, lam)
    H = geo.mean_curvature(flow.as_components(out.states[0])[0])
    assert np.allclose(np.linalg.norm(H, axis=1), 1.0 / lam, atol=1e-12)


def test_to_rescaled_self_shrinking_circle_static():
    # circle with r^2 = -2t becomes the static circle of radius sqrt(2)
    def gen(t):
        return fx.make_circle(np.sqrt(-2.0 * t), 64)

    times = -np.exp(-np.arange(-2.0, 0.01, 0.005))
    traj = flow.AnalyticTrajectory(times, gen)
    resc = flow.to_rescaled(traj, tau_min=-1.9, tau_max=-0.1, dtau=0.1)
    assert resc.mode == "rescaled"
    for s in resc.states:
        r = np.linalg.norm(flow.as_components(s)[0].vertices, axis=1)
        assert np.max(np.abs(r - np.sqrt(2.0))) < 1e-10
    # self-shrinker: rescaled normal velocity residual is discretization noise
    assert resc.metadata["rescaled_velocity_residual"] < 1e-6


def test_to_rescaled_static_cone_is_static():
    line = fx.make_line(angle=0.7, extent=8.0, n=65)
    traj = flow.AnalyticTrajectory(-np.exp(-np.arange(0.0, 2.01, 0.05)),
                                   lambda t: line)
    resc = flow.to_rescaled(traj, dtau=0.25)
    final = flow.as_components(resc.states[-1])[0]
    th = geo.lagrangian_angle(final)
    assert np.allclose(th, 0.7, atol=1e-12)


def test_to_rescaled_range_error():
    circ = fx.make_circle(1.0, 64)
    traj = flow.FlowTrajectory([-1.0, -0.5], [circ, circ])
    with pytest.raises(RangeError, match="not covered"):
        flow.to_rescaled(traj, tau_min=-5.0, tau_max=0.5)


def test_to_rescaled_refuses_a_stored_trajectory():
    # the window is covered, but a stored trajectory has no states between
    # its recorded times
    circ = fx.make_circle(1.0, 64)
    traj = flow.FlowTrajectory([-1.0, -0.5], [circ, circ])
    with pytest.raises(RangeError, match="stored trajectory"):
        flow.to_rescaled(traj, tau_min=0.0, tau_max=0.5, dtau=0.25)
    analytic = flow.AnalyticTrajectory([-1.0, -0.5], lambda t: circ)
    assert len(flow.to_rescaled(analytic, tau_min=0.0, tau_max=0.5, dtau=0.25)) == 3


def test_rescaling_commutation():
    # to_rescaled . D_lam = tau-translation by -2 log(lam) of to_rescaled
    def gen(t):
        return fx.make_circle(np.sqrt(-2.0 * t), 64)

    times = -np.exp(-np.arange(-3.0, 0.51, 0.01))
    traj = flow.AnalyticTrajectory(times, gen)
    lam = 2.0
    shift = -2.0 * np.log(lam)  # tau-translation induced by D_lam
    taus = np.arange(-3.5, -1.49, 0.25)
    a = flow.to_rescaled(flow.parabolic_rescale(traj, lam),
                         tau_min=taus[0], tau_max=taus[-1], dtau=0.25)
    for tau, state in zip(a.times, a.states):
        ref = flow.to_rescaled(traj, tau_min=tau - shift, tau_max=tau - shift + 1e-9,
                               dtau=1.0).states[0]
        va = flow.as_components(state)[0].vertices
        vb = flow.as_components(ref)[0].vertices
        assert np.max(np.abs(va - vb)) < 1e-10


def test_grim_reaper_blowdown_vertical_line():
    # rescaled grim reaper converges to the doubled vertical line on B_1
    def gen(t):
        curve, _ = fx.make_grim_reaper(speed=1.0, extent=abs(t) + 10.0,
                                       graded=True, h_fine=0.05,
                                       h_coarse=1.0, fine_radius=2.0)
        return curve.with_vertices(curve.vertices + np.array([0.0, t]))

    dists = []
    for tau in (-2.0, -4.0, -6.0):
        t = -np.exp(-tau)
        state = flow.scale_state(gen(t), np.exp(tau / 2.0))
        v = state.vertices
        inside = np.linalg.norm(v, axis=1) <= 1.0
        assert inside.any()
        dists.append(np.max(np.abs(v[inside, 0])))
    assert dists[0] > dists[1] > dists[2]


def test_product_evolve_line_cross_line_static():
    l1 = fx.make_line(0.0, 4.0, 33)
    traj = flow.evolve(l1, 1e-3, 5)
    prod_traj = flow.product_evolve(traj, geo.AffineLine((0, 0), (1.0, 0.0)))
    first = flow.as_components(prod_traj.states[0])[0]
    last = flow.as_components(prod_traj.states[-1])[0]
    assert np.max(np.abs(first.factor1.vertices - last.factor1.vertices)) < 1e-12
    assert np.allclose(first.angle_grid(), 0.0, atol=1e-12)


def test_product_evolve_circle_cylinder_radius_law():
    n = 128
    circ = fx.make_circle(1.0, n)
    dt = 2e-4
    steps = 250
    traj = flow.evolve(circ, dt, steps, record_every=steps)
    prod = flow.product_evolve(traj, geo.AffineLine((0, 0), (1.0, 0.0)))
    final = flow.as_components(prod.states[-1])[0]
    r = np.mean(np.linalg.norm(final.factor1.vertices, axis=1))
    assert abs(r - circle_radius_oracle(1.0, dt * steps)) < 2e-3


def test_product_evolve_grid_mismatch():
    l1 = fx.make_line(0.0, 4.0, 33)
    t1 = flow.evolve(l1, 1e-3, 4)
    t2 = flow.evolve(l1, 2e-3, 4)
    with pytest.raises(TimeGridMismatch):
        flow.product_evolve(t1, t2)


def test_self_intersection_scan():
    # figure-eight-ish curve crosses itself; a circle does not
    s = np.linspace(0, 2 * np.pi, 64, endpoint=False) + 0.05
    eight = np.stack([np.sin(2 * s), np.sin(s)], axis=1)
    assert flow.state_self_intersects(geo.DiscreteCurve(eight, closed=True))
    assert not flow.state_self_intersects(fx.make_circle(1.0, 64))
    # even vertex count keeps the crossing off the sample points
    crossing = fx.make_line_pair(0.4, -0.4, extent=2.0, n=32)
    assert flow.state_self_intersects(crossing)


def test_self_intersection_scan_refuses_large_states():
    # 10k segments are 5e7 pairs: refused before the pair arrays exist
    circ = fx.make_circle(1.0, 10_000)
    tracemalloc.start()
    try:
        with pytest.raises(ScanTooLarge):
            flow.state_self_intersects(circ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


@pytest.mark.parametrize("closed", [True, False])
def test_self_intersection_limit_counts_segment_pairs(monkeypatch, closed):
    curve = fx.make_circle(1.0, 64)
    if not closed:
        curve = geo.DiscreteCurve(curve.vertices)
    n_seg = 64 if closed else 63
    pairs = n_seg * (n_seg - 1) // 2
    monkeypatch.setattr(flow, "SELF_INTERSECTION_MAX_PAIRS", pairs)
    assert not flow.state_self_intersects(curve)
    monkeypatch.setattr(flow, "SELF_INTERSECTION_MAX_PAIRS", pairs - 1)
    with pytest.raises(ScanTooLarge):
        flow.state_self_intersects(curve)


def semi_implicit_step_oracle(curve, dt):
    """The step as assembled per curve before the shared solve path: a
    (3, m) band through solve_banded for open curves, a COO-built sparse
    matrix through splu for closed ones."""
    n, v = curve.n_vertices, curve.vertices
    a, b = geo.stencil_weights(curve.edge_lengths(), curve.closed)
    if curve.closed:
        idx = np.arange(n)
        A = sp.csc_matrix((np.concatenate([1.0 + dt * (a + b), -dt * a, -dt * b]),
                           (np.concatenate([idx, idx, idx]),
                            np.concatenate([idx, (idx - 1) % n, (idx + 1) % n]))),
                          shape=(n, n))
        return spla.splu(A).solve(v)
    band = np.zeros((3, n - 2))
    band[1] = 1.0 + dt * (a + b)
    band[0, 1:] = -dt * b[:-1]
    band[2, :-1] = -dt * a[1:]
    rhs = v[1:-1].copy()
    rhs[0] += dt * a[0] * v[0]
    rhs[-1] += dt * b[-1] * v[-1]
    return np.vstack([v[0], solve_banded((1, 1), band, rhs), v[-1]])


@pytest.mark.parametrize("closed,n", [(False, 3), (False, 4), (False, 101),
                                      (True, 8), (True, 101)])
def test_semi_implicit_step_equals_band_and_coo_paths(closed, n):
    rng = np.random.default_rng(n)
    phi = np.linspace(0.0, 1.5 * np.pi, n)
    radius = 1.0 + 0.05 * rng.normal(size=n)
    curve = geo.DiscreteCurve(np.stack([radius * np.cos(phi), radius * np.sin(phi)],
                                       axis=1), closed=closed)
    for dt in (1e-4, 1e-2):
        got = flow.step_flow_semi_implicit(curve, dt).vertices
        assert np.array_equal(got, semi_implicit_step_oracle(curve, dt))


@pytest.mark.parametrize("closed", [False, True])
def test_semi_implicit_step_refuses_nan_vertex(closed):
    v = fx.make_circle(1.0, 32).vertices.copy()
    v[5, 0] = np.nan
    with pytest.raises(NonFiniteVertex):   # no such curve reaches a step
        flow.step_flow_semi_implicit(geo.DiscreteCurve(v, closed=closed), 1e-3)
    # finite vertices 1e-170 apart give infinite couplings 2 / h^2
    tiny = geo.DiscreteCurve(1e-170 * fx.make_circle(1.0, 32).vertices, closed=closed)
    with pytest.raises(SolverFailure), np.errstate(divide="ignore", over="ignore"):
        flow.step_flow_semi_implicit(tiny, 1e-3)


@pytest.mark.parametrize("closed", [False, True])
def test_semi_implicit_step_refuses_singular_system(monkeypatch, closed):
    # couplings -1/(2 dt) zero the diagonal: rows alternate (1/2, 0, 1/2)
    n = 16 if closed else 5
    curve = geo.DiscreteCurve(fx.make_circle(1.0, 16).vertices[:n], closed=closed)
    dt = 1e-2
    monkeypatch.setattr(flow, "stencil_weights", lambda h, closed: (
        np.full(n if closed else n - 2, -0.5 / dt),) * 2)
    with pytest.raises(SolverFailure):
        flow.step_flow_semi_implicit(curve, dt)


def test_redistribute_uniformizes():
    curve, _ = fx.make_grim_reaper(speed=1.0, extent=2.0, n=101)
    skew = curve.vertices[np.abs(np.linspace(-1, 1, 101)) ** 1.5 * 50 + 50 == 0]
    out = flow.redistribute(curve)
    h = out.edge_lengths()
    assert (h.max() - h.min()) / h.mean() < 1e-6
    assert np.allclose(out.vertices[0], curve.vertices[0])
    assert np.allclose(out.vertices[-1], curve.vertices[-1])


def test_singular_collapse_detected():
    # drive a tiny circle into extinction: the edge-collapse guard fires
    circ = fx.make_circle(0.05, 16)
    with pytest.raises(flow.SingularCollapse):
        flow.evolve(circ, 2e-4, 50)


def test_trajectory_roundtrip(tmp_path):
    circ = fx.make_circle(1.0, 32)
    traj = flow.evolve(circ, 1e-3, 10, record_every=5)
    path = tmp_path / "traj.txt"
    flow.save_trajectory(path, traj)
    back = flow.load_trajectory(path)
    assert np.array_equal(back.times, traj.times)
    assert back.metadata["scheme"] == "semi_implicit"
    for sa, sb in zip(traj.states, back.states):
        va = flow.as_components(sa)[0].vertices
        vb = flow.as_components(sb)[0].vertices
        assert np.array_equal(va, vb)


def test_first_crossing_time_reports_earliest():
    crossing = fx.make_line_pair(0.4, -0.4, extent=2.0, n=32)
    traj = flow.FlowTrajectory([0.0, 0.1], [crossing, crossing])
    assert flow.first_crossing_time(traj) == 0.0
    clean = [fx.make_circle(1.0, 64)]
    traj2 = flow.FlowTrajectory([0.0, 0.1], [clean, clean])
    assert flow.first_crossing_time(traj2) is None
