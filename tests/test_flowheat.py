"""Heat equations along flows: caloricity, the primitive gauge, the B-field,
and the approximate height near plane pairs."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded

from lmcflab import diagnostics as dg
from lmcflab import fixtures as fx
from lmcflab import flow
from lmcflab import flowheat as fh
from lmcflab import geometry as geo
from lmcflab.errors import (ComponentAmbiguity, ComponentCountChanged,
                            DegenerateEdge, FieldShapeMismatch,
                            GrowthUnbounded, NonFiniteVertex, NotExact,
                            SolverFailure, VertexCountChanged)


def test_constant_initial_data_stays_constant():
    traj = fx.shrinking_circle_trajectory(1.0, 128, t1=0.1, dt=2e-3)
    sol = fh.solve_heat_on_flow(traj, [np.ones(128)])
    for row in sol.values[0]:
        assert np.max(np.abs(row - 1.0)) < 1e-13
    assert np.max(sol.residual_sup) < 1e-12


def test_coordinate_caloric_on_circle():
    # solution with f0 = x equals the ambient coordinate of the moving curve
    n = 256
    dt = 5e-4
    traj = fx.shrinking_circle_trajectory(1.0, n, t1=0.2, dt=dt)
    comps0 = traj.states[0]
    f0 = [flow.as_components(comps0)[0].vertices[:, 0]]
    sol = fh.solve_heat_on_flow(traj, f0)
    h = 2 * np.pi / n
    for k in (len(traj.times) // 2, len(traj.times) - 1):
        coord = flow.as_components(traj.states[k])[0].vertices[:, 0]
        err = np.max(np.abs(sol.values[0][k] - coord))
        assert err < 20.0 * (h * h + dt)


def test_coordinate_residual_richardson():
    # residual of the ambient coordinate field: O(h^2) + O(dt), dt ~ h^2
    sups = []
    for n in (64, 128, 256):
        dt = 2.0 * (2 * np.pi / n) ** 2
        traj = fx.shrinking_circle_trajectory(2.0, n, t1=0.3, dt=dt)
        vals = [np.array([flow.as_components(s)[0].vertices[:, 0] for s in traj.states])]
        sup, _ = fh.heat_residual(traj, vals)
        sups.append(np.max(sup))
    slope = np.log2(sups[0] / sups[1])
    slope2 = np.log2(sups[1] / sups[2])
    assert slope >= 1.8 and slope2 >= 1.8, sups


def test_angle_field_material_constant_on_circle():
    # theta(phi, t) = phi + pi/2 at material vertices; residual tiny
    traj = fx.shrinking_circle_trajectory(1.0, 256, t1=0.2, dt=1e-3)
    res = fh.angle_caloric_residual(traj)
    assert np.max(res) < 1e-6


def test_angle_field_residual_on_simulated_flows():
    # cross-module check: the transported angle satisfies the heat equation
    circ = fx.make_circle(1.0, 128)
    traj = flow.evolve(circ, 5e-4, 100)
    res = fh.angle_caloric_residual(traj)
    assert np.max(res) < 5e-2  # O(dt/h^2-consistent) discrete bound
    curve, _ = fx.make_grim_reaper(speed=1.0, extent=4.0, n=401)
    traj2 = flow.evolve(curve, 2e-4, 100)
    res2 = fh.angle_caloric_residual(traj2, collar=8)
    assert np.max(res2) < 5e-2


def test_beta_caloric_static_line():
    line = fx.make_line(angle=0.5, extent=5.0, n=101)
    traj = flow.FlowTrajectory(np.linspace(0.0, 0.1, 11), [line] * 11)
    rep = fh.caloric_primitive(traj)
    assert np.max(rep.residual_sup) < 1e-10


def test_beta_caloric_grim_reaper_richardson():
    # Richardson in h with dt ~ h^2: slope >= 1.8
    sups = []
    hs = []
    for n in (101, 201, 401):
        h = 8.0 / (n - 1)
        dt = 0.5 * h * h
        traj = fx.grim_reaper_material_trajectory(1.0, extent=4.0, n=n,
                                                  t1=60 * dt, dt=dt)
        rep = fh.caloric_primitive(traj, collar=4)
        sups.append(np.max(rep.residual_sup))
        hs.append(h)
    slope = np.log(sups[0] / sups[2]) / np.log(hs[0] / hs[2])
    assert slope >= 1.8, (sups, slope)


def test_beta_caloric_product_matches_factor():
    # product with a static line through 0: beta_1 + beta_2 = beta_1
    n = 201
    dt = 1e-3
    traj1 = fx.grim_reaper_material_trajectory(1.0, extent=4.0, n=n,
                                               t1=30 * dt, dt=dt)
    prod = flow.product_evolve(traj1, geo.AffineLine((0, 0), (1.0, 0.0)))
    rep1 = fh.caloric_primitive(traj1, collar=4)
    rep2 = fh.caloric_primitive(prod, collar=4)
    assert np.allclose(rep1.residual_sup, rep2.residual_sup, atol=1e-14)


def test_uniqueness_bitwise_and_dt_halving():
    n = 128
    traj = fx.shrinking_circle_trajectory(1.0, n, t1=0.1, dt=1e-3)
    f0 = [flow.as_components(traj.states[0])[0].vertices[:, 1]]
    a = fh.solve_heat_on_flow(traj, f0)
    b = fh.solve_heat_on_flow(traj, f0)
    assert np.array_equal(a.values[0], b.values[0])  # bitwise determinism
    fine = fx.shrinking_circle_trajectory(1.0, n, t1=0.1, dt=5e-4)
    c = fh.solve_heat_on_flow(fine, f0)
    diff = np.max(np.abs(a.values[0][-1] - c.values[0][-1]))
    assert diff < 10.0 * 1e-3  # O(dt) agreement across halving


def test_maximum_principle_closed_curve():
    rng = np.random.default_rng(7)
    n = 128
    traj = fx.shrinking_circle_trajectory(1.0, n, t1=0.05, dt=5e-4)
    f0 = [rng.uniform(-1.0, 1.0, size=n)]
    sol = fh.solve_heat_on_flow(traj, f0)
    sups = [np.max(np.abs(row)) for row in sol.values[0]]
    for s_prev, s_next in zip(sups, sups[1:]):
        assert s_next <= s_prev + 1e-12


def test_caloric_field_passes_monotonicity_equality():
    # caloric pairing: solved field shows only the drift term in the audit
    n = 256
    traj = fx.shrinking_circle_trajectory(1.0, n, t1=0.1, dt=1e-3)
    f0 = [flow.as_components(traj.states[0])[0].vertices[:, 0]]
    sol = fh.solve_heat_on_flow(traj, f0)
    w = dg.GaussianWindow(np.zeros(2), t0=0.45)
    zero = [np.zeros((len(traj.times), n))]
    rep = dg.monotonicity_audit(traj, w, f_values=sol.values,
                                residual_values=zero, rtol=1e-3)
    # f = x is odd about the centre: the weighted integral stays near zero
    assert np.max(np.abs(rep.values)) < 1e-3


def _static_pair_product_traj(sigma, n=301, dt=2e-3, s1=-0.25):
    prods, frame, pair = fx.make_smoothed_pair(angle=np.pi / 4, sigma=sigma,
                                               extent=6.0, n=n)
    curves = [p.factor1 for p in prods]
    steps = int(round((abs(-1.0 - s1) + 0.05) / dt))
    traj = flow.evolve(curves, dt, steps, t0=-1.0, record_every=1)
    line = geo.AffineLine((0.0, 0.0), (1.0, 0.0))
    states = [[geo.ProductLagrangian(c, line, component_id=c.component_id)
               for c in flow.as_components(s)] for s in traj.states]
    return flow.FlowTrajectory(traj.times, states), frame, pair


def test_approx_height_exact_static_pair():
    # sigma = 0: exact pair of lines x R_z; B constant per plane, z caloric
    prods, frame, pair = fx.make_smoothed_pair(angle=np.pi / 4, sigma=0.0,
                                               extent=6.0, n=201)
    times = np.linspace(-1.0, -0.2, 81)
    traj = flow.FlowTrajectory(times, [prods] * len(times))
    rep = fh.approx_height_solution(traj, s1=-0.25, frame=frame)
    assert rep.z_mode == "factor2"
    assert max(rep.sup_difference) < 1e-6
    # the two limit constants are the closed forms cos(-2(1+s1)(+-theta))
    for bb, tb in zip(rep.b_bar, rep.theta_bar):
        assert abs(bb - np.cos(2.0 * (1.0 + -0.25) * tb)) < 1e-12


def test_approx_height_sigma_ladder_decreases():
    sups = []
    for sigma in (0.2, 0.1, 0.05):
        traj, frame, pair = _static_pair_product_traj(sigma)
        rep = fh.approx_height_solution(traj, s1=-0.25, frame=frame)
        sups.append(max(rep.sup_difference))
    assert sups[0] > sups[1] > sups[2], sups


def test_select_s1_margin():
    traj, frame, pair = _static_pair_product_traj(0.1)
    s1 = fh.select_s1(traj, frame)
    assert -0.5 < s1 < 0.0


def test_approx_height_component_ambiguity_single_component(monkeypatch):
    # a single line x R_z has one component in the disk: ambiguity, raised
    # before the heat field is marched
    line = fx.make_line(angle=0.3, extent=6.0, n=201)
    prod = geo.ProductLagrangian(line, geo.AffineLine((0, 0), (1.0, 0.0)))
    times = np.linspace(-1.0, -0.2, 41)
    traj = flow.FlowTrajectory(times, [[prod]] * len(times))
    frame = geo.CoordinateFrame(np.array([0, 0, 1.0, 0]),
                                geo.apply_J(np.array([0, 0, 1.0, 0])),
                                np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]]))

    def no_march(*args):
        raise AssertionError("the heat field was marched")

    monkeypatch.setattr(fh, "heat_field_at", no_march)
    with pytest.raises(ComponentAmbiguity):
        fh.approx_height_solution(traj, s1=-0.25, frame=frame)


def test_evolve_B_static_line():
    line = fx.make_line(angle=0.5, extent=5.0, n=101)
    prod = geo.ProductLagrangian(line, geo.AffineLine((0, 0), (1.0, 0.0)))
    times = np.linspace(-1.0, -0.2, 41)
    traj = flow.FlowTrajectory(times, [[prod]] * len(times))
    rep = fh.evolve_B(traj, s1=-0.25)
    assert np.max(rep.residual_sup) < 1e-9
    # B is a constant on a static line through the origin
    assert rep.B[0].shape == (len(times), 101)
    assert np.max(np.abs(rep.B[0] - rep.B[0][0, 0])) < 1e-9


def test_evolve_B_grim_reaper_refinement():
    sups = []
    for n in (101, 201, 401):
        h = 8.0 / (n - 1)
        dt = 0.5 * h * h
        traj = fx.grim_reaper_material_trajectory(1.0, extent=4.0, n=n,
                                                  t0=-1.0, t1=-1.0 + 40 * dt,
                                                  dt=dt)
        rep = fh.evolve_B(traj, s1=-0.25, collar=4)
        sups.append(np.max(rep.residual_sup))
    assert sups[0] > sups[1] > sups[2], sups
    slope = np.log(sups[0] / sups[2]) / np.log(4.0)
    assert slope >= 1.5, (sups, slope)


def test_evolve_B_near_pair_plateaus():
    # B approaches the constants b_bar_j away from the intersection as the
    # smoothing scale shrinks
    spreads = []
    for sigma in (0.2, 0.1, 0.05):
        traj, frame, pair = _static_pair_product_traj(sigma)
        rep = fh.evolve_B(traj, s1=-0.25)
        k1 = int(np.argmin(np.abs(traj.times - (-0.25))))
        hr = fh.approx_height_solution(traj, s1=-0.25, frame=frame)
        comps = flow._curve_components(traj.states[k1])
        worst = 0.0
        for ci, c in enumerate(comps):
            r = np.linalg.norm(c.vertices, axis=1)
            mask = (r > 1.0) & (r < 2.0)
            plateau = rep.B[ci][k1][mask]
            worst = max(worst, float(np.max(np.abs(plateau - hr.b_bar[ci]))))
        spreads.append(worst)
    assert spreads[0] > spreads[1] > spreads[2], spreads


def test_growth_bound_enforced():
    traj = fx.shrinking_circle_trajectory(1.0, 64, t1=0.05, dt=5e-3)
    f0 = [flow.as_components(traj.states[0])[0].vertices[:, 0] * 10.0]
    with pytest.raises(GrowthUnbounded):
        fh.solve_heat_on_flow(traj, f0, growth_degree=1, growth_bound=1.0)
    sol = fh.solve_heat_on_flow(traj, f0, growth_degree=1, growth_bound=20.0)
    assert sol.growth_constant <= 10.0 + 1e-9


def test_evolve_B_propagates_not_exact():
    # a closed circle has Liouville holonomy: the primitive must refuse
    traj = fx.shrinking_circle_trajectory(1.0, 64, t1=0.05, dt=5e-3)
    with pytest.raises(NotExact):
        fh.evolve_B(traj, s1=-0.25)


# ---------------------------------------------------------------------------
# reference per-state loops for the time-blocked heat solve and audit; they
# index fields per time, values[k][ci], and the program holds one (T, N)
# array per component


def per_time(fields):
    """The per-component (T, N) fields as per-time lists of component rows."""
    return [list(rows) for rows in zip(*fields)]


def per_component(values):
    """Per-time lists of component rows as per-component (T, N) fields."""
    return [np.array(rows) for rows in zip(*values)]


def aligned_angles(comps_per_state):
    """Per time and component, the unwrapped angles of each state, the
    branch at the first vertex continuous in time."""
    thetas = [[geo.lagrangian_angle(c) for c in comps] for comps in comps_per_state]
    for prev, rows in zip(thetas, thetas[1:]):
        for th_prev, th in zip(prev, rows):
            th += 2.0 * np.pi * np.round((th_prev[0] - th[0]) / (2.0 * np.pi))
    return thetas


def loop_heat_residual(traj, values, collar):
    """The per-state centred residual loop the blocked audit must reproduce."""
    sup_list, l2_list = [], []
    for k in range(1, len(traj.times) - 1):
        dt2 = traj.times[k + 1] - traj.times[k - 1]
        comps_prev = flow._curve_components(traj.states[k - 1])
        comps = flow._curve_components(traj.states[k])
        comps_next = flow._curve_components(traj.states[k + 1])
        worst = sq_sum = w_sum = 0.0
        for ci, c in enumerate(comps):
            dfdt = (values[k + 1][ci] - values[k - 1][ci]) / dt2
            vel = (comps_next[ci].vertices - comps_prev[ci].vertices) / dt2
            v_tan = np.einsum("ij,ij->i", vel, c.tangents())
            res = (dfdt - geo.laplacian(c, values[k][ci])
                   - v_tan * geo.arc_gradient(c, values[k][ci]))
            mask = c.interior_mask(collar)
            if not mask.any():
                continue
            worst = max(worst, float(np.max(np.abs(res[mask]))))
            w = c.dual_lengths()[mask]
            sq_sum += float(np.sum(w * res[mask] ** 2))
            w_sum += float(np.sum(w))
        sup_list.append(worst)
        l2_list.append(np.sqrt(sq_sum / max(w_sum, 1e-300)))
    return sup_list, l2_list


def loop_gauge_rates(traj, collar):
    """The per-state gauge-rate loop of caloric_primitive: the fields
    beta + 2t theta and the dual-weighted mean of their centred residual,
    per time and component."""
    times = traj.times
    comps_per_state = [flow._curve_components(s) for s in traj.states]
    thetas = aligned_angles(comps_per_state)
    g_fields = [[geo.exactness_primitive(c) + 2.0 * t * th
                 for c, th in zip(comps, ths)]
                for comps, ths, t in zip(comps_per_state, thetas, times)]
    rates = np.zeros((len(times), len(comps_per_state[0])))
    for k in range(1, len(times) - 1):
        dt2 = times[k + 1] - times[k - 1]
        for ci, c in enumerate(comps_per_state[k]):
            dfdt = (g_fields[k + 1][ci] - g_fields[k - 1][ci]) / dt2
            tvec = c.tangents()
            vel = (comps_per_state[k + 1][ci].vertices
                   - comps_per_state[k - 1][ci].vertices) / dt2
            v_tan = np.einsum("ij,ij->i", vel, tvec)
            res = dfdt - geo.laplacian(c, g_fields[k][ci]) \
                - v_tan * geo.arc_gradient(c, g_fields[k][ci])
            mask = c.interior_mask(collar)
            w = c.dual_lengths()[mask]
            rates[k, ci] = float(np.sum(w * res[mask]) / np.sum(w))
    if len(times) > 2:
        rates[0] = rates[1]
        rates[-1] = rates[-2]
    return g_fields, rates


def loop_B_identity(traj, s1, collar, cp):
    """The per-state identity loop of evolve_B on the angle and primitive of
    cp: the fields B, the sup of (d_t - Delta - v_tan d_s) B - rhs per time
    and the sup of rhs = |x^perp + 2(s1 - t) H|^2 B."""
    times = traj.times
    states = list(traj.states)
    comps_per_state = [flow._curve_components(s) for s in states]
    beta, theta = per_time(cp.beta), per_time(cp.theta)
    B_fields = [[np.cos(beta[k][ci] + 2.0 * (t - s1) * theta[k][ci])
                 for ci in range(len(beta[k]))] for k, t in enumerate(times)]
    sup_rows = []
    scale = 0.0
    for k in range(1, len(times) - 1):
        t = times[k]
        dt2 = times[k + 1] - times[k - 1]
        comps_prev, comps, comps_next = comps_per_state[k - 1:k + 2]
        raw_comps = geo.as_components(states[k])
        worst = 0.0
        for ci, c in enumerate(comps):
            Bp, Bm, Bc = B_fields[k + 1][ci], B_fields[k - 1][ci], B_fields[k][ci]
            dBdt = (Bp - Bm) / dt2
            tvec = c.tangents()
            vel = (comps_next[ci].vertices - comps_prev[ci].vertices) / dt2
            v_tan = np.einsum("ij,ij->i", vel, tvec)
            lhs = dBdt - geo.laplacian(c, Bc) - v_tan * geo.arc_gradient(c, Bc)
            xperp = c.vertices - np.einsum("ij,ij->i", c.vertices, tvec)[:, None] * tvec
            w = xperp + 2.0 * (s1 - t) * geo.mean_curvature(c)
            w_sq = np.einsum("ij,ij->i", w, w) + fh._line_offset_sq(raw_comps[ci])
            rhs = w_sq * Bc
            mask = c.interior_mask(collar)
            worst = max(worst, float(np.max(np.abs((lhs - rhs)[mask]))))
            scale = max(scale, float(np.max(np.abs(rhs[mask]))))
        sup_rows.append(worst)
    return B_fields, sup_rows, scale


def loop_angle_residual(traj, collar):
    """The per-state loop of angle_caloric_residual, its turning increments
    from the (N, 2) tangents of each state."""
    comps_per_state = [flow._curve_components(s) for s in traj.states]
    thetas = aligned_angles(comps_per_state)
    sup_list = []
    for k in range(1, len(traj.times) - 1):
        dt2 = traj.times[k + 1] - traj.times[k - 1]
        comps_prev, comps, comps_next = comps_per_state[k - 1:k + 2]
        worst = 0.0
        for ci, c in enumerate(comps):
            dfdt = (thetas[k + 1][ci] - thetas[k - 1][ci]) / dt2
            tvec = c.tangents()
            t, t_next = geo.edge_ends(tvec, c.closed)
            turn = np.arctan2(t[:, 0] * t_next[:, 1] - t[:, 1] * t_next[:, 0],
                              np.einsum("ij,ij->i", t, t_next))
            h = c.edge_lengths()
            lap = geo.second_difference(turn, h, c.closed)
            slope = geo.vertex_sums(turn, c.closed) / geo.vertex_sums(h, c.closed)
            vel = (comps_next[ci].vertices - comps_prev[ci].vertices) / dt2
            v_tan = np.einsum("ij,ij->i", vel, tvec)
            res = dfdt - lap - v_tan * slope
            mask = c.interior_mask(collar)
            worst = max(worst, float(np.max(np.abs(res[mask]))))
        sup_list.append(worst)
    return sup_list


def loop_rescaled_velocity_residual(traj):
    """The per-state loop of flow._rescaled_velocity_residual."""
    worst = 0.0
    states = [geo.as_components(s) for s in traj.states]
    for k in range(1, len(traj) - 1):
        dtau = traj.times[k + 1] - traj.times[k - 1]
        for c_prev, c, c_next in zip(states[k - 1], states[k], states[k + 1]):
            if isinstance(c, geo.ProductLagrangian):
                c_prev, c, c_next = c_prev.factor1, c.factor1, c_next.factor1
            vel = (c_next.vertices - c_prev.vertices) / dtau
            t = c.tangents()
            nu = np.stack([-t[:, 1], t[:, 0]], axis=1)
            v_n = np.einsum("ij,ij->i", vel, nu)
            H = geo.mean_curvature(c)
            xperp = c.vertices - np.einsum("ij,ij->i", c.vertices, t)[:, None] * t
            target = np.einsum("ij,ij->i", H + 0.5 * xperp, nu)
            mask = c.interior_mask()
            worst = max(worst, float(np.max(np.abs((v_n - target)[mask]))))
    return worst


def advection_oracle(v, h_prev, h_next):
    """Hybrid central/upwind coefficients of v d_s f on (f_{i-1}, f_i, f_{i+1})."""
    pe = np.abs(v) * 0.5 * (h_prev + h_next) / 2.0
    central = pe <= 1.0
    c_lo = np.where(central, -v / (h_prev + h_next),
                    np.where(v > 0, 0.0, -v / h_prev))
    c_hi = np.where(central, v / (h_prev + h_next),
                    np.where(v > 0, v / h_next, 0.0))
    return c_lo, -(c_lo + c_hi), c_hi


def heat_step_oracle(curve, f_old, dt, v_tan):
    """One backward-Euler heat step assembled per state."""
    n = curve.n_vertices
    h = curve.edge_lengths()
    if curve.closed:
        h_prev = np.roll(h, 1)
        lo = 2.0 / ((h + h_prev) * h_prev)
        hi = 2.0 / ((h + h_prev) * h)
        c_lo, c_di, c_hi = advection_oracle(v_tan, h_prev, h)
        idx = np.arange(n)
        A = sp.csc_matrix((np.concatenate([1.0 + dt * (lo + hi) - dt * c_di,
                                           -dt * (lo + c_lo), -dt * (hi + c_hi)]),
                           (np.concatenate([idx, idx, idx]),
                            np.concatenate([idx, (idx - 1) % n, (idx + 1) % n]))),
                          shape=(n, n))
        return spla.splu(A).solve(f_old)
    hm, hp = h[:-1], h[1:]
    lo = 2.0 / ((hm + hp) * hm)
    hi = 2.0 / ((hm + hp) * hp)
    c_lo, c_di, c_hi = advection_oracle(v_tan[1:-1], hm, hp)
    band = np.zeros((3, n - 2))
    band[1] = 1.0 + dt * (lo + hi) - dt * c_di
    band[0, 1:] = -dt * (hi + c_hi)[:-1]
    band[2, :-1] = -dt * (lo + c_lo)[1:]
    rhs = f_old[1:-1].copy()
    rhs[0] += dt * (lo + c_lo)[0] * f_old[0]
    rhs[-1] += dt * (hi + c_hi)[-1] * f_old[-1]
    interior = solve_banded((1, 1), band, rhs)
    return np.concatenate([[f_old[0]], interior, [f_old[-1]]])


def loop_growth_constant(traj, values, degree=2):
    """The growth constant per state, radii from the (N, 2) vertex norms."""
    worst = 0.0
    for state, vals in zip(traj.states, values):
        for c, f in zip(flow._curve_components(state), vals):
            r = np.linalg.norm(c.vertices, axis=-1)
            worst = max(worst, float(np.max(np.abs(f) / (1.0 + r ** degree))))
    return worst


def loop_heat_solve(traj, f0):
    """The per-step heat march the blocked solve must reproduce."""
    values = [[np.asarray(f, dtype=float) for f in f0]]
    for k in range(1, len(traj.times)):
        dt = traj.times[k] - traj.times[k - 1]
        nxt = []
        for c_prev, c, f in zip(flow._curve_components(traj.states[k - 1]),
                                flow._curve_components(traj.states[k]), values[-1]):
            vel = (c.vertices - c_prev.vertices) / dt
            nxt.append(heat_step_oracle(c, f, dt,
                                        np.einsum("ij,ij->i", vel, c.tangents())))
        values.append(nxt)
    return values


def _audit_trajectory(kind, n_interior):
    """A trajectory with n_interior interior times: open curves sliding
    tangentially, a closed circle, a curve x line product (the line off the
    origin, so that evolve_B's line offset is not 0), or two curves."""
    n_times = n_interior + 2
    if kind == "open":
        s = np.linspace(-3.0, 3.0, 61)
        traj = fx.grim_reaper_sliding_trajectory(2.0, s, t0=-1.0,
                                                 t1=-1.0 + 0.01 * n_times, dt=0.01)
    elif kind == "closed":
        traj = fx.shrinking_circle_trajectory(1.0, 48, t1=0.01 * n_times, dt=0.01)
    elif kind == "product":
        traj = flow.product_evolve(
            fx.grim_reaper_material_trajectory(1.0, extent=3.0, n=41,
                                               t1=2e-3 * n_times, dt=2e-3),
            geo.AffineLine((0.0, 0.3), (1.0, 0.0)))
    else:
        prods, _, _ = fx.make_smoothed_pair(sigma=0.2, extent=4.0, n=41)
        traj = flow.evolve([p.factor1 for p in prods], 2e-3, n_times, t0=-1.0)
    return flow.FlowTrajectory(traj.times[:n_times], traj.states[:n_times])


KINDS = ["open", "closed", "product", "two"]
INTERIOR_COUNTS = [1, fh.AUDIT_BLOCK - 1, fh.AUDIT_BLOCK, fh.AUDIT_BLOCK + 1,
                   2 * fh.AUDIT_BLOCK + 1]


@pytest.mark.parametrize("collar", [2, 4])
@pytest.mark.parametrize("n_interior", INTERIOR_COUNTS)
@pytest.mark.parametrize("kind", KINDS)
def test_blocked_residual_equals_per_state_loop(kind, n_interior, collar):
    traj = _audit_trajectory(kind, n_interior)
    rng = np.random.default_rng(n_interior)
    values = [[rng.normal(size=c.n_vertices) for c in flow._curve_components(s)]
              for s in traj.states]
    sup, l2 = fh.heat_residual(traj, per_component(values), collar=collar)
    ref_sup, ref_l2 = loop_heat_residual(traj, values, collar)
    assert len(sup) == n_interior
    assert sup == ref_sup
    assert l2 == ref_l2
    assert fh.angle_caloric_residual(traj, collar).tolist() == \
        loop_angle_residual(traj, collar)
    assert flow._rescaled_velocity_residual(traj) == \
        loop_rescaled_velocity_residual(traj)
    if kind == "closed":   # the circle has Liouville holonomy
        with pytest.raises(NotExact):
            fh.caloric_primitive(traj, collar)
        return
    cp = fh.caloric_primitive(traj, collar)
    g_fields, rates = loop_gauge_rates(traj, collar)
    assert np.array_equal(fh._gauge_rates(traj, per_component(g_fields), collar), rates)
    gauge = np.zeros_like(rates)
    for k in range(1, len(traj.times)):
        dt = traj.times[k] - traj.times[k - 1]
        gauge[k] = gauge[k - 1] - 0.5 * dt * (rates[k] + rates[k - 1])
    assert np.array_equal(cp.gauge, gauge)
    beta = per_time(cp.beta)
    for k, s in enumerate(traj.states):
        for got, c, g in zip(beta[k], flow._curve_components(s), gauge[k]):
            assert np.array_equal(got, geo.exactness_primitive(c) + g)
    rep = fh.evolve_B(traj, s1=-0.25, collar=collar)
    B, ref_sup, scale = loop_B_identity(traj, -0.25, collar, cp)
    for got, want in zip(per_time(rep.B), B, strict=True):
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)
    assert rep.residual_sup.tolist() == ref_sup
    assert rep.identity_scale == scale


# evolve_B on _audit_trajectory(kind, AUDIT_BLOCK + 1), collar 2, s1 = -0.25,
# as it was when it still ran caloric_primitive's audit: sha256 prefixes of
# the bytes of times, B (every state's components in order), residual_times
# and residual_sup, and identity_scale exactly
B_FIELD_VALUES = {
    "open": ("c29d5142c9148953", "8fbcc7fb0399cf32", "840fb0bba1dfbe15",
             "dec6dbba1e40e5d9", "0x1.e1b4c603739e3p-1"),
    "product": ("33395fc7d18cac20", "b31153832a62a076", "69b260864aa4bb0f",
                "34029a9773f39e33", "0x1.7a5aa0d8a5cb0p+0"),
    "two": ("6355dc1c4ba24bff", "f4dc796862f24622", "53ac3a60fb390609",
            "8a67141faa525352", "0x1.7f1f67a495320p-4"),
}


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("kind", sorted(B_FIELD_VALUES))
def test_evolve_B_report_is_unchanged(kind):
    rep = fh.evolve_B(_audit_trajectory(kind, fh.AUDIT_BLOCK + 1), s1=-0.25)
    got = (_digest([rep.times]), _digest([b for Bk in zip(*rep.B) for b in Bk]),
           _digest([rep.residual_times]), _digest([rep.residual_sup]),
           float(rep.identity_scale).hex())
    assert got == B_FIELD_VALUES[kind]


@pytest.mark.parametrize("n_interior", INTERIOR_COUNTS)
@pytest.mark.parametrize("kind", KINDS)
def test_blocked_heat_solve_equals_per_step_loop(kind, n_interior):
    traj = _audit_trajectory(kind, n_interior)
    f0 = [c.vertices[:, 1] for c in flow._curve_components(traj.states[0])]
    sol = fh.solve_heat_on_flow(traj, f0)
    ref = loop_heat_solve(traj, f0)
    assert [F.shape for F in sol.values] == [(len(ref), len(f)) for f in f0]
    for got, want in zip(per_time(sol.values), ref, strict=True):
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)
    # the two-pass oracle: the per-step march, then the standalone audit
    ref_sup, ref_l2 = fh.heat_residual(traj, per_component(ref))
    assert sol.residual_sup.tolist() == ref_sup
    assert sol.residual_l2.tolist() == ref_l2
    assert (ref_sup, ref_l2) == loop_heat_residual(traj, ref, 2)
    assert sol.growth_constant == loop_growth_constant(traj, ref)
    # the march alone, stopped at every time: 0, mid-block and the last
    for k in range(len(ref)):
        got = fh.heat_field_at(traj, f0, k)
        assert len(got) == len(ref[k])
        for g, w in zip(got, ref[k]):
            assert np.array_equal(g, w)


def test_component_without_interior_vertex_adds_nothing():
    # four vertices, collar 2: every audit skips the curve, its gauge rate is 0
    times = np.linspace(0.0, 0.05, 6)
    traj = flow.FlowTrajectory(times, [geo.DiscreteCurve(
        [[-1.5, 0.0], [-0.5, 0.1 * t], [0.5, 0.3 - t], [1.5, 0.2]]) for t in times])
    zeros = [0.0] * (len(times) - 2)
    assert fh.heat_residual(traj, [np.ones((len(times), 4))]) == (zeros, zeros)
    assert fh.solve_heat_on_flow(traj, [np.ones(4)]).residual_sup.tolist() == zeros
    cp = fh.caloric_primitive(traj)
    assert cp.gauge.tolist() == [[0.0]] * len(times)
    assert cp.residual_sup.tolist() == zeros
    for beta, c in zip(cp.beta[0], traj.states, strict=True):
        assert np.array_equal(beta, geo.exactness_primitive(c))
    rep = fh.evolve_B(traj, s1=0.02)
    assert rep.residual_sup.tolist() == zeros and rep.identity_scale == 0.0
    assert fh.angle_caloric_residual(traj).tolist() == zeros
    assert flow._rescaled_velocity_residual(traj) == 0.0


def test_three_vertex_open_heat_solve_equals_per_step_loop():
    # one unknown per step: the path the gtsv wrapper cannot take
    times = np.linspace(0.0, 0.05, 6)
    states = [geo.DiscreteCurve([[-1.0, 0.0], [0.1 * t, 0.5 - t], [1.0, 0.2]])
              for t in times]
    traj = flow.FlowTrajectory(times, states)
    f0 = [np.array([0.3, -1.2, 2.0])]
    sol = fh.solve_heat_on_flow(traj, f0)
    for got, want in zip(per_time(sol.values), loop_heat_solve(traj, f0)):
        assert np.array_equal(got[0], want[0])


@pytest.mark.parametrize("kind", ["open", "closed"])
def test_non_finite_heat_input_raises_solver_failure(kind):
    traj = _audit_trajectory(kind, 3)
    curve = flow._curve_components(traj.states[0])[0]
    f0 = curve.vertices[:, 1].copy()
    f0[curve.n_vertices // 2] = np.nan
    for solve in (fh.solve_heat_on_flow, lambda traj, f: fh.heat_field_at(traj, f, 1)):
        with pytest.raises(SolverFailure):
            solve(traj, [f0])
    later = flow._curve_components(traj.states[2])[0]
    v = later.vertices.copy()
    v[later.n_vertices // 2] = np.nan
    with pytest.raises(NonFiniteVertex):   # no such state reaches a solve
        later.with_vertices(v)
    # a later state 1e307 across has finite vertices and an infinite speed
    states = list(traj.states)
    states[2] = later.with_vertices(1e307 * later.vertices)
    fast = flow.FlowTrajectory(traj.times, states)
    f0 = [curve.vertices[:, 1]]
    with pytest.raises(SolverFailure), np.errstate(over="ignore", invalid="ignore"):
        fh.solve_heat_on_flow(fast, f0)
    with pytest.raises(SolverFailure), np.errstate(over="ignore", invalid="ignore"):
        fh.heat_field_at(fast, f0, 2)
    fh.heat_field_at(fast, f0, 1)   # the march stops before the fast state


@pytest.mark.parametrize("closed,n", [(False, 3), (False, 6), (True, 8)])
def test_implicit_steps_refuse_singular_systems(closed, n):
    zero = np.zeros((1, n if closed else n - 2))
    with pytest.raises(SolverFailure), np.errstate(divide="ignore"):
        fh._implicit_steps(closed, zero, zero, zero, np.ones(n), np.empty((1, n)))


@pytest.mark.parametrize("closed", [False, True])
def test_implicit_steps_refuse_non_finite_input(closed):
    n = 10
    rows = n if closed else n - 2
    args = {"diag": np.full((2, rows), 3.0), "left": np.ones((2, rows)),
            "right": np.ones((2, rows)), "f": np.ones(n)}
    fh._implicit_steps(closed, **args, out=np.empty((2, n)))
    for bad in args:
        broken = {k: v.copy() for k, v in args.items()}
        broken[bad].flat[3] = np.inf if bad == "right" else np.nan
        with pytest.raises(SolverFailure):
            fh._implicit_steps(closed, **broken, out=np.empty((2, n)))


@pytest.mark.parametrize("kind", ["open", "product", "two"])
def test_initial_caloric_data_equals_caloric_primitive(kind):
    traj = _audit_trajectory(kind, 3)
    comps0, theta0, beta0 = fh._initial_caloric_data(traj)
    cp = fh.caloric_primitive(traj)
    for got, want in zip(comps0, flow._curve_components(traj.states[0])):
        assert np.array_equal(got.vertices, want.vertices)
    assert len(theta0) == len(cp.theta) == len(beta0)
    for got, want in zip(theta0, per_time(cp.theta)[0]):
        assert np.array_equal(got, want)
    for got, want in zip(beta0, per_time(cp.beta)[0]):
        assert np.array_equal(got, want)


def test_approx_height_checks_exactness_of_later_states():
    # a figure-eight is exact (its two lobes cancel); the circle is not
    phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    eight = geo.DiscreteCurve(np.stack([np.sin(phi), np.sin(phi) * np.cos(phi)],
                                       axis=1), closed=True)
    geo.exactness_primitive(eight)
    traj = flow.FlowTrajectory([-1.0, -0.9, -0.8],
                               [[eight], [eight], [fx.make_circle(1.0, 64)]])
    frame = geo.standard_frame(4, z_axis=0)
    with pytest.raises(NotExact):
        fh.caloric_primitive(traj)
    with pytest.raises(NotExact):
        fh.approx_height_solution(traj, s1=-0.9, frame=frame)
    with pytest.raises(NotExact):
        fh.select_s1(traj, frame)


def test_vertex_count_change_is_refused():
    a, b = fx.make_circle(1.0, 64), fx.make_circle(0.9, 65)
    traj = flow.FlowTrajectory([0.0, 0.01, 0.02], [a, a, b])
    with pytest.raises(VertexCountChanged):
        fh.solve_heat_on_flow(traj, [np.ones(64)])
    with pytest.raises(VertexCountChanged):
        fh.heat_field_at(traj, [np.ones(64)], 2)
    fh.heat_field_at(traj, [np.ones(64)], 1)
    with pytest.raises(VertexCountChanged):
        fh.heat_residual(traj, [np.ones((3, 64))])


def test_component_count_change_is_refused():
    # a component that vanishes at time index 2 used to end in a bare IndexError
    a = fx.make_circle(1.0, 32)
    traj = flow.FlowTrajectory([0.0, 0.01, 0.02], [[a, a], [a, a], [a]])
    with pytest.raises(ComponentCountChanged, match="2 curve components at time "
                                                    "index 0 and 1 at 2"):
        fh.solve_heat_on_flow(traj, [np.ones(32), np.ones(32)])
    with pytest.raises(ComponentCountChanged, match="at 2"):
        fh.heat_residual(traj, [np.ones((3, 32)), np.ones((3, 32))])


def test_caloric_fields_refuse_a_changed_vertex_count():
    a, b = fx.make_line(extent=2.0, n=16), fx.make_line(extent=2.1, n=17)
    traj = flow.FlowTrajectory([0.0, 0.01, 0.02], [a, a, b])
    for audit in (fh.caloric_primitive, fh.angle_caloric_residual,
                  lambda traj: fh.evolve_B(traj, s1=0.01)):
        with pytest.raises(VertexCountChanged):
            audit(traj)


def _two_curve_trajectory():
    """Four times of a circle with 24 vertices and a line with 16."""
    times = np.linspace(0.0, 0.03, 4)
    return flow.FlowTrajectory(times, [[fx.make_circle(1.0 + t, 24),
                                        fx.make_line(extent=2.0 + t, n=16)]
                                       for t in times])


# mis-shaped fields: per case, the fields handed to heat_residual and the
# initial data handed to the march (None where the case has none)
MIS_SHAPED = {
    "vertex count": ([np.ones((4, 24)), np.ones((4, 15))], [np.ones(24), np.ones(17)]),
    "too few times": ([np.ones((3, 24)), np.ones((3, 16))], None),
    "extra times": ([np.ones((5, 24)), np.ones((5, 16))], None),
    "component count": ([np.ones((4, 24))], [np.ones(24)]),
    "extra component": ([np.ones((4, 24)), np.ones((4, 16)), np.ones((4, 16))],
                        [np.ones(24), np.ones(16), np.ones(16)]),
    "one-time rows": ([np.ones(24), np.ones(16)], [np.ones((1, 24)), np.ones((1, 16))]),
}


@pytest.mark.parametrize("case", sorted(MIS_SHAPED))
def test_mis_shaped_fields_are_refused_before_any_block(case, monkeypatch):
    traj = _two_curve_trajectory()
    fields, f0 = MIS_SHAPED[case]
    fh.heat_residual(traj, [np.ones((4, 24)), np.ones((4, 16))])   # the shape that fits

    def no_block(*args):
        raise AssertionError("a block was read")

    monkeypatch.setattr(fh, "centred_blocks", no_block)
    monkeypatch.setattr(fh, "_march_block", no_block)
    with pytest.raises(FieldShapeMismatch):
        fh.heat_residual(traj, fields)
    if f0 is not None:
        with pytest.raises(FieldShapeMismatch):
            fh.solve_heat_on_flow(traj, f0)
        with pytest.raises(FieldShapeMismatch):
            fh.heat_field_at(traj, f0, 0)


@pytest.mark.parametrize("closed", [False, True])
def test_coincident_neighbours_are_refused_by_both_consumers(closed):
    # vertex 5 folds back onto vertex 3 at time 2: every edge is nonzero,
    # the central difference at vertex 4 is not
    curve = fx.make_circle(1.0, 16) if closed else fx.make_line(extent=2.0, n=16)
    v = curve.vertices.copy()
    v[5] = v[3]
    times = [0.0, 0.01, 0.02]
    traj = flow.FlowTrajectory(times, [curve, curve, curve.with_vertices(v)])
    with pytest.raises(DegenerateEdge):
        fh.solve_heat_on_flow(traj, [np.ones(16)])
    with pytest.raises(DegenerateEdge):
        fh.heat_field_at(traj, [np.ones(16)], 2)
    assert np.array_equal(fh.heat_field_at(traj, [np.ones(16)], 1)[0],
                          fh.solve_heat_on_flow(flow.FlowTrajectory(
                              times[:2], [curve, curve]), [np.ones(16)]).values[0][1])
