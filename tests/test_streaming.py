"""Block-streamed trajectories: lazy states, generated planes, the heat
march stopped at one time, and how many states each consumer builds."""

import tracemalloc
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmcflab import fixtures as fx
from lmcflab import flow
from lmcflab import flowheat as fh
from lmcflab import geometry as geo
from lmcflab import scenarios
from lmcflab.errors import (DegenerateEdge, NonFiniteVertex, NotExact,
                            VertexCountChanged)

LINE = geo.AffineLine((0.0, 0.0), (1.0, 0.0))


@lru_cache(maxsize=None)
def base_trajectory(kind):
    """Small trajectories of every kind a heat solve streams."""
    if kind == "sliding":
        return fx.grim_reaper_sliding_trajectory(2.0, np.linspace(-3.0, 3.0, 61),
                                                 t0=-1.0, t1=-0.8, dt=0.01)
    if kind == "material":
        return fx.grim_reaper_material_trajectory(1.0, extent=3.0, n=41,
                                                  t1=0.04, dt=2e-3)
    if kind == "circle":
        return fx.shrinking_circle_trajectory(1.0, 48, t1=0.2, dt=0.01,
                                              center=(0.3, -0.2))
    prods, _, _ = fx.make_smoothed_pair(sigma=0.2, extent=4.0, n=41)
    return flow.evolve([p.factor1 for p in prods], 2e-3, 20, t0=-1.0)


KINDS = ["sliding", "material", "circle", "evolve"]


def trajectory(kind, wrap, lam):
    traj = base_trajectory(kind)
    if wrap == "product":
        traj = flow.product_evolve(traj, LINE)
    return traj if lam is None else flow.parabolic_rescale(traj, lam)


trajectories = st.builds(trajectory, st.sampled_from(KINDS),
                         st.sampled_from(["curve", "product"]),
                         st.sampled_from([None, 0.5, 1.0, 3.0, 0.1 ** 0.5]))


@st.composite
def windows(draw, traj_strategy=trajectories):
    traj = draw(traj_strategy)
    lo = draw(st.integers(0, len(traj) - 1))
    hi = draw(st.integers(lo + 1, len(traj)))
    return traj, lo, hi


@settings(max_examples=80, deadline=None)
@given(windows())
def test_planes_equal_the_stacked_states(window):
    traj, lo, hi = window
    per_state = [flow._curve_components(s) for s in traj.states[lo:hi]]
    blocks = traj.planes(lo, hi)
    assert len(blocks) == len(per_state[0])
    for ci, (curve, planes) in enumerate(blocks):
        first = per_state[0][ci]
        want = np.stack([comps[ci].vertices.T for comps in per_state], axis=1)
        assert planes.shape == want.shape
        assert planes.tobytes() == want.tobytes()   # bit for bit, signed zeros too
        assert curve.vertices.tobytes() == first.vertices.tobytes()
        assert (curve.closed, curve.component_id) == (first.closed, first.component_id)


def angle_oracle(c):
    """A curve's unwrapped tangent angles from its (N, 2) tangents, apart
    from the vertex-axis kernels."""
    t = c.tangents()
    return np.unwrap(np.arctan2(t[:, 1], t[:, 0]))


def primitive_oracle(c):
    """A curve's Liouville primitive from the cross products of its (N, 2)
    edge ends, apart from the vertex-axis kernels; NotExact on holonomy."""
    v, q = geo.edge_ends(c.vertices, c.closed)
    inc = v[:, 0] * q[:, 1] - v[:, 1] * q[:, 0]
    if c.closed:
        holonomy = float(inc.sum())
        if abs(holonomy) > geo.HOLONOMY_RTOL * c.length():
            raise NotExact(holonomy, component_id=c.component_id)
        inc = inc[:-1]
    return np.concatenate([[0.0], np.cumsum(inc)])


def primitive_rows(rows):
    """The (T, N) primitives from a thunk, or the holonomy and component id
    of the NotExact it raises."""
    try:
        return rows().tobytes()
    except NotExact as exc:
        return exc.holonomy, exc.component_id


def stacked(fn, curves):
    """A thunk stacking fn of each curve as the rows of one array."""
    return lambda: np.array([fn(c) for c in curves])


@settings(max_examples=80, deadline=None)
@given(windows())
def test_kernel_rows_equal_the_per_state_rows(window):
    traj, lo, hi = window
    per_state = [flow._curve_components(s) for s in traj.states[lo:hi]]
    for ci, (c, p) in enumerate(traj.planes(lo, hi)):
        comps = [cs[ci] for cs in per_state]
        want = stacked(angle_oracle, comps)().tobytes()
        assert geo.tangent_angles(p, c.closed).tobytes() == want
        assert stacked(geo.lagrangian_angle, comps)().tobytes() == want
        want = primitive_rows(stacked(primitive_oracle, comps))
        got = primitive_rows(lambda: geo.liouville_primitive(p, c.closed, c.component_id))
        assert got == want
        assert primitive_rows(stacked(geo.exactness_primitive, comps)) == want


def test_primitive_refuses_a_later_non_exact_state_as_the_per_state_path():
    """A figure-eight is exact (its lobes cancel) until one lobe grows at time
    index 2: the block raises the holonomy of that state, on the component
    id of the closed curve, as the per-state loop does."""
    phi = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    arm = geo.DiscreteCurve([[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]], component_id=4)

    def eight(a):
        y = np.sin(phi) * np.cos(phi) * np.where(phi < np.pi, 1.0, a)
        return geo.DiscreteCurve(np.stack([np.sin(phi), y], axis=1), closed=True,
                                 component_id=7)

    states = [[arm, eight(1.0)], [arm, eight(1.0)], [arm, eight(1.5)], [arm, eight(2.0)]]
    traj = flow.FlowTrajectory([0.0, 0.1, 0.2, 0.3], states)
    got = [primitive_rows(lambda: geo.liouville_primitive(p, c.closed, c.component_id))
           for c, p in traj.planes(0, 4)]
    want = [primitive_rows(stacked(primitive_oracle, [s[ci] for s in states]))
            for ci in range(2)]
    assert got == want
    assert got[1][1] == 7
    with pytest.raises(NotExact) as exc:
        primitive_oracle(eight(1.5))
    assert exc.value.holonomy == got[1][0]


def test_generated_planes_are_used_where_a_block_form_exists():
    for kind in ("sliding", "material", "circle"):
        traj = base_trajectory(kind)
        assert traj.block is not None
        assert flow.parabolic_rescale(traj, 2.0).block is not None
        assert flow.product_evolve(traj, LINE).planes(2, 5)[0][1].shape[:2] == (2, 3)


def test_block_states_equal_the_closed_form_states():
    """A state read from a block form is, bit for bit, the closed-form curve
    at its time: the sliding reaper base + (0, c t), the material reaper's
    points x = arctan(tan(c x0) e^{-c^2 (t - t0)}) / c on the profile
    translated by c t, the circle r(t) unit + center; a parabolic rescale
    scales it."""
    s_grid = np.linspace(-3.0, 3.0, 61)
    phi = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    unit = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    c = 1.0
    tan0 = np.tan(c * (np.arcsin(np.tanh(c * np.linspace(-3.0, 3.0, 41))) / c))

    def material(t):
        x = np.arctan(tan0 * np.exp(-c * c * (t - 0.0))) / c
        return np.stack([x, -np.log(np.cos(c * x)) / c + c * t], axis=-1)

    closed_form = {
        "sliding": lambda t: fx.grim_reaper_point(s_grid, 2.0) + np.array([0.0, 2.0 * t]),
        "material": material,
        "circle": lambda t: np.sqrt(1.0 - 2.0 * (t - 0.0)) * unit + np.array([0.3, -0.2]),
    }
    for kind, vertices in closed_form.items():
        for lam in (None, 0.5, 0.1 ** 0.5):
            traj = trajectory(kind, "curve", lam)
            scale = 1.0 if lam is None else lam
            for k, t in enumerate(traj.times):
                want = scale * vertices(t / (scale * scale)) if lam else vertices(t)
                assert traj.states[k].vertices.tobytes() == want.tobytes()
                assert traj.state_at(t).vertices.tobytes() == want.tobytes()


def _stored(traj):
    return flow.FlowTrajectory(traj.times, list(traj.states), mode=traj.mode)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS), st.sampled_from(["curve", "product"]),
       st.data())
def test_field_at_equals_the_full_solve(kind, wrap, data):
    traj = trajectory(kind, wrap, None)
    ks = data.draw(st.lists(st.integers(-len(traj), len(traj) - 1), max_size=6))
    f0 = [np.cos(3.0 * c.vertices[:, 0]) + c.vertices[:, 1]
          for c in flow._curve_components(traj.states[0])]
    full = fh.solve_heat_on_flow(traj, f0)
    for k in ks:
        got = fh.heat_field_at(traj, f0, k)
        assert len(got) == len(full.values)
        assert all(np.array_equal(g, F[k]) for g, F in zip(got, full.values))
    # generated planes and stacked stored states give the same solve
    stored = fh.solve_heat_on_flow(_stored(traj), f0)
    assert stored.residual_sup.tolist() == full.residual_sup.tolist()
    assert all(np.array_equal(a, b) for a, b in zip(stored.values, full.values, strict=True))


def test_field_at_refuses_indices_outside_the_trajectory():
    traj = base_trajectory("circle")
    f0 = [np.ones(48)]
    for k in (len(traj), -len(traj) - 1):
        with pytest.raises(IndexError):
            fh.heat_field_at(traj, f0, k)
    last = fh.heat_field_at(traj, f0, -1)
    assert np.array_equal(last[0], fh.heat_field_at(traj, f0, len(traj) - 1)[0])
    assert np.array_equal(fh.heat_field_at(traj, f0, 0)[0], f0[0])


def test_single_time_solve_returns_the_initial_field():
    traj = flow.FlowTrajectory([0.0], [fx.make_circle(1.0, 16)])
    f0 = np.linspace(0.0, 1.0, 16)
    sol = fh.solve_heat_on_flow(traj, [f0])
    assert np.array_equal(sol.values[0], [f0])
    assert sol.residual_sup.size == 0


# ---------------------------------------------------------------------------
# lazy states


def test_lazy_states_build_on_every_read():
    traj, built = counting(base_trajectory("material"))
    assert isinstance(traj.states, flow.LazyStates) and not built
    a, b = traj.states[3], traj.states[-1]
    assert built == Counter({3: 1, len(traj) - 1: 1})
    assert traj.states[3] is not a                        # nothing is cached
    assert np.array_equal(traj.states[3].vertices, a.vertices)
    window = traj.states[2:6]
    assert isinstance(window, flow.LazyStates) and len(window) == 4
    assert built[2] == 0                                  # a slice builds nothing
    assert [s.vertices.tobytes() for s in window] == \
        [traj.states[k].vertices.tobytes() for k in range(2, 6)]
    assert np.array_equal(window[-1].vertices, traj.states[5].vertices)
    assert len(list(traj.states)) == len(traj)
    with pytest.raises(IndexError):
        traj.states[len(traj)]
    assert b.vertices.tobytes() == traj.state_at(traj.times[-1]).vertices.tobytes()


def test_product_states_are_lazy_and_share_one_line_sample():
    traj, built = counting(base_trajectory("material"))
    prod = flow.product_evolve(traj, LINE)
    assert isinstance(prod.states, flow.LazyStates) and not built
    a, b = prod.states[0][0], prod.states[1][0]
    assert a.factor2 is b.factor2
    assert built == Counter({0: 1, 1: 1})


# ---------------------------------------------------------------------------
# block checks


def _generated(block_of, times):
    return flow.AnalyticTrajectory(times, block=block_of)


@pytest.mark.parametrize("closed", [False, True])
def test_generated_blocks_are_checked_like_states(closed):
    unit = fx.make_circle(1.0, 16).vertices.T
    times = np.linspace(0.0, 0.05, 6)

    def block(bad):
        def block_of(t):
            p = (1.0 + t)[:, None] * unit[:, None, :]
            p[:, t == times[2]] = bad(p[:, t == times[2]])
            return [(geo.DiscreteCurve(p[:, 0].T, closed=closed), p)]
        return block_of

    def nan(p):
        p[0, :, 5] = np.nan
        return p

    def inf(p):
        p[1, :, 0] = -np.inf
        return p

    def repeat(p):
        p[:, :, 6] = p[:, :, 7]
        return p

    def wrap(p):
        p[:, :, -1] = p[:, :, 0]   # the closing edge of a closed curve
        return p

    for bad, error in ((nan, NonFiniteVertex), (inf, NonFiniteVertex),
                       (repeat, DegenerateEdge)):
        traj = _generated(block(bad), times)
        traj.planes(0, 2)                     # the blocks before time 2 pass
        with pytest.raises(error):
            traj.planes(1, 4)
        with pytest.raises(error):
            traj.states[2]
        with pytest.raises(error):
            fh.solve_heat_on_flow(traj, [np.ones(16)])
    traj = _generated(block(wrap), times)
    if closed:
        with pytest.raises(DegenerateEdge):
            traj.planes(1, 4)
    else:
        traj.planes(1, 4)


def test_stacked_planes_refuse_a_changed_vertex_count():
    a, b = fx.make_circle(1.0, 16), fx.make_circle(0.9, 17)
    traj = flow.FlowTrajectory([0.0, 0.1, 0.2], [a, a, b])
    traj.planes(0, 2)
    with pytest.raises(VertexCountChanged):
        traj.planes(1, 3)


# ---------------------------------------------------------------------------
# how many states each consumer builds


def counting(traj):
    """traj with a block form that counts, by time index, the times it is
    called on: once per state built, once per time of a block of planes."""
    built = Counter()
    index = {float(t): k for k, t in enumerate(traj.times)}

    def block(t):
        built.update(index[float(x)] for x in t)
        return traj.block(t)

    return flow.AnalyticTrajectory(traj.times, block=block), built


def _material(t0=0.0):
    return fx.grim_reaper_material_trajectory(1.0, extent=3.0, n=41, t0=t0,
                                              t1=t0 + 0.04, dt=2e-3)


def no_state(block, t):
    raise AssertionError(f"a state was built at t={t}")


@pytest.mark.parametrize("call", [
    lambda traj: fh.caloric_primitive(traj, collar=4),
    lambda traj: fh.caloric_primitive(flow.product_evolve(traj, LINE)),
    fh.angle_caloric_residual,
    flow._rescaled_velocity_residual,
])
def test_caloric_fields_read_only_block_calls(monkeypatch, call):
    traj, read = counting(_material(t0=-1.0))
    monkeypatch.setattr(flow, "_block_state", no_state)
    call(traj)
    assert set(read) == set(range(len(traj)))


@pytest.mark.parametrize("wrap", ["curve", "product"])
def test_evolve_B_builds_only_the_first_state(monkeypatch, wrap):
    """evolve_B reads the static line offsets from state 0 and every other
    geometry from block calls."""
    traj, read = counting(_material(t0=-1.0))
    built, block_state = [], flow._block_state

    def counted(block, t):
        built.append(t)
        return block_state(block, t)

    monkeypatch.setattr(flow, "_block_state", counted)
    fh.evolve_B(traj if wrap == "curve" else flow.product_evolve(traj, LINE), s1=-0.9)
    assert built == [traj.times[0]]
    assert set(read) == set(range(len(traj)))


def ladder_rung(lam):
    """The curve factor of a blow-down-ladder rung at the scenario's defaults."""
    return scenarios.ladder_rung(lam, base_speed=4.0, s1=-0.4, dt=5e-4)


@pytest.mark.parametrize("kind", ["sliding", "material", "circle"])
def test_field_at_reads_no_state_after_k(kind):
    """A counting block form: the march to time k reads the times 0..k
    alone, each block's b + 1 states once."""
    base = base_trajectory(kind)
    traj, built = counting(base)
    f0 = [np.ones(c.n_vertices) for c in flow._curve_components(base.states[0])]
    k = fh.AUDIT_BLOCK + 3
    fh.heat_field_at(traj, f0, k)
    # the first state once more for its component count, and each later
    # block's starting state once more
    assert built == Counter(range(k + 1)) + Counter(range(0, k, fh.AUDIT_BLOCK))


def test_heat_solve_and_audit_build_no_state(monkeypatch):
    """On the material reaper, solve_heat_on_flow and heat_residual take all
    geometry from block calls of several times: no state is built, and the
    solve equals the one on the stacked states bit for bit."""
    base = _material()
    f0 = [np.cos(3.0 * base.states[0].vertices[:, 0])]
    stored = _stored(base)
    want = fh.solve_heat_on_flow(stored, f0)
    traj, read = counting(base)
    monkeypatch.setattr(flow, "_block_state", no_state)
    sol = fh.solve_heat_on_flow(traj, f0)
    assert set(read) == set(range(len(traj)))
    assert sol.residual_sup.tolist() == want.residual_sup.tolist()
    assert all(np.array_equal(a, b) for a, b in zip(sol.values, want.values, strict=True))
    read.clear()
    assert fh.heat_residual(traj, sol.values, collar=4) == \
        fh.heat_residual(stored, want.values, collar=4)
    assert set(read) == set(range(len(traj)))


def test_height_builds_only_the_first_state_and_the_state_at_s1():
    traj, built = counting(ladder_rung(0.2))
    prod = flow.product_evolve(traj, LINE)
    _, frame, _ = fx.make_grim_reaper_product(speed=1.0, extent=1.0, n=8)
    rep = fh.approx_height_solution(prod, s1=-0.4, frame=frame)
    k1 = int(np.argmin(np.abs(traj.times + 0.4)))
    # the heat march up to s1 (as in test_field_at_reads_no_state_after_k),
    # then the states 0 and k1 once each
    march = Counter(range(k1 + 1)) + Counter(range(0, k1, fh.AUDIT_BLOCK))
    assert built == march + Counter([0, k1])
    # the same report as from the stored states
    want = fh.approx_height_solution(_stored(prod), s1=-0.4, frame=frame)
    assert rep.sup_difference == want.sup_difference
    assert (rep.b_bar, rep.theta_bar, rep.beta_bar) == \
        (want.b_bar, want.theta_bar, want.beta_bar)


def test_height_on_the_largest_rung_stays_under_32_mib():
    _, frame, _ = fx.make_grim_reaper_product(speed=1.0, extent=1.0, n=8)
    tracemalloc.start()
    try:
        prod = flow.product_evolve(ladder_rung(0.05), LINE)
        fh.approx_height_solution(prod, s1=-0.4, frame=frame)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(prod) == 1201
    assert flow._curve_components(prod.states[0])[0].n_vertices == 3481
    # holding every state and field, as the stored path does, peaks near 100 MiB
    assert peak < 32 * 2 ** 20, peak / 2 ** 20
