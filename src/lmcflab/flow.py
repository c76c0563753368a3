"""Time evolution: curve shortening flow for n=1, product flows for n=2,
parabolic rescaling, and the shrinker-scale rescaled flow.

The semi-implicit scheme (I - dt*Laplacian) x_new = x_old is the default
(unconditionally stable; long backward horizons need large steps); the
explicit scheme is kept for cross-validation. Open-curve endpoints are
pinned where they are (Dirichlet); the induced boundary lag
decays like erfc(ds / sqrt(4t)) into the interior, so fixtures pad their
arms and diagnostics exclude a boundary collar.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, solve_banded

from .errors import (RangeError, ScanTooLarge, SingularCollapse, SolverFailure,
                     StabilityViolation, TimeGridMismatch, VertexCountChanged)
from .geometry import (LINE_EXTENT, LINE_SAMPLES, AffineLine, DiscreteCurve,
                       ProductLagrangian, as_components, check_vertices,
                       cyclic_tridiagonal, edge_ends, edge_increments,
                       edge_lengths, mean_curvature, require_finite,
                       second_difference, stencil_weights, unit_tangents)

EXPLICIT_CFL = 0.4
COLLAPSE_FRACTION = 1e-3
# Largest self-intersection scan accepted: 2**21 segment pairs, about 360 MB
# of pair temporaries (some 170 bytes a pair), or 2048 segments in a state.
SELF_INTERSECTION_MAX_PAIRS = 2 ** 21
# Times per block of the heat march and of the centred residual audits: 8
# was fastest on the blow-down ladder's open curves (1.5k-3.5k vertices);
# 16 and more were slower.
AUDIT_BLOCK = 8


class LazyStates(Sequence):
    """States that ``build(index)`` makes on every read and nothing keeps;
    a slice is a lazy view of the same builder."""

    def __init__(self, build, indices):
        self._build = build
        self._indices = indices

    def __len__(self):
        return len(self._indices)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return LazyStates(self._build, self._indices[k])
        return self._build(self._indices[k])


class FlowTrajectory:
    """Time-indexed geometry states with persistent vertex identity.

    ``states`` is a list, or a :class:`LazyStates` for generated and product
    trajectories; :meth:`planes` streams the geometry one block at a time.
    """

    def __init__(self, times, states, mode="unrescaled", metadata=None,
                 planes=None):
        self.times = np.asarray(times, dtype=float)
        self.states = states if isinstance(states, LazyStates) else list(states)
        if len(self.states) != self.times.shape[0]:
            raise ValueError("one state per time required")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        self.mode = mode
        self.metadata = dict(metadata or {})
        self._planes = planes

    def __len__(self):
        return len(self.states)

    def planes(self, lo, hi):
        """Per curve component of the states lo..hi-1: (its curve at lo, its
        vertices as coordinate planes of shape (2, hi - lo, N)). A curve x
        static-line product gives its curve factor. Raises
        VertexCountChanged when a component's vertex count changes."""
        if self._planes is not None:
            return self._planes(lo, hi)
        per_state = [_curve_components(s) for s in self.states[lo:hi]]
        for ci, first in enumerate(per_state[0]):
            for k, comps in enumerate(per_state):
                if comps[ci].n_vertices != first.n_vertices:
                    raise VertexCountChanged(
                        f"component {ci} has {first.n_vertices} vertices at time "
                        f"index {lo} and {comps[ci].n_vertices} at {lo + k}")
        return [(first, np.stack([comps[ci].vertices.T for comps in per_state], axis=1))
                for ci, first in enumerate(per_state[0])]


class AnalyticTrajectory(FlowTrajectory):
    """Trajectory backed by an exact state generator; state_at is exact.

    ``generator(t)`` builds each state when it is read. ``block``, if given,
    maps b times to what :meth:`planes` returns for them, in one array pass;
    each block gets :func:`~lmcflab.geometry.check_vertices`, as each state
    does. Without a generator a state is the block's curves at its one time.
    """

    def __init__(self, times, generator=None, mode="unrescaled", metadata=None,
                 block=None):
        times = np.asarray(times, dtype=float)
        if generator is None and block is None:
            raise ValueError("a generator or a block form is required")
        self.generator = generator or (lambda t: _block_state(block, t))
        self.block = block
        super().__init__(times, LazyStates(lambda k: self.generator(times[k]),
                                           range(len(times))),
                         mode=mode, metadata=metadata,
                         planes=None if block is None else self._block_planes)

    def _block_planes(self, lo, hi):
        out = self.block(self.times[lo:hi])
        for curve, planes in out:
            check_vertices(planes, curve.closed)
        return out

    def state_at(self, t):
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise RangeError(f"t={t} outside trajectory range")
        return self.generator(float(t))


def _block_state(block, t):
    """The state at time t of a trajectory given by its block form."""
    curves = [c for c, _ in block(np.array([t]))]
    return curves if len(curves) > 1 else curves[0]


def _curve_components(state):
    """Factor-1 curves of a state (products reduce to their curve factor)."""
    out = []
    for comp in as_components(state):
        if isinstance(comp, ProductLagrangian):
            if comp.factor2_line is None:
                raise NotImplementedError(
                    "heat solves support curve x static-line products")
            out.append(comp.factor1)
        else:
            out.append(comp)
    return out


class CentredGeometry(NamedTuple):
    """One curve component's geometry for a centred residual at r times."""

    k: int           # the first of the times k..k+r-1
    closed: bool
    cols: slice      # the collar-trimmed vertex columns
    dt2: np.ndarray  # (r, 1): t_{k+1} - t_{k-1} at the times k..k+r-1
    p: np.ndarray    # (2, r + 2, N): the planes of the states k-1..k+r
    h: np.ndarray    # (r, edges): the edge lengths of the r middle states
    u: np.ndarray    # (2, r, N): their unit tangents


def centred_blocks(traj, collar):
    """The geometry of the centred residual at the interior times, read from
    :meth:`FlowTrajectory.planes` in blocks of AUDIT_BLOCK times: yields
    (component index, CentredGeometry) per block and component, leaving out
    each component with no vertex inside the collar."""
    times = traj.times
    for k0 in range(1, len(times) - 1, AUDIT_BLOCK):
        k1 = min(k0 + AUDIT_BLOCK, len(times) - 1)
        dt2 = (times[k0 + 1:k1 + 1] - times[k0 - 1:k1 - 1])[:, None]
        for ci, (c, p) in enumerate(traj.planes(k0 - 1, k1 + 1)):
            interior = np.flatnonzero(c.interior_mask(collar))  # one index run
            if interior.size:
                mid = p[:, 1:-1]
                cols = slice(interior[0], interior[-1] + 1)
                yield ci, CentredGeometry(k0, c.closed, cols, dt2, p,
                                          edge_lengths(mid, c.closed),
                                          unit_tangents(mid, c.closed))


def normal_fields(g: CentredGeometry):
    """Mean curvature H and normal part x^perp of the position (coordinate
    planes) on the middle states of g."""
    x = g.p[:, 1:-1]
    H = second_difference(edge_increments(x, g.closed), g.h, g.closed)
    return H, x - (x[0] * g.u[0] + x[1] * g.u[1]) * g.u


# ---------------------------------------------------------------------------
# single curve steps


def _check_collapse(curve, min_edge):
    if min_edge is not None and curve.edge_lengths().min() < min_edge:
        raise SingularCollapse(
            f"min edge {curve.edge_lengths().min():.3g} below threshold {min_edge:.3g}")


def step_flow_explicit(curve: DiscreteCurve, dt: float, min_edge=None) -> DiscreteCurve:
    """Forward Euler step: every vertex moves by dt * H."""
    h_min = curve.edge_lengths().min()
    if dt > EXPLICIT_CFL * h_min ** 2:
        raise StabilityViolation(
            f"dt={dt:.3g} exceeds {EXPLICIT_CFL} * h_min^2 = {EXPLICIT_CFL * h_min**2:.3g}")
    H = mean_curvature(curve)
    v = curve.vertices + dt * H
    if not curve.closed:
        # Dirichlet: endpoints pinned
        v[0] = curve.vertices[0]
        v[-1] = curve.vertices[-1]
    out = curve.with_vertices(v)
    _check_collapse(out, min_edge)
    return out


def step_flow_semi_implicit(curve: DiscreteCurve, dt: float, min_edge=None) -> DiscreteCurve:
    """Backward-Euler step (I - dt*Laplacian) x_new = x_old.

    The Laplacian uses the arclength weights of the current state; closed
    curves solve a cyclic tridiagonal system, open curves a Dirichlet one
    with both endpoints pinned at their current positions.
    """
    v = curve.vertices
    a, b = stencil_weights(curve.edge_lengths(), curve.closed)  # to i-1, i+1
    diag, left, right = 1.0 + dt * (a + b), dt * a, dt * b
    require_finite(diag, left, right, v)
    if curve.closed:
        try:
            v_new = spla.splu(cyclic_tridiagonal(diag, left, right)).solve(v)
        except RuntimeError as exc:  # SuperLU: exactly singular factor
            raise SolverFailure(str(exc)) from exc
    else:
        band = np.zeros((3, curve.n_vertices - 2))
        band[1] = diag
        band[0, 1:] = -right[:-1]
        band[2, :-1] = -left[1:]
        rhs = v[1:-1].copy()
        rhs[0] += left[0] * v[0]
        rhs[-1] += right[-1] * v[-1]
        try:
            interior = solve_banded((1, 1), band, rhs)
        except LinAlgError as exc:
            raise SolverFailure(str(exc)) from exc
        v_new = np.vstack([v[0], interior, v[-1]])
    out = curve.with_vertices(v_new)
    _check_collapse(out, min_edge)
    return out


def step_flow(state, dt, scheme="semi_implicit", min_edge=None):
    """One flow step of a state (curve or list of curves)."""
    stepper = step_flow_semi_implicit if scheme == "semi_implicit" else step_flow_explicit
    comps = as_components(state)
    out = [stepper(c, dt, min_edge=min_edge) for c in comps]
    return out if isinstance(state, (list, tuple)) else out[0]


def redistribute(curve: DiscreteCurve) -> DiscreteCurve:
    """Resample at uniform arclength with the same vertex count.

    Changes material identity; callers record the cadence in metadata.
    """
    v = curve.vertices
    pts = np.vstack([v, v[0]]) if curve.closed else v
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    n = curve.n_vertices
    s_new = np.linspace(0.0, s[-1], n, endpoint=not curve.closed)
    v_new = np.stack([np.interp(s_new, s, pts[:, k]) for k in range(2)], axis=1)
    return curve.with_vertices(v_new)


def evolve(state, dt, n_steps, scheme="semi_implicit", t0=0.0,
           redistribute_every=0, record_every=1) -> FlowTrajectory:
    """March the flow, recording states every ``record_every`` steps."""
    comps = as_components(state)
    mean_edge = np.mean(np.concatenate([c.edge_lengths() for c in comps]))
    min_edge = COLLAPSE_FRACTION * mean_edge
    times = [t0]
    states = [comps]
    cur = comps
    for k in range(1, n_steps + 1):
        cur = [step_flow(c, dt, scheme=scheme, min_edge=min_edge) for c in cur]
        if redistribute_every and k % redistribute_every == 0:
            cur = [redistribute(c) for c in cur]
        if k % record_every == 0 or k == n_steps:
            times.append(t0 + k * dt)
            states.append(cur)
    meta = {"scheme": scheme, "dt": dt,
            "h_mean": float(mean_edge),
            "redistribute_every": int(redistribute_every),
            "record_every": int(record_every)}
    return FlowTrajectory(times, states, metadata=meta)


# ---------------------------------------------------------------------------
# rescalings


def _scale_component(comp, lam):
    if isinstance(comp, ProductLagrangian):
        f1 = comp.factor1.with_vertices(lam * comp.factor1.vertices)
        f2 = comp.factor2.with_vertices(lam * comp.factor2.vertices)
        if comp.factor2_line is not None:
            line = AffineLine(lam * comp.factor2_line.point,
                              comp.factor2_line.direction)
            return ProductLagrangian(f1, line, component_id=comp.component_id,
                                     line_sample=f2)
        return ProductLagrangian(f1, f2, component_id=comp.component_id)
    return comp.with_vertices(lam * comp.vertices)


def scale_state(state, lam):
    comps = [_scale_component(c, lam) for c in as_components(state)]
    return comps if isinstance(state, (list, tuple)) else comps[0]


def parabolic_rescale(traj: FlowTrajectory, lam: float) -> FlowTrajectory:
    """Parabolic rescaling (x, t) -> (lam*x, lam^2*t) of a trajectory."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if isinstance(traj, AnalyticTrajectory):
        gen, block = traj.generator, traj.block
        if block is None:
            return AnalyticTrajectory(lam * lam * traj.times,
                                      lambda t: scale_state(gen(t / (lam * lam)), lam),
                                      mode=traj.mode, metadata=traj.metadata)
        return AnalyticTrajectory(lam * lam * traj.times, mode=traj.mode, metadata=traj.metadata,
                                  block=lambda t: [(c.with_vertices(lam * c.vertices), lam * p)
                                                   for c, p in block(t / (lam * lam))])
    states = [scale_state(s, lam) for s in traj.states]
    return FlowTrajectory(lam * lam * traj.times, states, mode=traj.mode,
                          metadata=dict(traj.metadata, rescaled_by=lam))


def to_rescaled(traj: FlowTrajectory, tau_min=None, tau_max=None, dtau=0.01) -> FlowTrajectory:
    """Shrinker-scale reparametrization tau = -log(-t), state -> e^{tau/2} state.

    The source trajectory must cover t < 0 over the requested tau window
    and be an :class:`AnalyticTrajectory`, whose states exist between its
    recorded times (RangeError otherwise). Records the residual of
    |normal velocity - (H + x^perp/2)| in metadata.
    """
    if traj.mode != "unrescaled":
        raise ValueError("trajectory is already rescaled")
    t_lo, t_hi = traj.times[0], traj.times[-1]
    if t_hi >= 0:
        t_hi = min(t_hi, -1e-300)
    if t_lo >= 0:
        raise RangeError("trajectory does not cover t < 0")
    lo = -np.log(-t_lo)
    hi = -np.log(-t_hi)
    tau_min = lo if tau_min is None else tau_min
    tau_max = hi if tau_max is None else tau_max
    if tau_min < lo - 1e-9 or tau_max > hi + 1e-9:
        raise RangeError(
            f"tau window [{tau_min}, {tau_max}] not covered by [{lo:.4g}, {hi:.4g}]")
    if not isinstance(traj, AnalyticTrajectory):
        raise RangeError("a stored trajectory has no states between its "
                         "recorded times; to_rescaled needs an AnalyticTrajectory")
    taus = np.arange(tau_min, tau_max + 0.5 * dtau, dtau)
    states = []
    for tau in taus:
        t = -np.exp(-tau)
        states.append(scale_state(traj.state_at(t), np.exp(tau / 2.0)))
    out = FlowTrajectory(taus, states, mode="rescaled",
                         metadata=dict(traj.metadata, dtau=dtau))
    out.metadata["rescaled_velocity_residual"] = _rescaled_velocity_residual(out)
    return out


def _rescaled_velocity_residual(traj):
    """Max residual of the rescaled normal speed against H + x^perp/2."""
    curves = FlowTrajectory(traj.times, [[c.factor1 if isinstance(c, ProductLagrangian)
                                          else c for c in as_components(s)]
                                         for s in traj.states])
    worst = 0.0
    for _, g in centred_blocks(curves, 2):
        H, xperp = normal_fields(g)
        vel = (g.p[:, 2:] - g.p[:, :-2]) / g.dt2
        target = H + 0.5 * xperp
        nu = -g.u[1], g.u[0]
        v_n = vel[0] * nu[0] + vel[1] * nu[1]
        res = v_n - (target[0] * nu[0] + target[1] * nu[1])
        worst = max(worst, float(np.max(np.abs(res[:, g.cols]))))
    return worst


def product_evolve(traj1: FlowTrajectory, traj2_or_line) -> FlowTrajectory:
    """Product trajectory from a curve trajectory and a curve trajectory/line.

    A curve x static-line product evolves each time slice identically; with
    two trajectories the time grids must agree. The product states are
    built when read; a curve x line product streams the planes of traj1.
    """
    if isinstance(traj2_or_line, AffineLine):
        line = traj2_or_line
        sample = line.sample(LINE_EXTENT, LINE_SAMPLES)

        def build(k):
            return [ProductLagrangian(c, line, component_id=c.component_id,
                                      line_sample=sample)
                    for c in as_components(traj1.states[k])]

        return FlowTrajectory(traj1.times, LazyStates(build, range(len(traj1))),
                              mode=traj1.mode, metadata=traj1.metadata,
                              planes=traj1.planes)
    traj2 = traj2_or_line
    if len(traj1.times) != len(traj2.times) or \
            np.max(np.abs(traj1.times - traj2.times)) > 1e-12:
        raise TimeGridMismatch("factor trajectories live on different time grids")

    def build_pair(k):
        return [ProductLagrangian(as_components(traj1.states[k])[0],
                                  as_components(traj2.states[k])[0])]

    return FlowTrajectory(traj1.times, LazyStates(build_pair, range(len(traj1))),
                          mode=traj1.mode, metadata=traj1.metadata)


# ---------------------------------------------------------------------------
# embeddedness audit


def segments_intersect(p1, p2, q1, q2):
    """Vectorized proper-intersection test between segment batches in R^2."""
    d1 = p2 - p1
    d2 = q2 - q1
    denom = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    dp = q1 - p1
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (dp[:, 0] * d2[:, 1] - dp[:, 1] * d2[:, 0]) / denom
        u = (dp[:, 0] * d1[:, 1] - dp[:, 1] * d1[:, 0]) / denom
    ok = np.abs(denom) > 1e-15
    eps = 1e-12
    return ok & (t > eps) & (t < 1 - eps) & (u > eps) & (u < 1 - eps)


def state_self_intersects(state) -> bool:
    """Segment-segment scan over all curve components of a state.

    Raises ScanTooLarge, before allocating, when the state has more than
    SELF_INTERSECTION_MAX_PAIRS segment pairs.
    """
    comps = as_components(state)
    n_seg = sum(c.n_vertices - (not c.closed) for c in comps)
    if n_seg * (n_seg - 1) // 2 > SELF_INTERSECTION_MAX_PAIRS:
        raise ScanTooLarge(
            f"{n_seg} segments make {n_seg * (n_seg - 1) // 2} pairs, over the "
            f"self-intersection limit of {SELF_INTERSECTION_MAX_PAIRS}")
    P1s, P2s, cids, sids, closed_len = [], [], [], [], {}
    for k, c in enumerate(comps):
        p1, p2 = edge_ends(c.vertices, c.closed)
        m = p1.shape[0]
        P1s.append(p1)
        P2s.append(p2)
        cids.append(np.full(m, k))
        sids.append(np.arange(m))
        closed_len[k] = m if c.closed else None
    P1 = np.concatenate(P1s)
    P2 = np.concatenate(P2s)
    cid = np.concatenate(cids)
    sid = np.concatenate(sids)
    ii, jj = np.triu_indices(P1.shape[0], k=1)
    same = cid[ii] == cid[jj]
    diff = np.abs(sid[ii] - sid[jj])
    adjacent = same & (diff <= 1)
    for k, m in closed_len.items():
        if m is not None:
            adjacent |= same & (cid[ii] == k) & (diff == m - 1)
    keep = ~adjacent
    hits = segments_intersect(P1[ii[keep]], P2[ii[keep]], P1[jj[keep]], P2[jj[keep]])
    return bool(np.any(hits))


def first_crossing_time(traj: FlowTrajectory):
    """First recorded time at which any state self-intersects, else None."""
    for t, s in zip(traj.times, traj.states):
        if state_self_intersects(s):
            return float(t)
    return None


# ---------------------------------------------------------------------------
# trajectory serialization (time-indexed vertex blocks + metadata header)


def save_trajectory(path, traj: FlowTrajectory) -> None:
    """Write a curve trajectory: JSON metadata header, then per-time blocks
    ``time <t>`` followed by one ``component_id x y`` record per vertex."""
    with open(path, "w") as fh:
        fh.write("# lmcflab trajectory v1\n")
        meta = dict(traj.metadata, mode=traj.mode)
        fh.write("# meta " + json.dumps(meta, sort_keys=True) + "\n")
        for t, state in zip(traj.times, traj.states):
            comps = as_components(state)
            if any(isinstance(c, ProductLagrangian) for c in comps):
                raise NotImplementedError("trajectory files store curve states")
            fh.write(f"time {float(t)!r}\n")
            for c in comps:
                closed = int(c.closed)
                for x, y in c.vertices:
                    fh.write(f"{c.component_id} {closed} {float(x)!r} {float(y)!r}\n")


def load_trajectory(path) -> FlowTrajectory:
    """Read a trajectory written by :func:`save_trajectory`."""
    meta = {}
    times = []
    states = []
    block = []

    def flush():
        if not block:
            return
        comps = []
        arr = np.asarray(block, dtype=float)
        for cid in np.unique(arr[:, 0]).astype(int):
            rows = arr[arr[:, 0] == cid]
            comps.append(DiscreteCurve(rows[:, 2:4], closed=bool(rows[0, 1]),
                                       component_id=int(cid)))
        states.append(comps)
        block.clear()

    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("# meta"):
                meta = json.loads(line[len("# meta"):])
                continue
            if line.startswith("#"):
                continue
            if line.startswith("time "):
                flush()
                times.append(float(line.split()[1]))
                continue
            block.append([float(x) for x in line.split()])
    flush()
    mode = meta.pop("mode", "unrescaled")
    return FlowTrajectory(times, states, mode=mode, metadata=meta)
