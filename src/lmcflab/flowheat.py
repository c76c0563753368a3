"""Heat equations along evolving discrete flows: caloric coordinates, the
caloric combination of the Liouville primitive with the angle, the cosine
B-field, and the approximate caloric height near plane-pair geometry.

The per-step scheme is backward Euler with the metric of the post-step
state (mass-lumped arclength weights), interleaved with the geometric
step. Vertex correspondences that move tangentially (pinned ends,
redistribution) are handled by an advection term built from the measured
tangential vertex velocity; material trajectories have it near zero.

The heat march (``_march``) walks the trajectory in blocks of
``AUDIT_BLOCK`` times, reading the b + 1 states a block's march needs as
(2, b + 1, N) coordinate planes per component
(:meth:`~lmcflab.flow.FlowTrajectory.planes`): a generated trajectory
computes them in one array pass and builds no state, a stored one stacks
its states. One array pass gives the post-step edge lengths, tangents,
measured tangential velocities and step coefficients of all b states, and
the field is marched through them, one linear solve per step (LAPACK gtsv
on the three diagonals for open curves, sparse LU on
:func:`~lmcflab.geometry.cyclic_tridiagonal` for closed ones). The march
yields planes and fields and audits nothing. Of its two consumers,
:func:`solve_heat_on_flow` keeps every field and measures the growth, then
audits the fields with :func:`heat_residual`; :func:`heat_field_at` marches
only up to one time, with every check of the march and no audit or growth
measurement.

Every caloric audit takes the centred residual (d_t - Delta - v_tan d_s) f
from one row kernel (``_residual_rows``) on the geometry that one block
walker, :func:`~lmcflab.flow.centred_blocks`, reads for AUDIT_BLOCK
interior times at a time, and folds the rows its own way: sup and l2
(:func:`heat_residual`, the audit of :func:`solve_heat_on_flow`), weighted
means (the time gauge of :func:`caloric_primitive`), the identity's
right-hand side subtracted (:func:`evolve_B`) or turning increments in
place of the field's (:func:`angle_caloric_residual`). A component with no
vertex inside the collar adds nothing. The stencils are the vertex-axis
kernels that :func:`~lmcflab.geometry.laplacian` applies to a single state,
so the blocked results equal a per-state loop bit for bit. A component
whose vertex count changes between recorded states raises
VertexCountChanged.

The approximate caloric height (``approx_height_solution``, ``select_s1``)
reads the caloric primitive only on the first state, where its time gauge
is zero. It takes the angle and the Liouville primitive of that state and
runs the holonomy check (NotExact) on the closed components of every
state; ``caloric_primitive`` builds the gauged field over the whole
trajectory for callers that need it. The height finds the two pieces at s1
and their limit constants (``_limit_heights``, shared with ``select_s1``)
before it marches the heat field up to s1 (:func:`heat_field_at`), and
builds, besides the first state, only the state at s1.

Products curve x static-line reduce exactly to 1-D solves on the curve
factor: initial data used here is either constant along the line factor
(B, B*z with z along the curve factor) or linear in it (B*z with z along
the line factor), and both symmetries are preserved by the product heat
flow. The general 2-D product solve is not needed by any fixture.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dgtsv

from .diagnostics import check_polynomial_growth
from .errors import ComponentAmbiguity, SolverFailure
from .flow import (AUDIT_BLOCK, CentredGeometry, FlowTrajectory,
                   _curve_components, centred_blocks, normal_fields)
from .geometry import (CoordinateFrame, ProductLagrangian, as_components,
                       cyclic_tridiagonal, edge_increments, edge_lengths,
                       exactness_primitive, lagrangian_angle, require_finite,
                       second_difference, stencil_weights, turning_increments,
                       unit_tangents, vertex_differences, vertex_sums)
# unused here; perfbench/test_perfbench.py::test_tracer_rebinds_every_
# namespace_and_restores_it checks that the tracer rebinds this binding
from .geometry import laplacian  # noqa: F401


def _march_block(closed, p, h, u, dt, f, out):
    """Backward-Euler steps of d_t f = Delta f + v_tan * d_s f from the field
    f on the state p[:, 0] into the states p[:, 1:], whose edge lengths h and
    unit tangents u (coordinate planes) are given; writes the new fields to
    the rows of the (b, N) array out.

    dt has shape (b, 1). Hybrid advection: central differences, switching
    to upwind where the cell Peclet number |v| h / 2 exceeds one (keeps the
    matrix an M-matrix).
    """
    vel = (p[:, 1:] - p[:, :-1]) / dt
    vel *= u
    v_tan = vel[0] + vel[1]
    lo, hi = stencil_weights(h, closed)
    if closed:
        c_lo, c_di, c_hi = _advection_coeffs(v_tan, np.roll(h, 1, axis=-1), h)
    else:
        c_lo, c_di, c_hi = _advection_coeffs(v_tan[:, 1:-1], h[:, :-1], h[:, 1:])
    diag = 1.0 + dt * (lo + hi) - dt * c_di
    left = dt * (lo + c_lo)     # coupling to vertex i-1
    right = dt * (hi + c_hi)    # coupling to vertex i+1
    _implicit_steps(closed, diag, left, right, f, out)


def _implicit_steps(closed, diag, left, right, f, out):
    """Fields u_1..u_b of b implicit steps from u_0 = f, written to the rows
    of the (b, N) array out: step j solves
    diag[j, i] u_i - left[j, i] u_{i-1} - right[j, i] u_{i+1} = u_{j-1, i}.

    Closed curves couple every vertex cyclically (sparse LU); open curves
    solve for the interior vertices with LAPACK gtsv on the three diagonals
    and keep the end values of f, the coefficients then holding the
    interior rows. Raises SolverFailure when a coefficient, f or a result is
    not finite, or when a system is singular.
    """
    require_finite(diag, left, right, f)
    n = f.shape[0]
    if closed:
        for j in range(len(diag)):
            try:
                out[j] = spla.splu(cyclic_tridiagonal(diag[j], left[j],
                                                      right[j])).solve(f)
            except RuntimeError as exc:  # SuperLU: exactly singular factor
                raise SolverFailure(str(exc)) from exc
            f = out[j]
    else:
        lower, upper = -left[:, 1:], -right[:, :-1]
        for j in range(len(diag)):
            rhs = f[1:-1].copy()
            rhs[0] += left[j, 0] * f[0]
            rhs[-1] += right[j, -1] * f[-1]
            if n == 3:  # one unknown: scipy's gtsv wrapper takes n >= 2
                out[j, 1:-1] = solve_banded((1, 1), [[0.0], diag[j], [0.0]], rhs)
            else:
                *_, x, info = dgtsv(lower[j], diag[j], upper[j], rhs,
                                    overwrite_b=True)
                if info != 0:
                    raise SolverFailure(f"singular implicit step (gtsv info {info})")
                out[j, 1:-1] = x
            out[j, 0], out[j, -1] = f[0], f[-1]
            f = out[j]
    require_finite(out)


def _advection_coeffs(v, h_prev, h_next):
    """Coefficients of v * d_s f on (f_{i-1}, f_i, f_{i+1}).

    For the right-hand-side term +v d_s f information travels from the +s
    side when v > 0, so the upwind branch uses the forward difference
    (keeping I - dt(Delta + Adv) an M-matrix).
    """
    v = np.asarray(v, dtype=float)
    span = h_prev + h_next
    central = np.abs(v) * 0.5 * span / 2.0 <= 1.0    # cell Peclet number
    ahead = v > 0
    v_span = v / span
    c_lo = np.where(central, -v_span, np.where(ahead, 0.0, -v / h_prev))
    c_hi = np.where(central, v_span, np.where(ahead, v / h_next, 0.0))
    c_di = -(c_lo + c_hi)
    return c_lo, c_di, c_hi


@dataclass
class HeatSolution:
    """Field values along a trajectory plus the centred residual audit."""

    times: np.ndarray
    values: list  # per time: per-component arrays
    residual_times: np.ndarray
    residual_sup: np.ndarray
    residual_l2: np.ndarray
    growth_constant: float = 0.0

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,sup_residual,l2_residual\n")
            for t, s, l in zip(self.residual_times, self.residual_sup,
                               self.residual_l2):
                fh.write(f"{t:.12g},{s:.12g},{l:.12g}\n")


def _march(traj, f0, stop):
    """The heat march from the fields f0 through the times 1..stop-1.

    Yields (k0, k1, per component (p, F)): first (0, 1), the first state's
    planes p and the fields f0; then per block the planes of the states
    k0-1..k1-1 and the fields at the times k0-1..k1-1, rows the next block
    overwrites. A yielded list is emptied when the consumer asks for the
    next block.
    """
    times = traj.times
    first = traj.planes(0, 1)
    if len(f0) != len(first):
        raise ValueError("one initial array per component required")
    # allocated before the march: arrays allocated among a block's
    # temporaries fragment the heap (peak RSS)
    rows = [np.empty((AUDIT_BLOCK + 1, len(f))) for f in f0]
    for F, f in zip(rows, f0):
        F[0] = f
    yield 0, 1, [(p, F[:1]) for (_, p), F in zip(first, rows)]
    for k0 in range(1, stop, AUDIT_BLOCK):
        k1 = min(k0 + AUDIT_BLOCK, stop)
        dt = (times[k0:k1] - times[k0 - 1:k1 - 1])[:, None]
        block = []
        for (c, p), F in zip(traj.planes(k0 - 1, k1), rows):
            F = F[:k1 - k0 + 1]
            h = edge_lengths(p[:, 1:], c.closed)
            u = unit_tangents(p[:, 1:], c.closed)
            _march_block(c.closed, p, h, u, dt, F[0], F[1:])
            block.append((p, F))
        yield k0, k1, block
        # the consumer is done with this block: free its planes and geometry
        # before the next block's are read
        block.clear()
        c = p = h = u = None
        for F in rows:
            F[0] = F[k1 - k0]   # the next block's march starts here


def solve_heat_on_flow(traj: FlowTrajectory, f0, growth_degree: int = 2,
                       growth_bound=None) -> HeatSolution:
    """March the heat equation along the trajectory from initial data f0.

    f0: list of per-component vertex arrays on the first state. Returns the
    field at every recorded time, its centred-difference residual audit at
    every interior time (:func:`heat_residual`, collar 2) and the measured
    polynomial-growth constant over every time. With
    ``growth_bound`` the declared certificate C (1 + R^growth_degree) is
    enforced on every state (GrowthUnbounded otherwise).
    """
    times = traj.times
    fields = [np.empty((len(times), len(f))) for f in f0]
    growth = 0.0
    for k0, k1, block in _march(traj, f0, len(times)):
        for ci, (p, F) in enumerate(block):
            fields[ci][k0:k1] = F[k0 - k1:]   # the times k0..k1-1
            growth = max(growth, check_polynomial_growth(
                F[k0 - k1:], p[:, k0 - k1:], growth_degree, growth_bound))
    values = [[F[k] for F in fields] for k in range(len(times))]
    sup, l2 = heat_residual(traj, values)
    return HeatSolution(times, values, times[1:-1], np.asarray(sup),
                        np.asarray(l2), growth)


def heat_field_at(traj: FlowTrajectory, f0, k: int):
    """``solve_heat_on_flow(traj, f0).values[k]``, bit for bit, marched up
    to time k alone: no audit, no growth measurement, no later state read.
    """
    k = range(len(traj.times))[k]
    for *_, block in _march(traj, f0, k + 1):
        fields = [F[-1].copy() for _, F in block]
    return fields


def _residual_sums(n_times):
    """Per interior time: running sup, weighted square sum and weight sum."""
    return np.zeros((3, max(n_times - 2, 0)))


def _residual_summary(sums):
    """(sup, l2) arrays per interior time from the running sums."""
    return sums[0].copy(), np.sqrt(sums[1] / np.maximum(sums[2], 1e-300))


def _field_rows(values, ci, g: CentredGeometry):
    """Component ci of the per-time fields values at the times k-1..k+r of
    g, as one (r + 2, N) array."""
    return np.array([values[j][ci] for j in range(g.k - 1, g.k + len(g.h) + 1)])


def _residual_rows(g: CentredGeometry, F, d, grad):
    """Centred residual (d_t - Delta - v_tan d_s) f at the r times of g, over
    its columns, and the dual weights of those columns.

    F (r + 2, N) holds the field rows at the times k-1..k+r; d (r, edges)
    the edge increments of the r middle rows, from which Delta f is the
    arclength second difference, and grad (r, N) the numerators of d_s f
    over the sums of the two edges at each vertex.
    """
    h_sums = vertex_sums(g.h, g.closed)
    vel = (g.p[:, 2:] - g.p[:, :-2]) / g.dt2
    vel *= g.u
    v_tan = vel[0] + vel[1]
    res = (F[2:] - F[:-2]) / g.dt2
    res -= second_difference(d, g.h, g.closed)
    res -= v_tan * (grad / h_sums)
    return res[:, g.cols], 0.5 * h_sums[:, g.cols]


def _heat_rows(g: CentredGeometry, F):
    """:func:`_residual_rows` of the field rows F with the arclength
    operators of the heat march."""
    fm = F[1:-1]
    return _residual_rows(g, F, edge_increments(fm, g.closed),
                          vertex_differences(fm, g.closed))


def _fold(sums, g: CentredGeometry, res, w):
    """Fold residual rows at the times of g and their weights into the
    running sums: a sup and the weighted square and weight sums."""
    sup, sq_sum, w_sum = sums[:, g.k - 1:g.k - 1 + len(res)]
    worst = np.max(np.abs(res), axis=1)
    sup[:] = np.where(worst > sup, worst, sup)
    # one 1-D sum per row: the pairwise order of a per-state sum
    sq_sum += [np.sum(row) for row in w * res ** 2]
    w_sum += [np.sum(row) for row in w]


def heat_residual(traj: FlowTrajectory, values, collar: int = 2):
    """Centred residual (d_t - Delta - v_tan d_s) f at interior times.

    Returns per-time (sup, l2) over the collar-trimmed interiors of all
    components; the operator matches the solver's spatial discretization.
    A component with no interior vertex adds nothing.
    """
    sums = _residual_sums(len(traj.times))
    for ci, g in centred_blocks(traj, collar):
        _fold(sums, g, *_heat_rows(g, _field_rows(values, ci, g)))
    sup, l2 = _residual_summary(sums)
    return sup.tolist(), list(l2)


def angle_caloric_residual(traj: FlowTrajectory, collar: int = 2):
    """Residual (d_t - Delta - v_tan d_s) theta of the transported angle
    field, with the centred operators of :func:`heat_residual`.

    Delta and d_s act through seam-free turning increments, so closed
    curves with winding (the circle) are handled; returns per-interior-time
    sup values. A component with no interior vertex adds nothing.
    """
    states = [_curve_components(s) for s in traj.states]
    thetas = _aligned_angle_fields(states)
    sums = _residual_sums(len(traj.times))
    for ci, g in centred_blocks(FlowTrajectory(traj.times, states), collar):
        d = turning_increments(g.u, g.closed)
        _fold(sums, g, *_residual_rows(g, _field_rows(thetas, ci, g), d,
                                       vertex_sums(d, g.closed)))
    return _residual_summary(sums)[0]


# ---------------------------------------------------------------------------
# caloric primitive beta + 2 t theta


@dataclass
class CaloricPrimitive:
    times: np.ndarray
    theta: list    # per time: per-component arrays, branch-aligned in t
    beta: list     # per time: per-component arrays, caloric gauge applied
    gauge: np.ndarray  # per time, per component: the additive constants
    residual_sup: np.ndarray  # gauged residual of beta + 2 t theta
    residual_l2: np.ndarray
    residual_times: np.ndarray


def _aligned_angle_fields(comps_per_state):
    """Per-time unwrapped angles with time-continuous branch at the anchor."""
    out = []
    prev = None
    for comps in comps_per_state:
        fields = []
        for ci, c in enumerate(comps):
            th = lagrangian_angle(c)
            if prev is not None:
                shift = 2.0 * np.pi * np.round((prev[ci][0] - th[0]) / (2.0 * np.pi))
                th = th + shift
            fields.append(th)
        out.append(fields)
        prev = fields
    return out


def caloric_primitive(traj: FlowTrajectory, collar: int = 2) -> CaloricPrimitive:
    """Liouville primitive with the time gauge that makes beta + 2t theta caloric.

    beta is anchored at the first vertex of each component; the gauge rate
    per component is the weighted mean of the raw heat residual of
    beta + 2t theta (a constant-rate gauge is the only freedom), integrated
    in time by the trapezoid rule. NotExact propagates from closed
    components with holonomy.
    """
    times = traj.times
    # each state is built once: a generated trajectory builds it on each read
    curves = FlowTrajectory(times, [_curve_components(s) for s in traj.states])
    thetas, beta, gauge = _gauged_primitive(curves, collar)
    g_gauged = [[b + 2.0 * t * th for b, th in zip(beta[k], thetas[k])]
                for k, t in enumerate(times)]
    sup, l2 = heat_residual(curves, g_gauged, collar=collar)
    return CaloricPrimitive(times, thetas, beta, gauge,
                            np.asarray(sup), np.asarray(l2), times[1:-1])


def _gauged_primitive(curves: FlowTrajectory, collar):
    """The aligned angles theta, the gauged primitive beta and the gauge of
    :func:`caloric_primitive` on a trajectory of stored curve components,
    without its residual audit of the gauged field."""
    times = curves.times
    comps_per_state = curves.states
    thetas = _aligned_angle_fields(comps_per_state)
    n_comp = len(comps_per_state[0])
    betas_raw = [[exactness_primitive(c) for c in comps]
                 for comps in comps_per_state]
    g_fields = [[betas_raw[k][ci] + 2.0 * t * thetas[k][ci] for ci in range(n_comp)]
                for k, t in enumerate(times)]
    rates = _gauge_rates(curves, g_fields, collar)
    gauge = np.zeros_like(rates)
    for k in range(1, len(times)):
        dt = times[k] - times[k - 1]
        gauge[k] = gauge[k - 1] - 0.5 * dt * (rates[k] + rates[k - 1])
    beta = [[betas_raw[k][ci] + gauge[k, ci] for ci in range(n_comp)]
            for k in range(len(times))]
    return thetas, beta, gauge


def _gauge_rates(curves: FlowTrajectory, fields, collar):
    """Per time and component, the dual-weighted mean of the heat residual
    of the fields over the interior, 0 without an interior vertex; the first
    and last times take their neighbours' rates."""
    rates = np.zeros((len(curves.times), len(fields[0])))
    for ci, g in centred_blocks(curves, collar):
        res, w = _heat_rows(g, _field_rows(fields, ci, g))
        rates[g.k:g.k + len(res), ci] = [np.sum(a) / np.sum(b) for a, b in zip(w * res, w)]
    if len(rates) > 2:
        rates[0] = rates[1]
        rates[-1] = rates[-2]
    return rates


# ---------------------------------------------------------------------------
# B-field of the linking argument


@dataclass
class BFieldReport:
    times: np.ndarray
    B: list  # per time, per component arrays on the curve factor
    residual_times: np.ndarray
    residual_sup: np.ndarray
    identity_scale: float


def _line_offset_sq(comp):
    if isinstance(comp, ProductLagrangian) and comp.factor2_line is not None:
        line = comp.factor2_line
        p = line.point - (line.point @ line.direction) * line.direction
        return float(p @ p)
    return 0.0


def evolve_B(traj: FlowTrajectory, s1: float, collar: int = 2) -> BFieldReport:
    """B = cos(beta + 2(t - s1) theta) with its evolution identity audit.

    The identity (d_t - Delta - v_tan d_s) B = |x^perp + 2(s1 - t) H|^2 B is
    checked with the centred operators of :func:`heat_residual`, the
    tangential term accounting for vertices that slide along the curve;
    ``identity_scale`` is the sup of the right-hand side. At t = s1 the
    field reduces to cos(beta). A component with no interior vertex adds
    nothing. Exactness of the trajectory is required (NotExact propagates).
    """
    times = traj.times
    states = list(traj.states)   # built once: see caloric_primitive
    curves = FlowTrajectory(times, [_curve_components(s) for s in states])
    thetas, beta, _ = _gauged_primitive(curves, collar)
    offsets = np.array([[_line_offset_sq(c) for c in as_components(s)] for s in states])
    B_fields = [[np.cos(b + 2.0 * (t - s1) * th) for b, th in zip(beta[k], thetas[k])]
                for k, t in enumerate(times)]
    sums = _residual_sums(len(times))
    scale = 0.0
    for ci, g in centred_blocks(curves, collar):
        F = _field_rows(B_fields, ci, g)
        lhs, w = _heat_rows(g, F)
        H, xperp = normal_fields(g)
        rows = slice(g.k, g.k + len(g.h))
        x = xperp + (2.0 * (s1 - times[rows]))[:, None] * H
        rhs = ((x[0] * x[0] + x[1] * x[1] + offsets[rows, ci, None]) * F[1:-1])[:, g.cols]
        _fold(sums, g, lhs - rhs, w)
        scale = max(scale, float(np.max(np.abs(rhs))))
    return BFieldReport(times, B_fields, times[1:-1], _residual_summary(sums)[0], scale)


# ---------------------------------------------------------------------------
# approximate caloric height near plane pairs


@dataclass
class HeightReport:
    s1: float
    b_bar: list             # per labeled component
    sup_difference: list    # per labeled component: sup |b_bar z - h| on B_2
    theta_bar: list
    beta_bar: list
    z_mode: str


def _z_mode(frame: CoordinateFrame) -> str:
    """Where the frame's e_z lives: the curve factor or the line factor."""
    ez = frame.e_z
    if np.max(np.abs(ez[2:4])) < 1e-12:
        return "factor1"
    if np.max(np.abs(ez[0:2])) < 1e-12:
        return "factor2"
    raise NotImplementedError("frame e_z must align with one product factor")


def _initial_caloric_data(traj: FlowTrajectory):
    """The curves of the first state with their angle theta and Liouville
    primitive beta: ``caloric_primitive(traj).theta[0]`` and ``.beta[0]``
    (the gauge vanishes at the first time) without the rest of the
    trajectory's gauged field. NotExact propagates from closed components
    with holonomy on any recorded state, as from caloric_primitive; the
    later states are built only when a component is closed.
    """
    comps0 = _curve_components(traj.states[0])
    theta0 = [lagrangian_angle(c) for c in comps0]
    beta0 = [exactness_primitive(c) for c in comps0]
    if any(c.closed for c in comps0):
        for state in traj.states[1:]:
            for c in _curve_components(state):
                if c.closed:
                    exactness_primitive(c)
    return comps0, theta0, beta0


def _measure_limit_constants(theta0, beta0, comps0, pieces):
    """Mean angle/primitive per labeled piece, measured at the initial time.

    The pieces are index masks found at the comparison time; the matching
    region at the initial time is the annulus 0.3 <= r <= 2 on the same
    curve, restricted (when one curve carries several pieces) to the index
    run nearest the piece in index space.
    """
    theta_bar, beta_bar = [], []
    by_curve = {}
    for ci, sel in pieces:
        by_curve.setdefault(ci, []).append(sel)
    for ci, sel in pieces:
        c = comps0[ci]
        r = np.linalg.norm(c.vertices, axis=1)
        annulus = (r >= 0.3) & (r <= 2.0) & c.interior_mask()
        if len(by_curve[ci]) > 1 and annulus.any():
            # several pieces on one curve: keep the annulus run whose index
            # midpoint is nearest to this piece's index midpoint
            idx = np.flatnonzero(annulus)
            runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
            target = np.mean(np.flatnonzero(sel))
            run = min(runs, key=lambda rr: abs(np.mean(rr) - target))
            mask = np.zeros(c.n_vertices, dtype=bool)
            mask[run] = True
        else:
            mask = annulus
        if not mask.any():
            mask = c.interior_mask()
        w = c.dual_lengths()[mask]
        theta_bar.append(float(np.sum(w * theta0[ci][mask]) / np.sum(w)))
        beta_bar.append(float(np.sum(w * beta0[ci][mask]) / np.sum(w)))
    return theta_bar, beta_bar


def _factor1_pieces_in_disk(comps, radius):
    """Connected index runs of each curve inside the disk of given radius.

    Returns [(component index, boolean vertex mask)] sorted by mass, the
    curve-factor shadow of the mesh component extraction.
    """
    pieces = []
    for ci, c in enumerate(comps):
        inside = np.linalg.norm(c.vertices, axis=1) <= radius
        if not inside.any():
            continue
        idx = np.flatnonzero(inside)
        splits = np.flatnonzero(np.diff(idx) > 1)
        runs = np.split(idx, splits + 1)
        if c.closed and len(runs) > 1 and idx[0] == 0 and idx[-1] == c.n_vertices - 1:
            runs[0] = np.concatenate([runs[-1], runs[0]])
            runs = runs[:-1]
        for run in runs:
            sel = np.zeros(c.n_vertices, dtype=bool)
            sel[run] = True
            mass = float(np.sum(c.dual_lengths()[sel]))
            pieces.append((mass, ci, sel))
    pieces.sort(key=lambda p: -p[0])
    return [(ci, sel) for _, ci, sel in pieces]


def _limit_heights(traj: FlowTrajectory, s1, theta0, beta0, comps0):
    """The limit heights at s1: the time index k1 nearest s1, the curves of
    the state at k1, the two heaviest pieces inside the disk of radius 2 on
    them, their limit constants theta_bar and beta_bar measured at the
    initial time and b_bar_j = cos(beta_bar_j - 2(1 + s1) theta_bar_j).
    Raises ComponentAmbiguity with fewer than two pieces."""
    k1 = int(np.argmin(np.abs(traj.times - s1)))
    comps = _curve_components(traj.states[k1])
    pieces = _factor1_pieces_in_disk(comps, radius=2.0)[:2]
    if len(pieces) < 2:
        raise ComponentAmbiguity("fewer than two components inside the disk")
    theta_bar, beta_bar = _measure_limit_constants(theta0, beta0, comps0, pieces)
    b_bar = [float(np.cos(bb - 2.0 * (1.0 + s1) * tb))
             for bb, tb in zip(beta_bar, theta_bar)]
    return k1, comps, pieces, theta_bar, beta_bar, b_bar


def approx_height_solution(traj: FlowTrajectory, s1: float,
                           frame: CoordinateFrame) -> HeightReport:
    """Heat solution h from initial data B*z at the first time, compared with
    the limit heights b_bar_j * z on the two components at t = s1.

    b_bar_j = cos(beta_bar_j - 2(1 + s1) theta_bar_j) with the limit
    constants measured on each component at the initial time. The product
    reduction requires e_z aligned with one factor; both fixture families
    (pair x R_z and reaper x R) satisfy this. Raises ComponentAmbiguity,
    before the march, when fewer than two pieces lie in the disk at s1.
    """
    if abs(traj.times[0] + 1.0) > 1e-9:
        raise ValueError("trajectory must start at t = -1")
    mode = _z_mode(frame)
    comps0, theta0, beta0 = _initial_caloric_data(traj)
    k1, comps, pieces, theta_bar, beta_bar, b_bar = _limit_heights(
        traj, s1, theta0, beta0, comps0)
    B0 = [np.cos(beta0[ci] + 2.0 * (traj.times[0] - s1) * theta0[ci])
          for ci in range(len(comps0))]
    if mode == "factor1":
        ez2 = frame.e_z[0:2]
        f0 = [B0[ci] * (comps0[ci].vertices @ ez2) for ci in range(len(comps0))]
    else:
        f0 = B0  # separated ansatz h = g(p, t) * z(q)
    h_at_s1 = heat_field_at(traj, f0, k1)
    sups = []
    for (ci, sel), bb in zip(pieces, b_bar):
        c = comps[ci]
        h_vals = h_at_s1[ci]
        mask = sel & c.interior_mask(2)
        p = c.vertices[mask]
        if mode == "factor1":
            z_vals = p @ frame.e_z[0:2]
            diff = np.abs(bb * z_vals - h_vals[mask])
        else:
            # h = g(p) z(q): sup over |q| <= sqrt(4 - |p|^2)
            span = np.sqrt(np.maximum(4.0 - np.einsum("ij,ij->i", p, p), 0.0))
            diff = np.abs(bb - h_vals[mask]) * span
        sups.append(float(np.max(diff)) if diff.size else float("nan"))
    return HeightReport(s1, b_bar, sups, theta_bar, beta_bar, mode)


def select_s1(traj: FlowTrajectory, frame: CoordinateFrame) -> float:
    """Pick s1 among nine in [-0.45, -0.05] maximizing the separation
    margin |b1 - b2|.

    The measure-zero bad set of the component extraction is not computable;
    maximizing the measured margin (with successful two-component
    extraction) is the robust surrogate.
    """
    comps0, theta0, beta0 = _initial_caloric_data(traj)
    best, best_margin = None, -1.0
    for s1 in np.linspace(-0.45, -0.05, 9):
        try:
            *_, b = _limit_heights(traj, s1, theta0, beta0, comps0)
        except ComponentAmbiguity:
            continue
        margin = abs(b[0] - b[1])
        if margin > best_margin:
            best, best_margin = float(s1), margin
    if best is None:
        raise ComponentAmbiguity("no candidate s1 yields two components")
    return best
