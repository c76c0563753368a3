"""Gaussian-kernel diagnostics: density ratios, entropy, monotonicity
audits of the weighted integral inequality, and the translator fit.

The backwards heat kernel centred at (x0, t0) is
rho(x, t) = (4 pi (t0-t))^{-n/2} exp(-|x-x0|^2 / (4 (t0-t))) for t < t0.
Per-factor line integrals of the kernel are evaluated exactly (erf per
straight edge); weighted integrands use composite Gauss-Legendre nodes.
Products in C^2 factorize into per-factor 1-D integrals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize
from scipy.special import erf

from .errors import GrowthUnbounded, ScanTooLarge, WindowInPast
from .flow import FlowTrajectory, segments_intersect
from .geometry import (CoordinateFrame, DiscreteCurve, PlanePairConfig,
                       ProductLagrangian, as_components, edge_ends,
                       lagrangian_angle, mean_curvature)

# rho < 1e-16 * peak outside this many sqrt(t0-t): integrate only inside
TRUNCATION_SIGMAS = 2.0 * np.sqrt(-np.log(1e-16))  # ~ 12.14

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)

# Largest crossing scan between two curves accepted: 2**21 segment pairs,
# about 170 MB of pair temporaries (some 80 bytes a pair).
CROSSING_MAX_PAIRS = 2 ** 21


@dataclass(frozen=True)
class GaussianWindow:
    """Backwards heat kernel centre (x0, t0)."""

    x0: np.ndarray
    t0: float

    def __post_init__(self):
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))

    def scale(self, t: float) -> float:
        delta = self.t0 - t
        if delta <= 0:
            raise WindowInPast(f"evaluation time t={t} is not before t0={self.t0}")
        return delta


def edge_gaussian_mass(curve: DiscreteCurve, x0, delta: float) -> float:
    """Exact integral of the normalized 1-factor kernel over the polyline.

    Per straight edge the integral of (4 pi delta)^{-1/2} e^{-r^2/4 delta}
    reduces to an erf difference (which absorbs the normalization); the
    only truncation is the kernel cutoff at TRUNCATION_SIGMAS.
    """
    x0 = np.asarray(x0, dtype=float)
    p, q = edge_ends(curve.vertices, curve.closed)
    e = q - p
    ell = np.hypot(e[:, 0], e[:, 1])
    T = e / ell[:, None]
    rel = p - x0
    a = np.einsum("ij,ij->i", T, rel)
    b2 = np.einsum("ij,ij->i", rel, rel) - a * a
    b2 = np.maximum(b2, 0.0)
    s2 = 2.0 * np.sqrt(delta)
    cutoff = (TRUNCATION_SIGMAS * np.sqrt(delta)) ** 2
    keep = b2 <= cutoff
    if not np.any(keep):
        return 0.0
    mass = np.exp(-b2[keep] / (4.0 * delta)) * 0.5 * (
        erf((a[keep] + ell[keep]) / s2) - erf(a[keep] / s2))
    return float(mass.sum())


def weighted_gaussian_integral(curve: DiscreteCurve, g_vertex, x0, delta: float) -> float:
    """Integral of g * kernel over the polyline, g linear per edge.

    Composite Gauss-Legendre per edge; callers keep edge lengths below the
    kernel scale for the stated accuracies.
    """
    x0 = np.asarray(x0, dtype=float)
    g = np.asarray(g_vertex, dtype=float)
    p, q = edge_ends(curve.vertices, curve.closed)
    g0, g1 = edge_ends(g, curve.closed)
    mid = 0.5 * (p + q)
    ell = np.linalg.norm(q - p, axis=1)
    radius = TRUNCATION_SIGMAS * np.sqrt(delta)
    keep = np.linalg.norm(mid - x0, axis=1) - 0.5 * ell <= radius
    if not np.any(keep):
        return 0.0
    p, q, g0, g1, ell = p[keep], q[keep], g0[keep], g1[keep], ell[keep]
    xi = 0.5 * (_GL_NODES + 1.0)  # in [0, 1]
    pts = p[:, None, :] + xi[None, :, None] * (q - p)[:, None, :]
    gv = g0[:, None] + xi[None, :] * (g1 - g0)[:, None]
    r2 = np.sum((pts - x0) ** 2, axis=2)
    dens = np.exp(-r2 / (4.0 * delta)) / np.sqrt(4.0 * np.pi * delta)
    return float(np.einsum("ij,ij,j,i->", gv, dens, 0.5 * _GL_WEIGHTS, ell))


def gaussian_density_ratio(state, window: GaussianWindow, t: float) -> float:
    """Integral of the backwards heat kernel over the state at time t.

    Curves use the exact erf path (n=1); products factorize into the two
    1-D integrals (n=2); analytic plane pairs use the closed form
    exp(-dist(x0, P)^2 / (4 delta)) per plane.
    """
    delta = window.scale(t)
    total = 0.0
    if isinstance(state, PlanePairConfig):
        for plane in state.planes:
            d = plane.distance(window.x0[None, :])[0]
            total += float(np.exp(-d * d / (4.0 * delta)))
        return total
    for comp in as_components(state):
        if isinstance(comp, ProductLagrangian):
            m1 = edge_gaussian_mass(comp.factor1, window.x0[0:2], delta)
            m2 = edge_gaussian_mass(comp.factor2, window.x0[2:4], delta)
            total += m1 * m2
        else:
            total += edge_gaussian_mass(comp, window.x0[0:2], delta)
    return total


# ---------------------------------------------------------------------------
# entropy


def _crossing_points(curves):
    """Up to 8 segment crossings per pair of curves (a curve with itself
    included), the entropy search's extra centre seeds. Raises ScanTooLarge,
    before allocating, when a curve pair has more than CROSSING_MAX_PAIRS
    segment pairs."""
    pts = []
    for i, a in enumerate(curves):
        for b in curves[i:]:
            na = a.n_vertices - (not a.closed)
            nb = b.n_vertices - (not b.closed)
            if na * nb > CROSSING_MAX_PAIRS:
                raise ScanTooLarge(
                    f"{na} x {nb} segment pairs exceed the crossing-scan limit "
                    f"of {CROSSING_MAX_PAIRS}")
            pa, qa = edge_ends(a.vertices, a.closed)
            pb, qb = edge_ends(b.vertices, b.closed)
            ii, jj = np.meshgrid(np.arange(na), np.arange(nb), indexing="ij")
            ii, jj = ii.ravel(), jj.ravel()
            if a is b:
                keep = jj > ii + 1
                ii, jj = ii[keep], jj[keep]
            hit = segments_intersect(pa[ii], qa[ii], pb[jj], qb[jj])
            for i0, j0 in zip(ii[hit][:8], jj[hit][:8]):
                d1 = qa[i0] - pa[i0]
                d2 = qb[j0] - pb[j0]
                denom = d1[0] * d2[1] - d1[1] * d2[0]
                dp = pb[j0] - pa[i0]
                tpar = (dp[0] * d2[1] - dp[1] * d2[0]) / denom
                pts.append(pa[i0] + tpar * d1)
    return pts


@dataclass
class EntropyReport:
    value: float
    x0: np.ndarray
    r: float


def entropy(state, seed: int = 0) -> EntropyReport:
    """Supremum of the Gaussian weighted area over centres and scales.

    Multi-start local search: centres seeded at curve vertices, pairwise
    crossings and the centroid; scales on a log grid refined by golden
    section, then a joint Nelder-Mead polish. The reported value is an
    achieved lower bound for the supremum.
    """
    comps = as_components(state)
    if any(isinstance(c, ProductLagrangian) for c in comps):
        raise NotImplementedError("entropy search is implemented for curve states")
    all_v = np.concatenate([c.vertices for c in comps])
    diam = float(np.max(np.linalg.norm(all_v - all_v.mean(axis=0), axis=1))) * 2.0
    h_mean = float(np.mean(np.concatenate([c.edge_lengths() for c in comps])))
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(all_v), size=min(12, len(all_v)), replace=False)
    seeds = [all_v.mean(axis=0)] + list(all_v[idx]) + _crossing_points(comps)

    log_r_lo = 2.0 * np.log(max(0.3 * h_mean, 1e-8))
    log_r_hi = 2.0 * np.log(3.0 * max(diam, h_mean))

    def value(x0, log_r):
        r = np.exp(log_r)
        return sum(edge_gaussian_mass(c, x0, r) for c in comps)

    def golden_r(x0):
        grid = np.linspace(log_r_lo, log_r_hi, 25)
        vals = [value(x0, lr) for lr in grid]
        k = int(np.argmax(vals))
        lo = grid[max(0, k - 1)]
        hi = grid[min(len(grid) - 1, k + 1)]
        phi = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c1 = b - phi * (b - a)
        c2 = a + phi * (b - a)
        f1, f2 = value(x0, c1), value(x0, c2)
        for _ in range(40):
            if f1 < f2:
                a, c1, f1 = c1, c2, f2
                c2 = a + phi * (b - a)
                f2 = value(x0, c2)
            else:
                b, c2, f2 = c2, c1, f1
                c1 = b - phi * (b - a)
                f1 = value(x0, c1)
        lr = 0.5 * (a + b)
        return value(x0, lr), lr

    best = (-np.inf, None, None)
    for x0 in seeds:
        val, lr = golden_r(np.asarray(x0, dtype=float))
        if val > best[0]:
            best = (val, np.asarray(x0, dtype=float), lr)

    x0, lr = best[1], best[2]
    scale = max(0.05 * diam, 2.0 * h_mean)
    z0 = np.array([x0[0], x0[1], lr])
    simplex = [z0]
    for k, step in enumerate((scale, scale, 0.4)):
        z = z0.copy()
        z[k] += step
        simplex.append(z)
    res = minimize(lambda z: -value(z[:2], z[2]), z0, method="Nelder-Mead",
                   options={"initial_simplex": np.array(simplex),
                            "xatol": 1e-10 * max(diam, 1.0), "fatol": 1e-12,
                            "maxiter": 400})
    if -res.fun > best[0]:
        return EntropyReport(float(-res.fun), res.x[:2].copy(), float(np.exp(res.x[2])))
    return EntropyReport(float(best[0]), x0, float(np.exp(lr)))


# ---------------------------------------------------------------------------
# monotonicity audit


@dataclass
class MonotonicityReport:
    """Per-time weighted integrals and the pairwise inequality audit.

    ``verdict`` is the dissipation-sharp inequality (with a slack covering
    the trapezoidal time integration of the dissipation term);
    ``nonincreasing`` is the plain f=1-style monotonicity of the values.
    """

    times: np.ndarray
    values: np.ndarray
    dissipations: np.ndarray
    residual_terms: np.ndarray
    verdict: bool
    max_violation: float
    nonincreasing: bool = True
    rows: list = field(default_factory=list)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,value,dissipation,bound,pass\n")
            for row in self.rows:
                fh.write("{:.12g},{:.12g},{:.12g},{:.12g},{}\n".format(*row))


def _curve_dissipation(curve, centre, fac, is_line=False):
    """|H - (x-centre)^perp / fac|^2 per vertex of one curve; a sampled line
    has H = 0."""
    H = np.zeros_like(curve.vertices) if is_line else mean_curvature(curve)
    tv = curve.tangents()
    rel = curve.vertices - np.asarray(centre)
    perp = rel - np.einsum("ij,ij->i", rel, tv)[:, None] * tv
    w = H - perp / fac
    return np.einsum("ij,ij->i", w, w)


def _dissipation_vertex_field(comp, x0, t, t0):
    """|H - (x-x0)^perp / (2(t-t0))|^2 pointwise; factor split for products."""
    fac = 2.0 * (t - t0)
    if isinstance(comp, ProductLagrangian):
        return [_curve_dissipation(comp.factor1, x0[0:2], fac),
                _curve_dissipation(comp.factor2, x0[2:4], fac,
                                   comp.factor2_line is not None)]
    return _curve_dissipation(comp, np.asarray(x0)[0:2], fac)


def check_polynomial_growth(values, planes, degree: int, bound: Optional[float]):
    """Appendix-style growth audit |f| <= C (1 + R^d); raises when a
    declared bound is exceeded. ``planes`` holds the positions as coordinate
    planes (x, y) of shape (2, ...) matching ``values``."""
    x, y = planes
    r = np.sqrt(x * x + y * y)
    c_measured = float(np.max(np.abs(values) / (1.0 + r ** degree)))
    if bound is not None and c_measured > bound * (1.0 + 1e-12):
        raise GrowthUnbounded(
            f"measured growth constant {c_measured:.3g} exceeds declared {bound:.3g}")
    return c_measured


def monotonicity_audit(traj: FlowTrajectory, window: GaussianWindow,
                       f_values=None, residual_values=None,
                       rtol: float = 1e-8) -> MonotonicityReport:
    """Audit the weighted monotonicity inequality between recorded times.

    With f = 1 this is the Gaussian-density monotonicity; general f needs
    its heat residual (partial_t - Delta) f supplied per time (or zero for
    caloric fields).
    """
    times = traj.times
    n_times = len(times)
    V = np.zeros(n_times)
    D = np.zeros(n_times)
    R = np.zeros(n_times)
    for k, (t, state) in enumerate(zip(times, traj.states)):
        delta = window.scale(t)
        comps = as_components(state)
        fk = None if f_values is None else f_values[k]
        rk = None if residual_values is None else residual_values[k]
        for ci, comp in enumerate(comps):
            diss = _dissipation_vertex_field(comp, window.x0, t, window.t0)
            if isinstance(comp, ProductLagrangian):
                if fk is not None:
                    raise NotImplementedError("weighted f audits run on curve states")
                m1 = edge_gaussian_mass(comp.factor1, window.x0[0:2], delta)
                m2 = edge_gaussian_mass(comp.factor2, window.x0[2:4], delta)
                V[k] += m1 * m2
                d1 = weighted_gaussian_integral(comp.factor1, diss[0],
                                                window.x0[0:2], delta)
                d2 = weighted_gaussian_integral(comp.factor2, diss[1],
                                                window.x0[2:4], delta)
                D[k] += d1 * m2 + m1 * d2
            else:
                fv = np.ones(comp.n_vertices) if fk is None else np.asarray(fk[ci])
                if fk is None:
                    V[k] += edge_gaussian_mass(comp, window.x0[0:2], delta)
                else:
                    V[k] += weighted_gaussian_integral(comp, fv, window.x0[0:2], delta)
                D[k] += weighted_gaussian_integral(comp, fv * diss,
                                                   window.x0[0:2], delta)
                if rk is not None:
                    R[k] += weighted_gaussian_integral(comp, np.asarray(rk[ci]),
                                                       window.x0[0:2], delta)
    rows = []
    worst = 0.0
    nonincreasing = True
    scale = np.max(np.abs(V)) + 1e-300
    for k in range(n_times - 1):
        dt_k = times[k + 1] - times[k]
        diss_int = 0.5 * dt_k * (D[k] + D[k + 1])
        res_int = 0.5 * dt_k * (R[k] + R[k + 1])
        bound = V[k] + res_int - diss_int
        violation = V[k + 1] - bound
        worst = max(worst, violation / scale)
        # slack: the trapezoid rule carries O(dt^2) error in the diss term
        ok = violation <= rtol * scale + 0.02 * diss_int
        if f_values is None and residual_values is None:
            nonincreasing &= bool(V[k + 1] <= V[k] + rtol * scale)
        rows.append((times[k + 1], V[k + 1], diss_int, bound, ok))
    verdict = all(r[4] for r in rows)
    return MonotonicityReport(times, V, D, R, verdict, float(worst),
                              nonincreasing, rows)


# ---------------------------------------------------------------------------
# translator characterization


@dataclass
class TranslatorFit:
    component_id: int
    a: float
    b: float
    residual: float
    rms_w: float
    kappa: Optional[float]
    velocity_residual: Optional[float]
    degenerate: bool = False


def _component_fields(comp, frame: CoordinateFrame):
    """(w, theta, weights, velocity-check data) for one component."""
    if isinstance(comp, ProductLagrangian):
        X = comp.position_grid()
        w = X @ frame.e_w
        th = comp.angle_grid()
        wt = comp.weight_grid()
        T1, T2 = comp.tangent_grids()
        ez = frame.e_z
        ez_perp = (ez - np.einsum("ijk,k->ij", T1, ez)[:, :, None] * T1
                   - np.einsum("ijk,k->ij", T2, ez)[:, :, None] * T2)
        H = comp.mean_curvature_grid()
        mask = np.outer(comp.factor1.interior_mask(),
                        comp.factor2.interior_mask()).ravel()
        return (w.ravel()[mask], th.ravel()[mask], wt.ravel()[mask],
                H.reshape(-1, 4)[mask], ez_perp.reshape(-1, 4)[mask])
    v = comp.vertices
    w = v @ frame.e_w[0:2]
    th = lagrangian_angle(comp)
    wt = comp.dual_lengths()
    t = comp.tangents()
    ez = frame.e_z[0:2]
    ez_perp = ez - (t @ ez)[:, None] * t
    H = mean_curvature(comp)
    mask = comp.interior_mask()
    return w[mask], th[mask], wt[mask], H[mask], ez_perp[mask]


def angle_oscillation(state) -> dict:
    """sup(theta) - inf(theta) over the state, with the margin to pi.

    The almost-calibrated margin is reported, never enforced: a state is
    almost calibrated when the oscillation stays below pi by some margin.
    """
    lo, hi = np.inf, -np.inf
    for comp in as_components(state):
        if isinstance(comp, ProductLagrangian):
            th = comp.angle_grid()
        else:
            th = lagrangian_angle(comp)
        lo = min(lo, float(np.min(th)))
        hi = max(hi, float(np.max(th)))
    osc = hi - lo
    return {"oscillation": osc, "margin_to_pi": np.pi - osc,
            "almost_calibrated": bool(osc < np.pi)}


def translator_fit(state, frame: CoordinateFrame):
    """Per-component weighted least squares of the height w against {1, theta}.

    Returns (a, b, residual) with arclength weights; when b is nonzero the
    translator speed kappa = -1/b is recovered (differentiating
    w = a + b*theta along the flow gives H = -(1/b) e_z^perp) and the
    velocity identity H = kappa e_z^perp is scored against the data.
    Degenerate components (theta constant, w varying) report b undefined
    and fall back to the w - a residual.
    """
    fits = []
    for comp in as_components(state):
        w, th, wt, H, ez_perp = _component_fields(comp, frame)
        wsum = wt.sum()
        th_mean = (wt * th).sum() / wsum
        w_mean = (wt * w).sum() / wsum
        th_var = (wt * (th - th_mean) ** 2).sum() / wsum
        w_var = (wt * (w - w_mean) ** 2).sum() / wsum
        rms_w = float(np.sqrt((wt * w ** 2).sum() / wsum))
        scale_th = 1.0 + abs(th_mean)
        if np.sqrt(th_var) < 1e-9 * scale_th:
            degenerate = np.sqrt(w_var) > 1e-9 * (1.0 + abs(w_mean))
            resid = float(np.sqrt(w_var))
            fits.append(TranslatorFit(getattr(comp, "component_id", 0),
                                      float(w_mean), float("nan") if degenerate else 0.0,
                                      resid, rms_w, None, None,
                                      degenerate=degenerate))
            continue
        b = float((wt * (th - th_mean) * (w - w_mean)).sum() / (wt * (th - th_mean) ** 2).sum())
        a = float(w_mean - b * th_mean)
        resid = float(np.sqrt((wt * (w - a - b * th) ** 2).sum() / wsum))
        kappa = None
        vel_res = None
        if abs(b) > 1e-12:
            kappa = -1.0 / b
            dev = H - kappa * ez_perp
            num = (wt * np.einsum("ij,ij->i", dev, dev)).sum()
            den = (wt * np.einsum("ij,ij->i", H, H)).sum() + 1e-300
            vel_res = float(np.sqrt(num / den))
        fits.append(TranslatorFit(getattr(comp, "component_id", 0),
                                  a, b, resid, rms_w, kappa, vel_res))
    return fits
