"""Curated analytic fixtures with closed-form reference fields.

Every generator is deterministic in its parameters. Reference fields
(tangent angle, height, curvature) come from the closed forms of the
underlying solutions, not from the discrete operators they are used to
test. The lab's model solutions are lines, line and plane pairs, the grim
reaper translator, the shrinking circle and their products with a static
line; the CLI builds its curve fixtures by name from ``cli.CURVE_FIXTURES``.
Each trajectory fixture is one block formula: it evaluates its closed form
for any b times in one broadcast (:class:`~lmcflab.flow.AnalyticTrajectory`).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigInvalid
from .flow import AnalyticTrajectory
from .geometry import (AffineLine, DiscreteCurve, PointGrid, ProductLagrangian,
                       make_plane_pair, standard_frame)

def grim_reaper_point(s, speed=1.0):
    """Arclength parametrization of the grim reaper of the given speed.

    x(s) = arcsin(tanh(c s))/c, y(s) = log(cosh(c s))/c; the tangent angle
    equals c*x and the curve translates with velocity ``speed`` in e_y.
    log(cosh(u)) is evaluated as |u| + log1p(e^{-2|u|}) - log 2 to stay
    finite on long arms.
    """
    cs = speed * np.asarray(s, dtype=float)
    x = np.arcsin(np.tanh(cs)) / speed
    a = np.abs(cs)
    y = (a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0)) / speed
    return np.stack([x, y], axis=-1)


def graded_arclength_grid(extent, h_fine, h_coarse, fine_radius):
    """Symmetric 1-D grid, spacing h_fine inside |s|<=fine_radius, geometric
    growth to h_coarse outside, out to |s| = extent. Raises ConfigInvalid
    unless both spacings are positive: the grid would never reach extent."""
    if not (h_fine > 0 and h_coarse > 0):
        raise ConfigInvalid(f"graded grid spacings must be positive, not "
                            f"h_fine={h_fine!r}, h_coarse={h_coarse!r}")
    s = [0.0]
    h = h_fine
    while s[-1] < extent:
        s.append(s[-1] + h)
        if s[-1] > fine_radius:
            h = min(h * 1.08, h_coarse)
    s = np.asarray(s)
    return np.concatenate([-s[::-1][:-1], s])


def make_line(angle=0.0, extent=20.0, n=257, point=(0.0, 0.0)):
    line = AffineLine(point, (np.cos(angle), np.sin(angle)))
    return line.sample(extent, n)


def make_line_pair(angle1=0.5, angle2=-0.5, extent=20.0, n=257):
    return [DiscreteCurve(make_line(angle1, extent, n).vertices, component_id=0),
            DiscreteCurve(make_line(angle2, extent, n).vertices, component_id=1)]


def make_circle(radius=1.0, n=256, center=(0.0, 0.0)):
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    v = np.stack([np.cos(phi), np.sin(phi)], axis=1) * radius + np.asarray(center)
    return DiscreteCurve(v, closed=True)


def make_grim_reaper(speed=1.0, extent=6.0, n=512, graded=False,
                     h_fine=0.02, h_coarse=0.5, fine_radius=4.0):
    """Grim reaper sampled by arclength; ``extent`` is the arclength
    half-width, sampled by n points or, if graded, by
    graded_arclength_grid(extent, h_fine, h_coarse, fine_radius). The flow
    engine keeps the two open ends fixed."""
    if graded:
        s = graded_arclength_grid(extent, h_fine, h_coarse, fine_radius)
    else:
        s = np.linspace(-extent, extent, n)
    v = grim_reaper_point(s, speed)
    curve = DiscreteCurve(v)
    theta_ref = speed * v[:, 0]
    return curve, theta_ref


def make_grim_reaper_product(speed=1.0, extent=6.0, n=512):
    """Grim reaper x R: the product translator in C^2.

    Frame: e_z is the translation axis (the e_y direction of factor one),
    e_w = J e_z. The fixture translates with H = speed * e_z^perp.
    """
    curve, theta_ref = make_grim_reaper(speed, extent, n)
    prod = ProductLagrangian(curve, AffineLine((0.0, 0.0), (1.0, 0.0)))
    return prod, standard_frame(4, z_axis=1), theta_ref


def make_circle_product(radius=1.0, n=256):
    """Shrinking circle x R (a shrinking cylinder); frame e_z = e_x of factor 1."""
    prod = ProductLagrangian(make_circle(radius, n), AffineLine((0.0, 0.0), (1.0, 0.0)))
    return prod, standard_frame(4, z_axis=0)


def make_smoothed_pair(angle=np.pi / 4, sigma=0.05, extent=8.0, n=401,
                       line_extent=10.0, line_samples=81):
    """Two slightly bent lines x R_z: the near-plane-pair product flow.

    Each curve component is its line plus a Gaussian bump of height sigma in
    the normal direction, so the components stay sigma-close to the distinct
    planes (R l_j) x R_z while the union is a genuine non-flat exact flow.
    The pair frame has e_z along the static line factor.
    """
    products = []
    for cid, th in enumerate((angle, -angle)):
        s = np.linspace(-extent, extent, n)
        d = np.array([np.cos(th), np.sin(th)])
        nrm = np.array([-np.sin(th), np.cos(th)])
        v = s[:, None] * d + (sigma * np.exp(-0.5 * s ** 2))[:, None] * nrm
        curve = DiscreteCurve(v, component_id=cid)
        line = AffineLine((0.0, 0.0), (1.0, 0.0))
        products.append(ProductLagrangian(
            curve, line, component_id=cid,
            line_sample=line.sample(line_extent, line_samples)))
    frame = standard_frame(4, z_axis=2)
    pair = make_plane_pair((angle, -angle), intersection_dim=1, frame=frame)
    return products, frame, pair


def make_tilted_pair(angle=np.pi / 4, lam=0.1, b=(1.0, -1.0),
                     extent=3.5, samples=141):
    """Graphs w = lam*b_j*z over the m = 1 pair planes.

    Returns the two graphs (see tilted_graph), the frame, and the
    underlying pair config. With b_1 != b_2 the graphs meet only at the
    origin and their sphere slices are linked.
    """
    graphs = [tilted_graph(j, angle, lam, b, extent, samples) for j in (0, 1)]
    pair = make_plane_pair((angle, -angle), intersection_dim=1)
    return graphs, pair.frame, pair


def tilted_graph(j, angle=np.pi / 4, lam=0.1, b=(1.0, -1.0), extent=3.5,
                 samples=141):
    """Graph j of make_tilted_pair alone: w = lam*b_j*z over pair plane j,
    as the geometry.PointGrid of its points at the samples x samples
    coordinates (z, u) in [-extent, extent]^2."""
    pair = make_plane_pair((angle, -angle), intersection_dim=1)
    plane = pair.planes[j]
    zz = np.linspace(-extent, extent, samples)
    Z, U = (g[..., None] for g in np.meshgrid(zz, zz, indexing="ij", sparse=True))
    pts = np.multiply(Z, plane.basis[0], out=np.empty((samples, samples, 4)))
    pts += U * plane.basis[1]
    pts += lam * b[j] * Z * pair.frame.e_w
    return PointGrid(pts)


def grim_reaper_material_trajectory(speed=1.0, extent=4.0, n=401,
                                    t0=0.0, t1=0.2, dt=1e-3):
    """Analytic grim reaper flow with true material vertex motion.

    Vertices are labelled by arclength at t0; the tangent angle a = c*x of
    a material point obeys tan(a(t)) = tan(a(t0)) e^{-c^2 (t - t0)} and the
    point rides the translated profile.
    """
    c = float(speed)
    s0 = np.linspace(-extent, extent, n)
    x0 = np.arcsin(np.tanh(c * s0)) / c
    tan0 = np.tan(c * x0)

    def block(t):
        # the material points of every time in one broadcast
        x = np.arctan(tan0 * np.exp(-c * c * (t - t0))[:, None]) / c
        p = np.stack([x, -np.log(np.cos(c * x)) / c + c * t[:, None]])
        return [(DiscreteCurve(p[:, 0].T), p)]

    times = np.arange(t0, t1 + 0.5 * dt, dt)
    return AnalyticTrajectory(times, block=block)


def grim_reaper_sliding_trajectory(speed, s_grid, t0, t1, dt):
    """Translating-frame grim reaper flow: vertices at fixed arclength
    offsets from the tip, so the mesh never degrades at high speeds.

    Vertex velocity is speed * e_y = H + tangential part; heat solves
    account for the tangential part through the measured advection term.
    """
    base = grim_reaper_point(np.asarray(s_grid, dtype=float), speed)

    def block(t):
        # the vertices base + (0, speed t) of every time in one broadcast
        p = base.T[:, None, :] + np.stack([np.zeros_like(t), speed * t])[:, :, None]
        return [(DiscreteCurve(p[:, 0].T), p)]

    times = np.arange(t0, t1 + 0.5 * dt, dt)
    return AnalyticTrajectory(times, block=block)


def shrinking_circle_trajectory(r0=1.0, n=256, t0=0.0, t1=0.2, dt=1e-3,
                                center=(0.0, 0.0)):
    """Exact shrinking circle r(t) = sqrt(r0^2 - 2(t - t0)), material vertices."""
    phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    unit = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    center = np.asarray(center, dtype=float)

    def block(t):
        r = np.sqrt(r0 * r0 - 2.0 * (t - t0))
        p = r[:, None] * unit.T[:, None, :] + center[:, None, None]
        return [(DiscreteCurve(p[:, 0].T, closed=True), p)]

    times = np.arange(t0, t1 + 0.5 * dt, dt)
    return AnalyticTrajectory(times, block=block)


def make_hopf_fibers(q1=(1.0, 0.0, 0.0, 0.0), q2=(0.0, 0.0, 1.0, 0.0), n=256):
    """Two Hopf fibers {e^{i a} q} of the unit 3-sphere as closed polylines."""

    def fiber(q):
        q = np.asarray(q, dtype=float)
        q = q / np.linalg.norm(q)
        a = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        ca, sa = np.cos(a), np.sin(a)
        z1 = np.stack([ca * q[0] - sa * q[1], sa * q[0] + ca * q[1]], axis=1)
        z2 = np.stack([ca * q[2] - sa * q[3], sa * q[2] + ca * q[3]], axis=1)
        return np.concatenate([z1, z2], axis=1)

    return fiber(q1), fiber(q2)
