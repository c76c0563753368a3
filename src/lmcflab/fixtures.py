"""Curated analytic fixtures with closed-form reference fields.

Every generator is deterministic in its parameters. Reference fields
(tangent angle, height, curvature) come from the closed forms of the
underlying solutions, not from the discrete operators they are used to
test. ``FIXTURES`` maps each fixture name to its generator and the object
it realizes.
Each trajectory fixture is one block formula: it evaluates its closed form
for any b times in one broadcast (:class:`~lmcflab.flow.AnalyticTrajectory`).
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownFixture
from .geometry import (AffineLine, DiscreteCurve, ProductLagrangian,
                       grid_quad_mesh, make_plane_pair, standard_frame)

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
    growth to h_coarse outside, out to |s| = extent."""
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
                     h_fine=None, h_coarse=None, fine_radius=None):
    """Grim reaper sampled by arclength; ``extent`` is the arclength
    half-width. The flow engine keeps the two open ends fixed."""
    if graded:
        s = graded_arclength_grid(extent, h_fine or 0.02, h_coarse or 0.5,
                                  fine_radius or 4.0)
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

    Returns the two graph meshes (as vertex/quad meshes in R^4), the frame,
    and the underlying pair config. With b_1 != b_2 the graphs meet only at
    the origin and their sphere slices are linked. The two meshes share one
    quads array, which callers must not write into.
    """
    pair = make_plane_pair((angle, -angle), intersection_dim=1)
    frame = pair.frame
    zz = np.linspace(-extent, extent, samples)
    Z, U = (g[..., None] for g in np.meshgrid(zz, zz, indexing="ij", sparse=True))
    meshes = []
    for j, plane in enumerate(pair.planes):
        pts = np.multiply(Z, plane.basis[0], out=np.empty((samples, samples, 4)))
        pts += U * plane.basis[1]
        pts += lam * b[j] * Z * frame.e_w
        meshes.append(grid_quad_mesh(pts) if j == 0
                      else (pts.reshape(-1, 4), meshes[0][1]))
    return meshes, frame, pair


def make_neck_pair(angle=np.pi / 4, sigma=0.05, extent=6.0, n=301,
                   line_extent=6.0, line_samples=61):
    """Connected surface asymptotic to both m=1 pair planes (neck regime).

    Factor one is the single hyperbola branch y = sqrt(m^2 x^2 + sigma^2)
    smoothing the crossing of the lines y = +-m x; its product with R_z is
    one connected component, so extraction must report ambiguity.
    """
    m = np.tan(angle)
    x = np.linspace(-extent, extent, n)
    y = np.sqrt(m * m * x * x + sigma * sigma)
    curve = DiscreteCurve(np.stack([x, y], axis=1))
    line = AffineLine((0.0, 0.0), (1.0, 0.0))
    prod = ProductLagrangian(curve, line,
                             line_sample=line.sample(line_extent, line_samples))
    pair = make_plane_pair((angle, -angle), intersection_dim=1,
                           frame=standard_frame(4, z_axis=2))
    return prod, pair


def grim_reaper_material_trajectory(speed=1.0, extent=4.0, n=401,
                                    t0=0.0, t1=0.2, dt=1e-3):
    """Analytic grim reaper flow with true material vertex motion.

    Vertices are labelled by arclength at t0; the tangent angle a = c*x of
    a material point obeys tan(a(t)) = tan(a(t0)) e^{-c^2 (t - t0)} and the
    point rides the translated profile.
    """
    from .flow import AnalyticTrajectory

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
    from .flow import AnalyticTrajectory

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
    from .flow import AnalyticTrajectory

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


def make_sphere_speck(radius=0.01, center=(0.5, 0.5, 0.5, 0.0), n=12):
    """Small round 2-sphere mesh in the (x1,y1,x2) subspace of R^4."""
    th = np.linspace(0.05, np.pi - 0.05, n)
    ph = np.linspace(0.0, 2 * np.pi, 2 * n)
    T, P = np.meshgrid(th, ph, indexing="ij")
    pts = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P),
                    np.cos(T), np.zeros_like(T)], axis=-1)
    return grid_quad_mesh(radius * pts + np.asarray(center))


# name -> (generator, the object the fixture realizes)
FIXTURES = {
    "line": (make_line,
             "static line, the trivial translator / unit-density plane (n=1)"),
    "line-pair": (make_line_pair,
                  "two lines through the origin, the n=1 cone with density two"),
    "circle": (make_circle,
               "round circle, the compact self-shrinker (entropy sqrt(2*pi/e))"),
    "grim-reaper": (make_grim_reaper,
                    "translating curve y = -log(cos(c x))/c, tangent angle c*x"),
    "grim-reaper-product": (make_grim_reaper_product,
                            "grim reaper x static line: translator in C^2"),
    "circle-product": (make_circle_product,
                       "shrinking circle x static line: shrinking cylinder"),
    "plane-pair-m1": (lambda angle=np.pi / 4: make_plane_pair((angle, -angle), 1),
                      "two Lagrangian planes meeting along the z-line"),
    "plane-pair-m0": (lambda angle=np.pi / 4: make_plane_pair((angle, -angle), 0),
                      "transverse Lagrangian plane pair meeting at 0"),
    "tilted-pair": (make_tilted_pair,
                    "graphs w = lam*b_j*z over the m=1 pair"),
    "smoothed-pair": (make_smoothed_pair,
                      "two slightly bent lines x static line (near-pair flow)"),
    "neck-pair": (make_neck_pair,
                  "single connected surface asymptotic to both planes"),
    "hopf-fibers": (make_hopf_fibers,
                    "two fibers of the Hopf fibration of the unit 3-sphere"),
    "sphere-speck": (make_sphere_speck,
                     "tiny round 2-sphere mesh, a discardable leftover"),
}


def generate_fixture(name, **params):
    """Deterministic fixture generation by name; raises UnknownFixture."""
    try:
        gen, _ = FIXTURES[name]
    except KeyError:
        raise UnknownFixture(f"unknown fixture {name!r}; known: {sorted(FIXTURES)}")
    return gen(**params)
