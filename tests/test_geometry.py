"""Pointwise geometry operations against closed-form references."""

import numpy as np
import pytest
import scipy.sparse as sp

from lmcflab import flow
from lmcflab import geometry as geo
from lmcflab.errors import BadFrame, DegenerateEdge, NonFiniteVertex, NotExact
from lmcflab import fixtures as fx


def normal_projection(curve):
    """Oracle: the normal part x^perp of the position vector per vertex."""
    t = curve.tangents()
    v = curve.vertices
    return v - np.einsum("ij,ij->i", v, t)[:, None] * t


def circle_theta_oracle(phi):
    # differentiate (cos phi, sin phi): tangent angle is phi + pi/2
    return phi + np.pi / 2


def test_line_angle_constant():
    alpha = 0.7
    curve = fx.make_line(angle=alpha, extent=5.0, n=41)
    theta = geo.lagrangian_angle(curve)
    assert np.allclose(theta, alpha, atol=1e-13)


def test_circle_angle_matches_parametrization():
    n = 256
    curve = fx.make_circle(radius=1.0, n=n)
    phi = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    theta = geo.lagrangian_angle(curve)
    expected = circle_theta_oracle(phi)
    # central difference of circle points gives the exact tangent direction
    assert np.max(np.abs(theta - expected)) < 1e-12
    # no 2*pi jumps between adjacent vertices
    assert np.max(np.abs(np.diff(theta))) < 0.1


def test_product_angle_additivity():
    a1, a2 = 0.3, -1.1
    l1 = fx.make_line(angle=a1, n=21)
    prod = geo.ProductLagrangian(l1, geo.AffineLine((0, 0), (np.cos(a2), np.sin(a2))))
    grid = prod.angle_grid()
    assert np.allclose(grid, a1 + a2, atol=1e-13)


def test_degenerate_edge_rejected():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(DegenerateEdge):
        geo.DiscreteCurve(pts)


def hypot_degenerate_oracle(v, closed):
    """The former constructor test: some edge has hypot(dx, dy) <= 0."""
    d = np.diff(v, axis=0)
    lens = np.hypot(d[:, 0], d[:, 1])
    if closed:
        lens = np.append(lens, np.hypot(*(v[0] - v[-1])))
    return bool(np.any(lens <= 0.0))


@pytest.mark.parametrize("x, y", [
    (5e-324, 0.0), (0.0, 5e-324), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
    (np.nan, 0.0), (1.0, np.nan), (np.inf, 0.0), (-np.inf, np.inf),
    (0.0, 0.0)])
@pytest.mark.parametrize("closed", [False, True])
def test_degenerate_edge_check_matches_hypot(x, y, closed):
    # the edge from (x, y) to the origin sits mid-curve and, on closed
    # curves, also at the wrap-around edge left after the constructor drops
    # a duplicated endpoint; its increments include subnormals, signed
    # zeros, NaN and inf, and a NaN or inf vertex is refused before them
    base = np.stack([np.cos(np.arange(10) * 0.6), np.sin(np.arange(10) * 0.6)], 1)
    mid = base.copy()
    mid[5] = [x, y]
    mid[6] = [0.0, 0.0]
    wrap = base.copy()
    wrap[0] = wrap[-1] = [0.0, 0.0]
    wrap[-2] = [x, y]
    for v in (mid, wrap):
        kept = v[:-1] if closed and np.allclose(v[0], v[-1]) else v
        if not np.isfinite(kept).all():
            with pytest.raises(NonFiniteVertex):
                geo.DiscreteCurve(v, closed=closed)
        elif hypot_degenerate_oracle(kept, closed):
            with pytest.raises(DegenerateEdge):
                geo.DiscreteCurve(v, closed=closed)
        else:
            geo.DiscreteCurve(v, closed=closed)


@pytest.mark.parametrize("scale", [1e-12, 1e-170])
def test_small_closed_curves_keep_every_vertex(scale):
    # an absolute tolerance would take the last vertex for a repeated first
    circle = fx.make_circle(1.0, 48).vertices
    curve = geo.DiscreteCurve(scale * circle, closed=True)
    assert curve.n_vertices == 48
    assert curve.vertices.tobytes() == (scale * circle).tobytes()


@pytest.mark.parametrize("scale", [1e-170, 1.0, 1e6])
def test_repeated_first_vertex_is_stored_once(scale):
    phi = np.linspace(0.0, 2.0 * np.pi, 49)     # cos(2 pi) rounds: a near repeat
    rounded = np.stack([np.cos(phi), np.sin(phi)], axis=1)
    circle = fx.make_circle(1.0, 48).vertices
    exact = np.vstack([circle, circle[:1]])
    for v in (rounded, exact):
        curve = geo.DiscreteCurve(scale * v, closed=True)
        assert curve.n_vertices == 48
        assert curve.vertices.tobytes() == (scale * v[:-1]).tobytes()
        assert geo.DiscreteCurve(scale * v[:-1], closed=True).n_vertices == 48


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("closed", [False, True])
def test_non_finite_vertices_are_refused(bad, closed):
    v = fx.make_circle(1.0, 16).vertices.copy()
    v[3, 1] = bad
    with pytest.raises(NonFiniteVertex):
        geo.DiscreteCurve(v, closed=closed)
    block = np.stack([fx.make_circle(1.0, 16).vertices.T, v.T], axis=1)
    geo.check_vertices(block[:, :1], closed)
    with pytest.raises(NonFiniteVertex):   # the same check on a block of states
        geo.check_vertices(block, closed)


def test_mean_curvature_line_zero():
    curve = fx.make_line(angle=0.2, extent=3.0, n=31)
    H = geo.mean_curvature(curve)
    assert np.max(np.abs(H[1:-1])) < 1e-13


@pytest.mark.parametrize("r", [1.0, 2.5])
def test_mean_curvature_circle(r):
    # chord-weighted second difference is exact on uniform circles
    curve = fx.make_circle(radius=r, n=128)
    H = geo.mean_curvature(curve)
    mags = np.linalg.norm(H, axis=1)
    assert np.max(np.abs(mags - 1.0 / r)) < 1e-12
    inward = -curve.vertices / r
    assert np.max(np.abs(H - inward / r)) < 1e-12


def test_mean_curvature_circle_refinement_order():
    # analytic circle curvature: error O(h^2) in the vertex spacing
    errs = []
    for n in (32, 64, 128):
        curve = fx.make_circle(radius=1.0, n=n)
        H = geo.mean_curvature(curve)
        errs.append(np.max(np.abs(np.linalg.norm(H, axis=1) - 1.0)))
    # already exact up to roundoff; just confirm no growth under refinement
    assert errs[2] <= errs[0] + 1e-12


def test_grim_reaper_H_equals_normal_part_of_ey():
    curve, _ = fx.make_grim_reaper(speed=1.0, extent=3.0, n=801)
    H = geo.mean_curvature(curve)
    t = curve.tangents()
    ey = np.array([0.0, 1.0])
    expected = ey - (t @ ey)[:, None] * t
    mask = curve.interior_mask()
    err = np.max(np.linalg.norm((H - expected)[mask], axis=1))
    h = np.max(curve.edge_lengths())
    assert err < 5.0 * h ** 2


def test_angle_curvature_compatibility_rate():
    # max |H - J grad theta| decays at least at rate O(h) under refinement
    errs, hs = [], []
    for n in (101, 201, 401):
        curve, _ = fx.make_grim_reaper(speed=1.0, extent=2.5, n=n)
        H = geo.mean_curvature(curve)
        # d(theta)/ds from seam-free turning increments, times the tangent
        u = geo.unit_tangents(curve.vertices.T, curve.closed)
        slope = (geo.vertex_sums(geo.turning_increments(u, curve.closed), curve.closed)
                 / geo.vertex_sums(curve.edge_lengths(), curve.closed))
        Jgrad = geo.apply_J((slope * u).T)
        mask = curve.interior_mask()
        errs.append(np.max(np.linalg.norm((H - Jgrad)[mask], axis=1)))
        hs.append(np.max(curve.edge_lengths()))
    rate = np.log(errs[0] / errs[2]) / np.log(hs[0] / hs[2])
    assert rate > 0.9


def test_exactness_line_through_origin():
    curve = fx.make_line(angle=0.4, extent=5.0, n=51)
    beta = geo.exactness_primitive(curve)
    assert np.max(np.abs(beta)) < 1e-12


def test_exactness_circle_not_exact():
    r = 1.5
    n = 256
    curve = fx.make_circle(radius=r, n=n)
    with pytest.raises(NotExact) as exc:
        geo.exactness_primitive(curve)
    # holonomy equals twice the polygon area exactly, 2*pi*r^2 in the limit
    polygon_area = 0.5 * n * r * r * np.sin(2 * np.pi / n)
    assert abs(exc.value.holonomy - 2 * polygon_area) < 1e-10
    assert abs(exc.value.holonomy - 2 * np.pi * r * r) < 2 * np.pi * r * r * (2 * np.pi / n) ** 2


def test_grim_reaper_beta_against_fine_quadrature():
    # oracle: trapezoid quadrature of lambda at 10x resolution
    speed = 1.0
    n = 201
    curve, _ = fx.make_grim_reaper(speed=speed, extent=2.0, n=n)
    beta = geo.exactness_primitive(curve)

    s_fine = np.linspace(-2.0, 2.0, (n - 1) * 10 + 1)
    v = fx.grim_reaper_point(s_fine, speed)
    inc = v[:-1, 0] * v[1:, 1] - v[:-1, 1] * v[1:, 0]
    beta_fine = np.concatenate([[0.0], np.cumsum(inc)])
    oracle = beta_fine[::10] - beta_fine[0]
    oracle = oracle - oracle[0] + beta[0]
    h = np.max(curve.edge_lengths())
    assert np.max(np.abs(beta - oracle)) < 5.0 * h ** 2


def test_normal_projection_line_through_origin_zero():
    curve = fx.make_line(angle=1.1, extent=4.0, n=33)
    xperp = normal_projection(curve)
    assert np.max(np.abs(xperp)) < 1e-12


def test_normal_projection_circle_radial():
    r = 2.0
    curve = fx.make_circle(radius=r, n=128)
    xperp = normal_projection(curve)
    assert np.allclose(np.linalg.norm(xperp, axis=1), r, atol=1e-12)
    assert np.allclose(xperp, curve.vertices, atol=1e-12)


def test_grad_beta_matches_normal_projection():
    # discrete identity |grad beta| = |x^perp| within O(h) on the grim reaper
    curve, _ = fx.make_grim_reaper(speed=1.0, extent=2.0, n=401)
    beta = geo.exactness_primitive(curve)
    grad_b = geo.arc_gradient(curve, beta)
    xperp = np.linalg.norm(normal_projection(curve), axis=1)
    mask = curve.interior_mask()
    h = np.max(curve.edge_lengths())
    assert np.max(np.abs(np.abs(grad_b) - xperp)[mask]) < 5.0 * h


def test_frame_identities():
    fr = geo.standard_frame(4, z_axis=0)
    v = np.array([0.3, -1.2, 0.7, 2.2])
    assert np.allclose(geo.apply_J(geo.apply_J(v)), -v, atol=0)
    assert np.array_equal(geo.apply_J(fr.e_z), fr.e_w)


def test_make_plane_pair_m1_product_angles():
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), intersection_dim=1)
    # angle of R_z x l_j is the line angle (the z factor contributes 0)
    for plane, th in zip(pair.planes, pair.angles):
        prod = plane.as_product(extent=3.0, samples=31)
        assert np.allclose(prod.angle_grid(), th, atol=1e-13)
    # w vanishes identically on both planes
    for plane in pair.planes:
        coords = np.random.default_rng(0).normal(size=(50, 2))
        assert np.max(np.abs(coords @ plane.basis @ pair.frame.e_w)) < 1e-12


def test_make_plane_pair_rejects_equal_planes():
    with pytest.raises(ValueError):
        geo.make_plane_pair((0.3, -0.3), intersection_dim=2)


def test_make_plane_pair_m0_valid():
    pair = geo.make_plane_pair((np.pi / 3, -np.pi / 3), intersection_dim=0)
    assert pair.intersection_dim == 0
    # planes meet only at the origin: their basis stack has full rank
    stack = np.vstack([p.basis for p in pair.planes])
    assert np.linalg.matrix_rank(stack) == 4


def test_bad_frame_rejected():
    e_z = np.array([1.0, 0, 0, 0])
    with pytest.raises(BadFrame):
        geo.CoordinateFrame(e_z, np.array([0, 1.0, 0, 1e-9]),
                            np.array([[0, 0, 1.0, 0], [0, 0, 0, 1.0]]))


# ---------------------------------------------------------------------------
# the vertex-axis kernels against per-curve formulas


def per_curve_stencils(curve, f):
    """Tangents, dual weights, Laplacian and arc gradient written per curve
    with (N, 2) vertices; the shared kernels must reproduce them bit for bit."""
    v, h = curve.vertices, curve.edge_lengths()
    if curve.closed:
        d = np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)
        h_prev = np.roll(h, 1)
        dual = 0.5 * (h + h_prev)
        lap = 2.0 * ((np.roll(f, -1) - f) / h - (f - np.roll(f, 1)) / h_prev) / (h + h_prev)
        grad = (np.roll(f, -1) - np.roll(f, 1)) / (h + h_prev)
    else:
        d = np.empty_like(v)
        d[1:-1], d[0], d[-1] = v[2:] - v[:-2], v[1] - v[0], v[-1] - v[-2]
        dual = np.concatenate([[0.5 * h[0]], 0.5 * (h[:-1] + h[1:]), [0.5 * h[-1]]])
        lap = np.zeros_like(f)
        lap[1:-1] = 2.0 * ((f[2:] - f[1:-1]) / h[1:]
                           - (f[1:-1] - f[:-2]) / h[:-1]) / (h[1:] + h[:-1])
        grad = np.concatenate([[(f[1] - f[0]) / h[0]],
                               (f[2:] - f[:-2]) / (h[1:] + h[:-1]),
                               [(f[-1] - f[-2]) / h[-1]]])
    tangents = d / np.hypot(d[:, 0], d[:, 1])[:, None]
    return tangents, dual, lap, grad


@pytest.mark.parametrize("closed", [False, True])
def test_vertex_kernels_equal_per_curve_formulas(closed):
    rng = np.random.default_rng(3)
    phi = np.linspace(0.0, 1.8 * np.pi, 37)
    radius = 1.0 + 0.1 * rng.normal(size=phi.size)
    curve = geo.DiscreteCurve(np.stack([radius * np.cos(phi), radius * np.sin(phi)],
                                       axis=1), closed=closed)
    f = rng.normal(size=phi.size)
    tangents, dual, lap, grad = per_curve_stencils(curve, f)
    assert np.array_equal(curve.tangents(), tangents)
    assert np.array_equal(curve.dual_lengths(), dual)
    assert np.array_equal(geo.laplacian(curve, f), lap)
    assert np.array_equal(geo.arc_gradient(curve, f), grad)
    H = geo.mean_curvature(curve)
    assert H.flags["C_CONTIGUOUS"]
    for k in range(2):
        assert np.array_equal(H[:, k], per_curve_stencils(curve, curve.vertices[:, k])[2])


# ---------------------------------------------------------------------------
# the closed-curve implicit-step matrix, which flow.cyclic_tridiagonal builds
# from geometry.stencil_weights' couplings


@pytest.mark.parametrize("n", [8, 9, 64])
def test_cyclic_csc_pattern_equals_coo_conversion(n):
    rng = np.random.default_rng(n)
    coo_data = np.concatenate([rng.uniform(2.0, 3.0, n), -rng.uniform(size=n),
                               -rng.uniform(size=n)])
    idx = np.arange(n)
    A = sp.csc_matrix((coo_data, (np.concatenate([idx, idx, idx]),
                                  np.concatenate([idx, (idx - 1) % n, (idx + 1) % n]))),
                      shape=(n, n))
    indices, indptr, order = flow._cyclic_csc_pattern(n)
    assert indices.dtype == A.indices.dtype and indptr.dtype == A.indptr.dtype
    assert np.array_equal(indices, A.indices)
    assert np.array_equal(indptr, A.indptr)
    assert np.array_equal(coo_data[order], A.data)
    B = flow.cyclic_tridiagonal(coo_data[:n], -coo_data[n:2 * n], -coo_data[2 * n:])
    assert np.shares_memory(B.indices, indices) and np.shares_memory(B.indptr, indptr)
    assert np.array_equal(B.data, A.data)
