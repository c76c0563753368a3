"""Fixture generators: reference fields, determinism, default builds."""

import tracemalloc
from functools import partial

import numpy as np
import pytest

from lmcflab import fixtures as fx
from lmcflab import geometry as geo
from lmcflab.errors import ConfigInvalid

# every fixture generator, and the two plane pairs that geometry builds
GENERATORS = {
    "line": fx.make_line, "line-pair": fx.make_line_pair,
    "circle": fx.make_circle, "grim-reaper": fx.make_grim_reaper,
    "grim-reaper-product": fx.make_grim_reaper_product,
    "circle-product": fx.make_circle_product,
    "plane-pair-m1": partial(geo.make_plane_pair, (np.pi / 4, -np.pi / 4), 1),
    "plane-pair-m0": partial(geo.make_plane_pair, (np.pi / 4, -np.pi / 4), 0),
    "tilted-pair": fx.make_tilted_pair, "smoothed-pair": fx.make_smoothed_pair,
    "hopf-fibers": fx.make_hopf_fibers,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_every_fixture_generates_from_its_defaults(name):
    assert GENERATORS[name]() is not None


def test_every_make_function_of_the_fixtures_is_generated():
    made = {f for name, f in vars(fx).items()
            if name.startswith("make_") and f.__module__ == fx.__name__}
    assert made <= set(GENERATORS.values())


def test_generate_fixture_deterministic():
    a = fx.make_circle(radius=1.0, n=64)
    b = fx.make_circle(radius=1.0, n=64)
    assert np.array_equal(a.vertices, b.vertices)


def test_circle_reference_angle():
    curve = fx.make_circle(radius=1.0, n=256)
    phi = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    theta = geo.lagrangian_angle(curve)
    assert np.max(np.abs(theta - (phi + np.pi / 2))) < 1e-10


def test_grim_reaper_reference_angle():
    curve, theta_ref = fx.make_grim_reaper(speed=1.0, extent=3.0, n=512)
    theta = geo.lagrangian_angle(curve)
    mask = curve.interior_mask()
    h = np.max(curve.edge_lengths())
    # reference theta(x) = x from the closed form; discrete angle is O(h^2)
    assert np.max(np.abs(theta - theta_ref)[mask]) < 5.0 * h * h


def test_graded_grim_reaper_defaults_are_the_spacings_it_used():
    # h_fine, h_coarse and fine_radius once defaulted to None, read as these
    curve, _ = fx.make_grim_reaper(graded=True)
    want = fx.graded_arclength_grid(6.0, 0.02, 0.5, 4.0)
    assert np.array_equal(curve.vertices, fx.grim_reaper_point(want))


@pytest.mark.parametrize("spacings", [{"h_fine": 0.0}, {"h_coarse": -0.5},
                                      {"h_fine": float("nan")}])
def test_graded_grid_refuses_spacings_that_never_reach_the_extent(spacings):
    with pytest.raises(ConfigInvalid, match="spacings must be positive"):
        fx.make_grim_reaper(graded=True, **spacings)


def test_grim_reaper_speed_scaling():
    c = 2.0
    curve, theta_ref = fx.make_grim_reaper(speed=c, extent=2.0, n=512)
    theta = geo.lagrangian_angle(curve)
    mask = curve.interior_mask()
    assert np.max(np.abs(theta - c * curve.vertices[:, 0])[mask]) < 1e-3
    # arm width pi / c
    assert np.max(curve.vertices[:, 0]) < np.pi / (2 * c)


def test_grim_reaper_material_positions_consistent():
    # material points start at their arclength labels and stay on the
    # translated profile
    traj = fx.grim_reaper_material_trajectory(1.0, extent=2.0, n=101, t1=0.3, dt=0.1)
    [(_, p)] = traj.planes(0, len(traj))
    assert np.max(np.abs(p[:, 0].T - fx.grim_reaper_point(np.linspace(-2.0, 2.0, 101)))) < 1e-12
    y_expected = -np.log(np.cos(p[0])) + traj.times[:, None]
    assert np.max(np.abs(p[1] - y_expected)) < 1e-12


def test_reaper_product_frame_identities():
    prod, frame, _ = fx.make_grim_reaper_product(speed=1.0, extent=2.0, n=64)
    assert np.array_equal(geo.apply_J(frame.e_z), frame.e_w)
    # e_z is the translation axis (factor-one e_y direction)
    assert np.array_equal(frame.e_z, np.array([0.0, 1.0, 0.0, 0.0]))


def test_smoothed_pair_components_near_planes():
    prods, frame, pair = fx.make_smoothed_pair(sigma=0.05, n=101)
    assert len(prods) == 2
    for prod, plane in zip(prods, pair.planes):
        verts = geo._factor_grid(prod.factor1.vertices,
                                 prod.factor2.vertices).reshape(-1, 4)
        d = plane.distance(verts)
        assert np.max(d) < 0.06  # within sigma of its plane


def test_tilted_pair_graphs():
    lam = 0.1
    meshes, frame, pair = fx.make_tilted_pair(lam=lam, b=(1.0, -1.0),
                                              extent=2.0, samples=41)
    for grid, plane, b in zip(meshes, pair.planes, (1.0, -1.0)):
        verts = np.asarray(grid).reshape(-1, 4)
        z = verts @ frame.e_z
        w = verts @ frame.e_w
        assert np.max(np.abs(w - lam * b * z)) < 1e-12


def tilted_pair_oracle(lam, b, extent, samples, angle=np.pi / 4):
    """The tilted pair's vertices by the formula make_tilted_pair used before
    it wrote each graph into one array: full meshgrids and temporaries."""
    pair = geo.make_plane_pair((angle, -angle), intersection_dim=1)
    out = []
    for j, plane in enumerate(pair.planes):
        zz = np.linspace(-extent, extent, samples)
        uu = np.linspace(-extent, extent, samples)
        Z, U = np.meshgrid(zz, uu, indexing="ij")
        pts = (Z[..., None] * plane.basis[0] + U[..., None] * plane.basis[1])
        w_val = lam * b[j] * Z
        out.append((pts + w_val[..., None] * pair.frame.e_w).reshape(-1, 4))
    return out


@pytest.mark.parametrize("lam, b, extent, samples", [
    (0.1, (1.0, -1.0), 2.0, 400), (0.05, (1.0, 1.0), 2.0, 240),
    (0.2, (1.0, -1.0), 3.4, 120), (0.37, (-2.5, 0.3), 1.3, 7)])
def test_tilted_pair_vertices_and_shared_quads(lam, b, extent, samples):
    # each graph is a point grid; as a (vertices, quads) mesh its vertices
    # are a view of the points and its quads the numbers of the same
    # (samples - 1)**2 grid quads
    graphs = fx.make_tilted_pair(lam=lam, b=b, extent=extent, samples=samples)[0]
    (va, qa), (vb, qb) = graphs
    assert qa == qb == range((samples - 1) ** 2)
    for j, (graph, verts, want) in enumerate(zip(
            graphs, (va, vb), tilted_pair_oracle(lam, b, extent, samples))):
        points = np.asarray(graph)
        assert points.shape == (samples, samples, 4)
        assert np.shares_memory(points, verts)
        assert verts.shape == want.shape and verts.tobytes() == want.tobytes()
        alone = fx.tilted_graph(j, lam=lam, b=b, extent=extent, samples=samples)
        assert np.asarray(alone).tobytes() == points.tobytes()


def test_tilted_pair_builds_without_grid_sized_temporaries():
    tracemalloc.start()
    try:
        fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0), extent=2.0, samples=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two grids hold 9.8 MiB; with the quads they shared the build took
    # 17.0 MiB, and the full meshgrids and point temporaries 35.3 MiB
    assert peak < 12 * 2**20


def test_hopf_fibers_on_sphere():
    f1, f2 = fx.make_hopf_fibers(n=64)
    assert np.max(np.abs(np.linalg.norm(f1, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(f2, axis=1) - 1.0)) < 1e-12


def test_shrinking_circle_trajectory_law():
    traj = fx.shrinking_circle_trajectory(1.0, 64, t1=0.3, dt=0.05)
    for t, s in zip(traj.times, traj.states):
        r = np.linalg.norm(s.vertices if hasattr(s, "vertices")
                           else s[0].vertices, axis=1)
        assert np.max(np.abs(r - np.sqrt(1.0 - 2.0 * t))) < 1e-12
