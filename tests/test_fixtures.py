"""Fixture generators: reference fields, determinism, manifest coverage."""

import numpy as np
import pytest

from lmcflab import fixtures as fx
from lmcflab import geometry as geo
from lmcflab.errors import UnknownFixture


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        fx.generate_fixture("nonesuch")


def test_manifest_covers_generators():
    for name in fx._GENERATORS:
        assert name in fx.FIXTURE_MANIFEST


def test_generate_fixture_deterministic():
    a = fx.generate_fixture("circle", radius=1.0, n=64)
    b = fx.generate_fixture("circle", radius=1.0, n=64)
    assert np.array_equal(a.vertices, b.vertices)


def test_circle_reference_angle():
    curve = fx.generate_fixture("circle", radius=1.0, n=256)
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


def test_grim_reaper_speed_scaling():
    c = 2.0
    curve, theta_ref = fx.make_grim_reaper(speed=c, extent=2.0, n=512)
    theta = geo.lagrangian_angle(curve)
    mask = curve.interior_mask()
    assert np.max(np.abs(theta - c * curve.vertices[:, 0])[mask]) < 1e-3
    # arm width pi / c
    assert np.max(curve.vertices[:, 0]) < np.pi / (2 * c)


def test_grim_reaper_material_positions_consistent():
    # material points stay on the translated profile
    s0 = np.linspace(-2.0, 2.0, 101)
    for t in (0.0, 0.1, 0.3):
        p = fx.grim_reaper_material_positions(s0, t, speed=1.0)
        y_expected = -np.log(np.cos(p[:, 0])) + t
        assert np.max(np.abs(p[:, 1] - y_expected)) < 1e-12


def test_reaper_product_frame_identities():
    prod, frame, _ = fx.make_grim_reaper_product(speed=1.0, extent=2.0, n=64)
    assert np.array_equal(geo.apply_J(frame.e_z), frame.e_w)
    # e_z is the translation axis (factor-one e_y direction)
    assert np.array_equal(frame.e_z, np.array([0.0, 1.0, 0.0, 0.0]))


def test_smoothed_pair_components_near_planes():
    prods, frame, pair = fx.make_smoothed_pair(sigma=0.05, n=101)
    assert len(prods) == 2
    for prod, plane in zip(prods, pair.planes):
        verts = prod.quad_mesh()[0]
        d = plane.distance(verts)
        assert np.max(d) < 0.06  # within sigma of its plane


def test_tilted_pair_graphs():
    lam = 0.1
    meshes, frame, pair = fx.make_tilted_pair(lam=lam, b=(1.0, -1.0),
                                              extent=2.0, samples=41)
    for (verts, quads), plane, b in zip(meshes, pair.planes, (1.0, -1.0)):
        z = verts @ frame.e_z
        w = verts @ frame.e_w
        assert np.max(np.abs(w - lam * b * z)) < 1e-12


def test_hopf_fibers_on_sphere():
    f1, f2 = fx.make_hopf_fibers(n=64)
    assert np.max(np.abs(np.linalg.norm(f1, axis=1) - 1.0)) < 1e-12
    assert np.max(np.abs(np.linalg.norm(f2, axis=1) - 1.0)) < 1e-12


def test_neck_pair_connected():
    prod, pair = fx.make_neck_pair(sigma=0.05, n=101)
    # single connected product mesh close to the pair only away from origin
    verts = prod.quad_mesh()[0]
    assert verts.shape[0] == 101 * prod.factor2.n_vertices


def test_shrinking_circle_trajectory_law():
    traj = fx.shrinking_circle_trajectory(1.0, 64, t1=0.3, dt=0.05)
    for t, s in zip(traj.times, traj.states):
        r = np.linalg.norm(s.vertices if hasattr(s, "vertices")
                           else s[0].vertices, axis=1)
        assert np.max(np.abs(r - np.sqrt(1.0 - 2.0 * t))) < 1e-12
