"""Sphere slices, Gauss linking, half-space audit."""

import itertools
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from lmcflab import fanout
from lmcflab import fixtures as fx
from lmcflab import geometry as geo
from lmcflab import linking as lk
from lmcflab import scenarios as sc
from lmcflab.errors import (ConfigInvalid, CurvesTooClose, EmptySlice,
                            GaussSumTooLarge, NoTransverseRadius, OpenSliceLoop)


def crossing_count_oracle(loop_a, loop_b, seed=5):
    """Independent linking oracle: signed crossings in a generic projection."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    e1 = np.cross(d, [1.0, 0.3, -0.2])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(e1, d)  # (e1, e2) oriented as seen looking along -d
    A2 = np.stack([loop_a @ e1, loop_a @ e2], axis=1)
    B2 = np.stack([loop_b @ e1, loop_b @ e2], axis=1)
    Ah, Bh = loop_a @ d, loop_b @ d
    total = 0.0
    nA, nB = len(A2), len(B2)
    for i in range(nA):
        p1, p2 = A2[i], A2[(i + 1) % nA]
        h1, h2 = Ah[i], Ah[(i + 1) % nA]
        r = p2 - p1
        for j in range(nB):
            q1, q2 = B2[j], B2[(j + 1) % nB]
            s = q2 - q1
            den = r[0] * s[1] - r[1] * s[0]
            if abs(den) < 1e-14:
                continue
            t = ((q1 - p1)[0] * s[1] - (q1 - p1)[1] * s[0]) / den
            u = ((q1 - p1)[0] * r[1] - (q1 - p1)[1] * r[0]) / den
            if 0 < t < 1 and 0 < u < 1:
                ha = h1 + t * (Ah[(i + 1) % nA] - h1)
                hb = Bh[j] + u * (Bh[(j + 1) % nB] - Bh[j])
                total += np.sign(den) * (1.0 if ha > hb else -1.0)
    return total / 2.0


def all_triangles(quads):
    """Two triangles per quad: (0, 1, 2) of every quad, then (0, 2, 3)."""
    return np.concatenate([quads[:, [0, 1, 2]], quads[:, [0, 2, 3]]])


def grid_quad_mesh(X):
    """Vertices (n1*n2, 4) and the (i, j) -> (i+1, j) -> (i+1, j+1) ->
    (i, j+1) quads of a point grid X of shape (n1, n2, 4): the quad mesh
    that the slicing and the intersection scan took before they read grids."""
    X = np.asarray(X, dtype=float)
    n1, n2 = X.shape[0], X.shape[1]
    ii, jj = np.meshgrid(np.arange(n1 - 1), np.arange(n2 - 1), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    quads = np.stack([ii * n2 + jj, (ii + 1) * n2 + jj,
                      (ii + 1) * n2 + jj + 1, ii * n2 + jj + 1], axis=1)
    return X.reshape(-1, 4), quads


def quad_mesh_sphere_slice(verts, quads, R, tangency_tol=1e-9):
    """sphere_slice as it ran on quad meshes: the per-vertex sides gathered
    per quad and the crossing triangles picked from the gather."""
    f = np.linalg.norm(verts, axis=1) - R
    R_try = float(R)
    while np.min(np.abs(f)) <= tangency_tol * max(R_try, 1.0):
        R_try += 0.003
        f = np.linalg.norm(verts, axis=1) - R_try
    side = (f > 0)[quads]
    parts = []
    for corners in ([0, 1, 2], [0, 2, 3]):
        t = side[:, corners]
        parts.append(quads[t.any(axis=1) & ~t.all(axis=1)][:, corners])
    starts, _, start_edges, end_edges = lk._march_triangles(
        verts, np.concatenate(parts), f)
    loops = lk._chain_segments(starts, start_edges, end_edges)
    loops = [R_try * (lp / np.linalg.norm(lp, axis=1)[:, None]) for lp in loops]
    return lk.SphereSliceCurve(loops, R_try)


def geodesic_length(sl):
    """Geodesic length of a sphere slice: great-circle arcs between
    consecutive points of each loop."""
    total = 0.0
    for loop in sl.loops:
        chords = np.linalg.norm(np.roll(loop, -1, axis=0) - loop, axis=1)
        total += float(np.sum(2.0 * sl.radius *
                              np.arcsin(np.clip(chords / (2.0 * sl.radius),
                                                0.0, 1.0))))
    return total


def test_hopf_fibers_linked():
    f1, f2 = fx.make_hopf_fibers(n=128)
    rep = lk.linking_number(f1, f2, R=1.0, n_poles=5)
    assert abs(rep.value) == 1
    assert rep.margin < 1e-10
    assert len(rep.per_pole) == 5
    # orientation reversal negates; argument order does not matter
    assert lk.linking_number(f1[::-1].copy(), f2, R=1.0).value == -rep.value
    assert lk.linking_number(f2, f1, R=1.0).value == rep.value
    # generic fibers, same invariant
    g1, g2 = fx.make_hopf_fibers(q1=(1, 0, 0, 0),
                                 q2=(1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0), n=128)
    assert abs(lk.linking_number(g1, g2, R=1.0).value) == 1


def test_hopf_crossing_count_oracle_agrees():
    f1, f2 = fx.make_hopf_fibers(n=96)
    rep = lk.linking_number(f1, f2, R=1.0)
    pole = rep.pole / np.linalg.norm(rep.pole)
    pa = lk._stereographic(f1, pole, 1.0)
    pb = lk._stereographic(f2, pole, 1.0)
    oracle = crossing_count_oracle(pa, pb)
    assert abs(oracle - rep.raw) < 1e-9


def test_plane_slice_great_circle():
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    prod = pair.planes[0].as_product(extent=2.0, samples=300)
    grid = geo._factor_grid(prod.factor1.vertices, prod.factor2.vertices)
    sl = lk.sphere_slice(grid, 1.0)
    assert sl.radius == 1.0
    assert len(sl.loops) == 1
    assert abs(geodesic_length(sl) - 2.0 * np.pi) < 1e-6


def test_slice_respects_halfspace():
    # component inside {w > 0.2} slices to a curve inside {w > 0.2}
    meshes, frame, pair = fx.make_tilted_pair(lam=0.05, b=(1.0, 1.0),
                                              extent=2.0, samples=240)
    grid = np.asarray(meshes[0]) + 0.5 * frame.e_w  # lift into w > 0.2
    sl = lk.sphere_slice(grid, 1.0)
    w = np.concatenate(sl.loops) @ frame.e_w
    assert np.min(w) > 0.2


def test_transverse_pair_slices_link_once():
    meshes, frame, pair = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0),
                                              extent=2.0, samples=400)
    s1 = lk.sphere_slice(meshes[0], 1.0)
    s2 = lk.sphere_slice(meshes[1], 1.0)
    rep = lk.linking_number(s1, s2, n_poles=5)
    assert rep.value == 1
    assert rep.margin < 1e-6
    assert all(int(np.round(v)) == 1 for v in rep.per_pole)
    # linked slices of embedded surfaces force an intersection inside
    hit = lk.surfaces_intersect(meshes[0], meshes[1])
    assert hit is not None
    assert np.linalg.norm(hit) < 1e-6


def test_parallel_pair_unlinked_and_disjoint():
    meshes, frame, pair = fx.make_tilted_pair(lam=0.05, b=(1.0, 1.0),
                                              extent=2.0, samples=240)
    ga = np.asarray(meshes[0])
    gb = ga + 0.4 * frame.e_w
    sa = lk.sphere_slice(ga, 1.0)
    sb = lk.sphere_slice(gb, 1.0)
    rep = lk.linking_number(sa, sb)
    assert rep.value == 0
    assert lk.surfaces_intersect(ga, gb) is None
    # separation on the whole sphere implies unlinked
    w_all = np.concatenate([np.concatenate(sa.loops) @ frame.e_w,
                            -(np.concatenate(sb.loops) @ frame.e_w - 0.4)])
    assert np.max(w_all) < 0.2


def test_curves_too_close_guard():
    meshes, frame, pair = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0),
                                              extent=2.0, samples=100)
    s1 = lk.sphere_slice(meshes[0], 1.0)
    s2 = lk.sphere_slice(meshes[1], 1.0)
    with pytest.raises(CurvesTooClose):
        lk.linking_number(s1, s2)


def test_bounded_min_distance_agrees_with_the_unbounded_query():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.normal(size=(60, 4)), rng.normal(size=(70, 4)) + rng.normal(size=4)
        d = float(cKDTree(b).query(a)[0].min())
        for bound in (d, np.nextafter(d, np.inf), 2.0 * d):
            assert lk._min_distance(a, b, bound) == d
        # a least distance just above the bound gives inf
        assert lk._min_distance(a, b, np.nextafter(d, 0.0)) == np.inf
        assert lk._min_distance(a, b, 0.5 * d) == np.inf


@pytest.mark.parametrize("block, pairs", [(256, 2 ** 14), (7, 5)])
def test_min_distance_sweeps_a_single_slab(monkeypatch, block, pairs):
    # every point has the same first coordinate, so every block's window is
    # all of the second set; it is still measured a few columns at a time
    monkeypatch.setattr(lk, "SWEEP_BLOCK", block)
    monkeypatch.setattr(lk, "SWEEP_PAIRS", pairs)
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(300, 4)), rng.normal(size=(280, 4)) + 0.5
    a[:, 0] = b[:, 0] = 0.25
    d = float(cKDTree(b).query(a)[0].min())
    assert lk._min_distance(a, b, d) == d
    assert lk._min_distance(b, a, 3.0 * d) == d
    assert lk._min_distance(a, b, np.nextafter(d, 0.0)) == np.inf
    assert lk._min_distance(a[:0], b, 1.0) == np.inf


def test_halfspace_separation_tilted_pair():
    lam = 0.2
    meshes, frame, pair = fx.make_tilted_pair(lam=lam, b=(1.0, -1.0),
                                              extent=3.4, samples=120)
    rep = lk.halfspace_separation(meshes[0], meshes[1], frame,
                                  phi=np.zeros(4), lam=lam, b0=0.0)
    assert rep.holds
    # margin lam/2 at the cut z = 1/2, up to the sampling granularity
    spacing = 2 * 3.4 / (120 - 1)
    for key, m in rep.margins.items():
        assert lam / 2.0 - 1e-12 <= m <= lam / 2.0 + lam * spacing, (key, m)


def test_halfspace_separation_untilted_fails():
    meshes, frame, pair = fx.make_tilted_pair(lam=0.0, b=(1.0, -1.0),
                                              extent=3.4, samples=120)
    rep = lk.halfspace_separation(meshes[0], meshes[1], frame,
                                  phi=np.zeros(4), lam=0.0, b0=0.0)
    assert not rep.holds
    assert max(abs(v) for v in rep.margins.values()) < 1e-12


def test_halfspace_separation_equal_b_fails():
    lam = 0.2
    meshes, frame, pair = fx.make_tilted_pair(lam=lam, b=(1.0, 1.0),
                                              extent=3.4, samples=120)
    rep = lk.halfspace_separation(meshes[0], meshes[1], frame,
                                  phi=np.zeros(4), lam=lam, b0=1.0)
    assert not rep.holds


def test_tangency_retries_nudge_radius():
    # grids hitting the sphere exactly get the +0.003 radius nudge
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    prod = pair.planes[0].as_product(extent=2.0, samples=301)
    grid = geo._factor_grid(prod.factor1.vertices, prod.factor2.vertices)
    sl = lk.sphere_slice(grid, 1.0)  # 301 grid hits (0.6, 0.8) points
    assert sl.radius > 1.0
    assert abs(geodesic_length(sl) - 2.0 * np.pi * sl.radius) < 1e-6


def make_sphere_speck(radius=0.01, center=(0.5, 0.5, 0.5, 0.0), n=12):
    """Small round 2-sphere, an (n, 2n, 4) point grid in the (x1,y1,x2)
    subspace of R^4."""
    th = np.linspace(0.05, np.pi - 0.05, n)
    ph = np.linspace(0.0, 2 * np.pi, 2 * n)
    T, P = np.meshgrid(th, ph, indexing="ij")
    pts = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P),
                    np.cos(T), np.zeros_like(T)], axis=-1)
    return radius * pts + np.asarray(center)


def test_no_transverse_radius():
    # concentric shells at every retry radius, stacked as the rows of one
    # grid, defeat the nudging
    shells = np.concatenate([make_sphere_speck(radius=1.0 + 0.003 * k,
                                               center=(0, 0, 0, 0), n=16)
                             for k in range(12)])
    with pytest.raises(NoTransverseRadius):
        lk.sphere_slice(shells, 1.0, tangency_tol=1e-3)


@pytest.mark.parametrize("shape, R", [((1, 1), 1.0), ((2, 2), 1.0),
                                      ((5, 7), 10.0), ((5, 7), 0.01),
                                      ((1, 30), 1.0), ((0, 0), 1.0)])
def test_a_surface_that_misses_the_sphere_raises(shape, R):
    # a point grid with no quad, or whose quads all lie on one side
    s = np.linspace(-2.0, 2.0, max(shape))
    grid = np.zeros(shape + (4,))
    grid[..., 0] = s[:shape[0], None] if shape[0] > 1 else 2.0
    grid[..., 1] = s[None, :shape[1]] if shape[1] > 1 else 2.0
    grid[..., 2] = 1.5   # off the origin: no radius near 0
    with pytest.raises(EmptySlice, match="crosses the sphere"):
        lk.sphere_slice(grid, R)


# ---------------------------------------------------------------------------
# reference implementations of the vectorized kernels


def dense_gauss_linking_oracle(loop_a, loop_b):
    """The dense (N, M, 3) roll/cross/einsum Gauss sum the blocked kernel
    must reproduce bit for bit."""
    a = np.asarray(loop_a, dtype=float)
    b = np.asarray(loop_b, dtype=float)
    diff = b[None, :, :] - a[:, None, :]
    nrm = np.linalg.norm(diff, axis=2)
    U = diff / nrm[:, :, None]
    n1 = U
    n2 = np.roll(U, -1, axis=1)
    n3 = np.roll(np.roll(U, -1, axis=1), -1, axis=0)
    n4 = np.roll(U, -1, axis=0)

    def solid_angle(p, q, r):
        triple = np.einsum("...i,...i->...", p, np.cross(q, r))
        denom = (1.0 + np.einsum("...i,...i->...", p, q)
                 + np.einsum("...i,...i->...", q, r)
                 + np.einsum("...i,...i->...", r, p))
        return 2.0 * np.arctan2(triple, denom)

    total = solid_angle(n1, n2, n3) + solid_angle(n1, n3, n4)
    return float(np.sum(total)) / (4.0 * np.pi)


def loop_march_oracle(verts, tris, f):
    """Per-triangle marching loop the vectorized march must reproduce."""
    fv = f[tris]
    sign = fv > 0
    crossing = ~(sign.all(axis=1) | (~sign).all(axis=1))
    segs = []
    for tri in tris[crossing]:
        p = verts[tri]
        fv3 = f[tri]
        pts = []
        for a, b in ((0, 1), (1, 2), (2, 0)):
            if (fv3[a] > 0) != (fv3[b] > 0):
                lam = fv3[a] / (fv3[a] - fv3[b])
                pts.append(p[a] + lam * (p[b] - p[a]))
        e1 = p[1] - p[0]
        e2 = p[2] - p[0]
        gram = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
        g = np.linalg.solve(gram, np.array([e1 @ p.mean(axis=0),
                                            e2 @ p.mean(axis=0)]))
        d = np.linalg.solve(gram, np.array([e1 @ (pts[1] - pts[0]),
                                            e2 @ (pts[1] - pts[0])]))
        if g[0] * d[1] - g[1] * d[0] < 0:
            pts = pts[::-1]
        segs.append(pts)
    return segs


def first_hit_oracle(grid_a, grid_b, tol=1e-9):
    """Brute force over all triangle pairs of two grids in index order."""
    (va, qa), (vb, qb) = grid_quad_mesh(grid_a), grid_quad_mesh(grid_b)
    for ta in all_triangles(qa):
        for tb in all_triangles(qb):
            pa, pb = va[ta], vb[tb]
            A = np.stack([pa[1] - pa[0], pa[2] - pa[0],
                          -(pb[1] - pb[0]), -(pb[2] - pb[0])], axis=1)
            try:
                u, v, s, t = np.linalg.solve(A, pb[0] - pa[0])
            except np.linalg.LinAlgError:
                continue
            if (u >= -tol and v >= -tol and u + v <= 1 + tol
                    and s >= -tol and t >= -tol and s + t <= 1 + tol):
                return pa[0] + u * (pa[1] - pa[0]) + v * (pa[2] - pa[0])
    return None


def grid_mesh(origin, e1, e2, extent, n):
    """n x n point grid of origin + [-extent, extent]^2 in span(e1, e2)."""
    s = np.linspace(-extent, extent, n)
    u, v = (w[..., None] for w in np.meshgrid(s, s, indexing="ij"))
    return np.asarray(origin, float) + u * e1 + v * e2


E = np.eye(4)


# ---------------------------------------------------------------------------
# bit-identity of the blocked Gauss sum and the vectorized march


def test_blocked_gauss_equals_dense_on_scenario_slices(monkeypatch):
    meshes, frame, pair = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0),
                                              extent=2.0, samples=400)
    s1 = lk.sphere_slice(meshes[0], 1.0)
    s2 = lk.sphere_slice(meshes[1], 1.0)
    blocked = lk.linking_number(s1, s2, seed=0, n_poles=2).per_pole
    monkeypatch.setattr(lk, "_gauss_linking_r3", dense_gauss_linking_oracle)
    assert lk.linking_number(s1, s2, seed=0, n_poles=2).per_pole == blocked


def test_blocked_gauss_equals_dense_on_hopf_fibers():
    f1, f2 = fx.make_hopf_fibers(n=128)
    pole = lk.linking_number(f1, f2, R=1.0).pole
    pa = lk._stereographic(f1, pole, 1.0)
    pb = lk._stereographic(f2, pole, 1.0)
    assert lk._gauss_linking_r3(pa, pb) == dense_gauss_linking_oracle(pa, pb)


@pytest.mark.parametrize("rows", [1, lk.GAUSS_BLOCK - 1, lk.GAUSS_BLOCK + 1,
                                  2 * lk.GAUSS_BLOCK])
def test_blocked_gauss_equals_dense_at_block_edges(rows):
    rng = np.random.default_rng(rows)
    a = rng.normal(size=(rows, 3))
    b = rng.normal(size=(37, 3)) + [0.5, 0.0, 0.0]
    assert lk._gauss_linking_r3(a, b) == dense_gauss_linking_oracle(a, b)
    assert lk._gauss_linking_r3(b, a) == dense_gauss_linking_oracle(b, a)


@pytest.mark.parametrize("cols", [3, 4, lk.GAUSS_BLOCK - 1, lk.GAUSS_BLOCK + 1])
@pytest.mark.parametrize("rows", [1, 3, lk.GAUSS_BLOCK - 1, lk.GAUSS_BLOCK + 1,
                                  2 * lk.GAUSS_BLOCK])
def test_blocked_gauss_equals_dense_on_flat_row_edges(rows, cols):
    # short flat rows: the padding column and the wrapped row and column sit
    # next to kept entries in every block (37 columns: the test above); the
    # discarded padding entries must raise no floating-point error either
    rng = np.random.default_rng(100 * rows + cols)
    a = rng.normal(size=(rows, 3))
    b = rng.normal(size=(cols, 3)) + [0.5, 0.0, 0.0]
    with np.errstate(all="raise"):
        ab, ba = lk._gauss_linking_r3(a, b), lk._gauss_linking_r3(b, a)
    assert ab == dense_gauss_linking_oracle(a, b)
    assert ba == dense_gauss_linking_oracle(b, a)


def test_gauss_sum_holds_no_dense_vector_temporaries():
    n = 1358   # the vertex count of each scenario transverse slice
    f1, f2 = fx.make_hopf_fibers(n=n)
    tracemalloc.start()
    try:
        lk.linking_number(f1, f2, R=1.0)   # one pole, summed in this process
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block workspace (about 2.5 MiB) and the summand buffer (0.4 MiB);
    # the (N, M) summands would add 14.1 MiB and a dense (N, M, 3)
    # temporary 44 MiB
    assert peak < 6 * 2**20


@pytest.mark.parametrize("n", [1, 7, 8, 127, 128, 129, lk.SUM_LEAF - 1,
                               lk.SUM_LEAF, lk.SUM_LEAF + 1, 3 * lk.SUM_LEAF + 5])
def test_streamed_sum_equals_np_sum(n):
    rng = np.random.default_rng(n)
    # magnitudes over many decades, so that a change of order shows
    x = rng.normal(size=n) * np.exp(8.0 * rng.normal(size=n))
    leaves = []

    def leaf(lo, hi):
        leaves.append((lo, hi))
        return np.add.reduce(x[lo:hi])

    got = lk._pairwise_sum(0, n, leaf)
    assert got == np.sum(x) and np.sum(x) == np.sum(x.reshape(1, n))
    # the leaves cover 0 .. n - 1 in order, each of at most SUM_LEAF entries
    assert [lo for lo, _ in leaves] == [0] + [hi for _, hi in leaves[:-1]]
    assert leaves[-1][1] == n
    assert max(hi - lo for lo, hi in leaves) <= lk.SUM_LEAF


@pytest.mark.parametrize("rows, cols", [(37, 1211), (300, 251), (21, 3001),
                                        (lk.GAUSS_BLOCK + 3, 2 * lk.SUM_LEAF)])
def test_blocked_gauss_equals_dense_over_several_sum_leaves(rows, cols):
    # row counts that are not multiples of GAUSS_BLOCK; row blocks that end
    # inside a leaf and leaves that end inside a row block
    rng = np.random.default_rng(rows + cols)
    a = rng.normal(size=(rows, 3))
    b = rng.normal(size=(cols, 3)) + [0.5, 0.0, 0.0]
    assert rows * cols > lk.SUM_LEAF and rows % lk.GAUSS_BLOCK
    assert lk._gauss_linking_r3(a, b) == dense_gauss_linking_oracle(a, b)


def test_transverse_link_holds_one_grid_and_no_summand_array(cpus):
    cpus(1)   # every pole summed in this process
    graph = partial(fx.tilted_graph, lam=0.1, b=(1.0, -1.0), extent=2.0,
                    samples=400)
    tracemalloc.start()
    try:
        s1, s2, rep = sc.transverse_link(graph, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.value == 1
    # one 400 x 400 grid is 4.9 MiB; both graphs with their quads took the
    # caller to 15.3 MiB and the (N, M) Gauss summands to 14.1 MiB, for a
    # peak of 18.3 MiB
    assert peak < 10 * 2**20


@pytest.mark.parametrize("shape", [(1, 5), (17, 37), (64, 129)])
def test_dot_adds_in_einsums_order(shape):
    rng = np.random.default_rng(shape[1])
    p = rng.normal(size=shape + (3,))
    q = rng.normal(size=shape + (3,))
    got = lk._dot(np.moveaxis(p, -1, 0), np.moveaxis(q, -1, 0),
                  np.empty(shape), np.empty(shape))
    assert np.array_equal(got, np.einsum("...i,...i->...", p, q)), (
        "this numpy build's einsum adds a length-3 contraction in another "
        "order than _dot's (x + z) + y; see the CHANGES.md FOUND line on the "
        "zero tolerance of transverse_per_pole: the tolerance-0 references "
        "(lmcflab compare, the dense-oracle equality tests) then fail on "
        "correct code")


def test_vectorized_march_equals_loop():
    meshes, frame, pair = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0),
                                              extent=2.0, samples=120)
    verts, quads = grid_quad_mesh(meshes[0])
    tris = all_triangles(quads)
    f = np.linalg.norm(verts, axis=1) - 1.0
    starts, ends, start_edges, end_edges = lk._march_triangles(
        verts, lk._crossing_triangles((f > 0).reshape(120, 120)), f)
    segs = loop_march_oracle(verts, tris, f)   # over every triangle
    assert len(segs) > 100
    assert starts.tobytes() == np.array([s[0] for s in segs]).tobytes()
    assert ends.tobytes() == np.array([s[1] for s in segs]).tobytes()
    # each point lies on the mesh edge its id names, and every end edge is
    # the start edge of exactly one other segment
    n = len(verts)
    for pts, edges in ((starts, start_edges), (ends, end_edges)):
        a, b = verts[edges // n], verts[edges % n]
        lam = np.einsum("ij,ij->i", pts - a, b - a) / np.einsum("ij,ij->i", b - a, b - a)
        assert np.allclose(a + lam[:, None] * (b - a), pts, atol=1e-12)
        assert np.all((lam > 0.0) & (lam < 1.0))
    assert sorted(start_edges.tolist()) == sorted(end_edges.tolist())
    assert len(set(start_edges.tolist())) == len(start_edges)


def test_crossing_triangles_equal_the_full_gather():
    rng = np.random.default_rng(7)
    for shape in ((9, 11), (11, 9), (2, 2), (2, 7), (7, 2)):
        tris = all_triangles(grid_quad_mesh(np.zeros(shape + (4,)))[1])
        patterns = [rng.random(shape) < p for p in rng.random(20)]
        for above in patterns + [np.ones(shape, bool), np.zeros(shape, bool)]:
            sign = above.ravel()[tris]
            crossing = ~(sign.all(axis=1) | (~sign).all(axis=1))
            got = lk._crossing_triangles(above)
            assert got.dtype == tris.dtype
            assert np.array_equal(got, tris[crossing])   # same triangles, same order


@pytest.mark.parametrize("samples", [120, 400])
def test_grid_slices_equal_the_quad_mesh_path_on_the_tilted_pair(samples):
    meshes = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0), extent=2.0,
                                 samples=samples)[0]
    for grid in meshes:
        got = lk.sphere_slice(grid, 1.0)
        want = quad_mesh_sphere_slice(*grid_quad_mesh(grid), 1.0)
        assert got.radius == want.radius
        assert [lp.tobytes() for lp in got.loops] == [lp.tobytes() for lp in want.loops]


def test_grid_slices_equal_the_quad_mesh_path_on_random_grids():
    # random bumps on a plane through the origin: the unit sphere cuts one
    # closed loop from every 9 x 11 grid, whose triangles are far from flat
    rng = np.random.default_rng(13)
    u, v = np.meshgrid(np.linspace(-2.4, 2.4, 9), np.linspace(-2.4, 2.4, 11),
                       indexing="ij")
    plane = u[..., None] * E[0] + v[..., None] * (E[2] + 0.5 * E[3])
    for _ in range(20):
        grid = plane + 0.1 * rng.normal(size=plane.shape)
        got = lk.sphere_slice(grid, 1.0)
        want = quad_mesh_sphere_slice(*grid_quad_mesh(grid), 1.0)
        assert got.radius == want.radius
        assert [lp.tobytes() for lp in got.loops] == [lp.tobytes() for lp in want.loops]


def test_sphere_slice_gathers_no_array_of_all_triangles():
    meshes = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0), extent=2.0,
                                 samples=400)[0]
    tracemalloc.start()   # the held meshes are not counted
    try:
        lk.sphere_slice(meshes[0], 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (2Q, 3) triangle indices and their corner values took 17.9 MiB;
    # the radii's (N, 4) norm temporary alone is 4.9 MiB
    assert peak < 10 * 2**20


def test_sphere_slice_radii_take_no_vertex_sized_temporary():
    meshes = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0), extent=2.0,
                                 samples=400)[0]
    tracemalloc.start()   # the held meshes are not counted
    try:
        lk.sphere_slice(meshes[0], 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a one-shot np.linalg.norm(verts, axis=1) adds an (N, 4) temporary of
    # 4.9 MiB; the radii and f are 1.2 MiB each
    assert peak < 4 * 2**20


def test_sphere_slice_does_not_depend_on_mesh_block(monkeypatch):
    meshes = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0), extent=2.0,
                                 samples=120)[0]
    want = lk.sphere_slice(meshes[0], 1.0)
    monkeypatch.setattr(lk, "MESH_BLOCK", 120 * 120)   # one block
    got = lk.sphere_slice(meshes[0], 1.0)
    assert [lp.tobytes() for lp in got.loops] == [lp.tobytes() for lp in want.loops]


def test_slice_csv_cells_read_back_as_the_loop_floats(tmp_path):
    meshes = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0), extent=2.0,
                                 samples=120)[0]
    sl = lk.sphere_slice(meshes[0], 1.0)
    path = tmp_path / "slice.csv"
    sl.write_csv(path)
    header, *rows = path.read_text().splitlines()
    assert header == "loop,x1,y1,x2,y2"
    cells = [row.split(",") for row in rows]
    assert [int(c[0]) for c in cells] == [li for li, lp in enumerate(sl.loops)
                                          for _ in lp]
    values = np.array([[float(x) for x in c[1:]] for c in cells])
    assert np.array_equal(values, np.concatenate(sl.loops))


# ---------------------------------------------------------------------------
# the pole fan-out, its arguments and the size bound


def test_concurrent_callers_get_serial_values():
    meshes, frame, pair = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0),
                                              extent=2.0, samples=400)
    slices = (lk.sphere_slice(meshes[0], 1.0), lk.sphere_slice(meshes[1], 1.0))
    # two Hopf pairs of one size, so that summand arrays shared between
    # calls would collide
    hopf = fx.make_hopf_fibers(n=300)
    generic = fx.make_hopf_fibers(q1=(1, 0, 0, 0),
                                  q2=(1 / np.sqrt(2), 0, 1 / np.sqrt(2), 0), n=300)
    jobs = [(slices, {"n_poles": 2}), (hopf, {"R": 1.0, "n_poles": 3}),
            (generic, {"R": 1.0, "n_poles": 3})]
    serial = [lk.linking_number(*pair_, **kw).per_pole for pair_, kw in jobs]
    barrier = threading.Barrier(len(jobs), timeout=60)
    results = [[] for _ in jobs]

    def call(k):
        pair_, kw = jobs[k]
        try:
            for _ in range(2):
                barrier.wait()
                results[k].append(lk.linking_number(*pair_, **kw).per_pole)
        except Exception as exc:  # reported by the assertion below
            results[k].append(exc)
            barrier.abort()

    # three callers on the shared pool, more than this test expects cores,
    # with frequent interpreter switches
    threads = [threading.Thread(target=call, args=(k,)) for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in range(len(jobs)):
        assert results[k] == [serial[k]] * 2


def run_python(code, timeout):
    """Run code in a fresh interpreter that imports this lmcflab."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lk.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=timeout).stdout


def test_import_starts_no_thread():
    # nor a process: the fan-out forks only when a caller asks for it
    out = run_python("""
        import multiprocessing, os, threading
        before = threading.active_count()
        import lmcflab.scenarios
        try:
            os.waitpid(-1, os.WNOHANG)
            children = "some"
        except ChildProcessError:
            children = "none"
        print(before, threading.active_count(), multiprocessing.active_children(),
              children)
        """, timeout=60).split()
    assert out[0] == out[1]
    assert out[2:] == ["[]", "none"]


def test_imports_leave_unused_scipy_modules_out():
    # scipy.optimize serves only diagnostics.entropy, which no scenario
    # calls; drift, scenarios and the linking suite's modules import no scipy
    # module, and a scenario imports its flow and diagnostics modules when it
    # runs. plane-pair-density's density needs scipy.special: the scan below
    # does see what a scenario loads
    out = run_python("""
        import sys
        import lmcflab.drift
        sparse = "scipy.sparse" in sys.modules
        import lmcflab.scenarios as sc
        print(sparse, "scipy.optimize" in sys.modules)
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        for name in ("linking-suite", "three-annulus", "hermite-spectrum"):
            assert sc.run_scenario({"scenario": name})["pass"], name
        print(sorted(m for m in sys.modules if m.startswith("scipy")))
        sc.run_scenario({"scenario": "plane-pair-density"})
        print("scipy.special" in sys.modules)
        """, timeout=120).splitlines()
    assert out == ["False False", "[]", "[]", "True"]


def test_nested_fan_out_gives_serial_values(cpus, forks, no_child_left):
    # forked children that fan out again: every pole as computed in one process
    f1, f2 = fx.make_hopf_fibers(n=64)
    cpus(1)
    serial = lk.linking_number(f1, f2, R=1.0, n_poles=3).per_pole
    cpus(2)
    outer = fanout.fan_out(
        lambda _: (lk.linking_number(f1, f2, R=1.0, n_poles=3).per_pole, len(forks)),
        range(2))
    # each process forked once for its poles, after the caller's first fork,
    # which the child's copy of the count inherited
    assert outer == [(serial, 2), (serial, 2)]
    no_child_left()


def test_gauss_sum_refuses_oversized_loops_before_allocating(cpus, forks):
    cpus(2)
    f1, f2 = fx.make_hopf_fibers(n=8193)
    assert 8193 * 8193 > lk.GAUSS_MAX_PAIRS
    tracemalloc.start()
    try:
        with pytest.raises(GaussSumTooLarge, match="8193 x 8193"):
            lk.linking_number(f1, f2, R=1.0, n_poles=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the refused summand array alone would take 8 * 8193**2 bytes (512 MiB)
    assert peak < 64 * 2**20
    assert forks == []   # refused once, in the caller, before any pole starts


@pytest.mark.parametrize("n_poles", [0, -1, 2.0, "2", True, None])
def test_linking_number_refuses_bad_n_poles(monkeypatch, n_poles):
    f1, f2 = fx.make_hopf_fibers(n=64)

    def no_draws(*args, **kwargs):
        raise AssertionError("a pole candidate was drawn")

    monkeypatch.setattr(lk.np.random, "default_rng", no_draws)
    with pytest.raises(ConfigInvalid, match="n_poles must be a positive integer"):
        lk.linking_number(f1, f2, R=1.0, n_poles=n_poles)


def test_linking_number_takes_numpy_integer_n_poles():
    f1, f2 = fx.make_hopf_fibers(n=64)
    assert len(lk.linking_number(f1, f2, R=1.0, n_poles=np.int64(2)).per_pole) == 2


# ---------------------------------------------------------------------------
# segment chaining


def test_chain_segments_keeps_order_and_start():
    square = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 0, 0]],
                      dtype=float)
    order = [2, 0, 3, 1]
    edges = np.arange(4)
    loops = lk._chain_segments(square[order], edges[order],
                               np.roll(edges, -1)[order])
    assert len(loops) == 1
    assert np.array_equal(loops[0], square[[2, 3, 0, 1]])


def test_chain_segments_joins_copies_across_a_rounding_cell():
    # The two triangles sharing a mesh edge interpolate its crossing from
    # opposite ends, so the two copies can differ in the last bit. Here the
    # copy that starts segment 0 and the copy that ends segment 2 sit on
    # either side of a cell boundary of the 1e-9 grid that coordinate keys
    # rounded to, which split the loop; edge ids join it.
    start_copy, end_copy = np.nextafter(0.5e-9, 0.0), np.nextafter(0.5e-9, 1.0)
    assert np.round(start_copy / 1e-9) != np.round(end_copy / 1e-9)
    starts = np.array([[start_copy, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, 0.0],
                       [0.0, 1.0, 0.0, 0.0]])
    loops = lk._chain_segments(starts, np.array([0, 1, 2]), np.array([1, 2, 0]))
    assert len(loops) == 1
    assert np.array_equal(loops[0], starts)


def test_chain_segments_open_chain_raises():
    pts = np.array([[0, 0, 0, 0], [1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 0, 0]],
                   dtype=float)
    with pytest.raises(OpenSliceLoop, match="without closing"):
        lk._chain_segments(pts[:-1], np.arange(3), np.arange(1, 4))


def test_chain_segments_short_fragment_raises():
    pts = np.array([[0, 0, 0, 0], [1, 0, 0, 0]], dtype=float)
    with pytest.raises(OpenSliceLoop, match="only 2 point"):
        lk._chain_segments(pts, np.array([0, 1]), np.array([1, 0]))


# ---------------------------------------------------------------------------
# surface intersection scan


def test_surfaces_intersect_without_candidates():
    mesh = grid_mesh(np.zeros(4), E[0], E[1], 1.0, 5)
    far = grid_mesh(10.0 * E[2], E[0], E[1], 1.0, 5)
    assert lk.surfaces_intersect(mesh, far) is None


def test_surfaces_intersect_skips_singular_systems():
    mesh = grid_mesh(np.zeros(4), E[0], E[1], 1.0, 5)
    assert lk.surfaces_intersect(mesh, mesh) is None
    shifted = grid_mesh(0.13 * E[0], E[0], E[1], 1.0, 5)
    assert lk.surfaces_intersect(mesh, shifted) is None


def gathered_bounding_balls_oracle(pts):
    """Bounding balls from the gathered (Q, 4, d) corner array."""
    centre = pts.mean(axis=1)
    r2 = np.sum((pts - centre[:, None, :]) ** 2, axis=2)
    return centre, np.sqrt(np.max(r2, axis=1))


def test_bounding_balls_equal_gathered_formula(monkeypatch):
    meshes, frame, pair = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0),
                                              extent=2.0, samples=200)
    for grid in meshes:
        centre, radius = lk._bounding_balls(np.asarray(grid))
        verts, quads = grid_quad_mesh(grid)
        want_centre, want_radius = gathered_bounding_balls_oracle(verts[quads])
        assert centre.tobytes() == want_centre.tobytes()
        assert radius.tobytes() == want_radius.tobytes()
        # the ball pyramid takes them in blocks of quad rows: one level-1 row
        # per block, several, and the whole grid in one block
        want = lk._ball_pyramid(np.asarray(grid))
        for block in [1, 250, 200 * 200]:
            monkeypatch.setattr(lk, "MESH_BLOCK", block)
            got = lk._ball_pyramid(np.asarray(grid))
            assert got[1] == want[1]
            assert [(s.tolist(), c.tobytes(), r.tobytes()) for s, c, r in got[0]] == \
                [(s.tolist(), c.tobytes(), r.tobytes()) for s, c, r in want[0]]


def test_triangles_gather_rows_of_the_full_formula():
    rng = np.random.default_rng(3)
    for shape in ((7, 9), (9, 7), (2, 2), (2, 5), (5, 2)):
        quads = grid_quad_mesh(np.zeros(shape + (4,)))[1]
        tris = all_triangles(quads)
        for idx in (np.arange(len(tris)), rng.integers(0, len(tris), 200),
                    np.array([len(quads) - 1, len(quads), 0], dtype=np.int64)):
            got = lk._triangles(shape + (4,), idx)
            assert got.dtype == tris.dtype
            assert np.array_equal(got, tris[idx])


def test_surfaces_intersect_holds_no_mesh_sized_temporaries():
    meshes = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0), extent=2.0,
                                 samples=400)[0]
    tracemalloc.start()   # the held meshes are not counted
    try:
        assert lk.surfaces_intersect(*meshes) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two (2Q, 3) triangle arrays and the whole-mesh corner gathers of
    # the bounding balls took 43.7 MiB; every quad's ball and two k-d trees
    # 14.8 MiB. The ball pyramids hold 4.7 MiB
    assert peak < 8 * 2**20


def flat_balls(grid):
    """Every quad ball of the grid, in row-major quad order."""
    centre, radius = lk._bounding_balls(grid)
    return centre.reshape(-1, 4), radius.ravel()


def k_d_tree_pairs(grid_a, grid_b):
    """The broad phase as one k-d tree query over every quad ball: the
    quad pairs whose centre distance is at most the sum of their radii."""
    (ca, ra), (cb, rb) = flat_balls(grid_a), flat_balls(grid_b)
    tree_a, tree_b = (cKDTree(c, balanced_tree=False, compact_nodes=False)
                      for c in (ca, cb))
    near = tree_a.sparse_distance_matrix(tree_b, float(ra.max() + rb.max()),
                                         output_type="ndarray")
    near = near[near["v"] <= ra[near["i"]] + rb[near["j"]]]
    return sorted(zip(near["i"].tolist(), near["j"].tolist()))


def pyramid_pairs(grid_a, grid_b):
    qa, qb = lk._candidate_quads(np.asarray(grid_a), np.asarray(grid_b))
    return sorted(zip(qa.tolist(), qb.tolist()))


def test_broad_phase_equals_the_k_d_tree_on_the_scenario_pair():
    graphs = [np.asarray(fx.tilted_graph(j, lam=0.1, b=(1.0, -1.0), extent=2.0,
                                         samples=400)) for j in (0, 1)]
    want = k_d_tree_pairs(*graphs)
    assert len(want) == 91
    assert pyramid_pairs(*graphs) == want


def test_broad_phase_equals_the_k_d_tree_on_random_grids():
    rng = np.random.default_rng(30)
    for _ in range(20):
        shapes = rng.integers(2, 40, size=(2, 2))
        # random walks along both grid axes: surfaces that fold and cross
        grids = [np.cumsum(np.cumsum(rng.normal(scale=0.1, size=(n1, n2, 4)),
                                     axis=0), axis=1) for n1, n2 in shapes]
        want = k_d_tree_pairs(*grids)
        assert pyramid_pairs(*grids) == want
        assert pyramid_pairs(grids[1], grids[0]) == sorted((j, i) for i, j in want)


@pytest.mark.parametrize("shape_a, shape_b", [
    ((2, 2), (2, 2)), ((2, 7), (7, 2)), ((7, 2), (2, 7)), ((2, 7), (2, 7)),
    ((2, 2), (61, 45)), ((33, 2), (5, 90)), ((130, 3), (9, 9))])
def test_broad_phase_equals_the_k_d_tree_on_thin_and_unequal_grids(shape_a, shape_b):
    # pyramids of one level against several, and grids one quad wide
    rng = np.random.default_rng(sum(shape_a + shape_b))
    grid_a = rng.normal(size=shape_a + (4,))
    grid_b = 0.5 * rng.normal(size=shape_b + (4,))
    want = k_d_tree_pairs(grid_a, grid_b)
    assert want
    assert pyramid_pairs(grid_a, grid_b) == want


def test_quad_balls_of_chosen_quads_equal_the_blocked_balls():
    grid = np.asarray(fx.tilted_graph(1, samples=50))
    centre, radius = flat_balls(grid)
    quads = np.random.default_rng(4).integers(0, len(radius), 300)
    got_centre, got_radius = lk._quad_balls(grid, quads)
    assert got_centre.tobytes() == centre[quads].tobytes()
    assert got_radius.tobytes() == radius[quads].tobytes()


def test_ball_pyramid_levels_hold_every_quad_ball():
    grid = np.cumsum(np.random.default_rng(8).normal(size=(23, 18, 4)), axis=0)
    levels, rmax = lk._ball_pyramid(grid)
    centre, radius = flat_balls(grid)
    assert rmax == radius.max()
    assert [tuple(shape) for shape, _, _ in levels] == [
        (11, 9), (6, 5), (3, 3), (2, 2), (1, 1)]
    i, j = np.divmod(np.arange(len(radius)), 17)
    for k, (shape, c, r) in enumerate(levels, start=1):
        node = (i >> k) * shape[1] + (j >> k)
        assert np.all(np.linalg.norm(centre - c[node], axis=1) + radius <= r[node])


def test_surfaces_intersect_returns_first_hit_in_index_order():
    mesh_a = grid_mesh(np.zeros(4), E[0], E[1], 2.0, 9)
    # a ribbon: a polyline in (x1, y1, x2) times [-0.3, 0.3] in y2. It meets
    # mesh_a where it crosses x2 = 0: first (in its own order) at the late
    # point, then, after a detour through x2 = 5, at the early point, which
    # lies in an earlier triangle of mesh_a
    late, early = [0.37, 0.52], [-0.61, -1.23]
    path = np.array([late + [-0.3], late + [0.0], late + [0.3], late + [5.0],
                     early + [5.0], early + [0.3], early + [0.0], early + [-0.3]])
    y2 = np.linspace(-0.3, 0.3, 3)
    ribbon = np.concatenate([np.repeat(path[:, None], 3, axis=1),
                             np.broadcast_to(y2[None, :, None], (8, 3, 1))], axis=2)
    hit = lk.surfaces_intersect(mesh_a, ribbon)
    assert np.allclose(hit, [-0.61, -1.23, 0, 0], atol=1e-12)
    assert np.array_equal(hit, first_hit_oracle(mesh_a, ribbon))
    assert np.allclose(lk.surfaces_intersect(mesh_a, ribbon[:4]),
                       [0.37, 0.52, 0, 0], atol=1e-12)


# ---------------------------------------------------------------------------
# orientation properties of linking on generated Hopf fiber pairs


@st.composite
def hopf_pairs(draw):
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    q1, q2 = (np.array(draw(st.lists(unit, min_size=4, max_size=4)))
              for _ in range(2))
    assume(min(np.linalg.norm(q1), np.linalg.norm(q2)) > 0.1)
    q1, q2 = q1 / np.linalg.norm(q1), q2 / np.linalg.norm(q2)
    n1, n2 = draw(st.integers(96, 160)), draw(st.integers(96, 160))
    # fiber distance on the unit sphere: 2 - 2 |<q1, q2>_C|
    h = abs(complex(q1[0], q1[1]).conjugate() * complex(q2[0], q2[1])
            + complex(q1[2], q1[3]).conjugate() * complex(q2[2], q2[3]))
    edge = 2.0 * np.sin(np.pi / min(n1, n2))
    assume(np.sqrt(max(2.0 - 2.0 * h, 0.0)) > 12.0 * edge)
    return (fx.make_hopf_fibers(q1, q2, n=n1)[0],
            fx.make_hopf_fibers(q1, q2, n=n2)[1])


@settings(max_examples=15, deadline=None)
@given(hopf_pairs())
def test_linking_reverses_with_either_loop(pair):
    f1, f2 = pair
    rep = lk.linking_number(f1, f2, R=1.0)
    assert abs(rep.value) == 1
    assert lk.linking_number(f1[::-1].copy(), f2, R=1.0).value == -rep.value
    assert lk.linking_number(f1, f2[::-1].copy(), R=1.0).value == -rep.value


@settings(max_examples=15, deadline=None)
@given(hopf_pairs())
def test_linking_symmetric_in_arguments(pair):
    f1, f2 = pair
    assert (lk.linking_number(f2, f1, R=1.0).value
            == lk.linking_number(f1, f2, R=1.0).value)


@settings(max_examples=15, deadline=None)
@given(hopf_pairs())
def test_linking_agrees_across_poles(pair):
    f1, f2 = pair
    rep = lk.linking_number(f1, f2, R=1.0, n_poles=3)
    assert len(rep.per_pole) == 3
    assert {int(np.round(v)) for v in rep.per_pole} == {rep.value}
    assert rep.value == lk.linking_number(f1, f2, R=1.0).value
