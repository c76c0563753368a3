"""Component extraction, sphere slices, Gauss linking, half-space audit."""

import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lmcflab import fanout
from lmcflab import fixtures as fx
from lmcflab import geometry as geo
from lmcflab import linking as lk
from lmcflab.errors import (ComponentAmbiguity, ConfigInvalid, CurvesTooClose,
                            GaussSumTooLarge, NoTransverseRadius, OpenSliceLoop,
                            RoundingAmbiguity)


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
    mesh = pair.planes[0].as_product(extent=2.0, samples=300).quad_mesh()
    sl = lk.sphere_slice(mesh, 1.0)
    assert sl.radius == 1.0
    assert len(sl.loops) == 1
    assert abs(sl.length() - 2.0 * np.pi) < 1e-6


def test_slice_respects_halfspace():
    # component inside {w > 0.2} slices to a curve inside {w > 0.2}
    meshes, frame, pair = fx.make_tilted_pair(lam=0.05, b=(1.0, 1.0),
                                              extent=2.0, samples=240)
    verts, quads = meshes[0]
    verts = verts + 0.5 * frame.e_w  # lift into w > 0.2
    sl = lk.sphere_slice((verts, quads), 1.0)
    w = sl.all_points() @ frame.e_w
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
    va, qa = meshes[0]
    vb = va + 0.4 * frame.e_w
    sa = lk.sphere_slice((va, qa), 1.0)
    sb = lk.sphere_slice((vb, qa), 1.0)
    rep = lk.linking_number(sa, sb)
    assert rep.value == 0
    assert lk.surfaces_intersect((va, qa), (vb, qa)) is None
    # separation on the whole sphere implies unlinked
    w_all = np.concatenate([sa.all_points() @ frame.e_w,
                            -(sb.all_points() @ frame.e_w - 0.4)])
    assert np.max(w_all) < 0.2


def test_curves_too_close_guard():
    meshes, frame, pair = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0),
                                              extent=2.0, samples=100)
    s1 = lk.sphere_slice(meshes[0], 1.0)
    s2 = lk.sphere_slice(meshes[1], 1.0)
    with pytest.raises(CurvesTooClose):
        lk.linking_number(s1, s2)


def test_extract_components_exact_pair():
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    state = [p.as_product(extent=4.0, samples=160) for p in pair.planes]
    res = lk.extract_components(state, pair=pair)
    assert len(res.components) == 2
    assert not res.leftovers
    assert [c.label for c in res.components] == [1, 2]
    # labels follow the angles
    assert abs(res.components[0].mean_angle - pair.angles[0]) < 1e-6
    assert abs(res.components[1].mean_angle - pair.angles[1]) < 1e-6


def test_extract_components_with_speck_leftover():
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    state = [p.as_product(extent=4.0, samples=160) for p in pair.planes]
    speck = fx.make_sphere_speck(radius=0.01, center=(0.5, 0.5, 0.5, 0.0))
    res = lk.extract_components(state + [speck], pair=pair)
    assert len(res.components) == 2
    assert len(res.leftovers) == 1
    assert res.leftovers[0].mass_b2 < 0.01


def test_extract_components_neck_is_ambiguous():
    prod, pair = fx.make_neck_pair(sigma=0.05)
    with pytest.raises(ComponentAmbiguity):
        lk.extract_components(prod, pair=pair)


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
    mesh = pair.planes[0].as_product(extent=2.0, samples=301).quad_mesh()
    sl = lk.sphere_slice(mesh, 1.0)  # 301 grid hits (0.6, 0.8) points
    assert sl.radius > 1.0
    assert abs(sl.length() - 2.0 * np.pi * sl.radius) < 1e-6


def test_no_transverse_radius():
    # concentric shells at every retry radius defeat the nudging
    parts = [fx.make_sphere_speck(radius=1.0 + 0.003 * k, center=(0, 0, 0, 0),
                                  n=16) for k in range(12)]
    verts = np.concatenate([p[0] for p in parts])
    quads = np.concatenate([p[1] + sum(q[0].shape[0] for q in parts[:k])
                            for k, p in enumerate(parts)])
    with pytest.raises(NoTransverseRadius):
        lk.sphere_slice((verts, quads), 1.0, tangency_tol=1e-3)


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


def first_hit_oracle(mesh_a, mesh_b, tol=1e-9):
    """Brute force over all triangle pairs in index order."""
    (va, qa), (vb, qb) = mesh_a, mesh_b
    for ta in lk._triangles(qa):
        for tb in lk._triangles(qb):
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
    """n x n grid quad mesh of origin + [-extent, extent]^2 in span(e1, e2)."""
    s = np.linspace(-extent, extent, n)
    u, v = (w.reshape(-1, 1) for w in np.meshgrid(s, s, indexing="ij"))
    verts = np.asarray(origin, float) + u * e1 + v * e2
    idx = np.arange(n * n).reshape(n, n)
    quads = np.stack([idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]],
                     axis=-1).reshape(-1, 4)
    return verts, quads


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


def test_vectorized_march_equals_loop():
    meshes, frame, pair = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0),
                                              extent=2.0, samples=120)
    verts, quads = meshes[0]
    tris = lk._triangles(quads)
    f = np.linalg.norm(verts, axis=1) - 1.0
    starts, ends, start_edges, end_edges = lk._march_triangles(verts, tris, f)
    segs = loop_march_oracle(verts, tris, f)
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


def test_bounding_balls_equal_gathered_formula():
    meshes, frame, pair = fx.make_tilted_pair(lam=0.1, b=(1.0, -1.0),
                                              extent=2.0, samples=200)
    for verts, quads in meshes:
        centre, radius = lk._bounding_balls(verts, quads)
        want_centre, want_radius = gathered_bounding_balls_oracle(verts[quads])
        assert centre.tobytes() == want_centre.tobytes()
        assert radius.tobytes() == want_radius.tobytes()


def test_surfaces_intersect_returns_first_hit_in_index_order():
    mesh_a = grid_mesh(np.zeros(4), E[0], E[1], 2.0, 9)
    late = grid_mesh([0.37, 0.52, 0, 0], E[2], E[3], 0.3, 3)
    early = grid_mesh([-0.61, -1.23, 0, 0], E[2], E[3], 0.3, 3)
    coplanar = grid_mesh(np.zeros(4), E[0], E[1], 2.0, 4)
    verts = np.concatenate([late[0], early[0], coplanar[0]])
    quads = np.concatenate([late[1], early[1] + 9, coplanar[1] + 18])
    hit = lk.surfaces_intersect(mesh_a, (verts, quads))
    assert np.allclose(hit, [-0.61, -1.23, 0, 0], atol=1e-12)
    assert np.array_equal(hit, first_hit_oracle(mesh_a, (verts, quads)))


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
