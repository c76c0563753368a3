"""Topological machinery near a plane pair in C^2 = R^4: component
extraction, sphere slicing, Gauss linking numbers of curves in the
3-sphere, and the half-space separation audit.

Linking is computed by stereographic projection from a pole far from both
curves followed by the exact polygonal Gauss integral (solid angles of
spherical quadrilaterals; Banchoff 1976, Klenin & Langowski 2000); the
result must round to an integer within 0.1.

The hot kernels are vectorized without changing a bit of their output:

- the Gauss sum runs over fixed blocks of GAUSS_BLOCK rows through one
  workspace allocated per loop pair, every operation writing into it with
  out=, so its temporaries are O(GAUSS_BLOCK * M) instead of several dense
  (N, M, 3) arrays, while every summand is the one the dense formula
  computes and the summands are added by one np.sum in the same order;
  linking_number refuses sums above GAUSS_MAX_PAIRS edge pairs with
  GaussSumTooLarge before any starts;
- linking_number spreads its poles over forked processes with
  fanout.fan_out. A pole's whole sum stays in one process and only its
  value crosses back, so the values do not depend on the number of CPUs;
- sphere slicing interpolates all crossing triangles at once and orients
  the segments with one stacked 2x2 solve, emitting them in triangle order,
  so chaining builds the same loops from the same start points;
- the surface intersection scan takes its candidate triangle pairs from one
  k-d tree query over quad bounding balls, built corner by corner without
  a (Q, 4, 4) gather, and solves them as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _cc
from scipy.spatial import cKDTree

from .errors import (ComponentAmbiguity, ConfigInvalid, CurvesTooClose,
                     GaussSumTooLarge, NoTransverseRadius, OpenSliceLoop,
                     RoundingAmbiguity)
from .fanout import fan_out
from .geometry import PlanePairConfig, ProductLagrangian, as_components

SMALL_COMPONENT_FRACTION = 0.01  # discard below this share of the B_2 mass
GAUSS_BLOCK = 16  # Gauss-sum rows per block; its temporaries stay in L2 cache
# Largest Gauss sum accepted: 2**26 edge pairs, a 512 MiB (N, M) summand
# array; the scenario slices need at most 1358**2 (about 1.8M) pairs.
GAUSS_MAX_PAIRS = 2 ** 26


def mesh_of(obj):
    """(vertices (N,4), quads (Q,4 int)) from a product or a mesh tuple."""
    if isinstance(obj, ProductLagrangian):
        return obj.quad_mesh()
    verts, quads = obj
    return np.asarray(verts, dtype=float), np.asarray(quads, dtype=int)


def _quad_areas(verts, quads):
    """Areas of quads in R^4 (two triangles per quad)."""
    p0, p1, p2, p3 = (verts[quads[:, k]] for k in range(4))
    return _tri_area(p0, p1, p2) + _tri_area(p0, p2, p3)


def _tri_area(a, b, c):
    u = b - a
    v = c - a
    uu = np.einsum("ij,ij->i", u, u)
    vv = np.einsum("ij,ij->i", v, v)
    uv = np.einsum("ij,ij->i", u, v)
    return 0.5 * np.sqrt(np.maximum(uu * vv - uv * uv, 0.0))


def _quad_angles(verts, quads):
    """Lagrangian angle of each quad's tangent plane: arg det_C(u, v)."""
    p0, p1, p2, p3 = (verts[quads[:, k]] for k in range(4))
    u = p1 - p0
    v = p3 - p0
    u1 = u[:, 0] + 1j * u[:, 1]
    u2 = u[:, 2] + 1j * u[:, 3]
    v1 = v[:, 0] + 1j * v[:, 1]
    v2 = v[:, 2] + 1j * v[:, 3]
    det = u1 * v2 - u2 * v1
    return np.angle(det)


@dataclass
class ComponentSlice:
    """One labeled connected piece of the state inside the extraction ball."""

    label: int                 # 1 or 2: index of the assigned limit plane
    vertices: np.ndarray
    quads: np.ndarray
    mass_b2: float
    mean_angle: float
    vertex_ids: np.ndarray     # indices into the parent mesh


@dataclass
class ExtractionResult:
    components: list
    leftovers: list
    assignment_margin: float


def extract_components(state, pair: Optional[PlanePairConfig] = None) -> ExtractionResult:
    """Connected components of state inside B_3 intersecting B_2, the two
    largest labeled by their limit plane.

    Labeling cost combines the RMS distance to the plane with the angle
    mismatch of the tangent planes (oriented-plane identity, which stays
    meaningful for multiplicity-two blow-downs). Components below 1% of
    the inner-ball mass are returned as leftovers. ComponentAmbiguity is
    raised when fewer than two candidate components exist or the labeling
    margin falls below 2*delta = 0.2.
    """
    r_in, r_out, delta = 2.0, 3.0, 0.1
    meshes = [mesh_of(c) for c in as_components(state)]
    pieces = []
    for verts, quads in meshes:
        inside = np.linalg.norm(verts, axis=1) <= r_out
        if not inside.any():
            continue
        idx = np.flatnonzero(inside)
        remap = -np.ones(verts.shape[0], dtype=int)
        remap[idx] = np.arange(idx.size)
        edges = np.concatenate([quads[:, [0, 1]], quads[:, [1, 2]],
                                quads[:, [2, 3]], quads[:, [3, 0]]])
        keep = inside[edges[:, 0]] & inside[edges[:, 1]]
        e = remap[edges[keep]]
        adj = sp.coo_matrix((np.ones(e.shape[0]), (e[:, 0], e[:, 1])),
                            shape=(idx.size, idx.size))
        n_comp, labels = _cc(adj, directed=False)
        quad_ok = inside[quads].all(axis=1)
        q_lab = np.full(quads.shape[0], -1)
        q_lab[quad_ok] = labels[remap[quads[quad_ok, 0]]]
        areas = _quad_areas(verts, quads)
        centroids = 0.25 * (verts[quads[:, 0]] + verts[quads[:, 1]]
                            + verts[quads[:, 2]] + verts[quads[:, 3]])
        cent_in = np.linalg.norm(centroids, axis=1) <= r_in
        angles = _quad_angles(verts, quads)
        for comp in range(n_comp):
            vid = idx[labels == comp]
            qsel = q_lab == comp
            touches_inner = np.linalg.norm(verts[vid], axis=1).min() <= r_in
            mass = float(np.sum(areas[qsel & cent_in]))
            if not touches_inner:
                continue
            ang_w = areas[qsel & cent_in]
            ang = angles[qsel & cent_in]
            if ang.size:
                mean_ang = float(np.angle(np.sum(ang_w * np.exp(1j * ang))
                                          / max(np.sum(ang_w), 1e-300)))
            else:
                mean_ang = float("nan")
            local = -np.ones(verts.shape[0], dtype=int)
            local[vid] = np.arange(vid.size)
            pieces.append(ComponentSlice(0, verts[vid], _requad(quads[qsel], local),
                                         mass, mean_ang, vid))
    pieces.sort(key=lambda p: -p.mass_b2)
    total_mass = sum(p.mass_b2 for p in pieces)
    main = [p for p in pieces if p.mass_b2 >= SMALL_COMPONENT_FRACTION * total_mass]
    leftovers = [p for p in pieces if all(p is not q for q in main)]
    if len(main) < 2:
        raise ComponentAmbiguity(
            f"found {len(main)} candidate component(s) inside B_{r_out}")
    leftovers.extend(main[2:])
    main = main[:2]
    margin = float("inf")
    if pair is not None:
        cost = np.zeros((2, 2))
        for i, p in enumerate(main):
            pts = p.vertices[np.linalg.norm(p.vertices, axis=1) <= r_in]
            if pts.size == 0:
                pts = p.vertices
            for j, plane in enumerate(pair.planes):
                d = plane.distance(pts)
                geom = float(np.sqrt(np.mean(d * d)))
                dth = np.angle(np.exp(1j * (p.mean_angle - pair.angles[j])))
                cost[i, j] = geom + abs(dth)
        direct = cost[0, 0] + cost[1, 1]
        swapped = cost[0, 1] + cost[1, 0]
        margin = abs(direct - swapped)
        if margin < 2.0 * delta:
            raise ComponentAmbiguity(
                f"labeling margin {margin:.3g} below 2*delta = {2 * delta:.3g}")
        order = (0, 1) if direct <= swapped else (1, 0)
        main[order[0]].label = 1
        main[order[1]].label = 2
        main.sort(key=lambda p: p.label)
    else:
        main[0].label = 1
        main[1].label = 2
    return ExtractionResult(main, leftovers, margin)


def _requad(quads, remap):
    out = remap[quads]
    return out[(out >= 0).all(axis=1)]


# ---------------------------------------------------------------------------
# sphere slicing


@dataclass
class SphereSliceCurve:
    """Closed polygonal curve(s) on the sphere of radius R in R^4."""

    loops: list           # list of (M, 4) arrays, ordered, closed
    radius: float
    parent_label: int = 0

    def length(self) -> float:
        """Geodesic length: great-circle arcs between consecutive points."""
        total = 0.0
        for loop in self.loops:
            chords = np.linalg.norm(np.roll(loop, -1, axis=0) - loop, axis=1)
            total += float(np.sum(2.0 * self.radius *
                                  np.arcsin(np.clip(chords / (2.0 * self.radius),
                                                    0.0, 1.0))))
        return total

    def all_points(self) -> np.ndarray:
        return np.concatenate(self.loops, axis=0)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("loop,x1,y1,x2,y2\n")
            for li, loop in enumerate(self.loops):
                for p in loop:
                    fh.write(f"{li},{p[0]!r},{p[1]!r},{p[2]!r},{p[3]!r}\n")


def sphere_slice(component, R: float, tangency_tol: float = 1e-9) -> SphereSliceCurve:
    """Transverse intersection of a discrete surface with the sphere |x| = R.

    Marching triangles on the quad mesh; if any mesh vertex is tangent to
    the sphere within tolerance the radius is nudged by +0.003 (up to 10
    times). Segment orientations follow the surface orientation, with the
    outward radial direction first. Raises OpenSliceLoop when the segments
    do not chain into closed loops.
    """
    if isinstance(component, ComponentSlice):
        verts, quads = component.vertices, component.quads
        label = component.label
    else:
        verts, quads = mesh_of(component)
        label = 0
    tris = _triangles(quads)
    radii_v = np.linalg.norm(verts, axis=1)
    R_try = float(R)
    for _ in range(11):   # R, then up to 10 nudged radii
        f = radii_v - R_try
        if np.min(np.abs(f)) > tangency_tol * max(R_try, 1.0):
            starts, _, start_edges, end_edges = _march_triangles(verts, tris, f)
            loops = _chain_segments(starts, start_edges, end_edges)
            loops = [R_try * (lp / np.linalg.norm(lp, axis=1)[:, None])
                     for lp in loops]
            return SphereSliceCurve(loops, R_try, label)
        R_try += 0.003
    raise NoTransverseRadius(f"no transverse radius near {R} after retries")


def _march_triangles(verts, tris, f):
    """Oriented crossing segments of the level set f = 0, one per crossing
    triangle, in triangle order: (starts, ends, start_edges, end_edges).

    The edge arrays name the mesh edge each point lies on by its sorted
    vertex pair (lo * len(verts) + hi), the same in both triangles that
    share the edge."""
    sign = f[tris] > 0
    crossing = ~(sign.all(axis=1) | (~sign).all(axis=1))
    tri = tris[crossing]
    p = verts[tri]
    fv = f[tri]
    sign = sign[crossing]
    # a crossing triangle cuts exactly two of its edges (0,1), (1,2), (2,0);
    # the first cut edge in that order gives the first point
    cut01 = sign[:, 0] != sign[:, 1]
    cut12 = sign[:, 1] != sign[:, 2]
    rows = np.arange(tri.shape[0])

    def edge_point(a):
        b = (a + 1) % 3
        fa, fb = fv[rows, a], fv[rows, b]
        lam = fa / (fa - fb)
        pa, pb = p[rows, a], p[rows, b]
        va, vb = tri[rows, a].astype(np.int64), tri[rows, b].astype(np.int64)
        edge = np.minimum(va, vb) * len(verts) + np.maximum(va, vb)
        return pa + lam[:, None] * (pb - pa), edge

    q0, e0 = edge_point(np.where(cut01, 0, 1))
    q1, e1 = edge_point(np.where(cut01 & cut12, 1, 2))
    flip = _orientation_flips(p, q0, q1)
    return (np.where(flip[:, None], q1, q0), np.where(flip[:, None], q0, q1),
            np.where(flip, e1, e0), np.where(flip, e0, e1))


def _orientation_flips(tri_pts, q0, q1):
    """True where q0 -> q1 must be reversed so that (radial direction,
    segment) is positively oriented in the triangle's oriented tangent
    basis. tri_pts is (K, 3, d); one stacked 2x2 solve gives the in-plane
    coordinates of the centre (radial direction) and of q1 - q0."""
    e = tri_pts[:, 1:] - tri_pts[:, :1]               # (K, 2, d): e1, e2
    gram = e @ e.transpose(0, 2, 1)
    targets = np.stack([tri_pts.mean(axis=1), q1 - q0], axis=2)
    coords = np.linalg.solve(gram, e @ targets)       # columns g, d
    g, d = coords[:, :, 0], coords[:, :, 1]
    return g[:, 0] * d[:, 1] - g[:, 1] * d[:, 0] < 0


def _chain_segments(starts, start_edges, end_edges):
    """Chain oriented segments into closed loops by shared mesh edges.

    Segment i runs from the point starts[i] on mesh edge start_edges[i] to
    a point on end_edges[i]; two triangles sharing an edge compute its
    crossing from opposite ends, so the copies can differ in the last bits
    and are matched by edge, not by coordinates. Loops start at the lowest
    unused segment and follow the first unused segment that starts on the
    current end edge. Raises OpenSliceLoop when a chain does not close on
    its first edge or has fewer than 3 points.
    """
    start_edges = np.asarray(start_edges).tolist()
    end_edges = np.asarray(end_edges).tolist()
    by_start = {}
    for i, e in enumerate(start_edges):
        by_start.setdefault(e, []).append(i)
    used = np.zeros(len(starts), dtype=bool)
    loops = []
    for i0 in range(len(starts)):
        if used[i0]:
            continue
        chain = [i0]
        used[i0] = True
        while True:
            nxts = [j for j in by_start.get(end_edges[chain[-1]], []) if not used[j]]
            if not nxts:
                break
            used[nxts[0]] = True
            chain.append(nxts[0])
        if end_edges[chain[-1]] != start_edges[i0]:
            raise OpenSliceLoop(
                f"slice chain from segment {i0} ends after {len(chain)} "
                f"segment(s) without closing")
        if len(chain) < 3:
            raise OpenSliceLoop(
                f"slice loop from segment {i0} has only {len(chain)} point(s)")
        loops.append(starts[chain])
    return loops


# ---------------------------------------------------------------------------
# linking number


@dataclass
class LinkingReport:
    raw: float
    value: int
    margin: float
    pole: np.ndarray
    per_pole: list = field(default_factory=list)

    def to_dict(self):
        return {"raw": float(self.raw), "value": int(self.value),
                "margin": float(self.margin),
                "pole": [float(x) for x in self.pole],
                "per_pole": [float(x) for x in self.per_pole]}


def _as_loops(obj):
    if isinstance(obj, SphereSliceCurve):
        return obj.loops
    if isinstance(obj, np.ndarray):
        return [obj]
    return list(obj)


def _stereographic(points, pole, R):
    """Stereographic projection of sphere points from the pole into R^3."""
    pole = pole / np.linalg.norm(pole)
    basis = []
    for k in range(4):
        v = np.zeros(4)
        v[k] = 1.0
        v = v - (v @ pole) * pole
        for b in basis:
            v = v - (v @ b) * b
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            basis.append(v / nrm)
        if len(basis) == 3:
            break
    # fix the handedness so different poles give the same linking sign
    if np.linalg.det(np.vstack([basis[0], basis[1], basis[2], pole])) < 0:
        basis[2] = -basis[2]
    E = np.array(basis)
    denom = R - points @ pole
    return R * (points @ E.T) / denom[:, None]


def _gauss_linking_r3(loop_a, loop_b):
    """Exact polygonal Gauss linking number in R^3 via solid angles.

    Edge pair (i, j) contributes the signed solid angle of the spherical
    quadrilateral spanned by the unit vectors n1..n4 from a_i, a_{i+1} to
    b_j, b_{j+1}, split into the triangles (n1, n2, n3) and (n1, n3, n4)
    with Oosterom-Strackee's formula 2 atan2(triple, 1 + sum of dots).

    The summands fill one (N, M) array, GAUSS_BLOCK rows at a time through
    one workspace (see _gauss_rows), and go through one np.sum, so the value
    is bit-identical to the dense (N, M, 3) roll/cross/einsum formula. The
    caller bounds N * M by GAUSS_MAX_PAIRS (see linking_number).
    """
    a = np.asarray(loop_a, dtype=float)
    b = np.asarray(loop_b, dtype=float)
    n, m = a.shape[0], b.shape[0]
    bw = np.concatenate([b, b[:1]]).T.copy()          # (3, M + 1)
    total = np.empty((n, m))
    rows = min(GAUSS_BLOCK, n)
    work = _GaussWorkspace(rows, m)
    for i0 in range(0, n, GAUSS_BLOCK):
        _gauss_rows(a, bw, total, i0, work)
    return float(np.sum(total)) / (4.0 * np.pi)


class _GaussWorkspace:
    """The temporaries of _gauss_rows for blocks of up to rows rows against
    M columns, allocated once per Gauss sum. A block of r rows uses leading
    rows, so every array it gets is contiguous like a fresh one."""

    def __init__(self, rows, m):
        self.diff = np.empty((3, rows + 1, m + 1))
        self.unit = np.empty((3, rows + 1, m + 1))
        self.cross = np.empty((3, rows, m))
        self.flat = np.empty((8, (rows + 1) * (m + 1)))

    def get(self, k, shape):
        """Scratch array k, viewed with the given 2-D shape."""
        return self.flat[k, :shape[0] * shape[1]].reshape(shape)


def _gauss_rows(a, bw, total, i0, w):
    """Fill total[i0:i0 + GAUSS_BLOCK] with the Gauss summands of those rows.

    Works on x, y, z arrays of shape (rows + 1, M + 1), with the wrapped
    row and column appended, in the workspace w. Each dot product is formed
    once and shared: n1.n2 and n3.n4 are row neighbours, n2.n3 and n4.n1
    column neighbours, n1.n3 serves both triangles. Every summand is
    computed with the same operations in the same order as the dense
    formula.
    """
    n, m = a.shape[0], bw.shape[1] - 1
    i1 = min(i0 + GAUSS_BLOCK, n)
    r = i1 - i0
    aw = a[np.append(np.arange(i0, i1), i1 % n)].T[:, :, None]
    diff = np.subtract(bw[:, None, :], aw, out=w.diff[:, :r + 1])
    x, y, z = diff
    wide, tmp = w.get(0, (r + 1, m + 1)), w.get(1, (r + 1, m + 1))
    np.multiply(x, x, out=wide)
    wide += np.multiply(y, y, out=tmp)
    wide += np.multiply(z, z, out=tmp)
    U = np.divide(diff, np.sqrt(wide, out=wide), out=w.unit[:, :r + 1])
    n1, n2, n3, n4 = (U[:, :-1, :-1], U[:, :-1, 1:], U[:, 1:, 1:],
                      U[:, 1:, :-1])
    row = _dot(U[:, :, :-1], U[:, :, 1:], w.get(2, (r + 1, m)),
               w.get(1, (r + 1, m)))
    col = _dot(U[:, :-1], U[:, 1:], w.get(3, (r, m + 1)), w.get(1, (r, m + 1)))
    tmp = w.get(1, (r, m))
    diag = _dot(n1, n3, w.get(4, (r, m)), tmp)
    den1 = np.add(row[:-1], 1.0, out=w.get(5, (r, m)))
    den1 += col[:, 1:]
    den1 += diag
    den2 = np.add(diag, 1.0, out=w.get(6, (r, m)))
    den2 += row[1:]
    den2 += col[:, :-1]
    tri1 = _dot(n1, _cross(n2, n3, w.cross[:, :r], tmp), w.get(7, (r, m)), tmp)
    tri2 = _dot(n1, _cross(n3, n4, w.cross[:, :r], tmp), w.get(0, (r, m)), tmp)
    np.arctan2(tri1, den1, out=tri1)
    np.arctan2(tri2, den2, out=tri2)
    tri1 *= 2.0
    tri2 *= 2.0
    np.add(tri1, tri2, out=total[i0:i1])


def _dot(u, v, out, tmp):
    """Component-wise dot product of stacked 3-vectors (leading axis 3),
    written into out; tmp is scratch of the same shape.

    Summed as (x + z) + y: the order in which numpy.einsum's two-lane SIMD
    accumulation adds a length-3 contraction, which the dense formula used.
    """
    np.multiply(u[0], v[0], out=out)
    out += np.multiply(u[2], v[2], out=tmp)
    out += np.multiply(u[1], v[1], out=tmp)
    return out


def _cross(u, v, out, tmp):
    """Cross product of stacked 3-vectors into out (leading axis 3), term
    for term as numpy.cross; tmp is scratch of one component's shape."""
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(u[i], v[j], out=out[k])
        out[k] -= np.multiply(u[j], v[i], out=tmp)
    return out


def linking_number(c1, c2, R: Optional[float] = None, seed: int = 0,
                   n_poles: int = 1) -> LinkingReport:
    """Gauss linking number of two disjoint closed curves on a 3-sphere.

    A pole at maximal distance from both curves is drawn from a seeded
    candidate set; with n_poles > 1 the integer must agree across poles,
    whose sums fanout.fan_out spreads over forked processes.
    Raises ConfigInvalid unless n_poles is a positive integer,
    CurvesTooClose when the curves approach within 10 edge lengths,
    GaussSumTooLarge, before any sum starts, when a loop pair has more than
    GAUSS_MAX_PAIRS edge pairs, and RoundingAmbiguity when the raw value
    strays from an integer.
    """
    if (isinstance(n_poles, bool) or not isinstance(n_poles, (int, np.integer))
            or n_poles < 1):
        raise ConfigInvalid(f"n_poles must be a positive integer, not {n_poles!r}")
    loops1 = _as_loops(c1)
    loops2 = _as_loops(c2)
    if R is None:
        R = float(np.mean(np.linalg.norm(np.concatenate(loops1), axis=1)))
    pts1 = np.concatenate(loops1)
    pts2 = np.concatenate(loops2)
    edge = 0.0
    for lp in loops1 + loops2:
        edge = max(edge, float(np.max(np.linalg.norm(np.roll(lp, -1, axis=0) - lp,
                                                     axis=1))))
    dmin = _min_distance(pts1, pts2)
    if dmin <= 10.0 * edge:
        raise CurvesTooClose(
            f"min distance {dmin:.3g} not above 10 x edge length {edge:.3g}")
    rng = np.random.default_rng(seed)
    cands = rng.normal(size=(max(64, 8 * n_poles), 4))
    cands /= np.linalg.norm(cands, axis=1)[:, None]
    allpts = np.concatenate([pts1, pts2]) / R
    dists = np.arccos(np.clip(cands @ allpts.T, -1.0, 1.0)).min(axis=1)
    order = np.argsort(-dists)
    used = [k for k in order[:n_poles] if dists[k] >= 0.15]
    if not used:
        raise CurvesTooClose("no admissible projection pole found")
    n, m = max(map(len, loops1)), max(map(len, loops2))
    if n * m > GAUSS_MAX_PAIRS:
        raise GaussSumTooLarge(
            f"{n} x {m} Gauss pairs exceed the limit of {GAUSS_MAX_PAIRS} "
            f"({8 * n * m / 2**20:.0f} MiB of summands)")
    per_pole = fan_out(partial(_pole_sum, loops1, loops2, R), cands[used])
    raw = per_pole[0]
    val = int(np.round(raw))
    margin = abs(raw - val)
    if margin >= 0.1:
        raise RoundingAmbiguity(f"raw linking {raw:.4f} is {margin:.3f} from integer")
    for other in per_pole[1:]:
        if int(np.round(other)) != val or abs(other - np.round(other)) >= 0.1:
            raise RoundingAmbiguity(
                f"poles disagree: {per_pole}")
    return LinkingReport(raw, val, margin, cands[used[0]] * R, per_pole)


def _pole_sum(loops1, loops2, R, pole):
    """The raw linking sum over all loop pairs, projected from the unit pole."""
    proj1 = [_stereographic(lp, pole, R) for lp in loops1]
    proj2 = [_stereographic(lp, pole, R) for lp in loops2]
    return sum(_gauss_linking_r3(la, lb) for la in proj1 for lb in proj2)


def _min_distance(pts1, pts2):
    return float(cKDTree(pts2).query(pts1)[0].min())


# ---------------------------------------------------------------------------
# half-space separation


@dataclass
class SeparationReport:
    holds: bool
    margins: dict


def halfspace_separation(comp1, comp2, frame, phi: np.ndarray, lam: float,
                         b0: float) -> SeparationReport:
    """Check the switched half-space inclusions of the two components.

    H_+/- are the sides of w = phi(x) + lam * b0 * z. Component 1 must lie
    in H_+ over {z > 0.5} and in H_- over {z < -0.5}; component 2 the
    other way round. Margins are the worst signed clearances.
    """
    z_cut = 0.5
    phi = np.asarray(phi, dtype=float)
    margins = {}
    checks = []
    for name, comp, sign_hi in (("comp1", comp1, +1.0), ("comp2", comp2, -1.0)):
        verts = comp.vertices if isinstance(comp, ComponentSlice) else mesh_of(comp)[0]
        z = verts @ frame.e_z
        w = verts @ frame.e_w
        g = w - (verts @ phi + lam * b0 * z)
        hi = z > z_cut
        lo = z < -z_cut
        m_hi = float(np.min(sign_hi * g[hi])) if hi.any() else np.inf
        m_lo = float(np.min(-sign_hi * g[lo])) if lo.any() else np.inf
        margins[f"{name}_z>{z_cut}"] = m_hi
        margins[f"{name}_z<-{z_cut}"] = m_lo
        checks.extend([m_hi > 0, m_lo > 0])
    return SeparationReport(all(checks), margins)


# ---------------------------------------------------------------------------
# surface-surface intersection scan


def surfaces_intersect(mesh_a, mesh_b):
    """First intersection point of two quad meshes in R^4, or None.

    Two 2-surfaces in R^4 meet generically in points: each triangle pair
    yields a 4x4 linear system for the barycentric parameters. Candidate
    pairs come from one broad-phase query over the quads' bounding balls;
    singular systems (parallel or coplanar triangles) are skipped. The hit
    returned is the first in (triangle of a, triangle of b) index order,
    where triangle k of a mesh with Q quads is corners (0, 1, 2) of quad k
    and triangle Q + k is corners (0, 2, 3) of quad k.
    """
    va, qa = mesh_of(mesh_a)
    vb, qb = mesh_of(mesh_b)
    ca, ra = _bounding_balls(va, qa)
    cb, rb = _bounding_balls(vb, qb)
    # sliding-midpoint trees: several times faster to build and to query on
    # grid meshes than the default median-split, data-shrunk nodes
    tree_a, tree_b = (cKDTree(c, balanced_tree=False, compact_nodes=False)
                      for c in (ca, cb))
    near = tree_a.sparse_distance_matrix(tree_b, float(ra.max() + rb.max()),
                                         output_type="ndarray")
    near = near[near["v"] <= ra[near["i"]] + rb[near["j"]]]
    ia = (near["i"][:, None] + np.array([0, 0, 1, 1]) * len(qa)).ravel()
    ib = (near["j"][:, None] + np.array([0, 1, 0, 1]) * len(qb)).ravel()
    order = np.lexsort((ib, ia))
    pa = va[_triangles(qa)[ia[order]]]
    pb = vb[_triangles(qb)[ib[order]]]
    A = np.stack([pa[:, 1] - pa[:, 0], pa[:, 2] - pa[:, 0],
                  -(pb[:, 1] - pb[:, 0]), -(pb[:, 2] - pb[:, 0])], axis=2)
    rhs = pb[:, 0] - pa[:, 0]
    regular = np.linalg.slogdet(A)[0] != 0
    sol = np.full(rhs.shape, np.nan)
    sol[regular] = np.linalg.solve(A[regular], rhs[regular, :, None])[:, :, 0]
    u, v, s, t = sol.T
    tol = 1e-9   # barycentric slack
    hits = np.flatnonzero((u >= -tol) & (v >= -tol) & (u + v <= 1 + tol)
                          & (s >= -tol) & (t >= -tol) & (s + t <= 1 + tol))
    if hits.size == 0:
        return None
    k = hits[0]
    return pa[k, 0] + u[k] * (pa[k, 1] - pa[k, 0]) + v[k] * (pa[k, 2] - pa[k, 0])


def _triangles(quads):
    """Two triangles per quad: (0, 1, 2) of every quad, then (0, 2, 3)."""
    return np.concatenate([quads[:, [0, 1, 2]], quads[:, [0, 2, 3]]])


def _bounding_balls(verts, quads):
    """Centroids and radii of the quads' corner sets.

    Gathers each corner once instead of a (Q, 4, d) copy, and adds in the
    order pts.mean(axis=1) and np.sum(d ** 2, axis=2) add over a gathered
    (Q, 4, 4) array, so both outputs are bit-identical to theirs.
    """
    corners = [verts[quads[:, k]] for k in range(4)]
    centre = (((corners[0] + corners[1]) + corners[2]) + corners[3]) / 4.0
    r2 = []
    for p in corners:
        d = p - centre
        d *= d
        r2.append(((d[:, 0] + d[:, 1]) + d[:, 2]) + d[:, 3])
    return centre, np.sqrt(np.maximum(np.maximum(r2[0], r2[1]),
                                      np.maximum(r2[2], r2[3])))
