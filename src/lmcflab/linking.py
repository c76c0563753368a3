"""Topological machinery near a plane pair in C^2 = R^4: sphere slicing,
Gauss linking numbers of curves in the 3-sphere, and the half-space
separation audit.

Linking is computed by stereographic projection from a pole far from both
curves followed by the exact polygonal Gauss integral (solid angles of
spherical quadrilaterals; Banchoff 1976, Klenin & Langowski 2000); the
result must round to an integer within 0.1.

Every surface is an (n1, n2, 4) point grid, or what np.asarray makes one
of (geometry.PointGrid). Its quad (i, j) has the corners (i, j),
(i + 1, j), (i + 1, j + 1) and (i, j + 1), numbered 0 to 3, and splits into
the triangles (0, 1, 2) and (0, 2, 3); the quads count in row-major order,
and the corners of a quad are index arithmetic on its number, never a
stored index array.

The hot kernels are vectorized without changing a bit of their output:

- the Gauss sum runs over fixed blocks of GAUSS_BLOCK rows on flat
  contiguous rows allocated once per loop pair: a block and its wrapped row
  against the M + 1 columns lie on rows of length (GAUSS_BLOCK + 1)(M + 1),
  so the four corners of every edge pair are shifted 1-D slices and the
  kernel's passes run on contiguous slices, writing with out=. Each kept
  entry is half the dense formula's summand, computed with the same
  operations. The half-angles never fill an (N, M) array: they stream
  through a buffer of about SUM_LEAF entries, and are added over the fixed
  tree of numpy's pairwise summation (_pairwise_sum), whose leaves of at
  most SUM_LEAF entries np.add.reduce adds, so the sum equals np.sum of the
  (N, M) array bit for bit. It is divided by 2 pi, and as doubling commutes
  with every rounding the value keeps its bits. linking_number refuses sums
  above GAUSS_MAX_PAIRS edge pairs with GaussSumTooLarge before any starts;
- linking_number spreads its poles over forked processes with
  fanout.fan_out. A pole's whole sum stays in one process and only its
  value crosses back, so the values do not depend on the number of CPUs;
- sphere slicing picks the crossing triangles from the per-vertex sides
  by grid slices and gathers corners only for them; one stacked 2x2 solve
  orients the segments, emitted in triangle order, so chaining builds the
  same loops;
- the surface intersection scan takes its candidate triangle pairs from one
  k-d tree query over quad bounding balls, built from grid slices in blocks
  of whole grid rows, and gathers and solves those triangles as one stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import (ConfigInvalid, CurvesTooClose, EmptySlice,
                     GaussSumTooLarge, NoTransverseRadius, OpenSliceLoop,
                     RoundingAmbiguity)
from .fanout import fan_out

# Gauss-sum rows per block: its flat rows of (GAUSS_BLOCK + 1)(M + 1) entries
# stay in L2 cache (about 2.5 MiB for the scenario slices)
GAUSS_BLOCK = 16
# Gauss-sum summands per leaf of the pairwise tree, which np.add.reduce adds
SUM_LEAF = 2 ** 15
# vertices per block of the slice radii; quads per block (whole grid rows,
# at least one) of the quad bounding balls
MESH_BLOCK = 4096
# Largest Gauss sum accepted: 2**26 edge pairs, 37 times the 1358**2 (about
# 1.8M) pairs of the scenario slices; the time of a sum grows with its pairs.
GAUSS_MAX_PAIRS = 2 ** 26


# ---------------------------------------------------------------------------
# sphere slicing


@dataclass
class SphereSliceCurve:
    """Closed polygonal curve(s) on the sphere of radius R in R^4."""

    loops: list           # list of (M, 4) arrays, ordered, closed
    radius: float

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("loop,x1,y1,x2,y2\n")
            for li, loop in enumerate(self.loops):
                for p in loop.tolist():   # Python floats: repr without np.float64(...)
                    fh.write(f"{li},{','.join(map(repr, p))}\n")


def sphere_slice(grid, R: float, tangency_tol: float = 1e-9) -> SphereSliceCurve:
    """Transverse intersection of a surface, an (n1, n2, 4) point grid,
    with the sphere |x| = R.

    Marching triangles on the grid's triangles; if any grid point is
    tangent to the sphere within tolerance the radius is nudged by +0.003
    (up to 10 times). Segment orientations follow the surface orientation,
    with the outward radial direction first. Raises NoTransverseRadius when
    every radius is tangent, EmptySlice when no triangle crosses the sphere
    and OpenSliceLoop when the segments do not chain into closed loops.
    """
    X = np.asarray(grid, dtype=float)
    verts = X.reshape(-1, 4)
    radii = np.empty(len(verts))
    for k in range(0, len(verts), MESH_BLOCK):
        radii[k:k + MESH_BLOCK] = np.linalg.norm(verts[k:k + MESH_BLOCK], axis=1)
    R_try = float(R)
    for _ in range(11):   # R, then up to 10 nudged radii
        f = radii - R_try
        if np.min(np.abs(f), initial=np.inf) > tangency_tol * max(R_try, 1.0):
            break
        R_try += 0.003
    else:
        raise NoTransverseRadius(f"no transverse radius near {R} after retries")
    del radii   # only f is held through the march
    tri = _crossing_triangles(f.reshape(X.shape[:2]) > 0)
    if len(tri) == 0:
        raise EmptySlice(f"no triangle of the {X.shape[0]} x {X.shape[1]} "
                         f"point grid crosses the sphere of radius {R_try}")
    starts, _, start_edges, end_edges = _march_triangles(verts, tri, f)
    loops = _chain_segments(starts, start_edges, end_edges)
    loops = [R_try * (lp / np.linalg.norm(lp, axis=1)[:, None]) for lp in loops]
    return SphereSliceCurve(loops, R_try)


def _crossing_triangles(above):
    """Vertex indices (K, 3) of the grid triangles whose corners lie on both
    sides, from the per-vertex sides above of shape (n1, n2): every crossing
    (0, 1, 2) triangle in row-major quad order, then every (0, 2, 3) one.
    Vertex (i, j) is number i n2 + j, and the corners 0 to 3 of quad (i, j)
    are it plus 0, n2, n2 + 1 and 1."""
    n2 = above.shape[1]
    c0, c1, c2, c3 = above[:-1, :-1], above[1:, :-1], above[1:, 1:], above[:-1, 1:]
    parts = []
    for p, q, r, offsets in ((c0, c1, c2, [0, n2, n2 + 1]),
                             (c0, c2, c3, [0, n2 + 1, 1])):
        i, j = np.nonzero((p != q) | (q != r))
        parts.append((i * n2 + j)[:, None] + np.array(offsets))
    return np.concatenate(parts)


def _march_triangles(verts, tri, f):
    """Oriented segments of the level set f = 0, one per triangle of tri,
    which must all cross it (see _crossing_triangles), in order:
    (starts, ends, start_edges, end_edges).

    The edge arrays name the grid edge each point lies on by its sorted
    vertex pair (lo * len(verts) + hi), the same in both triangles that
    share the edge."""
    p = verts[tri]
    fv = f[tri]
    sign = fv > 0
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
    """Chain oriented segments into closed loops by shared grid edges.

    Segment i runs from the point starts[i] on grid edge start_edges[i] to
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

    The half-angles atan2(...) are made GAUSS_BLOCK rows at a time on flat
    rows (see _gauss_rows) into a buffer of the summands not yet added, in
    row-major order, and added over numpy's pairwise tree
    (_pairwise_sum); the sum is divided by 2 pi in place of the doubled
    angles' 4 pi. The sum equals np.sum of the (N, M) half-angle array and
    doubling commutes with every rounding, so the value is bit-identical to
    the dense (N, M, 3) roll/cross/einsum formula. The caller bounds N * M
    by GAUSS_MAX_PAIRS (see linking_number).
    """
    a = np.asarray(loop_a, dtype=float)
    b = np.asarray(loop_b, dtype=float)
    n, m = a.shape[0], b.shape[0]
    bw = np.concatenate([b, b[:1]]).T.copy()          # (3, M + 1)
    rows = min(GAUSS_BLOCK, n)
    work = np.empty((14, (rows + 1) * (m + 1)))
    buf = np.empty(min(n * m, SUM_LEAF) + rows * m)
    end = 0   # summands made so far; buf starts at the first not yet added

    def leaf(lo, hi):
        # the leaves come in order, so buf starts at summand lo
        nonlocal end
        while end < hi:
            i0, k = end // m, end - lo
            r = min(GAUSS_BLOCK, n - i0)
            _gauss_rows(a, bw, buf[k:k + r * m].reshape(r, m), i0, work)
            end += r * m
        value = np.add.reduce(buf[:hi - lo])
        buf[:end - hi] = buf[hi - lo:end - lo]
        return value

    return float(_pairwise_sum(0, n * m, leaf)) / (2.0 * np.pi)


def _pairwise_sum(lo, hi, leaf):
    """The sum of the entries lo to hi - 1 of a flat float64 array, added
    as np.add.reduce adds a contiguous one: over numpy's pairwise tree,
    which splits a range of n > SUM_LEAF entries after its first n // 2
    rounded down to a multiple of 8. leaf(lo, hi) adds a range of at most
    SUM_LEAF entries with np.add.reduce, which walks the rest of the tree;
    the leaves are asked for in order."""
    n = hi - lo
    if n <= SUM_LEAF:
        return leaf(lo, hi)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(lo, lo + half, leaf) + _pairwise_sum(lo + half, hi, leaf)


def _gauss_rows(a, bw, out, i0, work):
    """Write the Gauss half-angles of the rows i0 to i0 + GAUSS_BLOCK - 1
    (fewer at the end) into out, of shape (rows, M), using the flat rows of
    work as unit vectors, cross products and scratch. A block after the
    first must follow the block before on the same work: its row 0 is that
    block's wrapped row, moved, not recomputed.

    The block's r rows and the wrapped row after them, against the M + 1
    columns of bw (its wrapped column appended), lie on flat rows of length
    (r + 1) W with W = M + 1: entry (i, j) is k = i W + j, so the corners
    n1, n2, n4, n3 of pair (i, j) are the unit vectors at k, k + 1, k + W and
    k + W + 1, and every pass between the differences and the final strided
    add into out runs on a contiguous 1-D slice. Each dot product is
    formed once and shared: row[k] = u_k.u_{k+1} gives n1.n2 and (at k + W)
    n4.n3, col[k] = u_k.u_{k+W} gives n1.n4 and (at k + 1) n2.n3, and n1.n3
    serves both triangles. The entries at the padding column j = M pair
    unrelated vectors; they are computed and discarded. Every kept entry is
    computed with the same operations in the same order as the dense
    formula.
    """
    n, w = a.shape[0], bw.shape[1]
    m = w - 1
    i1 = min(i0 + GAUSS_BLOCK, n)
    r = i1 - i0
    size = (r + 1) * w
    span = r * w - 1     # entries k < span have all four corners on the rows
    u, cross, s = work[:3, :size], work[3:6, :span], work[6:]
    carry = min(i0, 1)   # row 0 is the block before's wrapped row: move it
    k0, prev = carry * w, GAUSS_BLOCK * w
    if carry:
        u[:, :w] = work[:3, prev:prev + w]
        s[2, :w - 1] = s[2, prev:prev + w - 1]
    aw = a[np.append(np.arange(i0 + carry, i1), i1 % n)].T[:, :, None]
    np.subtract(bw[:, None, :], aw, out=u[:, k0:].reshape(3, r + 1 - carry, w))
    x, y, z = fresh = u[:, k0:]
    wide, tmp = s[0, k0:size], s[1, k0:size]
    np.multiply(x, x, out=wide)
    wide += np.multiply(y, y, out=tmp)
    wide += np.multiply(z, z, out=tmp)
    np.divide(fresh, np.sqrt(wide, out=wide), out=fresh)
    lo = max(k0 - 1, 0)
    _dot(u[:, lo:-1], u[:, lo + 1:], s[2, lo:size - 1], tmp[:size - 1 - lo])
    row = s[2, :size - 1]
    col = _dot(u[:, :-w], u[:, w:], s[3, :size - w], tmp[:size - w])
    n1, n2 = u[:, :span], u[:, 1:span + 1]
    n3, n4 = u[:, w + 1:w + 1 + span], u[:, w:w + span]
    tmp = tmp[:span]
    diag = _dot(n1, n3, s[4, :span], tmp)
    den1 = np.add(row[:span], 1.0, out=s[5, :span])
    den1 += col[1:span + 1]
    den1 += diag
    den2 = np.add(diag, 1.0, out=s[6, :span])
    den2 += row[w:w + span]
    den2 += col[:span]
    tri1 = _dot(n1, _cross(n2, n3, cross, tmp), s[7, :span], tmp)
    tri2 = _dot(n1, _cross(n3, n4, cross, tmp), s[0, :span], tmp)
    np.arctan2(tri1, den1, out=tri1)
    np.arctan2(tri2, den2, out=tri2)
    half1 = s[7, :r * w].reshape(r, w)[:, :m]
    half2 = s[0, :r * w].reshape(r, w)[:, :m]
    np.add(half1, half2, out=out)


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
    dmin = _min_distance(pts1, pts2, 10.0 * edge)
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
            f"edge pairs per loop pair")
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


def _min_distance(pts1, pts2, bound):
    """The least distance of the point sets if it is at most bound, else a
    value above bound (inf, or the distance when within rounding of bound).
    The tree keeps neighbours strictly nearer than its bound: next float."""
    ub = np.nextafter(bound, np.inf)
    return float(cKDTree(pts2).query(pts1, distance_upper_bound=ub)[0].min())


# ---------------------------------------------------------------------------
# half-space separation


@dataclass
class SeparationReport:
    holds: bool
    margins: dict


def halfspace_separation(comp1, comp2, frame, phi: np.ndarray, lam: float,
                         b0: float) -> SeparationReport:
    """Check the switched half-space inclusions of the two components.

    The components are point grids. H_+/- are the sides of
    w = phi(x) + lam * b0 * z. Component 1 must lie in H_+ over {z > 0.5}
    and in H_- over {z < -0.5}; component 2 the other way round. Margins
    are the worst signed clearances of the grid points.
    """
    z_cut = 0.5
    phi = np.asarray(phi, dtype=float)
    margins = {}
    checks = []
    for name, comp, sign_hi in (("comp1", comp1, +1.0), ("comp2", comp2, -1.0)):
        verts = np.asarray(comp, dtype=float).reshape(-1, 4)
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
    """First intersection point of two surfaces in R^4, point grids as
    sphere_slice takes them, or None.

    Two 2-surfaces in R^4 meet generically in points: each triangle pair
    yields a 4x4 linear system for the barycentric parameters. Candidate
    pairs come from one broad-phase query over the quads' bounding balls;
    singular systems (parallel or coplanar triangles) are skipped. The hit
    returned is the first in (triangle of a, triangle of b) index order,
    where triangle k of a grid with Q quads is corners (0, 1, 2) of quad k
    and triangle Q + k is corners (0, 2, 3) of quad k.
    """
    Xa = np.asarray(mesh_a, dtype=float)
    Xb = np.asarray(mesh_b, dtype=float)
    ca, ra = _bounding_balls(Xa)
    cb, rb = _bounding_balls(Xb)
    # sliding-midpoint trees: several times faster to build and to query on
    # grids than the default median-split, data-shrunk nodes
    tree_a, tree_b = (cKDTree(c, balanced_tree=False, compact_nodes=False)
                      for c in (ca, cb))
    near = tree_a.sparse_distance_matrix(tree_b, float(ra.max() + rb.max()),
                                         output_type="ndarray")
    near = near[near["v"] <= ra[near["i"]] + rb[near["j"]]]
    ia = (near["i"][:, None] + np.array([0, 0, 1, 1]) * len(ra)).ravel()
    ib = (near["j"][:, None] + np.array([0, 1, 0, 1]) * len(rb)).ravel()
    order = np.lexsort((ib, ia))
    pa = Xa.reshape(-1, 4)[_triangles(Xa.shape, ia[order])]
    pb = Xb.reshape(-1, 4)[_triangles(Xb.shape, ib[order])]
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


def _triangles(shape, idx):
    """Vertex indices of the triangles idx of a grid of the given shape
    (n1, n2, ...) with Q quads, where triangle k < Q is corners (0, 1, 2) of
    quad k and triangle Q + k is corners (0, 2, 3) of quad k (see
    _crossing_triangles for the corners)."""
    n1, n2 = shape[:2]
    second, k = np.divmod(idx, (n1 - 1) * (n2 - 1))
    corners = np.where(second[:, None] == 1, [0, n2 + 1, 1], [0, n2, n2 + 1])
    return (k + k // (n2 - 1))[:, None] + corners


def _bounding_balls(X):
    """Centroids and radii of the corner sets of the grid X's quads, in
    row-major quad order.

    Runs over blocks of whole grid rows, about MESH_BLOCK quads each, takes
    each corner as a grid slice instead of a (Q, 4, d) gather, and adds in
    the order pts.mean(axis=1) and np.sum(d ** 2, axis=2) add over a
    gathered (Q, 4, 4) array, so both outputs are bit-identical to theirs.
    """
    n1, n2, d = X.shape
    width = n2 - 1
    centre, radius = np.empty(((n1 - 1) * width, d)), np.empty((n1 - 1) * width)
    step = max(MESH_BLOCK // max(width, 1), 1)   # quad rows per block
    for i0 in range(0, n1 - 1, step):
        rows = X[i0:i0 + step + 1]
        corners = [rows[:-1, :-1], rows[1:, :-1], rows[1:, 1:], rows[:-1, 1:]]
        c = (((corners[0] + corners[1]) + corners[2]) + corners[3]) / 4.0
        r2 = []
        for p in corners:
            diff = p - c
            diff *= diff
            r2.append(((diff[..., 0] + diff[..., 1]) + diff[..., 2]) + diff[..., 3])
        out = slice(i0 * width, (i0 + len(rows) - 1) * width)
        centre[out] = c.reshape(-1, d)
        radius[out] = np.sqrt(np.maximum(np.maximum(r2[0], r2[1]),
                                          np.maximum(r2[2], r2[3]))).ravel()
    return centre, radius
