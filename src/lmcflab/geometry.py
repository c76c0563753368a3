"""Discrete Lagrangian geometry: polyline immersions in C, products in C^2,
analytic plane pairs, and the pointwise quantities built on them (tangent
angle, mean curvature, Liouville primitive, normal projection).

Conventions fixed here and used everywhere else:

* the complex structure J acts per complex factor as J(a, b) = (-b, a);
* the Liouville form is lambda = sum_i (x_i dy_i - y_i dx_i), so that
  lambda/2 is a primitive of the Kaehler form sum_i dx_i ^ dy_i;
* angles are unwrapped continuously along each component from the
  principal branch at the first vertex.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (BadFrame, DegenerateEdge, NonFiniteVertex, NotExact,
                     SolverFailure)

# Closed components keep holonomy below this fraction of total length to
# count as exact; separates quadrature noise from genuine holonomy.
HOLONOMY_RTOL = 1e-8

MIN_CLOSED_VERTICES = 8
MIN_OPEN_VERTICES = 3


def apply_J(v: np.ndarray) -> np.ndarray:
    """Standard complex structure on R^{2n}, coordinates (x1,y1,x2,y2,...)."""
    v = np.asarray(v, dtype=float)
    out = np.empty_like(v)
    out[..., 0::2] = -v[..., 1::2]
    out[..., 1::2] = v[..., 0::2]
    return out


# ---------------------------------------------------------------------------
# curves


class DiscreteCurve:
    """Oriented polyline immersion in R^2, open or closed.

    Closed curves store each vertex once; the wrap-around edge is implicit.
    The steps in :mod:`lmcflab.flow` keep the endpoints of an open curve
    fixed.
    """

    def __init__(self, vertices, closed=False, component_id=0):
        v = np.ascontiguousarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must have shape (N, 2)")
        n_min = MIN_CLOSED_VERTICES if closed else MIN_OPEN_VERTICES
        if v.shape[0] < n_min:
            raise ValueError(
                f"{'closed' if closed else 'open'} curve needs >= {n_min} vertices"
            )
        if closed:  # first/last must be identified exactly once: drop a last
            # vertex that repeats the first (rounded, as cos 2 pi != 1): its
            # gap is far below the edges next to it, at any scale of the curve
            gap, e_first, e_last = np.hypot(*(v[[-1, 1, -1]] - v[[0, 0, -2]]).T)
            if gap <= 1e-6 * min(e_first, e_last):
                v = v[:-1]
                if v.shape[0] < n_min:
                    raise ValueError("closed curve needs >= 8 distinct vertices")
        check_vertices(v.T, closed)
        self.vertices = v
        self.closed = bool(closed)
        self.component_id = int(component_id)
        self.vertices.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def with_vertices(self, vertices) -> "DiscreteCurve":
        return DiscreteCurve(vertices, closed=self.closed,
                             component_id=self.component_id)

    def edge_lengths(self) -> np.ndarray:
        """Edge lengths; closed curves include the wrap-around edge."""
        return edge_lengths(self.vertices.T, self.closed)

    def length(self) -> float:
        return float(self.edge_lengths().sum())

    def dual_lengths(self) -> np.ndarray:
        """Mass-lumped vertex weights (half the two adjacent edge lengths)."""
        return 0.5 * vertex_sums(self.edge_lengths(), self.closed)

    def tangents(self) -> np.ndarray:
        """Unit vertex tangents: central differences, one-sided at open ends."""
        return np.ascontiguousarray(unit_tangents(self.vertices.T, self.closed).T)

    def interior_mask(self, collar: int = 2) -> np.ndarray:
        """True away from open ends; diagnostics exclude a 2-vertex collar."""
        mask = np.ones(self.n_vertices, dtype=bool)
        if not self.closed and collar > 0:
            mask[:collar] = False
            mask[-collar:] = False
        return mask


def as_components(state) -> list:
    """Normalize a state (single curve/product or list of them) to a list."""
    if isinstance(state, (list, tuple)):
        return list(state)
    return [state]


# ---------------------------------------------------------------------------
# vertex-axis kernels
#
# Fields, edge lengths and edge increments carry the vertex (or edge) axis
# last; point sets come as coordinate planes p = (x, y) of shape (2, ..., N).
# A single curve passes ``vertices.T``; the time-blocked heat march and the
# centred residual audits (flow.centred_blocks) pass (2, b, N) stacks of b
# states, so both run the same arithmetic and agree bit for bit.


def edge_ends(a: np.ndarray, closed: bool):
    """(start, end) rows of every edge from per-vertex rows a (vertex axis
    first); closed curves include the wrap-around edge."""
    if closed:
        return a, np.roll(a, -1, axis=0)
    return a[:-1], a[1:]


def edge_increments(f: np.ndarray, closed: bool) -> np.ndarray:
    """f[i+1] - f[i] per edge; closed curves include the wrap-around edge."""
    if closed:
        return np.roll(f, -1, axis=-1) - f
    return f[..., 1:] - f[..., :-1]


def vertex_differences(f: np.ndarray, closed: bool) -> np.ndarray:
    """f[i+1] - f[i-1] per vertex, one-sided at open ends."""
    if closed:
        return np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)
    d = np.empty_like(f)
    d[..., 1:-1] = f[..., 2:] - f[..., :-2]
    d[..., 0] = f[..., 1] - f[..., 0]
    d[..., -1] = f[..., -1] - f[..., -2]
    return d


def vertex_sums(e: np.ndarray, closed: bool) -> np.ndarray:
    """e[i] + e[i-1] per vertex from per-edge values; the single adjacent
    edge's value at open ends."""
    if closed:
        return e + np.roll(e, 1, axis=-1)
    out = np.empty(e.shape[:-1] + (e.shape[-1] + 1,))
    out[..., 1:-1] = e[..., 1:] + e[..., :-1]
    out[..., 0] = e[..., 0]
    out[..., -1] = e[..., -1]
    return out


def second_difference(d: np.ndarray, h: np.ndarray, closed: bool) -> np.ndarray:
    """Arclength second difference 2 (d_i/h_i - d_{i-1}/h_{i-1}) / (h_i + h_{i-1})
    per vertex from edge increments d; zero at open ends."""
    if closed:
        h_prev = np.roll(h, 1, axis=-1)
        flux = d / h - np.roll(d, 1, axis=-1) / h_prev
        return 2.0 * flux / (h + h_prev)
    out = np.zeros(d.shape[:-1] + (d.shape[-1] + 1,))
    flux = d[..., 1:] / h[..., 1:] - d[..., :-1] / h[..., :-1]
    out[..., 1:-1] = 2.0 * flux / (h[..., 1:] + h[..., :-1])
    return out


def stencil_weights(h: np.ndarray, closed: bool):
    """Couplings (lo, hi) of the arclength second difference to vertices
    i-1 and i+1: 2 / ((h_{i-1} + h_i) h_{i-1}) and 2 / ((h_{i-1} + h_i) h_i),
    at every vertex of a closed curve and the interior ones of an open one.
    The implicit flow and heat steps assemble their matrices from these;
    closed curves build theirs with :func:`cyclic_tridiagonal`."""
    if closed:
        h_prev, h_next = np.roll(h, 1, axis=-1), h
    else:
        h_prev, h_next = h[..., :-1], h[..., 1:]
    span = h_next + h_prev
    return 2.0 / (span * h_prev), 2.0 / (span * h_next)


@lru_cache(maxsize=16)
def _cyclic_csc_pattern(n: int):
    """(indices, indptr, order) of the CSC form of the n x n cyclic
    tridiagonal matrix with COO entries concatenate([diag, sub, super]) at
    rows (i, i, i) and columns (i, i - 1, i + 1) mod n: ``order`` takes those
    entries to the CSC data, as scipy's COO-to-CSC conversion places them."""
    idx = np.arange(n)
    coo = sp.csc_matrix((np.arange(3.0 * n), (np.concatenate([idx, idx, idx]),
                                               np.concatenate([idx, (idx - 1) % n,
                                                               (idx + 1) % n]))),
                        shape=(n, n))
    order = coo.data.astype(np.intp)
    for a in (coo.indices, coo.indptr, order):
        a.setflags(write=False)
    return coo.indices, coo.indptr, order


def cyclic_tridiagonal(diag, left, right):
    """Sparse (CSC) matrix of the closed-curve implicit step, row i reading
    diag_i u_i - left_i u_{i-1} - right_i u_{i+1} (indices mod n).

    Its index arrays come from a pattern cached per n, and its data is
    ordered as scipy's COO-to-CSC conversion would order it, so sparse LU
    receives the arrays that conversion produces.
    """
    n = len(diag)
    indices, indptr, order = _cyclic_csc_pattern(n)
    return sp.csc_matrix((np.concatenate([diag, -left, -right])[order], indices,
                          indptr), shape=(n, n))


def require_finite(*arrays):
    """Raise SolverFailure unless every entry of the arrays is finite (the
    check a linear solve of the implicit steps needs on its inputs)."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise SolverFailure("non-finite coefficient or field in an implicit step")


def check_vertices(p: np.ndarray, closed: bool) -> None:
    """Refuse the polylines with coordinate planes p (2, ..., N):
    NonFiniteVertex for a NaN or inf coordinate, DegenerateEdge for two
    coinciding consecutive vertices (closed curves: the wrap-around edge
    too), the edges with hypot(dx, dy) <= 0. Finite coordinates have a zero
    increment exactly where they are equal, signed zeros included."""
    if not np.isfinite(p).all():
        raise NonFiniteVertex("vertex with a NaN or infinite coordinate")
    same = p[..., 1:] == p[..., :-1]
    wrap = closed and np.all(p[..., -1] == p[..., 0], axis=0).any()
    if wrap or np.any(same[0] & same[1]):
        raise DegenerateEdge("consecutive vertices coincide")


def edge_lengths(p: np.ndarray, closed: bool) -> np.ndarray:
    """Edge lengths of the polylines with coordinate planes p."""
    e = edge_increments(p, closed)
    return np.hypot(e[0], e[1])


def unit_tangents(p: np.ndarray, closed: bool) -> np.ndarray:
    """Unit vertex tangents (coordinate planes) of the polylines p."""
    d = vertex_differences(p, closed)
    norms = np.hypot(d[0], d[1])
    if np.any(norms <= 0.0):
        raise DegenerateEdge("degenerate tangent (coincident neighbours)")
    return d / norms


def turning_increments(u: np.ndarray, closed: bool) -> np.ndarray:
    """Turning angle per edge (principal branch) between the unit tangents u
    (coordinate planes) at its two ends; closed curves include the
    wrap-around edge, so the angles carry no branch seam."""
    a, b = (u, np.roll(u, -1, axis=-1)) if closed else (u[..., :-1], u[..., 1:])
    return np.arctan2(a[0] * b[1] - a[1] * b[0], a[0] * b[0] + a[1] * b[1])


# ---------------------------------------------------------------------------
# pointwise operations


def lagrangian_angle(curve: DiscreteCurve) -> np.ndarray:
    """Tangent angle per vertex, unwrapped continuously along the component.

    For the n=1 Lagrangian the angle is the argument of the unit tangent;
    the returned field is free of 2*pi jumps between adjacent vertices and
    starts on the principal branch at the first vertex.
    """
    t = curve.tangents()
    raw = np.arctan2(t[:, 1], t[:, 0])
    return np.unwrap(raw)


def laplacian(curve: DiscreteCurve, values: np.ndarray) -> np.ndarray:
    """Arclength-weighted second difference of a vertex field.

    Interior rows only for open curves (endpoint entries are zero; the
    boundary collar is excluded from diagnostics anyway). ``values`` is (N,)
    or (N, k).
    """
    f = np.asarray(values, dtype=float).T
    out = second_difference(edge_increments(f, curve.closed),
                            curve.edge_lengths(), curve.closed)
    return np.ascontiguousarray(out.T)


def arc_gradient(curve: DiscreteCurve, values: np.ndarray) -> np.ndarray:
    """Arclength derivative of a vertex field (central, one-sided at ends)."""
    values = np.asarray(values, dtype=float)
    return (vertex_differences(values, curve.closed)
            / vertex_sums(curve.edge_lengths(), curve.closed))


def mean_curvature(curve: DiscreteCurve) -> np.ndarray:
    """Mean curvature vector per vertex: arclength Laplacian of position.

    Satisfies H = J grad(theta) up to discretization error; exact on uniform
    circles by the chord-weighted second difference.
    """
    return laplacian(curve, curve.vertices)


def normal_projection(curve: DiscreteCurve) -> np.ndarray:
    """Normal part x^perp of the position vector per vertex."""
    t = curve.tangents()
    v = curve.vertices
    return v - np.einsum("ij,ij->i", v, t)[:, None] * t


def liouville_edge_integrals(curve: DiscreteCurve) -> np.ndarray:
    """Integral of lambda = x dy - y dx over each straight edge.

    The trapezoid rule is exact for this linear form on straight segments
    and reduces to the cross product of the endpoints.
    """
    v, q = edge_ends(curve.vertices, curve.closed)
    return v[:, 0] * q[:, 1] - v[:, 1] * q[:, 0]


def exactness_primitive(curve: DiscreteCurve) -> np.ndarray:
    """Primitive beta with d(beta) = lambda|_curve along the component.

    beta is 0 at the first vertex. Closed components
    with holonomy |oint lambda| > 1e-8 * length raise NotExact carrying the
    holonomy (twice the enclosed area for embedded loops).
    """
    inc = liouville_edge_integrals(curve)
    if curve.closed:
        holonomy = float(inc.sum())
        if abs(holonomy) > HOLONOMY_RTOL * curve.length():
            raise NotExact(holonomy, component_id=curve.component_id)
        return np.concatenate([[0.0], np.cumsum(inc[:-1])])
    return np.concatenate([[0.0], np.cumsum(inc)])


def product_angle(theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    """Lagrangian angle of a product on the (i, j) parameter grid."""
    return np.asarray(theta1)[:, None] + np.asarray(theta2)[None, :]


# ---------------------------------------------------------------------------
# lines, products


class AffineLine:
    """Straight line p0 + s*d in R^2 with sampling support."""

    def __init__(self, point, direction):
        d = np.asarray(direction, dtype=float)
        nrm = np.hypot(*d)
        if nrm <= 0:
            raise DegenerateEdge("line direction must be nonzero")
        self.point = np.asarray(point, dtype=float)
        self.direction = d / nrm

    @property
    def angle(self) -> float:
        return float(np.arctan2(self.direction[1], self.direction[0]))

    def sample(self, extent: float, n: int) -> DiscreteCurve:
        s = np.linspace(-extent, extent, n)
        return DiscreteCurve(self.point + s[:, None] * self.direction)


# default sampling of a static-line product factor: extent and vertex count
LINE_EXTENT = 12.0
LINE_SAMPLES = 97


class ProductLagrangian:
    """Product gamma1 x gamma2 in C x C = C^2.

    ``factor2`` may be a DiscreteCurve or an AffineLine. A line is sampled
    on [-line_extent, line_extent] with ``line_samples`` vertices, unless
    ``line_sample`` hands in a sampling made before (the states of one
    trajectory share one; rescaling scales it with the curve factor).
    The Lagrangian angle of the product is the sum of factor tangent angles.
    """

    def __init__(self, factor1: DiscreteCurve, factor2, component_id=0,
                 line_extent: float = LINE_EXTENT,
                 line_samples: int = LINE_SAMPLES, line_sample=None):
        self.factor1 = factor1
        self.component_id = int(component_id)
        if isinstance(factor2, AffineLine):
            self.factor2_line = factor2
            self.factor2 = (factor2.sample(line_extent, line_samples)
                            if line_sample is None else line_sample)
        else:
            self.factor2_line = None
            self.factor2 = factor2

    def angle_grid(self) -> np.ndarray:
        th1 = lagrangian_angle(self.factor1)
        if self.factor2_line is not None:
            th2 = np.full(self.factor2.n_vertices, self.factor2_line.angle)
        else:
            th2 = lagrangian_angle(self.factor2)
        return product_angle(th1, th2)

    def position_grid(self) -> np.ndarray:
        """(N1, N2, 4) array of product points (x1, y1, x2, y2)."""
        p = self.factor1.vertices
        q = self.factor2.vertices
        out = np.empty((p.shape[0], q.shape[0], 4))
        out[:, :, 0:2] = p[:, None, :]
        out[:, :, 2:4] = q[None, :, :]
        return out

    def weight_grid(self) -> np.ndarray:
        """Mass-lumped area weights on the parameter grid."""
        return np.outer(self.factor1.dual_lengths(), self.factor2.dual_lengths())

    def tangent_grids(self):
        """Orthonormal tangent pair (T1, T2) per grid point, embedded in R^4."""
        t1 = self.factor1.tangents()
        t2 = self.factor2.tangents()
        n1, n2 = t1.shape[0], t2.shape[0]
        T1 = np.zeros((n1, n2, 4))
        T2 = np.zeros((n1, n2, 4))
        T1[:, :, 0:2] = t1[:, None, :]
        T2[:, :, 2:4] = t2[None, :, :]
        return T1, T2

    def mean_curvature_grid(self) -> np.ndarray:
        """(N1, N2, 4) mean curvature (H1, H2) of the product."""
        H1 = mean_curvature(self.factor1)
        if self.factor2_line is not None:
            H2 = np.zeros_like(self.factor2.vertices)
        else:
            H2 = mean_curvature(self.factor2)
        out = np.empty((H1.shape[0], H2.shape[0], 4))
        out[:, :, 0:2] = H1[:, None, :]
        out[:, :, 2:4] = H2[None, :, :]
        return out

    def quad_mesh(self):
        """Vertices (N1*N2, 4) and quad index array for the mesh in R^4."""
        return grid_quad_mesh(self.position_grid())


def grid_quad_mesh(X: np.ndarray):
    """Vertices (n1*n2, 4) and the (i, j) -> (i+1, j) -> (i+1, j+1) ->
    (i, j+1) quads of a point grid X of shape (n1, n2, 4)."""
    n1, n2 = X.shape[0], X.shape[1]
    ii, jj = np.meshgrid(np.arange(n1 - 1), np.arange(n2 - 1), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    quads = np.stack([ii * n2 + jj, (ii + 1) * n2 + jj,
                      (ii + 1) * n2 + jj + 1, ii * n2 + jj + 1], axis=1)
    return X.reshape(-1, 4), quads


# ---------------------------------------------------------------------------
# frames and plane pairs


@dataclass(frozen=True)
class CoordinateFrame:
    """Adapted orthonormal frame (e_z, e_w = J e_z, transverse axes) of R^{2n}."""

    e_z: np.ndarray
    e_w: np.ndarray
    transverse: np.ndarray  # (2n-2, 2n), rows orthonormal

    def __post_init__(self):
        for name in ("e_z", "e_w", "transverse"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        rows = np.vstack([self.e_z, self.e_w, self.transverse])
        gram = rows @ rows.T
        if not np.allclose(gram, np.eye(rows.shape[0]), atol=1e-12):
            raise BadFrame("frame rows are not orthonormal within 1e-12")
        if np.max(np.abs(apply_J(self.e_z) - self.e_w)) != 0.0:
            raise BadFrame("e_w must equal J e_z exactly")

    @property
    def dim(self) -> int:
        return self.e_z.shape[0]

    def w_of(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points) @ self.e_w


def standard_frame(dim: int = 4, z_axis: int = 0) -> CoordinateFrame:
    """Frame with e_z along a coordinate axis (axis index into R^{2n})."""
    e_z = np.zeros(dim)
    e_z[z_axis] = 1.0
    e_w = apply_J(e_z)
    # transverse rows: Gram-Schmidt of the coordinate axes against e_z, e_w
    basis = np.eye(dim)
    rows = []
    for k in range(dim):
        v = basis[k] - (basis[k] @ e_z) * e_z - (basis[k] @ e_w) * e_w
        for r in rows:
            v = v - (v @ r) * r
        nrm = np.linalg.norm(v)
        if nrm > 1e-9:
            rows.append(v / nrm)
    return CoordinateFrame(e_z, e_w, np.array(rows))


@dataclass
class LagrangianPlane:
    """Oriented Lagrangian n-plane through 0, spanned by orthonormal rows."""

    basis: np.ndarray  # (n, 2n)
    angle: float

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=float)
        gram = self.basis @ self.basis.T
        if not np.allclose(gram, np.eye(self.basis.shape[0]), atol=1e-12):
            raise BadFrame("plane basis not orthonormal within 1e-12")

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    def project(self, points: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ambient points onto the plane."""
        coords = np.asarray(points) @ self.basis.T
        return coords @ self.basis

    def distance(self, points: np.ndarray) -> np.ndarray:
        diff = np.asarray(points) - self.project(points)
        return np.linalg.norm(np.atleast_2d(diff), axis=-1)

    def point_at(self, coords: np.ndarray) -> np.ndarray:
        return np.asarray(coords) @ self.basis

    def as_product(self, extent: float = LINE_EXTENT,
                   samples: int = LINE_SAMPLES) -> ProductLagrangian:
        """Sample the plane as a product of two lines (n = 2 only)."""
        if self.n != 2:
            raise ValueError("product sampling only for n = 2 planes")
        b = self.basis
        if np.max(np.abs(b[0][2:])) > 1e-12 or np.max(np.abs(b[1][:2])) > 1e-12:
            raise ValueError("plane basis is not factor-aligned")
        l1 = AffineLine((0.0, 0.0), b[0][:2]).sample(extent, samples)
        l2 = AffineLine((0.0, 0.0), b[1][2:])
        return ProductLagrangian(l1, l2, line_extent=extent, line_samples=samples)


@dataclass
class PlanePairConfig:
    """Two oriented Lagrangian planes with angles theta1 = -theta2.

    The m = 1 configuration follows the standard blow-down frame: both
    planes contain e_z, the height w = <x, e_w> vanishes on the union, and
    the transverse directions live in the second complex factor.
    """

    n: int
    planes: Sequence[LagrangianPlane]
    angles: tuple
    intersection_dim: int
    frame: CoordinateFrame


def make_plane_pair(angles, intersection_dim: int, frame: Optional[CoordinateFrame] = None,
                    n: int = 2) -> PlanePairConfig:
    """Construct the analytic plane pair used as the blow-down model.

    For m = 1 (the main configuration) the pair is R e_z x l_1 and
    R e_z x l_2 with l_j lines at the requested angles in the second
    complex factor.  For m = 0 both planes are products of lines meeting
    only at the origin.  m must be < n.
    """
    theta1, theta2 = float(angles[0]), float(angles[1])
    if intersection_dim >= n or intersection_dim < 0:
        raise ValueError("intersection_dim must lie in {0, ..., n-1}")
    if n != 2:
        raise ValueError("only n = 2 plane pairs are instantiated")
    if frame is None:
        frame = standard_frame(4, z_axis=0)
    if intersection_dim == 1:
        # the angle lines live in the complex factor not containing e_z
        if np.max(np.abs(frame.e_z[2:4])) < 1e-12:
            line_axes = (2, 3)
        elif np.max(np.abs(frame.e_z[0:2])) < 1e-12:
            line_axes = (0, 1)
        else:
            raise BadFrame("m = 1 pair needs e_z aligned with one factor")
        planes = []
        for th in (theta1, theta2):
            second = np.zeros(4)
            second[line_axes[0]] = np.cos(th)
            second[line_axes[1]] = np.sin(th)
            planes.append(LagrangianPlane(np.vstack([frame.e_z, second]), th))
    else:
        planes = []
        for th in (theta1, theta2):
            a = np.zeros(4)
            a[0], a[1] = np.cos(th / 2), np.sin(th / 2)
            b = np.zeros(4)
            b[2], b[3] = np.cos(th / 2), np.sin(th / 2)
            planes.append(LagrangianPlane(np.vstack([a, b]), th))
        if abs((theta1 - theta2) % np.pi) < 1e-12:
            raise ValueError("m = 0 pair must be transverse (angle gap not 0 mod pi)")
    return PlanePairConfig(n=n, planes=planes, angles=(theta1, theta2),
                           intersection_dim=intersection_dim, frame=frame)


# ---------------------------------------------------------------------------
# curve set serialization (structured text, one record per vertex)


def save_curves(path, curves) -> None:
    """Write curve components as structured text.

    Format: a version header, then per component a header line
    ``component <id> closed=<0|1> n=<N>`` followed by N ``x y`` records.
    """
    curves = as_components(curves)
    with open(path, "w") as fh:
        fh.write("# lmcflab curveset v1\n")
        fh.write(f"# components: {len(curves)}\n")
        for c in curves:
            fh.write(f"component {c.component_id} closed={int(c.closed)} n={c.n_vertices}\n")
            for x, y in c.vertices:
                fh.write(f"{float(x)!r} {float(y)!r}\n")


def save_plane_pair(path, pair: PlanePairConfig) -> None:
    """Serialize a plane pair as frame matrices plus angles (JSON)."""
    payload = {
        "n": pair.n,
        "intersection_dim": pair.intersection_dim,
        "angles": [float(a) for a in pair.angles],
        "planes": [[[float(x) for x in row] for row in p.basis]
                   for p in pair.planes],
        "frame": {"e_z": [float(x) for x in pair.frame.e_z],
                  "e_w": [float(x) for x in pair.frame.e_w],
                  "transverse": [[float(x) for x in row]
                                 for row in pair.frame.transverse]},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def load_plane_pair(path) -> PlanePairConfig:
    """Read a plane pair written by :func:`save_plane_pair`."""
    with open(path) as fh:
        payload = json.load(fh)
    frame = CoordinateFrame(np.asarray(payload["frame"]["e_z"]),
                            np.asarray(payload["frame"]["e_w"]),
                            np.asarray(payload["frame"]["transverse"]))
    planes = [LagrangianPlane(np.asarray(basis), angle)
              for basis, angle in zip(payload["planes"], payload["angles"])]
    return PlanePairConfig(n=payload["n"], planes=planes,
                           angles=tuple(payload["angles"]),
                           intersection_dim=payload["intersection_dim"],
                           frame=frame)


def load_curves(path) -> list:
    """Read a curve set written by :func:`save_curves`."""
    curves = []
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    i = 0
    while i < len(lines):
        head = lines[i].split()
        if head[0] != "component":
            raise ValueError(f"malformed curve file near: {lines[i]!r}")
        cid = int(head[1])
        closed = bool(int(head[2].split("=")[1]))
        n = int(head[3].split("=")[1])
        block = lines[i + 1: i + 1 + n]
        verts = np.array([[float(t) for t in ln.split()] for ln in block])
        curves.append(DiscreteCurve(verts, closed=closed, component_id=cid))
        i += 1 + n
    return curves
