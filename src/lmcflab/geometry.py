"""Discrete Lagrangian geometry: polyline immersions in C, products in C^2,
analytic plane pairs, and the pointwise quantities built on them (tangent
angle, mean curvature, Liouville primitive).

Conventions fixed here and used everywhere else:

* the complex structure J acts per complex factor as J(a, b) = (-b, a);
* the Liouville form is lambda = sum_i (x_i dy_i - y_i dx_i), so that
  lambda/2 is a primitive of the Kaehler form sum_i dx_i ^ dy_i;
* angles are unwrapped continuously along each component from the
  principal branch at the first vertex.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

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
# A single curve passes ``vertices.T``; the time-blocked heat march, the
# centred residual audits (flow.centred_blocks) and the caloric fields pass
# (2, b, N) stacks of b states, so both run the same arithmetic and agree
# bit for bit.


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
    closed curves build theirs with :func:`~lmcflab.flow.cyclic_tridiagonal`."""
    if closed:
        h_prev, h_next = np.roll(h, 1, axis=-1), h
    else:
        h_prev, h_next = h[..., :-1], h[..., 1:]
    span = h_next + h_prev
    return 2.0 / (span * h_prev), 2.0 / (span * h_next)


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


def tangent_angles(p: np.ndarray, closed: bool) -> np.ndarray:
    """Tangent angle per vertex of the polylines p (coordinate planes),
    unwrapped along the vertex axis from the principal branch at the first
    vertex."""
    u = unit_tangents(p, closed)
    theta = np.arctan2(u[1], u[0])
    for k in np.ndindex(theta.shape[:-1]):
        # in place, one polyline at a time: unwrapping a whole (T, N) block
        # holds six (T, N) temporaries
        theta[k] = np.unwrap(theta[k])
    return theta


def liouville_primitive(p: np.ndarray, closed: bool, component_id: int) -> np.ndarray:
    """Primitive beta with d(beta) = lambda along the polylines p (coordinate
    planes), 0 at the first vertex: the cumulative sum of the edge integrals
    of lambda = x dy - y dx, exact as the cross products x_i y_{i+1} - y_i
    x_{i+1} of the edge ends. The first closed polyline along the leading
    axes with holonomy |oint lambda| > HOLONOMY_RTOL * length raises NotExact
    with that holonomy (twice the enclosed area for embedded loops).
    """
    a, b = (p, np.roll(p, -1, axis=-1)) if closed else (p[..., :-1], p[..., 1:])
    inc = a[0] * b[1] - a[1] * b[0]
    if closed:
        h = edge_lengths(p, closed)
        for k in np.ndindex(inc.shape[:-1]):
            # one 1-D sum per polyline: the pairwise order of a single curve's sum
            holonomy = float(np.sum(inc[k]))
            if abs(holonomy) > HOLONOMY_RTOL * float(np.sum(h[k])):
                raise NotExact(holonomy, component_id=component_id)
    beta = np.zeros(p.shape[1:])
    np.cumsum(inc[..., :p.shape[-1] - 1], axis=-1, out=beta[..., 1:])
    return beta


# ---------------------------------------------------------------------------
# pointwise operations


def lagrangian_angle(curve: DiscreteCurve) -> np.ndarray:
    """Lagrangian angle of the n=1 curve: its :func:`tangent_angles`, free of
    2*pi jumps between adjacent vertices."""
    return tangent_angles(curve.vertices.T, curve.closed)


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


def exactness_primitive(curve: DiscreteCurve) -> np.ndarray:
    """Primitive beta with d(beta) = lambda|_curve along the component, 0 at
    the first vertex: its :func:`liouville_primitive` (NotExact on holonomy)."""
    return liouville_primitive(curve.vertices.T, curve.closed, curve.component_id)


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


def _factor_grid(rows1, rows2) -> np.ndarray:
    """(N1, N2, 4) array holding the (N, 2) factor rows rows1[i] and rows2[j]
    at grid point (i, j)."""
    out = np.empty((rows1.shape[0], rows2.shape[0], 4))
    out[:, :, 0:2] = rows1[:, None, :]
    out[:, :, 2:4] = rows2[None, :, :]
    return out


class ProductLagrangian:
    """Product gamma x L in C x C = C^2 of a curve with a static line.

    ``factor2`` is the line sampled as a DiscreteCurve: ``line_sample``, or
    by default ``line.sample(LINE_EXTENT, LINE_SAMPLES)`` (the states of one
    trajectory share one sample; rescaling scales it with the curve). The
    Lagrangian angle of the product is the curve's tangent angle plus the
    line's angle.
    """

    def __init__(self, factor1: DiscreteCurve, line: AffineLine, component_id=0,
                 line_sample=None):
        if not isinstance(line, AffineLine):
            raise TypeError(f"a product's second factor is an AffineLine, "
                            f"not {type(line).__name__}")
        self.factor1 = factor1
        self.component_id = int(component_id)
        self.factor2_line = line
        self.factor2 = (line.sample(LINE_EXTENT, LINE_SAMPLES)
                        if line_sample is None else line_sample)

    def angle_grid(self) -> np.ndarray:
        """Lagrangian angle on the (i, j) parameter grid."""
        return (lagrangian_angle(self.factor1)[:, None]
                + np.full(self.factor2.n_vertices, self.factor2_line.angle))

    def weight_grid(self) -> np.ndarray:
        """Mass-lumped area weights on the parameter grid."""
        return np.outer(self.factor1.dual_lengths(), self.factor2.dual_lengths())


class PointGrid(tuple):
    """An (n1, n2, 4) point grid, the surface type of ``linking``, that also
    reads as a (vertices, quads) mesh.

    np.asarray gives the points themselves. As a pair it is the
    (n1 n2, 4) vertex view of the points and range(Q), the numbers of its
    Q = (n1 - 1)(n2 - 1) quads, so a reader of (vertices, quads) meshes,
    such as the benchmark's tracer (perfbench/tracer.py), finds every
    vertex and counts the quads without an index array."""

    def __new__(cls, points):
        n1, n2 = points.shape[:2]
        grid = super().__new__(cls, (points.reshape(-1, 4),
                                     range(max(n1 - 1, 0) * max(n2 - 1, 0))))
        grid.points = points
        return grid

    def __array__(self, dtype=None, copy=None):
        return np.array(self.points, dtype=dtype, copy=copy)


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
        return ProductLagrangian(l1, l2, line_sample=l2.sample(extent, samples))


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


def make_plane_pair(angles, intersection_dim: int,
                    frame: Optional[CoordinateFrame] = None) -> PlanePairConfig:
    """Construct the analytic plane pair used as the blow-down model.

    For m = 1 (the main configuration) the pair is R e_z x l_1 and
    R e_z x l_2 with l_j lines at the requested angles in the second
    complex factor.  For m = 0 both planes are products of lines meeting
    only at the origin.  Pairs live in C^2 (n = 2), so m is 0 or 1.
    """
    theta1, theta2 = float(angles[0]), float(angles[1])
    if intersection_dim not in (0, 1):
        raise ValueError("intersection_dim must lie in {0, 1} (n = 2)")
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
    return PlanePairConfig(n=2, planes=planes, angles=(theta1, theta2),
                           intersection_dim=intersection_dim, frame=frame)
