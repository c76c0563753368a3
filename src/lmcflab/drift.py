"""Drift Laplacian machinery on planes and plane pairs: Hermite eigenbasis,
weighted norms, homogeneous solutions, projections, the three-annulus
dichotomy, and the log-norm frequency audit.

The drift Laplacian is L0 f = Delta f - <x, grad f>/2; its eigenfunctions
on R^n are h_k(x) = prod_i H_{k_i}(x_i / 2) (physicists' Hermite), with
L0 h_k = -(|k|/2) h_k.  A homogeneous solution of the drift heat equation
d_tau u = L0 u with eigenvalue lam = d/2 is u(x, tau) = e^{-lam tau} h(x)
and has degree d; its weighted norm ||u||_tau^2 = int u^2 e^{-|x|^2/4}
satisfies ||u||_{tau-1} / ||u||_tau = e^{d/2} exactly.

Polynomials carry exact dyadic-rational coefficients (Fraction), so the
symbolic eigen-identity and orthogonality checks are exact; the quadrature
path (Gauss-Hermite after x = sqrt(2) y) cross-validates the pipeline used
on sampled data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import (BoundaryTooTight, ConfigInvalid, EqualAngles,
                     IllConditionedGram)

GRAM_CONDITION_LIMIT = 1e8


# ---------------------------------------------------------------------------
# exact multivariate polynomials


class Poly:
    """Multivariate polynomial with exact Fraction coefficients."""

    __slots__ = ("coeffs", "nvars")

    def __init__(self, coeffs, nvars: int):
        self.nvars = int(nvars)
        self.coeffs = {tuple(k): Fraction(v) for k, v in coeffs.items()
                       if Fraction(v) != 0}

    @classmethod
    def constant(cls, value, nvars: int) -> "Poly":
        return cls({(0,) * nvars: Fraction(value)}, nvars)

    @classmethod
    def coordinate(cls, axis: int, nvars: int) -> "Poly":
        e = [0] * nvars
        e[axis] = 1
        return cls({tuple(e): Fraction(1)}, nvars)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return Poly(out, self.nvars)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly({k: v * c for k, v in self.coeffs.items()}, self.nvars)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def diff(self, axis: int) -> "Poly":
        out = {}
        for k, v in self.coeffs.items():
            if k[axis] > 0:
                e = list(k)
                e[axis] -= 1
                out[tuple(e)] = v * k[axis]
        return Poly(out, self.nvars)

    def mul_coordinate(self, axis: int) -> "Poly":
        out = {}
        for k, v in self.coeffs.items():
            e = list(k)
            e[axis] += 1
            out[tuple(e)] = v
        return Poly(out, self.nvars)

    def degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for k, v in self.coeffs.items():
            term = np.full(pts.shape[0], float(v))
            for ax, e in enumerate(k):
                if e:
                    term = term * pts[:, ax] ** e
            out += term
        return out

    def __repr__(self):
        return f"Poly({dict(self.coeffs)!r}, nvars={self.nvars})"


def drift_apply(f: Poly) -> Poly:
    """L0 f = Delta f - <x, grad f>/2, exact on polynomials."""
    out = Poly({}, f.nvars)
    for ax in range(f.nvars):
        out = out + f.diff(ax).diff(ax)
        out = out - f.diff(ax).mul_coordinate(ax).scale(Fraction(1, 2))
    return out


def hermite_coefficients(k: int):
    """Physicists' Hermite H_k coefficients (integers, lowest degree first)."""
    h_prev = [Fraction(1)]
    if k == 0:
        return h_prev
    h = [Fraction(0), Fraction(2)]
    for m in range(1, k):
        nxt = [Fraction(0)] * (m + 2)
        for j, c in enumerate(h):
            nxt[j + 1] += 2 * c
        for j, c in enumerate(h_prev):
            nxt[j] -= 2 * m * c
        h_prev, h = h, nxt
    return h


@dataclass(frozen=True)
class HermiteBasisElement:
    """Eigenfunction h_k(x) = prod H_{k_i}(x_i/2) with eigenvalue |k|/2."""

    multi_index: tuple
    poly: Poly = field(compare=False)

    @property
    def degree(self) -> int:
        return int(sum(self.multi_index))

    @property
    def eigenvalue(self) -> float:
        return 0.5 * self.degree


def hermite_eigenfunction(multi_index) -> HermiteBasisElement:
    multi_index = tuple(int(k) for k in multi_index)
    n = len(multi_index)
    poly = Poly.constant(1, n)
    for ax, k in enumerate(multi_index):
        coeffs = hermite_coefficients(k)
        axis_poly = Poly({tuple(j if a == ax else 0 for a in range(n)):
                          c * Fraction(1, 2 ** j)
                          for j, c in enumerate(coeffs)}, n)
        poly = _poly_mul(poly, axis_poly)
    return HermiteBasisElement(multi_index, poly)


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, Fraction(0)) + va * vb
    return Poly(out, a.nvars)


def hermite_basis(n: int, max_degree: int):
    """All h_k with |k| <= max_degree on R^n, ordered by degree then index."""
    out = []
    for total in range(max_degree + 1):
        for idx in _compositions(total, n):
            out.append(hermite_eigenfunction(idx))
    return out


def _compositions(total, n):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# exact Gaussian moments and inner products (weight e^{-|x|^2/4})


def _double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _moment_rational(e: int) -> Fraction:
    """int x^e e^{-x^2/4} dx = [2^{p+1} (2p-1)!!] * sqrt(pi) for e = 2p."""
    if e % 2 == 1:
        return Fraction(0)
    p = e // 2
    return Fraction(2 ** (p + 1) * _double_factorial(2 * p - 1))


def poly_inner(f: Poly, g: Poly) -> float:
    """Exact weighted inner product int f g e^{-|x|^2/4} dx over R^n."""
    total = Fraction(0)
    for kf, vf in f.coeffs.items():
        for kg, vg in g.coeffs.items():
            term = vf * vg
            for ef, eg in zip(kf, kg):
                m = _moment_rational(ef + eg)
                if m == 0:
                    term = Fraction(0)
                    break
                term *= m
            total += term
    return float(total) * np.pi ** (f.nvars / 2.0)


# ---------------------------------------------------------------------------
# numeric drift Laplacian on sampled grids (4th-order stencils)


def drift_apply_grid(axes: Sequence[np.ndarray], values: np.ndarray):
    """L0 on a uniform tensor grid; returns (inner_axes, L0 values).

    Fourth-order central stencils (exact for polynomials of degree <= 5);
    the two-cell margin is trimmed. Raises BoundaryTooTight when an axis
    has fewer than five points.
    """
    axes = [np.asarray(a, dtype=float) for a in axes]
    vals = np.asarray(values, dtype=float)
    n = len(axes)
    for a in axes:
        if a.size < 5:
            raise BoundaryTooTight("need at least 5 points per axis")
        da = np.diff(a)
        if np.max(np.abs(da - da[0])) > 1e-12 * abs(da[0]):
            raise ValueError("axes must be uniform")
    out = np.zeros_like(vals)
    for ax, a in enumerate(axes):
        h = a[1] - a[0]
        f = np.moveaxis(vals, ax, 0)
        d2 = np.zeros_like(f)
        d1 = np.zeros_like(f)
        d2[2:-2] = (-f[:-4] + 16 * f[1:-3] - 30 * f[2:-2]
                    + 16 * f[3:-1] - f[4:]) / (12 * h * h)
        d1[2:-2] = (f[:-4] - 8 * f[1:-3] + 8 * f[3:-1] - f[4:]) / (12 * h)
        coord = a.reshape((-1,) + (1,) * (vals.ndim - 1))
        out += np.moveaxis(d2 - 0.5 * coord * d1, 0, ax)
    sl = tuple(slice(2, -2) for _ in range(n))
    return [a[2:-2] for a in axes], out[sl]


# ---------------------------------------------------------------------------
# pair solutions and weighted norms


@dataclass
class PairSolution:
    """Homogeneous drift-heat solution on a plane pair (or single plane).

    ``u2`` is None for single-plane data. The time dependence is
    e^{-(degree/2) tau} times the stored spatial polynomials.
    """

    u1: Poly
    u2: Optional[Poly]
    degree: int
    label: str = ""

    def parts(self):
        return [p for p in (self.u1, self.u2) if p is not None]


@dataclass
class SolutionMixture:
    """Finite linear combination of homogeneous pair solutions."""

    terms: list

    def norm_sq(self, tau: float) -> float:
        return sum(pair_inner(a, b, tau) for a in self.terms for b in self.terms)


def _pair_inner0(a: PairSolution, b: PairSolution) -> float:
    pa, pb = a.parts(), b.parts()
    if len(pa) != len(pb):
        raise ValueError("mixing single-plane and pair data")
    return sum(poly_inner(x, y) for x, y in zip(pa, pb))


def pair_inner(a: PairSolution, b: PairSolution, tau: float) -> float:
    """Weighted inner product at time tau (sum over planes)."""
    return np.exp(-0.5 * (a.degree + b.degree) * tau) * _pair_inner0(a, b)


def weighted_norm(u, tau: float = 0.0) -> float:
    """||u||_tau for a Poly, PairSolution, or SolutionMixture."""
    if isinstance(u, Poly):
        return float(np.sqrt(poly_inner(u, u)))
    if isinstance(u, PairSolution):
        return float(np.sqrt(pair_inner(u, u, tau)))
    if isinstance(u, SolutionMixture):
        return float(np.sqrt(u.norm_sq(tau)))
    raise TypeError(f"unsupported function data {type(u)!r}")


def homogeneous_basis(config, max_degree: int = 1):
    """Low-degree homogeneous drift-heat solutions on a plane or m=1 pair.

    Single plane (pass an integer dimension): degree 0 spans {1}, degree 1
    the rescaled coordinates. Pair with a one-dimensional intersection:
    degree 0 spans {1, theta}, degree 1 spans the transverse coordinates
    together with z and z*theta. Degenerate when the angles coincide.
    Returns (basis list, Gram matrix at tau = 0). Raises ConfigInvalid for
    a config without a pair's angles, n and intersection_dim.
    """
    if isinstance(config, int):
        n = config
        basis = [PairSolution(Poly.constant(1, n), None, 0, "1")]
        if max_degree >= 1:
            for ax in range(n):
                basis.append(PairSolution(Poly.coordinate(ax, n), None, 1,
                                          f"x{ax + 1}"))
        return basis, _gram(basis)

    if not all(hasattr(config, a) for a in ("angles", "n", "intersection_dim")):
        raise ConfigInvalid(f"config must be a dimension or a plane pair, "
                            f"not {type(config).__name__}")
    th1, th2 = config.angles
    if abs(th1 - th2) < 1e-12:
        raise EqualAngles("plane pair has equal angles; the span degenerates")
    n = config.n
    one = PairSolution(Poly.constant(1, n), Poly.constant(1, n), 0, "1")
    theta = PairSolution(_const_float(th1, n), _const_float(th2, n), 0, "theta")
    basis = [one, theta]
    if max_degree >= 1:
        if config.intersection_dim == 1:
            # intrinsic coordinate 0 is along e_z on both planes
            z = PairSolution(Poly.coordinate(0, n), Poly.coordinate(0, n), 1, "z")
            ztheta = PairSolution(Poly.coordinate(0, n).scale(_frac(th1)),
                                  Poly.coordinate(0, n).scale(_frac(th2)), 1,
                                  "z*theta")
            gap = np.sin(th1 - th2)
            x1 = PairSolution(Poly.coordinate(1, n).scale(_frac(gap)),
                              Poly.constant(0, n), 1, "x1")
            x2 = PairSolution(Poly.constant(0, n),
                              Poly.coordinate(1, n).scale(_frac(-gap)), 1, "x2")
            basis.extend([x1, x2, z, ztheta])
        elif config.intersection_dim == 0:
            for ax in range(n):
                basis.append(PairSolution(Poly.coordinate(ax, n),
                                          Poly.constant(0, n), 1, f"p1_y{ax}"))
                basis.append(PairSolution(Poly.constant(0, n),
                                          Poly.coordinate(ax, n), 1, f"p2_y{ax}"))
        else:
            raise NotImplementedError("basis builder covers m in {0, 1}")
    return basis, _gram(basis)


def _frac(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10 ** 15)


def _const_float(x: float, n: int) -> Poly:
    return Poly({(0,) * n: _frac(x)}, n)


def _gram(basis):
    g = np.array([[_pair_inner0(a, b) for b in basis] for a in basis])
    return g


def project_out(u, V: list, tau: float):
    """Orthogonal projection Pi_tau u = u - f with f in span(V) at time tau.

    Returns (projected mixture, coefficient array). Raises
    IllConditionedGram when the Gram condition number exceeds 1e8.
    """
    terms_u = u.terms if isinstance(u, SolutionMixture) else [u]
    g = np.array([[pair_inner(a, b, tau) for b in V] for a in V])
    cond = np.linalg.cond(g)
    if cond > GRAM_CONDITION_LIMIT:
        raise IllConditionedGram(f"Gram condition number {cond:.3g}")
    rhs = np.array([sum(pair_inner(t, b, tau) for t in terms_u) for b in V])
    coeffs = np.linalg.solve(g, rhs)
    new_terms = list(terms_u)
    for c, b in zip(coeffs, V):
        new_terms.append(PairSolution(b.u1.scale(_frac(-c)),
                                      None if b.u2 is None else b.u2.scale(_frac(-c)),
                                      b.degree, f"-{c:.6g}*{b.label}"))
    return SolutionMixture(new_terms), coeffs


# ---------------------------------------------------------------------------
# norm sequences: three-annulus dichotomy and frequency audit


@dataclass
class NormSequence:
    """log ||u||_tau on a consecutive integer tau grid. Raises ConfigInvalid
    unless there is one log norm per tau and the taus are two or more
    consecutive integers."""

    taus: np.ndarray
    log_norms: np.ndarray

    def __post_init__(self):
        self.taus = np.asarray(self.taus, dtype=float)
        self.log_norms = np.asarray(self.log_norms, dtype=float)
        if self.log_norms.shape != self.taus.shape:
            raise ConfigInvalid(f"log_norms has {self.log_norms.size} entries "
                                f"but taus has {self.taus.size}; they must match")
        if self.taus.size < 2:
            raise ConfigInvalid(f"need at least two taus, not {self.taus.size}")
        if np.max(np.abs(np.diff(self.taus) - 1.0)) > 1e-12:
            raise ConfigInvalid("taus must be consecutive integers")

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("tau,log_norm\n")
            for t, ln in zip(self.taus, self.log_norms):
                fh.write(f"{t:.12g},{ln:.17g}\n")


@dataclass
class AnnulusReport:
    classification: str  # growing | decaying | violation
    s: float
    per_T: list  # (T, grows) with T = -tau of the later time
    earliest_consistent_T: Optional[float]


def three_annulus_classify(seq: NormSequence, s: float) -> AnnulusReport:
    """Backward-propagation audit of the growth alternative at rate e^{s/2}.

    For each T the step from tau = -T to tau = -T-1 is 'growing' when
    ||u||_{-T-1} >= e^{s/2} ||u||_{-T}. Growth must propagate backward in
    tau; a growing step followed (backward) by a decaying one is flagged
    as a violation, impossible for log-convex data.
    """
    if abs(s - round(s)) < 1e-12:
        raise ValueError("s must not be an integer")
    taus = seq.taus
    ln = seq.log_norms
    steps = []
    for k in range(len(taus) - 1, 0, -1):
        T = -taus[k]
        grows = ln[k - 1] - ln[k] >= 0.5 * s - 1e-13
        steps.append((float(T), bool(grows)))
    # steps ordered by increasing T (backward in tau)
    violation = any(a[1] and not b[1] for a, b in zip(steps, steps[1:]))
    if violation:
        return AnnulusReport("violation", s, steps, None)
    grows_deepest = steps[-1][1]
    earliest = None
    for T, g in steps:
        if g == grows_deepest:
            earliest = T
            break
    return AnnulusReport("growing" if grows_deepest else "decaying",
                         s, steps, earliest)


@dataclass
class FrequencyReport:
    second_differences: np.ndarray
    homogeneous: bool
    degree_estimate: Optional[float]


def frequency_audit(seq: NormSequence) -> FrequencyReport:
    """Convexity audit of log ||u||^2_tau; linear iff homogeneous.

    Degree estimate is minus the slope of log ||u||^2 in tau when the
    second differences vanish within 1e-8.
    """
    if len(seq.taus) < 3:
        raise ValueError("need at least 3 points")
    log_sq = 2.0 * seq.log_norms
    d2 = log_sq[:-2] - 2.0 * log_sq[1:-1] + log_sq[2:]
    homogeneous = bool(np.max(np.abs(d2)) < 1e-8)
    degree = None
    if homogeneous:
        degree = float(-(log_sq[-1] - log_sq[0]) / (seq.taus[-1] - seq.taus[0]))
    return FrequencyReport(d2, homogeneous, degree)
