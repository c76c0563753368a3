"""Drift Laplacian spectrum, weighted norms, projections, three-annulus."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import sympy

from lmcflab import drift
from lmcflab import geometry as geo
from lmcflab.errors import (BoundaryTooTight, ConfigInvalid, EqualAngles,
                            IllConditionedGram)


def poly_inner_quadrature(f: drift.Poly, g: drift.Poly) -> float:
    """Gauss-Hermite oracle for poly_inner (64 nodes per axis): substitute
    x = sqrt(2) y, weight e^{-y^2/2}."""
    y, w = np.polynomial.hermite_e.hermegauss(64)
    n = f.nvars
    if n == 1:
        pts = np.sqrt(2.0) * y[:, None]
        wt = w
    elif n == 2:
        Y1, Y2 = np.meshgrid(y, y, indexing="ij")
        pts = np.sqrt(2.0) * np.stack([Y1.ravel(), Y2.ravel()], axis=1)
        wt = np.outer(w, w).ravel()
    else:
        raise NotImplementedError("quadrature path supports n <= 2")
    vals = f.evaluate(pts) * g.evaluate(pts)
    return float((2.0 ** (n / 2.0)) * np.sum(wt * vals))


def norm_sequence(u, taus):
    """log ||u||_tau on the tau grid, one weighted norm per tau."""
    return drift.NormSequence(np.asarray(taus, dtype=float),
                              np.array([np.log(drift.weighted_norm(u, t)) for t in taus]))


def sympy_drift_oracle(poly: drift.Poly):
    """Independent symbolic check of L0 via sympy differentiation."""
    xs = sympy.symbols(f"x0:{poly.nvars}")
    expr = sympy.Integer(0)
    for k, v in poly.coeffs.items():
        term = sympy.Rational(v.numerator, v.denominator)
        for ax, e in enumerate(k):
            term *= xs[ax] ** e
        expr += term
    out = sympy.Integer(0)
    for x in xs:
        out += sympy.diff(expr, x, 2) - sympy.Rational(1, 2) * x * sympy.diff(expr, x)
    return sympy.expand(out), xs


def test_drift_apply_constant_zero():
    f = drift.Poly.constant(1, 1)
    assert not drift.drift_apply(f).coeffs


def test_drift_apply_coordinate():
    # f = x_i -> -x_i / 2 (eigenvalue 1/2)
    f = drift.Poly.coordinate(0, 2)
    out = drift.drift_apply(f)
    expected = f.scale(Fraction(-1, 2))
    assert not (out - expected).coeffs


def test_drift_apply_k2_matches_spec_form():
    # h_2(x) = x^2 - 2, eigenvalue 1; cross-checked against sympy
    h = drift.hermite_eigenfunction((2,))
    assert h.poly.coeffs == {(2,): Fraction(1), (0,): Fraction(-2)}
    out = drift.drift_apply(h.poly)
    assert not (out + h.poly).coeffs
    oracle, xs = sympy_drift_oracle(h.poly)
    assert sympy.simplify(oracle + (xs[0] ** 2 - 2)) == 0


@pytest.mark.parametrize("n", [1, 2])
def test_eigen_identity_exact(n):
    # L0 h_k + (|k|/2) h_k = 0 exactly for |k| <= 6
    for elem in drift.hermite_basis(n, 6):
        residual = drift.drift_apply(elem.poly) + elem.poly.scale(
            Fraction(elem.degree, 2))
        assert not residual.coeffs, elem.multi_index


@pytest.mark.parametrize("n", [1, 2])
def test_eigen_identity_sympy_oracle(n):
    for elem in drift.hermite_basis(n, 4):
        oracle, xs = sympy_drift_oracle(elem.poly)
        target, _ = sympy_drift_oracle(elem.poly.scale(0))
        expr = oracle + sympy.Rational(elem.degree, 2) * _to_sympy(elem.poly, xs)
        assert sympy.expand(expr) == 0


def _to_sympy(poly, xs):
    expr = sympy.Integer(0)
    for k, v in poly.coeffs.items():
        term = sympy.Rational(v.numerator, v.denominator)
        for ax, e in enumerate(k):
            term *= xs[ax] ** e
        expr += term
    return expr


def test_eigen_identity_quadrature_path():
    # numeric grid path: 4th-order stencils, exact for degree <= 5
    for n in (1, 2):
        for elem in drift.hermite_basis(n, 4):
            axes = [np.linspace(-3.0, 3.0, 41) for _ in range(n)]
            if n == 1:
                pts = axes[0][:, None]
                vals = elem.poly.evaluate(pts)
            else:
                X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
                pts = np.stack([X.ravel(), Y.ravel()], axis=1)
                vals = elem.poly.evaluate(pts).reshape(X.shape)
            inner_axes, out = drift.drift_apply_grid(axes, vals)
            if n == 1:
                ref = elem.poly.evaluate(inner_axes[0][:, None])
            else:
                Xi, Yi = np.meshgrid(inner_axes[0], inner_axes[1], indexing="ij")
                ref = elem.poly.evaluate(
                    np.stack([Xi.ravel(), Yi.ravel()], axis=1)).reshape(Xi.shape)
            assert np.max(np.abs(out + elem.eigenvalue * ref)) < 1e-8


def test_grid_path_boundary_guard():
    with pytest.raises(BoundaryTooTight):
        drift.drift_apply_grid([np.linspace(0, 1, 4)], np.zeros(4))


def test_orthogonality_gram_diagonal():
    for n in (1, 2):
        basis = drift.hermite_basis(n, 4)
        g = np.array([[drift.poly_inner(a.poly, b.poly) for b in basis]
                      for a in basis])
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) < 1e-10 * np.max(np.diag(g))


def test_weighted_norm_constant_closed_form():
    for n in (1, 2):
        one = drift.Poly.constant(1, n)
        closed = (4.0 * np.pi) ** (n / 2.0)
        assert abs(drift.poly_inner(one, one) - closed) < 1e-12 * closed
        quad = poly_inner_quadrature(one, one)
        assert abs(quad - closed) < 1e-10 * closed


def test_quadrature_matches_exact_inner():
    basis = drift.hermite_basis(2, 3)
    for a in basis[:6]:
        for b in basis[:6]:
            exact = drift.poly_inner(a.poly, b.poly)
            quad = poly_inner_quadrature(a.poly, b.poly)
            assert abs(exact - quad) < 1e-10 * max(1.0, abs(exact))


def test_pair_norm_is_root_sum_of_squares():
    pair = drift.PairSolution(drift.Poly.constant(2, 2),
                              drift.Poly.constant(3, 2), 0)
    n1 = drift.weighted_norm(drift.Poly.constant(2, 2))
    n2 = drift.weighted_norm(drift.Poly.constant(3, 2))
    assert abs(drift.weighted_norm(pair, 0.0) ** 2 - (n1 ** 2 + n2 ** 2)) < 1e-12


def test_homogeneous_norm_ratio():
    # ||u||_{tau-1} / ||u||_tau = e^{d/2} exactly for degree-d data
    for d, elem in [(1, drift.hermite_eigenfunction((1, 0))),
                    (2, drift.hermite_eigenfunction((1, 1))),
                    (3, drift.hermite_eigenfunction((3, 0)))]:
        u = drift.PairSolution(elem.poly, None, d)
        for tau in (-3.0, -1.0, 0.5):
            ratio = drift.weighted_norm(u, tau - 1.0) / drift.weighted_norm(u, tau)
            assert abs(ratio - np.exp(d / 2.0)) < 1e-10 * np.exp(d / 2.0)


def test_homogeneous_basis_single_plane():
    basis, gram = drift.homogeneous_basis(2, max_degree=1)
    assert [b.label for b in basis] == ["1", "x1", "x2"]
    assert gram.shape == (3, 3)


def test_homogeneous_basis_pair_dimensions():
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    basis, gram = drift.homogeneous_basis(pair, max_degree=1)
    deg0 = [b for b in basis if b.degree == 0]
    deg1 = [b for b in basis if b.degree == 1]
    assert len(deg0) == 2
    assert len(deg1) == 2 * pair.n  # 2n with z*theta present
    labels = {b.label for b in deg1}
    assert "z*theta" in labels and "z" in labels
    # z*theta restricted: (theta1 z, theta2 z)
    zt = next(b for b in deg1 if b.label == "z*theta")
    assert abs(float(zt.u1.coeffs[(1, 0)]) - np.pi / 4) < 1e-12
    assert abs(float(zt.u2.coeffs[(1, 0)]) + np.pi / 4) < 1e-12


def test_ztheta_z_orthogonality_opposite_angles():
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    basis, _ = drift.homogeneous_basis(pair)
    z = next(b for b in basis if b.label == "z")
    zt = next(b for b in basis if b.label == "z*theta")
    ip = drift.pair_inner(z, zt, 0.0)
    scale = drift.weighted_norm(z) * drift.weighted_norm(zt)
    assert abs(ip) < 1e-10 * scale


def test_equal_angles_rejected():
    pair = geo.make_plane_pair((0.3, -0.3), 1)
    pair.angles = (0.3, 0.3)
    with pytest.raises(EqualAngles):
        drift.homogeneous_basis(pair)


@pytest.mark.parametrize("config", ["pair", 2.0, None, (0.3, -0.3)])
def test_homogeneous_basis_refuses_a_config_that_is_no_pair(config):
    # a typed error, which python -O keeps, not an assert
    with pytest.raises(ConfigInvalid, match=type(config).__name__):
        drift.homogeneous_basis(config)


def test_homogeneous_basis_reads_a_pair_by_its_attributes():
    pair = geo.make_plane_pair((0.3, -0.3), 1)
    like = SimpleNamespace(angles=pair.angles, n=pair.n, intersection_dim=1)
    (basis, gram), (want, want_gram) = (drift.homogeneous_basis(like),
                                        drift.homogeneous_basis(pair))
    assert [b.label for b in basis] == [b.label for b in want]
    assert np.array_equal(gram, want_gram)


def test_project_out_member_of_span():
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    basis, _ = drift.homogeneous_basis(pair)
    u = basis[2]  # x1
    proj, coeffs = drift.project_out(u, basis, tau=-1.0)
    assert drift.weighted_norm(proj, -1.0) < 1e-10 * drift.weighted_norm(u, -1.0)


def test_project_out_recovers_constructed_mix():
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    basis, _ = drift.homogeneous_basis(pair)
    z = next(b for b in basis if b.label == "z")
    zt = next(b for b in basis if b.label == "z*theta")
    V = [b for b in basis if b.label != "z*theta"]
    u = drift.SolutionMixture([z, drift.PairSolution(
        zt.u1.scale(Fraction(3, 10)), zt.u2.scale(Fraction(3, 10)), 1, "0.3zt")])
    proj, coeffs = drift.project_out(u, V, tau=0.0)
    # z coefficient recovered as 1, projection is 0.3 * z*theta
    z_idx = [b.label for b in V].index("z")
    assert abs(coeffs[z_idx] - 1.0) < 1e-8
    resid = drift.weighted_norm(proj, 0.0)
    expect = 0.3 * drift.weighted_norm(zt, 0.0)
    assert abs(resid - expect) < 1e-8 * expect


def test_project_out_ztheta_already_orthogonal():
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    basis, _ = drift.homogeneous_basis(pair)
    zt = next(b for b in basis if b.label == "z*theta")
    V = [b for b in basis if b.label != "z*theta"]
    proj, coeffs = drift.project_out(zt, V, tau=0.0)
    assert np.max(np.abs(coeffs)) < 1e-10
    assert abs(drift.weighted_norm(proj, 0.0) -
               drift.weighted_norm(zt, 0.0)) < 1e-10


def test_project_out_idempotent():
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    basis, _ = drift.homogeneous_basis(pair)
    mix = drift.SolutionMixture([basis[1], basis[2], basis[4]])
    V = basis[:3]
    p1, _ = drift.project_out(mix, V, tau=-2.0)
    p2, _ = drift.project_out(p1, V, tau=-2.0)
    for t in (-2.0,):
        assert abs(drift.weighted_norm(p1, t) - drift.weighted_norm(p2, t)) \
            < 1e-10 * max(1e-30, drift.weighted_norm(p1, t))


def test_ill_conditioned_gram():
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    basis, _ = drift.homogeneous_basis(pair)
    z = next(b for b in basis if b.label == "z")
    near_z = drift.PairSolution(z.u1.scale(Fraction(1)).__add__(
        drift.Poly.coordinate(1, 2).scale(Fraction(1, 10 ** 9))), z.u2, 1, "z'")
    with pytest.raises(IllConditionedGram):
        drift.project_out(basis[0], [z, near_z], tau=0.0)


def homogeneous_seq(d, taus):
    # exact norm sequence of a degree-d homogeneous solution
    return drift.NormSequence(taus, -0.5 * d * np.asarray(taus, float) + 0.7)


@pytest.mark.parametrize("taus, log_norms, match", [
    ([-2.0, -1.0, 0.0], [1.0, 2.0], "log_norms has 2 entries but taus has 3"),
    ([-3.0, -1.0, 0.0], [1.0, 2.0, 3.0], "consecutive integers"),
    ([0.0], [1.0], "at least two taus")])
def test_norm_sequence_refuses_mismatched_data(taus, log_norms, match):
    with pytest.raises(ConfigInvalid, match=match):
        drift.NormSequence(taus, log_norms)


def test_three_annulus_homogeneous():
    taus = np.arange(-10.0, 1.0)
    seq = homogeneous_seq(1, taus)
    assert drift.three_annulus_classify(seq, 0.5).classification == "growing"
    assert drift.three_annulus_classify(seq, 1.5).classification == "decaying"
    for d in range(5):
        seq = homogeneous_seq(d, taus)
        for s in (0.5, 1.5, 2.5, 3.5, 4.5):
            want = "growing" if s < d else "decaying"
            assert drift.three_annulus_classify(seq, s).classification == want


def test_three_annulus_mixture_consistent():
    # log-convex mixture: degree 0 plus degree 1 components
    taus = np.arange(-12.0, 1.0)
    n0 = 1.0
    n1 = 0.5
    norm_sq = n0 * np.exp(-0.0 * taus) + n1 * np.exp(-1.0 * taus)
    seq = drift.NormSequence(taus, 0.5 * np.log(norm_sq))
    rep = drift.three_annulus_classify(seq, 0.5)
    assert rep.classification == "growing"
    assert rep.earliest_consistent_T is not None


def test_three_annulus_never_violates_on_log_convex(seed=123):
    rng = np.random.default_rng(seed)
    taus = np.arange(-9.0, 1.0)
    for _ in range(100):
        degs = rng.integers(0, 5, size=3)
        amps = rng.uniform(0.1, 2.0, size=3)
        norm_sq = sum(a * np.exp(-d * taus) for a, d in zip(amps, degs))
        seq = drift.NormSequence(taus, 0.5 * np.log(norm_sq))
        s = float(rng.uniform(0.1, 4.9))
        if abs(s - round(s)) < 1e-6:
            s += 0.05
        assert drift.three_annulus_classify(seq, s).classification != "violation"


def test_three_annulus_flags_non_convex():
    taus = np.arange(-5.0, 1.0)
    ln = np.array([0.0, 2.0, 0.5, 2.5, 0.2, 2.2])  # wildly non-convex
    seq = drift.NormSequence(taus, ln)
    assert drift.three_annulus_classify(seq, 0.5).classification == "violation"


def test_frequency_audit_homogeneous_degree():
    taus = np.arange(-8.0, 1.0)
    for elem in drift.hermite_basis(1, 3):
        u = drift.PairSolution(elem.poly, None, elem.degree)
        seq = norm_sequence(u, taus)
        rep = drift.frequency_audit(seq)
        assert rep.homogeneous
        assert abs(rep.degree_estimate - elem.degree) < 1e-8


def test_frequency_audit_mixture_convex():
    taus = np.arange(-8.0, 1.0)
    h0 = drift.PairSolution(drift.Poly.constant(1, 1), None, 0)
    h2 = drift.PairSolution(drift.hermite_eigenfunction((2,)).poly, None, 2)
    mix = drift.SolutionMixture([h0, h2])
    seq = norm_sequence(mix, taus)
    rep = drift.frequency_audit(seq)
    assert not rep.homogeneous
    assert np.all(rep.second_differences > 0)


def test_frequency_audit_constant_field():
    taus = np.arange(-5.0, 1.0)
    u = drift.PairSolution(drift.Poly.constant(3, 2), None, 0)
    seq = norm_sequence(u, taus)
    rep = drift.frequency_audit(seq)
    assert rep.homogeneous
    assert abs(rep.degree_estimate) < 1e-8


def test_pair_norm_matches_ambient_surface_quadrature():
    # intrinsic plane norms agree with 2-D quadrature over the embedded
    # plane in R^4 (weight e^{-|x|^2/4}): checks the plane-by-plane storage
    pair = geo.make_plane_pair((np.pi / 4, -np.pi / 4), 1)
    basis, _ = drift.homogeneous_basis(pair)
    z = next(b for b in basis if b.label == "z")
    total_ambient = 0.0
    for plane in pair.planes:
        mesh = plane.as_product(extent=14.0, samples=561)
        X = geo._factor_grid(mesh.factor1.vertices,
                             mesh.factor2.vertices).reshape(-1, 4)
        wts = mesh.weight_grid().ravel()
        f = X @ pair.frame.e_z
        total_ambient += float(np.sum(wts * f * f * np.exp(-np.sum(X * X, axis=1) / 4.0)))
    exact = drift.pair_inner(z, z, 0.0)
    assert abs(total_ambient - exact) < 1e-3 * exact


def test_homogeneous_basis_m0_pair():
    # transverse pair: degree-1 pairs are per-plane coordinates, dimension 2n
    pair = geo.make_plane_pair((np.pi / 3, -np.pi / 3), 0)
    basis, gram = drift.homogeneous_basis(pair, max_degree=1)
    deg0 = [b for b in basis if b.degree == 0]
    deg1 = [b for b in basis if b.degree == 1]
    assert len(deg0) == 2
    assert len(deg1) == 2 * pair.n
    assert np.linalg.matrix_rank(gram) == len(basis)
