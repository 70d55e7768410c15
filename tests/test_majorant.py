import dataclasses
import math

import numpy as np
import pytest

from ddmcert.flux import BrokenFluxField, average_gradient, corrected_flux
from ddmcert.majorant import (MajorantConstants, alpha_weights, beta_pair,
                              evaluate_majorant, optimize_eps,
                              poincare_edge_constant)
from ddmcert.mesh import build_lshape_mesh, build_rect_mesh
from ddmcert.problem import (EllipticProblem, ScalarFieldP1, f_cell_integrals,
                             manufactured_lshape_problem)

from _iterate import a_grad, error_of

PI = math.pi

# constants for a single unit-square subdomain carrying the L-shape presets
SQUARE_CONSTANTS = MajorantConstants(C_min=1.0,
                                     C_P=np.array([math.sqrt(2) / PI]),
                                     beta=np.zeros(0), E_max=2.0)


def test_poincare_edge_values():
    assert abs(poincare_edge_constant(1.0) - 0.565244) < 1e-5
    assert abs(poincare_edge_constant(1.0) - 1 / math.sqrt(PI * math.tanh(PI))) \
        < 1e-15
    assert abs(poincare_edge_constant(2.0)
               - 1 / math.sqrt((PI / 2) * math.tanh(PI / 2))) < 1e-15
    assert abs(poincare_edge_constant(2.0) - 0.833143) < 1e-5
    with pytest.raises(ValueError):
        poincare_edge_constant(0.0)


def test_poincare_monotone_to_zero():
    hs = np.geomspace(1e-3, 10.0, 40)
    vals = [poincare_edge_constant(h) for h in hs]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[0] < 2e-2


def test_beta_formula():
    assert np.isclose(beta_pair(3.0, 4.0), math.sqrt(12.5))
    assert np.isclose(beta_pair(0.7, 0.7), 0.7)
    assert beta_pair(1.0, 2.0) == beta_pair(2.0, 1.0)


def test_lshape_constants():
    p = manufactured_lshape_problem()
    _, decomp = build_lshape_mesh(0.5)
    c = MajorantConstants.default(decomp, p)
    assert np.allclose(c.C_P, math.sqrt(2) / PI)
    assert np.isclose(c.C_P_max, math.sqrt(2) / PI)
    assert np.allclose(c.beta, 1 / math.sqrt(PI * math.tanh(PI)))
    assert c.E_max == 2.0


def test_alpha_weights():
    a1, a2, a3 = alpha_weights((1.0, 1.0, 1.0), SQUARE_CONSTANTS)
    assert np.isclose(a1, 3.0)
    assert np.isclose(a2, 6 / PI**2)
    assert np.isclose(a3, 6.0)
    assert np.isclose(alpha_weights((2.0, 2.0, 2.0), SQUARE_CONSTANTS)[0], 5.0)
    # eps1 -> infinity: alpha2 approaches (1 + eps3) * C^2 / C_min
    big = alpha_weights((1e12, 1.0, 1.0), SQUARE_CONSTANTS)
    assert np.isclose(big[1], 2 * (2 / PI**2), rtol=1e-10)
    with pytest.raises(ValueError):
        alpha_weights((0.0, 1.0, 1.0), SQUARE_CONSTANTS)


def test_exact_flux_gives_zero_majorant():
    mesh, decomp = build_lshape_mesh(0.25)
    affine = EllipticProblem(
        A=np.eye(2), f=lambda p: np.zeros(p.shape[:-1]),
        u_g=lambda p: p[..., 0],
        exact_u=lambda p: p[..., 0],
        exact_grad=lambda p: np.broadcast_to(np.array([1.0, 0.0]),
                                             p.shape[:-1] + (2,)))
    v = ScalarFieldP1(mesh, affine.exact_u(mesh.vertices))
    gv = a_grad(v, affine.A)
    y = average_gradient(gv, decomp)
    c = MajorantConstants.default(decomp, affine)
    rep = evaluate_majorant(y, gv, affine, c,
                            *f_cell_integrals(mesh, affine.f))
    assert rep.total_sq < 1e-26
    assert rep.guaranteed


def test_unit_square_hand_value():
    # v = 0, y = 0, f = 1 on the unit square with the preset constants:
    # only the equilibration term survives, M2^2 = alpha2 * |omega|
    mesh, decomp = build_rect_mesh(1, 1, 1.0)
    unit_source = EllipticProblem(A=np.eye(2),
                                  f=lambda p: np.ones(p.shape[:-1]),
                                  u_g=lambda p: np.zeros(p.shape[:-1]))
    v = ScalarFieldP1(mesh, np.zeros(mesh.n_vertices))
    y = BrokenFluxField(mesh, decomp, np.zeros((mesh.n_triangles, 3, 2)))
    rep = evaluate_majorant(y, a_grad(v, unit_source.A), unit_source,
                            SQUARE_CONSTANTS,
                            *f_cell_integrals(mesh, unit_source.f))
    assert np.isclose(rep.M1_sq, 0.0, atol=1e-14)
    assert np.isclose(rep.M3_sq, 0.0, atol=1e-14)
    assert np.isclose(rep.M2_sq, 6 / PI**2, rtol=1e-12)
    assert np.isclose(rep.total_sq, 0.607927, atol=1e-6)


def test_inadmissible_candidate_is_flagged():
    mesh, decomp = build_rect_mesh(1, 1, 1.0)
    unit_source = EllipticProblem(A=np.eye(2),
                                  f=lambda p: np.ones(p.shape[:-1]),
                                  u_g=lambda p: np.zeros(p.shape[:-1]))
    v = ScalarFieldP1(mesh, np.zeros(mesh.n_vertices))
    y = BrokenFluxField(mesh, decomp, np.zeros((mesh.n_triangles, 3, 2)))
    rep = evaluate_majorant(y, a_grad(v, unit_source.A), unit_source,
                            SQUARE_CONSTANTS,
                            *f_cell_integrals(mesh, unit_source.f))
    assert not rep.guaranteed       # mean residual is 1, way above tolerance


def test_report_breakdown_consistency(cert4):
    rep = cert4.report
    assert np.isclose(rep.total_sq, rep.M1_sq + rep.M2_sq + rep.M3_sq,
                      rtol=1e-14)
    a1, a2, a3 = rep.alphas
    assert np.isclose(rep.M1_sq, a1 * rep.S1.sum(), rtol=1e-14)
    assert np.isclose(rep.M2_sq, a2 * rep.S2.sum(), rtol=1e-14)
    assert np.isclose(rep.M3_sq,
                      a3 * float((cert4.constants.beta**2 * rep.S3).sum()),
                      rtol=1e-13)
    assert rep.S1.shape == (3,) and rep.S2.shape == (3,)
    assert rep.S3.shape == (2,)
    # D11 assembles from the unweighted sums
    c = cert4.constants
    T1 = rep.S1.sum()
    T2 = c.C_P_max**2 / c.C_min * rep.S2.sum()
    T3 = c.E_max / c.C_min * float((c.beta**2 * rep.S3).sum())
    assert np.isclose(rep.D11, np.sqrt(T1) + np.sqrt(T2) + np.sqrt(T3),
                      rtol=1e-14)
    assert rep.D11 <= rep.total


def test_majorant_terms_obey_parallelogram_identity(cert4):
    # each term is a quadratic form of the flux, so
    # S(a) + S(b) = 2 S((a+b)/2) + 2 S_0((a-b)/2)
    space = cert4.space
    rng = np.random.default_rng(5)
    qa = cert4.q + 0.1 * rng.standard_normal(space.n_dofs)
    qb = cert4.q + 0.1 * rng.standard_normal(space.n_dofs)
    zero_field = EllipticProblem(A=np.eye(2),
                                 f=lambda p: np.zeros(p.shape[:-1]),
                                 u_g=lambda p: np.zeros(p.shape[:-1]))
    v0 = ScalarFieldP1(cert4.mesh, np.zeros(cert4.mesh.n_vertices))
    yt0 = BrokenFluxField(cert4.mesh, cert4.decomp,
                          np.zeros_like(cert4.yt.p1_part))

    def terms(yt, q, v, prob):
        rep = evaluate_majorant(corrected_flux(yt, q, space),
                                a_grad(v, prob.A), prob,
                                cert4.constants,
                                *f_cell_integrals(cert4.mesh, prob.f))
        return np.array([rep.S1.sum(), rep.S2.sum(), rep.S3.sum()])

    sa = terms(cert4.yt, qa, cert4.v, cert4.problem)
    sb = terms(cert4.yt, qb, cert4.v, cert4.problem)
    mid = terms(cert4.yt, (qa + qb) / 2, cert4.v, cert4.problem)
    half_diff = terms(yt0, (qa - qb) / 2, v0, zero_field)
    assert np.allclose(sa + sb, 2 * mid + 2 * half_diff, rtol=1e-10)


def test_optimize_eps_algebra():
    # one interface with unit constants makes T_i == S_i
    ones = MajorantConstants(C_min=1.0, C_P=np.array([1.0]),
                             beta=np.array([1.0]), E_max=1.0)
    assert np.allclose(optimize_eps(1.0, 1.0, 1.0, ones), (1.0, 1.0, 1.0))
    eps = optimize_eps(1.0, 4.0, 9.0, ones)
    assert np.allclose(eps, (2.0, 3.0, 1.5))
    # degenerate tails clamp
    eps = optimize_eps(1.0, 0.0, 0.0, ones)
    assert eps[0] == 1e-8 and eps[1] == 1e-8
    assert np.allclose(optimize_eps(0.0, 0.0, 0.0, ones), (1.0, 1.0, 1.0))


def test_optimize_eps_never_increases(cert4):
    rep = cert4.report
    eps = optimize_eps(rep.S1, rep.S2, rep.S3, cert4.constants)
    rep_opt = evaluate_majorant(cert4.y, cert4.a_grad_v, cert4.problem,
                                cert4.constants, eps=eps,
                                f_tri=cert4.f_tri, f_sq_tri=cert4.f_sq)
    assert rep_opt.total_sq <= rep.total_sq * (1 + 1e-14)
    # the optimal weighted value equals the structural D11 bound, squared
    assert np.isclose(rep_opt.total_sq, rep_opt.D11**2, rtol=1e-12)


def test_guarantee_on_certified_state(cert4):
    rep = cert4.report
    assert rep.guaranteed
    assert rep.energy_err <= rep.total * (1 + 1e-9)
    assert rep.energy_err <= rep.D11 * (1 + 1e-9)
    assert rep.efficiency >= 1.0


def test_majorant_needs_no_exact_solution(cert4):
    def no_exact(p):
        raise AssertionError("the majorant read the exact solution")

    blind = dataclasses.replace(cert4.problem, exact_u=no_exact,
                                exact_grad=no_exact)
    reps = [evaluate_majorant(cert4.y, cert4.a_grad_v, prob, cert4.constants,
                              cert4.f_tri, cert4.f_sq)
            for prob in (cert4.problem, blind)]
    for rep in reps:
        assert rep.energy_err is None
        for name in ("S1", "S2", "S3"):
            assert np.array_equal(getattr(rep, name),
                                  getattr(cert4.report, name))
        for name in ("total_sq", "M1_sq", "M2_sq", "M3_sq", "D11"):
            assert getattr(rep, name) == getattr(cert4.report, name)


def test_certified_report_carries_the_energy_error(cert4):
    rep = cert4.report
    assert rep.energy_err == error_of(cert4.v, cert4.problem)
    assert rep.efficiency == rep.total / rep.energy_err
