"""The guarantee for a general coefficient and arbitrary iterates.

Property: for any constant SPD coefficient A, any smooth solution u and
any iterate v with the right boundary values, the certified bounds M and
D11 are at least the energy error ||grad(u - v)||_A.  Here u is a random
cubic and f = -div(A grad u) is linear, so the degree-5 rule integrates f,
f^2 and the error integrand exactly and the check has no quadrature slack.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ddmcert.flux import CorrectorSolver, build_corrector_space
from ddmcert.majorant import MajorantConstants
from ddmcert.mesh import build_coarse_mesh, build_lshape_mesh
from ddmcert.pipeline import GUARANTEE_RTOL, certify_iterate
from ddmcert.problem import EllipticProblem
from ddmcert.schwarz import run_schwarz

H_FINE = 1 / 8
# monomials x^a y^b of degree at most 3
POWERS = [(a, b) for a in range(4) for b in range(4 - a)]


def cubic_problem(theta, lam, coeffs) -> EllipticProblem:
    """A = R(theta) diag(lam) R(theta)', u = sum c x^a y^b and
    f = -div(A grad u)."""
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    A = R @ np.diag(lam) @ R.T
    A = 0.5 * (A + A.T)

    def mono(p, a, b):
        # x^a y^b, zero for a negative power (a differentiated constant)
        if a < 0 or b < 0:
            return np.zeros(p.shape[:-1])
        return p[..., 0] ** a * p[..., 1] ** b

    def u(p):
        return sum(k * mono(p, a, b) for k, (a, b) in zip(coeffs, POWERS))

    def grad_u(p):
        gx = sum(k * a * mono(p, a - 1, b) for k, (a, b) in zip(coeffs, POWERS))
        gy = sum(k * b * mono(p, a, b - 1) for k, (a, b) in zip(coeffs, POWERS))
        return np.stack([gx, gy], axis=-1)

    def f(p):
        uxx = sum(k * a * (a - 1) * mono(p, a - 2, b)
                  for k, (a, b) in zip(coeffs, POWERS))
        uxy = sum(k * a * b * mono(p, a - 1, b - 1)
                  for k, (a, b) in zip(coeffs, POWERS))
        uyy = sum(k * b * (b - 1) * mono(p, a, b - 2)
                  for k, (a, b) in zip(coeffs, POWERS))
        return -(A[0, 0] * uxx + 2.0 * A[0, 1] * uxy + A[1, 1] * uyy)

    return EllipticProblem(A=A, f=f, u_g=u, exact_u=u, exact_grad=grad_u)


@settings(max_examples=24, derandomize=True, database=None, deadline=None)
@given(theta=st.floats(0.0, np.pi),
       lam=st.tuples(st.floats(0.2, 5.0), st.floats(0.2, 5.0)),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=len(POWERS),
                       max_size=len(POWERS)),
       mode=st.sampled_from(["multiplicative", "additive"]),
       sweeps=st.integers(1, 4),
       scale=st.sampled_from([0.0, 1e-3, 1e-1]),
       seed=st.integers(0, 2**32 - 1))
def test_guarantee_for_any_spd_coefficient_and_iterate(theta, lam, coeffs,
                                                       mode, sweeps, scale,
                                                       seed):
    problem = cubic_problem(theta, lam, coeffs)
    mesh, decomp = build_lshape_mesh(H_FINE)
    v = run_schwarz(mesh, decomp, problem, mode, sweeps)
    interior = ~mesh.boundary_vertex_mask
    rng = np.random.default_rng(seed)
    v.values[interior] += scale * rng.standard_normal(int(interior.sum()))

    constants = MajorantConstants.default(decomp, problem)
    for H in (H_FINE, 2 * H_FINE, 4 * H_FINE):
        coarse = build_coarse_mesh(mesh, decomp, H)
        space = build_corrector_space(coarse, decomp, problem.A)
        solver = CorrectorSolver(space, problem, constants)
        for policy in ("fixed", "opt"):
            _, rep = certify_iterate(v, solver, policy)
            assert rep.guaranteed
            bound = min(rep.total, rep.D11)
            assert rep.energy_err <= bound * (1.0 + GUARANTEE_RTOL)
