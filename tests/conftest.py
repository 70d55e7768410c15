"""Shared fixtures: small presets and one fully certified pipeline state."""

from types import SimpleNamespace

import pytest

from ddmcert.flux import (BrokenFluxField, CorrectorSolver,
                          build_corrector_space)
from ddmcert.majorant import MajorantConstants
from ddmcert.mesh import build_coarse_mesh, build_lshape_mesh
from ddmcert.pipeline import certify_iterate
from ddmcert.problem import manufactured_lshape_problem
from ddmcert.schwarz import run_schwarz

from _iterate import a_grad


@pytest.fixture(scope="session")
def problem():
    return manufactured_lshape_problem()


@pytest.fixture(scope="session")
def lshape4():
    mesh, decomp = build_lshape_mesh(0.25)
    return mesh, decomp


@pytest.fixture(scope="session")
def cert4(lshape4, problem):
    """h=H=1/4 pipeline state after 16 sweeps, certified once."""
    mesh, decomp = lshape4
    v = run_schwarz(mesh, decomp, problem, "multiplicative", 16)
    constants = MajorantConstants.default(decomp, problem)
    coarse = build_coarse_mesh(mesh, decomp, 0.25)
    space = build_corrector_space(coarse, decomp, problem.A)
    solver = CorrectorSolver(space, problem, constants)
    y, report = certify_iterate(v, solver, "fixed")
    yt = BrokenFluxField(mesh, decomp, y.p1_part)
    return SimpleNamespace(mesh=mesh, decomp=decomp, problem=problem,
                           constants=constants, space=space, v=v,
                           a_grad_v=a_grad(v, problem.A), yt=yt,
                           q=y.coeffs, y=y, report=report,
                           f_tri=solver.f_tri, f_sq=solver.f_sq)
