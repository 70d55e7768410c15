"""Guaranteed a posteriori error majorant for subdomain iterates.

For an admissible broken flux field y (constraint means c1/c2 within
tolerance) the squared energy error of an approximation v is bounded by

    M^2(eps) = a1(eps) sum_k ||y - A grad v||^2_{A^{-1}, omega_k}
             + a2(eps) sum_k ||div y + f||^2_{omega_k}
             + a3(eps) sum_kj beta_kj^2 ||[y . n]||^2_{gamma_kj},

with weights

    a1 = 1 + e1 + e2,
    a2 = (1 + 1/e1 + e3) C_Pmax^2 / C_min,
    a3 = (1/e2 + 1/e3 + 1) E_max / C_min,

free parameters eps = (e1, e2, e3) > 0, the largest subdomain Poincare
constant C_Pmax, the smallest diffusion eigenvalue C_min and the maximal
interface multiplicity E_max.  Minimizing over eps in closed form yields

    min_eps M^2(eps) = (sqrt(T1) + sqrt(T2) + sqrt(T3))^2,

the structural lower bound ``D11`` reported alongside every evaluation
(T1/T2/T3 are the three sums with their eps-independent factors).

``evaluate_majorant`` needs no exact solution.  It takes the flux A grad v
of the iterate and the cell integrals of f and f^2 from its caller
(``pipeline.certify_iterate`` forms the one once per iterate, a run's
``CorrectorSolver`` keeps the others) and reads the jump term and the
admissibility means from one ``constraint_residuals`` evaluation of the
flux.  The flux's P1 layer at the side midpoints and its divergence are the
ones its averaged flux keeps.  A certification evaluates it once, on its
final flux: the eps rounds before are steered by ``flux.steering_sums``,
the same sums expanded in the corrector's dofs, which agree with these to
roundoff and never enter a report.  S1 and ``energy_error``, which a run
compares the majorant with, write out their 2x2 quadratic forms
(``problem.quad_form``); S1 and S2 sum per subdomain by ``np.bincount``.
``energy_error`` integrates the error of grad v against the exact gradient
at the degree-5 points; its caller attaches it to the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flux import (BrokenFluxField, ConstraintResiduals, constraint_residuals,
                   jump_norms_sq)
from .mesh import DomainDecomposition, TriMesh
from .problem import EllipticProblem, quad_form, quad_rule

EPS_MIN = 1e-8
EPS_MAX = 1e8
ADMISSIBILITY_TOL = 1e-8


def poincare_edge_constant(h2: float) -> float:
    """Poincare constant on a rectangle for functions with zero mean on one
    side, as a function of the extent h2 perpendicular to that side."""
    if h2 <= 0:
        raise ValueError("perpendicular extent must be positive")
    t = math.pi / h2
    return 1.0 / math.sqrt(t * math.tanh(t))


def beta_pair(c_k: float, c_j: float) -> float:
    """Interface constant from the two one-sided edge constants."""
    return math.sqrt(0.5 * (c_k * c_k + c_j * c_j))


@dataclass
class MajorantConstants:
    """Geometry- and operator-dependent constants entering the weights."""

    C_min: float
    C_P: np.ndarray          # per basic subdomain
    beta: np.ndarray         # per interface
    E_max: float

    @property
    def C_P_max(self) -> float:
        return float(self.C_P.max()) if len(self.C_P) else 0.0

    @classmethod
    def default(cls, decomp: DomainDecomposition,
                problem: EllipticProblem) -> "MajorantConstants":
        """Constants from the decomposition geometry and the problem.

        C_min is the problem's smallest diffusion eigenvalue.  Subdomain
        Poincare constants use diam/pi (the convex-domain value); interface
        constants average the squared edge-Poincare constants of the two
        neighbours, each measured by its extent perpendicular to the
        interface.  E_max counts the largest number of interfaces meeting a
        single basic subdomain.
        """
        C_P = np.array([sub.diameter / math.pi for sub in decomp.basic])
        beta = np.empty(len(decomp.interfaces))
        for m, g in enumerate(decomp.interfaces):
            vals = []
            for side in (g.k, g.j):
                ext = decomp.basic[side].bbox[1] - decomp.basic[side].bbox[0]
                h2 = float(abs(ext @ g.normal))
                vals.append(poincare_edge_constant(h2) ** 2)
            beta[m] = beta_pair(math.sqrt(vals[0]), math.sqrt(vals[1]))
        counts = np.zeros(decomp.n_basic)
        for g in decomp.interfaces:
            counts[g.k] += 1
            counts[g.j] += 1
        E_max = float(counts.max()) if decomp.interfaces else 1.0
        return cls(C_min=problem.C_min, C_P=C_P, beta=beta, E_max=E_max)


def alpha_weights(eps, constants: MajorantConstants) -> tuple[float, float, float]:
    """The three weights a1, a2, a3 for a given eps triple."""
    e1, e2, e3 = (float(e) for e in eps)
    if min(e1, e2, e3) <= 0:
        raise ValueError("eps components must be positive")
    a1 = 1.0 + e1 + e2
    a2 = (1.0 + 1.0 / e1 + e3) * constants.C_P_max ** 2 / constants.C_min
    a3 = (1.0 / e2 + 1.0 / e3 + 1.0) * constants.E_max / constants.C_min
    return a1, a2, a3


@dataclass
class MajorantReport:
    """One evaluation of the majorant on a (v, y) pair."""

    total_sq: float
    M1_sq: float
    M2_sq: float
    M3_sq: float
    S1: np.ndarray               # per basic subdomain, unweighted
    S2: np.ndarray
    S3: np.ndarray               # per interface, unweighted jump norms
    eps: tuple
    alphas: tuple
    D11: float                   # eps-optimal structural bound
    residuals: ConstraintResiduals
    guaranteed: bool
    energy_err: Optional[float] = None   # attached by ``certify_iterate``

    @property
    def total(self) -> float:
        return math.sqrt(self.total_sq)

    @property
    def efficiency(self) -> float:
        err = self.energy_err
        return self.total / err if err > 0 else math.inf


def energy_error(mesh: TriMesh, A, grad_v: np.ndarray,
                 grad_u: np.ndarray) -> float:
    """Energy norm ||grad(u - v)||_A of the error of v, from its gradient
    ``grad_v`` (T, 2) and the exact gradient ``grad_u`` at the degree-5
    points (``problem.exact_grad_table``, (T, 7, 2)).  Four (T, 7) arrays
    are alive at most.
    """
    d0 = grad_u[..., 0] - grad_v[:, 0, None]            # (T, 7)
    d1 = grad_u[..., 1] - grad_v[:, 1, None]
    dens = quad_form(A, d0, d1)                         # d . A d
    _, w = quad_rule(5)
    # not ``@``, which OpenBLAS threads at these sizes (see ``linalg._dot``)
    val = (mesh.areas * np.einsum("tq,q->t", dens, w)).sum()
    return float(np.sqrt(max(val, 0.0)))


def _term_sums(S1, S2, S3, beta, constants):
    t1 = float(np.sum(S1))
    t2 = float(np.sum(S2)) * constants.C_P_max ** 2 / constants.C_min
    t3 = float(np.sum(beta ** 2 * S3)) * constants.E_max / constants.C_min
    return t1, t2, t3


def optimize_eps(S1, S2, S3, constants: MajorantConstants):
    """Closed-form minimizer of M^2 over the eps triple.

    With T1, T2, T3 the weighted sums, the optimum is
    e1 = sqrt(T2/T1), e2 = sqrt(T3/T1), e3 = sqrt(T3/T2), clamped to
    [1e-8, 1e8]; degenerate (zero) terms fall back to 1 for the affected
    ratios.
    """
    t1, t2, t3 = _term_sums(np.asarray(S1), np.asarray(S2), np.asarray(S3),
                            constants.beta, constants)

    def ratio(num, den):
        if num <= 0.0 and den <= 0.0:
            return 1.0
        if den <= 0.0:
            return EPS_MAX
        if num <= 0.0:
            return EPS_MIN
        return min(max(math.sqrt(num / den), EPS_MIN), EPS_MAX)

    return ratio(t2, t1), ratio(t3, t1), ratio(t3, t2)


def weighted_parts(S1, S2, S3, alphas,
                   constants: MajorantConstants) -> tuple[float, float, float]:
    """The parts a1 sum S1, a2 sum S2 and a3 sum beta^2 S3 of M^2."""
    return (alphas[0] * float(S1.sum()), alphas[1] * float(S2.sum()),
            alphas[2] * float(np.sum(constants.beta ** 2 * S3)))


def evaluate_majorant(y: BrokenFluxField, a_grad_v: np.ndarray,
                      problem: EllipticProblem,
                      constants: MajorantConstants,
                      f_tri: np.ndarray, f_sq_tri: np.ndarray,
                      eps=(1.0, 1.0, 1.0)) -> MajorantReport:
    """Evaluate the majorant of the energy error of v for flux candidate y,
    given the flux ``a_grad_v`` = A grad v of v per triangle (T, 2).

    ``f_tri``/``f_sq_tri`` hold the cell integrals of f and f^2.  The first
    term integrates exactly (midpoint rule on the fine triangles); the
    equilibration term expands (div y + f)^2 with those degree-5 integrals;
    jump terms are exact on each fine edge.  If the admissibility means
    exceed ``ADMISSIBILITY_TOL`` times 1 + max_t |int_t f| / min_t |t|, the
    report is flagged not guaranteed.  The report carries no energy error.
    """
    mesh = y.mesh
    decomp = y.decomp
    alphas = alpha_weights(eps, constants)

    # S1: || y - A grad v ||^2 with weight A^{-1}, per subdomain
    _, w = quad_rule(2)
    r = y.values()                                          # (T, 3, 2)
    r -= a_grad_v[:, None, :]
    dens = quad_form(problem.A_inv, r[..., 0], r[..., 1])   # r . A^-1 r
    per_tri_1 = mesh.areas * (dens @ w)
    S1 = np.bincount(decomp.tri_subdomain, per_tri_1, decomp.n_basic)

    # S2: || div y + f ||^2 = c^2 |t| + 2 c int f + int f^2 per triangle
    c = y.divergence()
    per_tri_2 = c ** 2 * mesh.areas + 2.0 * c * f_tri + f_sq_tri
    S2 = np.bincount(decomp.tri_subdomain, per_tri_2, decomp.n_basic)

    # S3: squared jump norms per interface; affine jumps integrate exactly
    res = constraint_residuals(y, f_tri)
    S3 = jump_norms_sq(decomp, res.jumps)

    M1_sq, M2_sq, M3_sq = weighted_parts(S1, S2, S3, alphas, constants)
    t1, t2, t3 = _term_sums(S1, S2, S3, constants.beta, constants)
    D11 = math.sqrt(t1) + math.sqrt(t2) + math.sqrt(t3)

    means = res.means
    tol = ADMISSIBILITY_TOL * (1.0 + float(np.abs(f_tri).max()
                                           / mesh.areas.min()))
    guaranteed = bool(np.all(np.abs(means.subdomain) <= tol)
                      and np.all(np.abs(means.interface) <= tol))

    return MajorantReport(M1_sq + M2_sq + M3_sq, M1_sq, M2_sq, M3_sq,
                          S1, S2, S3, tuple(float(e) for e in eps),
                          alphas, D11, means, guaranteed)
