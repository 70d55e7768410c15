"""Solver kernel: sparse direct factorization of symmetric systems.

Every factorization is a ``SaddleFactorization``, made in two places:
``flux.CorrectorSolver`` for the corrector KKT system, and its constraint-free
case ``dirichlet_correction`` for every Dirichlet solve.  ``projected_cg``
solves a KKT system whose leading block differs from a factorized one's:
conjugate gradients in the null space of the constraints, preconditioned by
that factorization.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RANK_TOL = 1e-12     # relative pivot size below which constraint rows fold
RESID_TOL = 1e-10    # residual bound of a solve, relative to 1 + ||rhs||
# A start x0 whose r0'g0 is at most PCG_FLOOR x0'G x0 already solves the
# system to about 13 digits in the G-norm; CG then takes no step, since
# r'g <= rtol r0'g0 is below what roundoff in r lets it reach.
PCG_FLOOR = 1e-26


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """Dot product of two vectors, summed without BLAS.

    ``np.linalg.norm`` and ``x @ y`` call BLAS ``ddot``, which OpenBLAS
    splits across threads above 10,000 entries; the woken worker then spins
    for about 0.1 s after the call returns, next to the single-threaded
    factorization that follows.  Residual checks and CG coefficients only
    need the value, so it is kept on the calling thread.
    """
    return float(np.einsum("i,i->", x, y))


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector, summed without BLAS (see ``_dot``)."""
    return float(np.sqrt(_dot(x, x)))


class SolverError(RuntimeError):
    """Solver failure; carries the achieved residual when available."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SaddleFactorization:
    """LU factorization of [[G, C'], [C, 0]], reusable across right-hand sides.

    The leading block must be nonsingular and the constraint rows
    independent; with no constraint rows (``C`` of shape (0, n)) this is a
    plain factorization of ``G``.
    """

    def __init__(self, G, C):
        G = G.tocsc()
        C = sp.csc_matrix(C)
        self.n = G.shape[0]
        self.m = C.shape[0]
        if self.m:
            # Constraint rows must be independent; detect deficiency by a
            # pivoted QR of C' and report the constraints that fold.
            _, R, piv = scipy.linalg.qr(C.T.toarray(), mode="economic",
                                        pivoting=True)
            diag = np.abs(np.diag(R))
            thresh = RANK_TOL * max(diag[0], 1e-300)
            rank = int((diag > thresh).sum())
            if rank < self.m:
                bad = sorted(int(i) for i in piv[rank:])
                raise SolverError(
                    f"constraint block is rank deficient (rank {rank} of "
                    f"{self.m}); redundant constraint indices {bad}")
            kkt = sp.bmat([[G, C.T], [C, None]], format="csc")
        else:
            kkt = G
        try:
            # every matrix factorized here is symmetric
            self._lu = spla.splu(kkt, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(f"saddle factorization breakdown: {exc}") from exc
        self._kkt = kkt

    def solve(self, b, d=()):
        """Return (x, lam); lam is empty when there are no constraints."""
        rhs = np.concatenate([b, d]) if self.m else np.asarray(b, dtype=float)
        z = self._lu.solve(rhs)
        resid = _norm(self._kkt @ z - rhs)
        if not np.isfinite(resid) or resid > RESID_TOL * (1.0 + _norm(rhs)):
            raise SolverError(
                f"saddle solve residual {resid:.3e} exceeds tolerance",
                residual=resid)
        return z[:self.n], z[self.n:]


def dirichlet_correction(block, K, F, x, free) -> np.ndarray:
    """The change of x on the indices ``free`` that solves K x = F there,
    every other value held fixed; ``block`` is K restricted to ``free``."""
    r = (F - K @ x)[free]
    fact = SaddleFactorization(block, sp.csc_matrix((0, len(free))))
    return fact.solve(r)[0]


def projected_cg(G, b, x0, fact: SaddleFactorization, C, rtol: float,
                 maxiter: int):
    """(x, lam, iterations) solving [[G, C'], [C, 0]] [x; lam] = [b; d]
    from an ``x0`` with C x0 = d, by conjugate gradients in the null space
    of C preconditioned with the factorized [[G_P, C'], [C, 0]] ``fact``
    (Gould, Hribar & Nocedal, SIAM J. Sci. Comput. 23(4), 2001).

    Every step lies in the null space of C, so C x = d holds as it did at
    x0.  After each preconditioner solve the residual r = G x - b drops the
    part C'w that the solve's multiplier w attributes to the constraints;
    without this residual update the steps drift off the null space at tight
    tolerances.  Stops once r'g <= rtol r0'g0, g the preconditioned
    residual, or at once if r0'g0 <= ``PCG_FLOOR`` x0'G x0; SolverError if
    that takes more than ``maxiter`` steps, so an unconverged x is never
    returned.
    """
    x = np.array(x0, dtype=float)
    r = G @ x - b
    start_sq = _dot(x, r) + _dot(x, b)      # x0'G x0
    g, w = fact.solve(r, np.zeros(fact.m))
    r -= C.T @ w
    lam = -w
    rg = rg0 = _dot(r, g)
    if rg0 <= PCG_FLOOR * start_sq:
        return x, lam, 0
    p = -g
    it = 0
    while rg > rtol * rg0:
        if it == maxiter:
            raise SolverError(
                f"projected CG did not converge in {maxiter} iterations "
                f"(r'g at {rg / rg0:.3e} of its start, not {rtol:.0e})",
                residual=rg)
        it += 1
        Gp = G @ p
        step = rg / _dot(p, Gp)
        x += step * p
        r += step * Gp
        g, w = fact.solve(r, np.zeros(fact.m))
        r -= C.T @ w
        lam -= w
        rg, rg_old = _dot(r, g), rg
        p = (rg / rg_old) * p - g
    return x, lam, it
