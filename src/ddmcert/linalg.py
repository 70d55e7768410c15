"""Solver kernel: sparse direct factorization of symmetric systems.

Every linear solve in the package goes through ``SaddleFactorization``: the
corrector KKT system, and, as its constraint-free case, the SPD subdomain
and Dirichlet blocks.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

RANK_TOL = 1e-12     # relative pivot size below which constraint rows fold
RESID_TOL = 1e-10    # residual bound of a solve, relative to 1 + ||rhs||


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector, summed without BLAS.

    ``np.linalg.norm`` calls BLAS ``ddot``, which OpenBLAS splits across
    threads above 10,000 entries; the woken worker then spins for about
    0.1 s after the call returns, next to the single-threaded factorization
    that follows.  The residual check only needs the value, so it is kept
    on the calling thread.
    """
    return float(np.sqrt(np.einsum("i,i->", x, x)))


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
