"""Solver kernel: sparse direct factorization of symmetric systems.

Two kinds of factorization are made.  A ``SymmetricFactorization`` of each
Schwarz subdomain block is made once per run by ``schwarz.run_schwarz``
(and of the whole interior by ``problem.solve_dirichlet``); every
``dirichlet_correction`` solves with one, by two calls of SuperLU's
triangular solve ``gstrs`` on the kept unit factor.  A
``SaddleFactorization`` of the corrector KKT system is made by
``flux.CorrectorSolver``.  ``projected_cg`` solves a KKT system whose
leading block differs from a factorized one's: conjugate gradients in the
null space of the constraints, preconditioned by that factorization.  It
stops on an absolute test, r'g <= ``gap``, which its caller sets from the
bound on the G-norm error that it wants to certify.
"""

from __future__ import annotations

import ctypes

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._dsolve._superlu import gstrs

RANK_TOL = 1e-12     # relative pivot size below which constraint rows fold
RESID_TOL = 1e-10    # residual bound of a solve, relative to 1 + ||rhs||


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


try:        # glibc's; with other C libraries the heap is left as it is
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _release_free_heap() -> None:
    """Return the C heap's free pages to the OS before a factorization.

    SuperLU's arrays otherwise land in free heap blocks, resident or not,
    as the heap's layout falls, and that layout differs between runs: the
    peak RSS of ``run --h 1/64 --sweeps 16 --eps opt`` read 148 or 159 MB.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


class SolverError(RuntimeError):
    """Solver failure; carries the achieved residual when available."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class SymmetricFactorization:
    """LDL' factorization of a sparse symmetric positive-definite matrix B,
    reusable across right-hand sides (Davis, Direct Methods for Sparse
    Linear Systems, SIAM 2006).

    One ``splu`` in SuperLU's symmetric mode (a minimum-degree ordering of
    B + B', diagonal pivots) gives B[q][:, q] = L U with U = D L'.  Only the
    permutation, the pivots d and the unit upper factor L' = D^{-1} U are
    kept, half of SuperLU's L + U; the SuperLU object and B are dropped.
    SolverError on breakdown, on an off-diagonal pivot or on a pivot <= 0.
    """

    def __init__(self, B):
        _release_free_heap()
        try:
            lu = spla.splu(sp.csc_matrix(B), permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=0,
                           options=dict(SymmetricMode=True))
        except RuntimeError as exc:
            raise SolverError(
                f"symmetric factorization breakdown: {exc}") from exc
        if not np.array_equal(lu.perm_r, lu.perm_c):
            raise SolverError(
                "symmetric factorization breakdown: off-diagonal pivot")
        # a copy: ``perm_c`` is a view that would keep the SuperLU object
        # alive; it is released before U is scaled
        self._perm = lu.perm_c.copy()
        U = lu.U
        del lu
        self.d = U.diagonal()
        if not np.all(self.d > 0):
            raise SolverError(
                f"matrix is not positive definite: pivot {self.d.min():.3e}")
        U.data /= self.d[U.indices]
        # canonical order, and a stored zero diagonal: with the identity as
        # its L, ``gstrs`` then solves with the unit factor, the form that
        # ``spla.spsolve_triangular`` passes it
        U.sum_duplicates()
        U.setdiag(0.0)
        self._upper = _superlu_csc(U)
        self._identity = _superlu_csc(sp.identity(U.shape[0], format="csc"))
        self._inv_perm = np.argsort(self._perm)

    def solve(self, b) -> np.ndarray:
        """x with B x = b, by two unit triangular solves and a scaling.

        Both are SuperLU's ``gstrs`` with the kept identity and factor,
        transposed for the lower solve: the kernel that
        ``spla.spsolve_triangular`` wraps, without the copy of the diagonal
        and the identity that it makes per call.
        """
        z, _ = gstrs("T", *self._identity, *self._upper, b[self._inv_perm])
        z /= self.d
        y, _ = gstrs("N", *self._identity, *self._upper, z)
        return y[self._perm]


def _superlu_csc(A) -> tuple:
    """A csc matrix as the (n, nnz, data, indices, indptr) of ``gstrs``."""
    return (A.shape[0], A.nnz, A.data, A.indices.astype(np.intc, copy=False),
            A.indptr.astype(np.intc, copy=False))


class SaddleFactorization:
    """LU factorization of [[G, C'], [C, 0]], reusable across right-hand sides.

    The leading block must be nonsingular and the constraint rows, of which
    there is at least one, independent.
    """

    def __init__(self, G, C):
        G = G.tocsc()
        C = sp.csc_matrix(C)
        self.n = G.shape[0]
        self.m = C.shape[0]
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
        _release_free_heap()
        try:
            # every matrix factorized here is symmetric
            self._lu = spla.splu(kkt, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(f"saddle factorization breakdown: {exc}") from exc
        self._kkt = kkt

    def solve(self, b, d):
        """(x, lam) with G x + C' lam = b and C x = d."""
        rhs = np.concatenate([b, d])
        z = self._lu.solve(rhs)
        _check_residual(self._kkt @ z - rhs, rhs, "saddle solve")
        return z[:self.n], z[self.n:]


def _check_residual(resid_vec, rhs, what):
    """SolverError unless the residual is finite and within ``RESID_TOL``."""
    resid = _norm(resid_vec)
    if not np.isfinite(resid) or resid > RESID_TOL * (1.0 + _norm(rhs)):
        raise SolverError(f"{what} residual {resid:.3e} exceeds tolerance",
                          residual=resid)


def dirichlet_correction(fact: SymmetricFactorization, K, F, x,
                         free) -> np.ndarray:
    """The change of x on the indices ``free`` that solves K x = F there,
    every other value held fixed; ``fact`` factorizes K restricted to
    ``free``.  The residual is checked through K, so that no copy of that
    block needs to be kept."""
    r = (F - K @ x)[free]
    delta = fact.solve(r)
    step = np.zeros(len(x))
    step[free] = delta
    _check_residual((K @ step)[free] - r, r, "Dirichlet correction")
    return delta


def projected_cg(G, b, x0, fact: SaddleFactorization, C, gap: float,
                 maxiter: int):
    """(x, lam, iterations) solving [[G, C'], [C, 0]] [x; lam] = [b; d]
    from an ``x0`` with C x0 = d, by conjugate gradients in the null space
    of C preconditioned with the factorized [[G_P, C'], [C, 0]] ``fact``
    (Gould, Hribar & Nocedal, SIAM J. Sci. Comput. 23(4), 2001).

    Every step lies in the null space of C, so C x = d holds as it did at
    x0.  After each preconditioner solve the residual r = G x - b drops the
    part C'w that the solve's multiplier w attributes to the constraints;
    without this residual update the steps drift off the null space at tight
    tolerances.

    Stops once r'g <= ``gap``, g the preconditioned residual: an absolute
    energy-norm stop (Arioli, Numer. Math. 97, 2004).  With mu G_P <= G on
    the null space, the error e of x then has e'G e <= r'g / mu.  The test
    runs before the first step too, so a start within the gap takes none.
    SolverError if the stop takes more than ``maxiter`` steps, so an
    unconverged x is never returned.
    """
    x = np.array(x0, dtype=float)
    r = G @ x - b
    g, w = fact.solve(r, np.zeros(fact.m))
    r -= C.T @ w
    lam = -w
    rg = _dot(r, g)
    p = -g
    it = 0
    while rg > gap:
        if it == maxiter:
            raise SolverError(
                f"projected CG did not converge in {maxiter} iterations "
                f"(r'g {rg:.3e}, not {gap:.3e})", residual=rg)
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
