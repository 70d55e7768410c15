import platform
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ddmcert import linalg
from ddmcert.linalg import (SaddleFactorization, SolverError,
                            SymmetricFactorization, dirichlet_correction,
                            projected_cg)


def random_spd(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    A = B @ B.T + (n if shift is None else shift) * np.eye(n)
    return A


def direct_solve(A, b):
    """SPD solve through the symmetric factorization."""
    return SymmetricFactorization(sp.csc_matrix(A)).solve(b)


def test_spd_identity():
    b = np.array([3.0, -1.0, 2.0])
    x = direct_solve(sp.eye(3), b)
    assert np.allclose(x, b)


def test_spd_two_by_two():
    A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
    x = direct_solve(A, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0])


def test_spd_against_dense_oracle():
    A = random_spd(50, seed=0)
    b = np.random.default_rng(1).standard_normal(50)
    x = direct_solve(A, b)
    assert np.linalg.norm(x - np.linalg.solve(A, b)) < 1e-10


def test_spd_residual_contract():
    A = random_spd(80, seed=5, shift=2.0)
    b = np.random.default_rng(6).standard_normal(80)
    x = direct_solve(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)


def test_spd_permutation_equivariance():
    # solving with permuted rows/columns permutes the solution
    A = random_spd(30, seed=8)
    b = np.random.default_rng(9).standard_normal(30)
    perm = np.random.default_rng(10).permutation(30)
    x = direct_solve(A, b)
    xp = direct_solve(A[np.ix_(perm, perm)], b[perm])
    assert np.allclose(xp, x[perm], atol=1e-9)


def test_saddle_hand_example():
    # minimize ||x||^2 subject to x1 + x2 = 2, stated with G = I
    # (stationarity x + lam*c = 0 at the optimum, hence lam = -1)
    fact = SaddleFactorization(sp.eye(2, format="csc"),
                               sp.csc_matrix(np.array([[1.0, 1.0]])))
    x, lam = fact.solve(np.zeros(2), np.array([2.0]))
    assert np.allclose(x, [1.0, 1.0])
    assert np.allclose(lam, [-1.0])


def test_symmetric_factorization_is_plain_solve():
    A = random_spd(10, seed=12)
    b = np.random.default_rng(13).standard_normal(10)
    x = SymmetricFactorization(sp.csc_matrix(A)).solve(b)
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-10)


def grid_laplacian(n):
    """Five-point Laplacian on an n x n grid of interior nodes (CSR)."""
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    return (sp.kron(T, sp.eye(n)) + sp.kron(sp.eye(n), T)).tocsr()


def test_symmetric_factorization_of_sparse_spd_against_dense_oracle():
    # fill-in and a nontrivial ordering, unlike a dense random matrix; the
    # solves are repeated on the one kept factor
    A = grid_laplacian(20)
    rng = np.random.default_rng(14)
    fact = SymmetricFactorization(A)
    for _ in range(3):
        b = rng.standard_normal(A.shape[0])
        x = fact.solve(b)
        ref = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
    assert np.all(fact.d > 0)


def spsolve_triangular_solve(B, b):
    """B x = b as ``SymmetricFactorization`` solved before it called
    ``gstrs`` itself: the same factor, two ``spsolve_triangular`` calls."""
    lu = spla.splu(sp.csc_matrix(B), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0, options=dict(SymmetricMode=True))
    perm, U = lu.perm_c.copy(), lu.U
    d = U.diagonal()
    U.data /= d[U.indices]
    U.sum_duplicates()
    z = spla.spsolve_triangular(U.T, b[np.argsort(perm)], lower=True,
                                unit_diagonal=True)
    z /= d
    y = spla.spsolve_triangular(U, z, lower=False, unit_diagonal=True)
    return y[perm]


def test_symmetric_solve_equals_the_spsolve_triangular_form():
    rng = np.random.default_rng(15)
    R = sp.random(300, 300, density=0.02, random_state=rng, format="csr")
    B = (R @ R.T + sp.diags(rng.uniform(1.0, 2.0, 300))).tocsc()
    fact = SymmetricFactorization(B)
    for _ in range(2):
        b = rng.standard_normal(300)
        assert np.array_equal(fact.solve(b), spsolve_triangular_solve(B, b))


def test_symmetric_factorization_keeps_no_superlu_object(monkeypatch):
    made = []
    splu = spla.splu

    def recording(*args, **kwargs):
        made.append(splu(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(spla, "splu", recording)
    fact = SymmetricFactorization(grid_laplacian(10))
    assert len(made) == 1
    lu = made.pop()
    # referenced only by ``lu`` and by the argument of getrefcount
    refs = sys.getrefcount(lu)
    assert refs == 2
    assert fact.solve(np.ones(100)).shape == (100,)


def test_factorizations_release_the_free_heap_first(monkeypatch):
    events = []
    splu = spla.splu

    def recording(*args, **kwargs):
        events.append("splu")
        return splu(*args, **kwargs)

    monkeypatch.setattr(linalg, "_release_free_heap",
                        lambda: events.append("release"))
    monkeypatch.setattr(spla, "splu", recording)
    SymmetricFactorization(grid_laplacian(4))
    SaddleFactorization(grid_laplacian(4), sp.csc_matrix(np.ones((1, 16))))
    assert events == ["release", "splu"] * 2


def test_free_heap_release_is_glibc_malloc_trim():
    if platform.libc_ver()[0] == "glibc":
        assert linalg._malloc_trim is not None
    linalg._release_free_heap()     # a no-op elsewhere


def test_indefinite_matrix_raises_solver_error():
    with pytest.raises(SolverError, match="not positive definite"):
        SymmetricFactorization(sp.csc_matrix([[1.0, 2.0], [2.0, 1.0]]))


def test_dirichlet_correction_solves_on_the_free_nodes():
    A = grid_laplacian(8)
    rng = np.random.default_rng(15)
    F = rng.standard_normal(A.shape[0])
    x = rng.standard_normal(A.shape[0])
    free = np.sort(rng.choice(A.shape[0], 40, replace=False))
    fact = SymmetricFactorization(A[free][:, free])
    x[free] += dirichlet_correction(fact, A, F, x, free)
    assert np.linalg.norm((A @ x - F)[free]) <= 1e-12 * np.linalg.norm(F)


def test_saddle_against_dense_kkt_oracle():
    G = random_spd(30, seed=20)
    rng = np.random.default_rng(21)
    C = rng.standard_normal((5, 30))
    b = rng.standard_normal(30)
    d = rng.standard_normal(5)
    kkt = np.block([[G, C.T], [C, np.zeros((5, 5))]])
    z = np.linalg.solve(kkt, np.concatenate([b, d]))
    x, lam = SaddleFactorization(sp.csc_matrix(G),
                                 sp.csc_matrix(C)).solve(b, d)
    assert np.linalg.norm(x - z[:30]) < 1e-9
    assert np.linalg.norm(lam - z[30:]) < 1e-9
    assert np.linalg.norm(C @ x - d) < 1e-10


def test_saddle_rank_deficiency_reported():
    G = sp.eye(4, format="csc")
    C = sp.csc_matrix(np.array([[1.0, 0.0, 0.0, 0.0],
                                [2.0, 0.0, 0.0, 0.0],    # duplicate direction
                                [0.0, 1.0, 0.0, 0.0]]))
    with pytest.raises(SolverError, match="rank deficient"):
        SaddleFactorization(G, C)


def test_singular_block_raises_solver_error():
    with pytest.raises(SolverError, match="breakdown"):
        SymmetricFactorization(sp.csc_matrix((3, 3)))


def test_non_finite_rhs_raises_solver_error():
    # above 10,000 entries, where BLAS would split a dot product over threads
    n = 12_000
    K = sp.identity(n, format="csr")
    free = np.arange(n)
    fact = SymmetricFactorization(K)
    F = np.ones(n)
    assert np.array_equal(dirichlet_correction(fact, K, F, np.zeros(n), free),
                          F)
    F[-1] = np.nan
    with pytest.raises(SolverError, match="residual"):
        dirichlet_correction(fact, K, F, np.zeros(n), free)


def test_non_finite_kkt_rhs_raises_solver_error():
    n = 12_000
    fact = SaddleFactorization(sp.identity(n, format="csc"),
                               sp.csc_matrix(np.eye(1, n)))
    b = np.ones(n)
    b[-1] = np.nan
    with pytest.raises(SolverError, match="residual"):
        fact.solve(b, np.ones(1))


# ---------------------------------------------------------------------------
# projected_cg
# ---------------------------------------------------------------------------


def constrained_problem(n=40, m=5, seed=30):
    """SPD G, independent constraint rows C, b, d, the dense KKT solution
    and a feasible start."""
    rng = np.random.default_rng(seed)
    G = random_spd(n, seed=seed)
    C = rng.standard_normal((m, n))
    b = rng.standard_normal(n)
    d = rng.standard_normal(m)
    z = np.linalg.solve(np.block([[G, C.T], [C, np.zeros((m, m))]]),
                        np.concatenate([b, d]))
    x0 = np.linalg.lstsq(C, d, rcond=None)[0]
    return sp.csr_matrix(G), sp.csr_matrix(C), b, d, z[:n], z[n:], x0


def kkt_factor(G, C):
    return SaddleFactorization(sp.csc_matrix(G), sp.csc_matrix(C))


def tight_gap(G, x_ref):
    """A stop gap far below what the accuracy asserts need."""
    return 1e-24 * float(x_ref @ (G @ x_ref))


def test_projected_cg_matches_dense_kkt_and_keeps_constraints():
    G, C, b, d, x_ref, lam_ref, x0 = constrained_problem()
    # a preconditioner with a different leading block
    G_P = G + sp.diags(np.linspace(1.0, 40.0, G.shape[0]))
    x, lam, its = projected_cg(G, b, x0, kkt_factor(G_P, C), C,
                               tight_gap(G, x_ref), maxiter=100)
    assert 1 < its <= G.shape[0] - C.shape[0]
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert np.linalg.norm(lam - lam_ref) <= 1e-10 * np.linalg.norm(lam_ref)
    assert np.linalg.norm(C @ x - d) <= 1e-12


def test_projected_cg_with_the_exact_factor_takes_at_most_one_step():
    G, C, b, d, x_ref, _, x0 = constrained_problem(seed=31)
    fact = kkt_factor(G, C)
    x, _, its = projected_cg(G, b, x0, fact, C, tight_gap(G, x_ref),
                             maxiter=25)
    assert its <= 1
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_projected_cg_restart_from_its_own_output_takes_at_most_one_step():
    # the stop is tested before the first step: a start already within the
    # gap takes none
    G, C, b, d, x_ref, _, x0 = constrained_problem(seed=31)
    gap = tight_gap(G, x_ref)
    for G_P in (G, 2.0 * G):
        fact = kkt_factor(G_P, C)
        x, _, _ = projected_cg(G, b, x0, fact, C, gap, maxiter=25)
        x2, _, its = projected_cg(G, b, x, fact, C, gap, maxiter=25)
        assert its == 0
        assert np.array_equal(x2, x)
        assert np.linalg.norm(x2 - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        assert np.linalg.norm(C @ x2 - d) <= 1e-12


def test_projected_cg_stop_bounds_the_energy_error():
    # mu G_P <= G, so the stop r'g <= gap leaves e'G e <= gap / mu
    G, C, b, d, x_ref, _, x0 = constrained_problem(seed=33)
    G_P = G + sp.diags(np.linspace(1.0, 40.0, G.shape[0]))
    mu = scipy.linalg.eigh(G.toarray(), G_P.toarray(), eigvals_only=True)[0]
    for rel in (1e-4, 1e-8, 1e-12):
        gap = rel * float(x_ref @ (G @ x_ref))
        x, _, its = projected_cg(G, b, x0, kkt_factor(G_P, C), C, gap,
                                 maxiter=100)
        e = x - x_ref
        assert its >= 1
        assert float(e @ (G @ e)) <= gap / mu
        assert np.linalg.norm(C @ x - d) <= 1e-12


def test_projected_cg_raises_when_the_cap_is_hit():
    G, C, b, d, x_ref, _, x0 = constrained_problem(seed=32)
    G_P = G + sp.diags(np.linspace(1.0, 40.0, G.shape[0]))
    with pytest.raises(SolverError, match="did not converge"):
        projected_cg(G, b, x0, kkt_factor(G_P, C), C, tight_gap(G, x_ref),
                     maxiter=2)
