import numpy as np
import pytest
import scipy.sparse as sp

from ddmcert.linalg import SaddleFactorization, SolverError, projected_cg


def random_spd(n, seed, shift=None):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    A = B @ B.T + (n if shift is None else shift) * np.eye(n)
    return A


def direct_solve(A, b):
    """SPD solve through the constraint-free factorization."""
    A = sp.csc_matrix(A)
    x, lam = SaddleFactorization(A, sp.csc_matrix((0, A.shape[0]))).solve(b)
    assert lam.size == 0
    return x


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


def test_saddle_without_constraints_is_plain_solve():
    A = random_spd(10, seed=12)
    b = np.random.default_rng(13).standard_normal(10)
    fact = SaddleFactorization(sp.csc_matrix(A), sp.csc_matrix((0, 10)))
    x, lam = fact.solve(b, np.zeros(0))
    assert lam.size == 0
    assert np.allclose(x, np.linalg.solve(A, b), atol=1e-10)


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
        SaddleFactorization(sp.csc_matrix((3, 3)), sp.csc_matrix((0, 3)))


def test_non_finite_rhs_raises_solver_error():
    # above 10,000 entries, where BLAS would split a dot product over threads
    n = 12_000
    fact = SaddleFactorization(sp.identity(n, format="csc"),
                               sp.csc_matrix((0, n)))
    b = np.ones(n)
    assert np.array_equal(fact.solve(b)[0], b)
    b[-1] = np.nan
    with pytest.raises(SolverError, match="residual"):
        fact.solve(b)


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


def test_projected_cg_matches_dense_kkt_and_keeps_constraints():
    G, C, b, d, x_ref, lam_ref, x0 = constrained_problem()
    # a preconditioner with a different leading block
    G_P = G + sp.diags(np.linspace(1.0, 40.0, G.shape[0]))
    x, lam, its = projected_cg(G, b, x0, kkt_factor(G_P, C), C,
                               rtol=1e-24, maxiter=100)
    assert 1 < its <= G.shape[0] - C.shape[0]
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert np.linalg.norm(lam - lam_ref) <= 1e-10 * np.linalg.norm(lam_ref)
    assert np.linalg.norm(C @ x - d) <= 1e-12


def test_projected_cg_with_the_exact_factor_takes_at_most_one_step():
    G, C, b, d, x_ref, _, x0 = constrained_problem(seed=31)
    fact = kkt_factor(G, C)
    x, _, its = projected_cg(G, b, x0, fact, C, rtol=1e-20, maxiter=25)
    assert its <= 1
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_projected_cg_restart_from_its_own_output_takes_at_most_one_step():
    # at a converged x, r'g is roundoff, which r'g <= rtol r0'g0 cannot
    # reduce: without the floor this restart runs 17 steps
    G, C, b, d, x_ref, _, x0 = constrained_problem(seed=31)
    for G_P in (G, 2.0 * G):
        fact = kkt_factor(G_P, C)
        x, _, _ = projected_cg(G, b, x0, fact, C, rtol=1e-20, maxiter=25)
        x2, _, its = projected_cg(G, b, x, fact, C, rtol=1e-20, maxiter=25)
        assert its <= 1
        assert np.linalg.norm(x2 - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        assert np.linalg.norm(C @ x2 - d) <= 1e-12


def test_projected_cg_raises_when_the_cap_is_hit():
    G, C, b, d, _, _, x0 = constrained_problem(seed=32)
    G_P = G + sp.diags(np.linspace(1.0, 40.0, G.shape[0]))
    with pytest.raises(SolverError, match="did not converge"):
        projected_cg(G, b, x0, kkt_factor(G_P, C), C, rtol=1e-20,
                     maxiter=2)
