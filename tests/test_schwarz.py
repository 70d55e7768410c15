import numpy as np
import pytest
import scipy.sparse.linalg as spla

from ddmcert.linalg import SolverError, SymmetricFactorization
from ddmcert.mesh import build_lshape_mesh, build_rect_mesh
from ddmcert.problem import (EllipticProblem, assemble_load,
                             assemble_stiffness, manufactured_lshape_problem,
                             solve_dirichlet)
from ddmcert.schwarz import interior_nodes, run_schwarz

from _discrete import contraction, contraction_estimate, run_to_discrete
from _iterate import error_of


@pytest.fixture(scope="module")
def problem():
    return manufactured_lshape_problem()


def test_single_subdomain_is_direct_solve(problem):
    mesh, decomp = build_rect_mesh(4, 4, 0.25)
    run = run_to_discrete(mesh, decomp, problem, 2)
    K = assemble_stiffness(mesh, problem.A)
    F = assemble_load(mesh, problem.f)
    bdry = mesh.boundary_vertices
    vh = solve_dirichlet(mesh, K, F, bdry, problem.u_g(mesh.vertices[bdry]))
    assert np.allclose(run.v.values, vh.values, atol=1e-9)
    # idempotent: the second sweep changed nothing
    assert run.errors[1] <= 1e-10


def test_multiplicative_monotone_distance(problem):
    mesh, decomp = build_lshape_mesh(0.25)
    dists = run_to_discrete(mesh, decomp, problem, 16).errors
    assert len(dists) == 16
    for a, b in zip(dists, dists[1:]):
        assert b <= a * (1 + 1e-12)
    assert dists[-1] < 1e-9 * dists[0]


def test_energy_error_decreases_along_iteration(problem):
    # qualitative progression over sweeps 2, 4, 6, 8
    mesh, decomp = build_lshape_mesh(0.25)
    errs = {}

    def cb(n, v):
        if n in (2, 4, 6, 8):
            errs[n] = error_of(v, problem)

    run_schwarz(mesh, decomp, problem, "multiplicative", 8, on_sweep=cb)
    seq = [errs[n] for n in (2, 4, 6, 8)]
    assert all(b <= a for a, b in zip(seq, seq[1:]))


def test_conformity_and_boundary_data(problem):
    mesh, decomp = build_lshape_mesh(1 / 8)
    v = run_schwarz(mesh, decomp, problem, "multiplicative", 3)
    bdry = mesh.boundary_vertices
    assert np.allclose(v.values[bdry], problem.u_g(mesh.vertices[bdry]))


def recording_corrections(monkeypatch):
    """The index sets of every Dirichlet correction made from now on."""
    import ddmcert.linalg

    corrected = []
    correction = ddmcert.linalg.dirichlet_correction

    def recording(fact, K, F, x, free):
        corrected.append(np.array(free))
        return correction(fact, K, F, x, free)

    monkeypatch.setattr(ddmcert.linalg, "dirichlet_correction", recording)
    return corrected


def test_sweep_is_one_subdomain_solve(problem, monkeypatch):
    # replay sweep 2 by hand: solve on Omega_2 with trace data from sweep 1
    mesh, decomp = build_lshape_mesh(0.25)
    corrected = recording_corrections(monkeypatch)
    iterates = {}

    def keep(n, v):
        iterates[n] = v.values.copy()

    v2 = run_schwarz(mesh, decomp, problem, "multiplicative", 2,
                     on_sweep=keep)
    assert sorted(iterates) == [1, 2]
    assert np.array_equal(iterates[2], v2.values)
    assert len(corrected) == 2
    assert np.array_equal(corrected[0], interior_nodes(mesh, decomp, 0))
    assert np.array_equal(corrected[1], interior_nodes(mesh, decomp, 1))

    K = assemble_stiffness(mesh, problem.A)
    F = assemble_load(mesh, problem.f)
    inner = interior_nodes(mesh, decomp, 1)
    fixed = np.setdiff1d(np.arange(mesh.n_vertices), inner)
    replay = solve_dirichlet(mesh, K, F, fixed, iterates[1][fixed])
    assert np.allclose(replay.values, v2.values, atol=1e-9)
    # the interface trace was last written by the Omega_2 solve
    g23 = decomp.interfaces[1]
    verts = np.unique(mesh.edges[g23.edges])
    assert np.allclose(v2.values[verts], replay.values[verts], atol=1e-9)


def test_fine_subdomain_block_solve_does_not_stall(problem):
    # h = 1/128 Omega_1 block with the load vector as right-hand side; a
    # Jacobi-PCG solve at relative tolerance 1e-12 stalls near 2e-6 here
    mesh, decomp = build_lshape_mesh(1 / 128)
    K = assemble_stiffness(mesh, problem.A)
    idx = interior_nodes(mesh, decomp, 0)
    b = assemble_load(mesh, problem.f)[idx]
    block = K[idx][:, idx]
    x = SymmetricFactorization(block).solve(b)
    assert np.linalg.norm(block @ x - b) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("mode", ["multiplicative", "additive"])
def test_one_factorization_per_subdomain_per_run(problem, monkeypatch, mode):
    made = []
    init = SymmetricFactorization.__init__

    def counted(self, B):
        made.append(B.shape[0])
        init(self, B)

    monkeypatch.setattr(SymmetricFactorization, "__init__", counted)
    mesh, decomp = build_lshape_mesh(0.25)
    for sweeps in (2, 6):
        made.clear()
        run_schwarz(mesh, decomp, problem, mode, sweeps)
        assert len(made) == decomp.n_overlap


def anisotropic_problem():
    """A non-diagonal coefficient, so that the blocks are not those of the
    Laplacian."""
    return EllipticProblem(A=[[2.0, 0.7], [0.7, 1.3]],
                           f=lambda p: 1.0 + p[..., 0] * p[..., 1],
                           u_g=lambda p: p[..., 0] - 0.5 * p[..., 1])


@pytest.mark.parametrize("mode", ["multiplicative", "additive"])
def test_kept_factors_match_refactorizing_every_sweep(mode):
    # the reference makes a fresh general sparse LU of the block in every
    # sweep, as the sweeps did before the factors were kept
    prob = anisotropic_problem()
    mesh, decomp = build_lshape_mesh(1 / 16)
    sweeps = 6
    seen = []
    run_schwarz(mesh, decomp, prob, mode, sweeps,
                on_sweep=lambda n, v: seen.append(v.values.copy()))

    K = assemble_stiffness(mesh, prob.A)
    F = assemble_load(mesh, prob.f)
    bdry = mesh.boundary_vertices
    v = np.zeros(mesh.n_vertices)
    v[bdry] = prob.u_g(mesh.vertices[bdry])
    idx_sets = [interior_nodes(mesh, decomp, j)
                for j in range(decomp.n_overlap)]

    def fresh_solve(j, x):
        idx = idx_sets[j]
        return spla.spsolve(K[idx][:, idx].tocsc(), (F - K @ x)[idx])

    for n in range(1, sweeps + 1):
        if mode == "multiplicative":
            j = (n - 1) % decomp.n_overlap
            v[idx_sets[j]] += fresh_solve(j, v)
        else:
            pre = v.copy()
            for j, idx in enumerate(idx_sets):
                v[idx] = pre[idx] + fresh_solve(j, pre)
        scale = np.abs(v).max()
        assert np.abs(seen[n - 1] - v).max() <= 1e-12 * scale


def test_subdomain_factorization_failure_is_typed(problem):
    # a negative definite coefficient, set past the problem's own check,
    # makes the first block's first pivot negative
    mesh, decomp = build_lshape_mesh(0.25)
    bad = manufactured_lshape_problem()
    bad.A = -bad.A
    with pytest.raises(SolverError, match="subdomain factorization failed "
                       "on Omega_1: matrix is not positive definite"):
        run_schwarz(mesh, decomp, bad, "multiplicative", 2)


def test_additive_mode_runs_and_is_deterministic(problem):
    mesh, decomp = build_lshape_mesh(0.25)
    a = run_to_discrete(mesh, decomp, problem, 6, mode="additive")
    b = run_schwarz(mesh, decomp, problem, "additive", 6)
    assert np.array_equal(a.v.values, b.values)
    dists = a.errors
    assert dists[-1] < 1e-3 * dists[0]


def test_run_does_not_solve_the_global_system(problem, monkeypatch):
    import ddmcert.problem

    def refuse(*args, **kwargs):
        raise AssertionError("run_schwarz solved the global system")

    monkeypatch.setattr(ddmcert.problem, "solve_dirichlet", refuse)
    # the sweeps share the Dirichlet correction with solve_dirichlet, so
    # also check the nodes each correction is made on
    corrected = recording_corrections(monkeypatch)
    mesh, decomp = build_lshape_mesh(0.25)
    n_interior = int((~mesh.boundary_vertex_mask).sum())
    sweeps = 4
    # sweep n corrects Omega_j, j = (n - 1) mod 2, or both in index order
    expected = {"multiplicative": [(n - 1) % 2 for n in range(1, sweeps + 1)],
                "additive": [0, 1] * sweeps}
    for mode, swept in expected.items():
        corrected.clear()
        seen = []
        run_schwarz(mesh, decomp, problem, mode, sweeps,
                    on_sweep=lambda n, v: seen.append(n))
        assert seen == list(range(1, sweeps + 1))
        assert len(corrected) == len(swept)
        for j, free in zip(swept, corrected):
            assert np.array_equal(free, interior_nodes(mesh, decomp, j))
            assert len(free) < n_interior


def test_config_validation(problem):
    mesh, decomp = build_lshape_mesh(0.25)
    with pytest.raises(ValueError, match="mode"):
        run_schwarz(mesh, decomp, problem, "bogus", 2)
    with pytest.raises(ValueError, match="sweeps"):
        run_schwarz(mesh, decomp, problem, "multiplicative", 0)


def test_contraction_exact_sequence():
    est = contraction_estimate([1.0, 0.25, 0.0625])
    assert np.isclose(est.rho_hat, 0.25)
    assert np.allclose(est.ratios, [0.25, 0.25])
    assert not est.floored


def test_contraction_floor_flag():
    est = contraction_estimate([1e-16, 1e-16, 1e-16], floor=1e-12)
    assert est.rho_hat == 0.0 and est.floored
    with pytest.raises(ValueError):
        contraction_estimate([1.0, 0.5])


@pytest.mark.parametrize("h,lo,hi", [(1 / 8, 0.20, 0.25),
                                     (1 / 16, 0.25, 0.30)])
def test_contraction_regression(problem, h, lo, hi):
    mesh, decomp = build_lshape_mesh(h)
    run = run_to_discrete(mesh, decomp, problem, 10)
    est = contraction(run)
    assert est.rho_hat < 1.0
    assert lo < est.rho_hat < hi
    # endpoint identity of the geometric-mean estimate
    dists = run.errors
    n = len(dists) - 1
    assert np.isclose(dists[-1], dists[0] * est.rho_hat ** n, rtol=1e-9)
