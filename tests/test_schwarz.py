import numpy as np
import pytest
import scipy.sparse as sp

from ddmcert.linalg import SaddleFactorization
from ddmcert.mesh import build_lshape_mesh, build_rect_grid_decomposition
from ddmcert.problem import (assemble_load, assemble_stiffness, energy_error,
                             manufactured_lshape_problem, solve_dirichlet)
from ddmcert.schwarz import (SchwarzConfig, contraction_estimate,
                             interior_nodes, run_schwarz)


@pytest.fixture(scope="module")
def problem():
    return manufactured_lshape_problem()


def test_single_subdomain_is_direct_solve(problem):
    mesh, decomp, _ = build_rect_grid_decomposition(4, 4, 0.25,
                                                    dirichlet_boundary=True)
    state = run_schwarz(mesh, decomp, problem, SchwarzConfig(sweeps=2))
    system = assemble_stiffness(mesh, problem.A)
    system.rhs[:] = assemble_load(mesh, problem.f)
    bdry = mesh.boundary_vertices
    vh = solve_dirichlet(system, bdry, problem.u_g(mesh.vertices[bdry]))
    assert np.allclose(state.v.values, vh.values, atol=1e-9)
    # idempotent: the second sweep changed nothing
    assert state.history[1].error_to_discrete <= 1e-10


def test_multiplicative_monotone_distance(problem):
    mesh, decomp = build_lshape_mesh(0.25)
    state = run_schwarz(mesh, decomp, problem, SchwarzConfig(sweeps=16))
    dists = state.discrete_errors()
    assert len(dists) == 16
    for a, b in zip(dists, dists[1:]):
        assert b <= a * (1 + 1e-12)
    assert dists[-1] < 1e-9 * dists[0]


def test_energy_error_decreases_along_iteration(problem):
    # qualitative progression over sweeps 2, 4, 6, 8
    mesh, decomp = build_lshape_mesh(0.25)
    errs = {}

    def cb(state, record):
        if record.sweep in (2, 4, 6, 8):
            errs[record.sweep] = energy_error(state.v, problem)

    run_schwarz(mesh, decomp, problem, SchwarzConfig(sweeps=8), on_sweep=cb,
                track_discrete=False)
    seq = [errs[n] for n in (2, 4, 6, 8)]
    assert all(b <= a for a, b in zip(seq, seq[1:]))


def test_conformity_and_boundary_data(problem):
    mesh, decomp = build_lshape_mesh(1 / 8)
    state = run_schwarz(mesh, decomp, problem, SchwarzConfig(sweeps=3),
                        track_discrete=False)
    bdry = mesh.boundary_vertices
    assert np.allclose(state.v.values[bdry], problem.u_g(mesh.vertices[bdry]))


def test_sweep_is_one_subdomain_solve(problem):
    # replay sweep 2 by hand: solve on Omega_2 with trace data from sweep 1
    mesh, decomp = build_lshape_mesh(0.25)
    s1 = run_schwarz(mesh, decomp, problem, SchwarzConfig(sweeps=1),
                     track_discrete=False)
    s2 = run_schwarz(mesh, decomp, problem, SchwarzConfig(sweeps=2),
                     track_discrete=False)
    assert s1.history[0].solved == (0,)
    assert s2.history[1].solved == (1,)

    system = assemble_stiffness(mesh, problem.A)
    system.rhs[:] = assemble_load(mesh, problem.f)
    inner = interior_nodes(mesh, decomp, 1)
    fixed = np.setdiff1d(np.arange(mesh.n_vertices), inner)
    replay = solve_dirichlet(system, fixed, s1.v.values[fixed])
    assert np.allclose(replay.values, s2.v.values, atol=1e-9)
    # the interface trace was last written by the Omega_2 solve
    g23 = decomp.interfaces[1]
    verts = np.unique(mesh.edges[g23.edges])
    assert np.allclose(s2.v.values[verts], replay.values[verts], atol=1e-9)


def test_fine_subdomain_block_solve_does_not_stall(problem):
    # h = 1/128 Omega_1 block with the load vector as right-hand side; a
    # Jacobi-PCG solve at relative tolerance 1e-12 stalls near 2e-6 here
    mesh, decomp = build_lshape_mesh(1 / 128)
    K = assemble_stiffness(mesh, problem.A).matrix
    idx = interior_nodes(mesh, decomp, 0)
    b = assemble_load(mesh, problem.f)[idx]
    block = K[idx][:, idx]
    x, _ = SaddleFactorization(block, sp.csc_matrix((0, len(idx)))).solve(b)
    assert np.linalg.norm(block @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_subdomain_order_is_respected(problem):
    mesh, decomp = build_lshape_mesh(0.25)
    fwd = run_schwarz(mesh, decomp, problem,
                      SchwarzConfig(sweeps=1), track_discrete=False)
    rev = run_schwarz(mesh, decomp, problem,
                      SchwarzConfig(sweeps=1, order=(1, 0)),
                      track_discrete=False)
    assert rev.history[0].solved == (1,)
    assert not np.allclose(fwd.v.values, rev.v.values)


def test_additive_mode_runs_and_is_deterministic(problem):
    mesh, decomp = build_lshape_mesh(0.25)
    cfg = SchwarzConfig(mode="additive", sweeps=6)
    a = run_schwarz(mesh, decomp, problem, cfg)
    b = run_schwarz(mesh, decomp, problem, cfg)
    assert np.array_equal(a.v.values, b.v.values)
    dists = a.discrete_errors()
    assert dists[-1] < 1e-3 * dists[0]


def test_config_validation():
    with pytest.raises(ValueError):
        SchwarzConfig(mode="bogus").validated(2)
    with pytest.raises(ValueError):
        SchwarzConfig(sweeps=0).validated(2)
    with pytest.raises(ValueError):
        SchwarzConfig(order=(0, 0)).validated(2)


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
    state = run_schwarz(mesh, decomp, problem, SchwarzConfig(sweeps=10))
    est = state.contraction()
    assert est.rho_hat < 1.0
    assert lo < est.rho_hat < hi
    # endpoint identity of the geometric-mean estimate
    dists = state.discrete_errors()
    n = len(dists) - 1
    assert np.isclose(dists[-1], dists[0] * est.rho_hat ** n, rtol=1e-9)
