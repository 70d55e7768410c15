import numpy as np
import pytest

from ddmcert import flux, linalg
from ddmcert.flux import (KAPPA_MAX, BrokenFluxField, CorrectorSolver,
                          average_gradient, build_corrector_space,
                          constraint_residuals, corrected_flux,
                          corrector_matrix, corrector_rhs, rhs_table,
                          steering_sums, weight_ratio_bound)
from ddmcert.majorant import (MajorantConstants, alpha_weights,
                              evaluate_majorant)
from ddmcert.mesh import (build_coarse_mesh, build_lshape_mesh,
                          build_rect_mesh)
from ddmcert.pipeline import RunConfig, build_preset
from ddmcert.problem import (EllipticProblem, ScalarFieldP1, f_cell_integrals,
                             manufactured_lshape_problem)
from ddmcert.schwarz import run_schwarz

from _iterate import a_grad

BARY = np.array([[2 / 3, 1 / 6, 1 / 6],
                 [1 / 6, 2 / 3, 1 / 6],
                 [1 / 6, 1 / 6, 2 / 3]])


def l2_sq(mesh, y, target):
    """Integral of |y - target|^2 with target constant per triangle."""
    diff = y.values(BARY) - target[:, None, :]
    return float(np.einsum("t,tqd,tqd->", mesh.areas / 3, diff, diff))


# ---------------------------------------------------------------------------
# average_gradient
# ---------------------------------------------------------------------------


def test_averaging_preserves_affine_fields():
    mesh, decomp = build_lshape_mesh(0.25)
    p = mesh.vertices
    v = ScalarFieldP1(mesh, 3 * p[:, 0] - p[:, 1])
    yt = average_gradient(a_grad(v, np.eye(2)), decomp)
    grad = np.broadcast_to(np.array([3.0, -1.0]), (mesh.n_triangles, 2))
    assert l2_sq(mesh, yt, np.array(grad)) < 1e-26
    assert np.allclose(yt.divergence(), 0.0, atol=1e-12)
    for m in range(len(decomp.interfaces)):
        assert np.allclose(yt.jump_endpoint_values(m), 0.0, atol=1e-13)
    f_tri = f_cell_integrals(mesh, lambda p: np.zeros(p.shape[:-1]))[0]
    res = constraint_residuals(yt, f_tri).means
    assert np.allclose(res.subdomain, 0.0, atol=1e-13)
    assert np.allclose(res.interface, 0.0, atol=1e-13)


def test_averaging_is_arithmetic_mean_on_equal_areas():
    # unit square split by the ll-ur diagonal; v = max(x, y) has
    # grad (1,0) on the lower triangle and (0,1) on the upper one
    mesh, decomp = build_rect_mesh(1, 1, 1.0)
    v = ScalarFieldP1(mesh, mesh.vertices.max(axis=1))
    yt = average_gradient(a_grad(v, np.eye(2)), decomp)
    coords = mesh.vertices[mesh.triangles]          # (T, 3, 2)
    nodal = yt.p1_part
    for t in range(2):
        for i in range(3):
            x, y = coords[t, i]
            if np.isclose(x, 1.0) and np.isclose(y, 0.0):
                assert np.allclose(nodal[t, i], [1.0, 0.0])
            elif np.isclose(x, 0.0) and np.isclose(y, 1.0):
                assert np.allclose(nodal[t, i], [0.0, 1.0])
            else:                                   # shared diagonal vertices
                assert np.allclose(nodal[t, i], [0.5, 0.5])


def test_averaging_regression_value(cert4):
    # distance of the averaged flux to the raw gradient, sweep-16 iterate
    mesh = cert4.mesh
    raw = l2_sq(mesh, cert4.yt, cert4.v.gradient())
    assert np.isclose(raw, 0.018472285782012012, rtol=1e-9)


def test_interface_values_are_one_sided():
    mesh, decomp = build_lshape_mesh(0.5)
    # quadratic field: gradients differ between subdomains at the interface
    v = ScalarFieldP1(mesh, mesh.vertices.prod(axis=1))
    yt = average_gradient(a_grad(v, np.eye(2)), decomp)
    jumps = yt.jump_endpoint_values(0)
    assert np.abs(jumps).max() > 1e-3


# ---------------------------------------------------------------------------
# corrector space
# ---------------------------------------------------------------------------


def test_space_counts_lshape_H1():
    mesh, decomp = build_lshape_mesh(1.0)
    coarse = build_coarse_mesh(mesh, decomp, 1.0)
    space = build_corrector_space(coarse, decomp, np.eye(2))
    # 8 Dirichlet edges + 2 interface edges x 2 sides, plus one diagonal
    # DOF per unit square
    assert coarse.tri.n_triangles == 6 and coarse.tri.n_edges == 13
    assert space.n_dofs == 15
    assert space.C.shape[0] == 5        # 3 subdomains + 2 interfaces


def test_space_fine_mesh_every_edge_is_a_dof():
    mesh, decomp = build_rect_mesh(2, 2, 0.5)
    coarse = build_coarse_mesh(mesh, decomp, 0.5)
    space = build_corrector_space(coarse, decomp, np.eye(2))
    # no interfaces: one DOF per fine edge, no duplication
    assert space.n_dofs == mesh.n_edges
    assert coarse.tri.n_triangles == mesh.n_triangles


def test_single_cell_represents_constants():
    mesh, decomp = build_rect_mesh(1, 1, 1.0)
    coarse = build_coarse_mesh(mesh, decomp, 1.0)
    tri = coarse.tri
    space = build_corrector_space(coarse, decomp, np.eye(2))
    target = np.array([1.0, 0.0])
    # each dof is the total flux across its edge along the edge normal, the
    # tangent from the lower to the higher vertex turned clockwise; the
    # diagonal from (0,0) to (1,1) has length sqrt2, normal (1,-1)/sqrt2,
    # so it carries a flux of 1
    # one dof per edge, numbered edge by edge, so a slot's dof is its edge
    assert space.n_dofs == tri.n_edges
    assert (space.slot_dof == tri.tri_edges).all()
    a, b = tri.vertices[tri.edges.T]
    tangent = b - a
    normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1)
    coeffs = normal @ target
    diagonal = np.all(np.isclose(0.5 * (a + b), 0.5), axis=1)
    assert np.count_nonzero(diagonal) == 1
    assert np.allclose(coeffs[diagonal], 1.0)
    # a slot's sign, carried by its weights, is that of its outward normal
    # against the edge normal
    v = tri.vertices[tri.triangles]
    side = v[:, [2, 0, 1]] - v[:, [1, 2, 0]]
    outward = np.stack([side[..., 1], -side[..., 0]], axis=-1)
    dot = np.einsum("csd,csd->cs", outward, normal[tri.tri_edges])
    assert (np.sign(space.slot_weights[:, 2].T) == np.sign(dot)).all()
    zero = np.zeros((mesh.n_triangles, 3, 2))
    y = BrokenFluxField(mesh, decomp, zero, space, coeffs)
    vals = y.values(BARY)
    assert np.allclose(vals, target, atol=1e-13)
    assert np.allclose(y.divergence(), 0.0, atol=1e-13)


@pytest.mark.parametrize("preset", ["lshape", "rect"])
@pytest.mark.parametrize("H", [1 / 8, 1 / 4], ids=["H=h", "H=1/4"])
def test_coarse_mesh_slack(preset, H):
    # every boundary edge is Dirichlet, and a triangulation with N cells,
    # N_f edges and N_b boundary edges has 3 N = 2 N_f - N_b, so the
    # corrector's solvability slack, 3 N + N_b (flux dofs counted per cell,
    # plus the Dirichlet edges) less N + N_f (one divergence unknown per
    # cell and one per edge), is (N + N_b) / 2 > 0
    mesh, decomp, _ = build_preset(RunConfig(h=1 / 8, H=H, preset=preset))
    tri = build_coarse_mesh(mesh, decomp, H).tri
    n, n_f = tri.n_triangles, tri.n_edges
    n_b = int(np.count_nonzero(tri.boundary_edge_flags))
    assert 3 * n == 2 * n_f - n_b
    assert 2 * (3 * n + n_b - n - n_f) == n + n_b > 0


# ---------------------------------------------------------------------------
# constraints and solve
# ---------------------------------------------------------------------------


def test_residuals_of_trivial_fields():
    mesh, decomp = build_lshape_mesh(0.5)
    const = np.broadcast_to(np.array([2.0, 1.0]),
                            (mesh.n_triangles, 3, 2)).copy()
    y = BrokenFluxField(mesh, decomp, const)
    f_tri = f_cell_integrals(mesh, lambda p: np.zeros(p.shape[:-1]))[0]
    res = constraint_residuals(y, f_tri).means
    assert np.allclose(res.subdomain, 0.0, atol=1e-13)
    assert np.allclose(res.interface, 0.0, atol=1e-13)

    zero = BrokenFluxField(mesh, decomp, np.zeros((mesh.n_triangles, 3, 2)))
    f_tri = f_cell_integrals(mesh, lambda p: np.ones(p.shape[:-1]))[0]
    res = constraint_residuals(zero, f_tri).means
    assert np.allclose(res.subdomain, 1.0)
    assert np.allclose(res.interface, 0.0, atol=1e-14)


def test_zero_residual_gives_zero_corrector():
    mesh, decomp = build_lshape_mesh(0.25)
    affine = EllipticProblem(
        A=np.eye(2), f=lambda p: np.zeros(p.shape[:-1]),
        u_g=lambda p: p[..., 0] + 2 * p[..., 1])
    v = ScalarFieldP1(mesh, affine.u_g(mesh.vertices))
    yt = average_gradient(a_grad(v, affine.A), decomp)
    coarse = build_coarse_mesh(mesh, decomp, 0.25)
    space = build_corrector_space(coarse, decomp, affine.A)
    constants = MajorantConstants.default(decomp, affine)
    solver = CorrectorSolver(space, affine, constants)
    q, lam = solver.solve(rhs_table(space, yt, a_grad(v, affine.A), affine,
                                    solver.f_tri),
                          solver.alphas)
    assert np.abs(q).max() < 1e-12
    assert np.abs(lam).max() < 1e-12


def test_single_cell_divergence_balance():
    # one unit square, every boundary edge Dirichlet, ytilde = 0, f = 1:
    # the constraint forces  int div q = -1  over the cell
    mesh, decomp = build_rect_mesh(1, 1, 1.0)
    space = build_corrector_space(build_coarse_mesh(mesh, decomp, 1.0),
                                  decomp, np.eye(2))
    assert space.n_dofs == 5 and space.C.shape[0] == 1

    unit_source = EllipticProblem(A=np.eye(2),
                                  f=lambda p: np.ones(p.shape[:-1]),
                                  u_g=lambda p: np.zeros(p.shape[:-1]))
    zero_v = ScalarFieldP1(mesh, np.zeros(mesh.n_vertices))
    yt = BrokenFluxField(mesh, decomp, np.zeros((mesh.n_triangles, 3, 2)))
    constants = MajorantConstants(C_min=1.0, C_P=np.array([np.sqrt(2) / np.pi]),
                                  beta=np.zeros(0), E_max=2.0)
    solver = CorrectorSolver(space, unit_source, constants)
    table = rhs_table(space, yt, a_grad(zero_v, unit_source.A), unit_source,
                      solver.f_tri)
    q, _ = solver.solve(table, solver.alphas)
    y = corrected_flux(yt, q, space)
    assert np.isclose(float((y.divergence() * mesh.areas).sum()), -1.0)
    res = constraint_residuals(y, solver.f_tri).means
    assert abs(res.subdomain[0]) < 1e-12


def test_corrected_flux_linearity(cert4):
    y1 = corrected_flux(cert4.yt, cert4.q, cert4.space)
    y2 = corrected_flux(cert4.yt, 2 * cert4.q, cert4.space)
    qv = y2.values(BARY) - y1.values(BARY)
    pure_q = corrected_flux(
        BrokenFluxField(cert4.mesh, cert4.decomp,
                        np.zeros_like(cert4.yt.p1_part)),
        cert4.q, cert4.space)
    assert np.allclose(qv, pure_q.values(BARY), atol=1e-13)
    assert np.allclose(y2.divergence() - y1.divergence(),
                       pure_q.divergence(), atol=1e-12)


def test_trace_jump_additivity(cert4):
    for m in range(len(cert4.decomp.interfaces)):
        jy = cert4.y.jump_endpoint_values(m)
        jt = cert4.yt.jump_endpoint_values(m)
        pure_q = corrected_flux(
            BrokenFluxField(cert4.mesh, cert4.decomp,
                            np.zeros_like(cert4.yt.p1_part)),
            cert4.q, cert4.space)
        jq = pure_q.jump_endpoint_values(m)
        assert np.allclose(jy, jt + jq, atol=1e-12)


def test_corrector_zero_is_identity(cert4):
    y0 = corrected_flux(cert4.yt, np.zeros(cert4.space.n_dofs), cert4.space)
    assert np.allclose(y0.values(BARY), cert4.yt.values(BARY))


def test_admissibility_after_solve(cert4):
    res = constraint_residuals(cert4.y, cert4.f_tri).means
    assert np.abs(res.subdomain).max() < 1e-10
    assert np.abs(res.interface).max() < 1e-10


def test_saddle_block_structure(cert4):
    space = cert4.space
    alphas = alpha_weights((1.0, 1.0, 1.0), cert4.constants)
    G = corrector_matrix(space, alphas, cert4.constants.beta)
    asym = (G - G.T).tocoo()
    assert not asym.nnz or np.abs(asym.data).max() < 1e-14
    assert (G.diagonal() > 0).all()
    # constraint rows: one per subdomain, one per interface, all nonzero
    C = space.C.tocsr()
    assert C.shape[0] == space.C.shape[0]
    assert all(C[i].nnz > 0 for i in range(C.shape[0]))


def test_rhs_table_is_read_only_and_reweighting_is_exact(cert4):
    space, beta = cert4.space, cert4.constants.beta
    table = rhs_table(space, cert4.yt, cert4.a_grad_v, cert4.problem,
                      cert4.f_tri)
    res = table.residuals
    for a in (table.l1, table.l2, table.l3, res.cell,
              res.means.subdomain, res.means.interface, *res.jumps,
              *res.edge_int, cert4.yt.p1_midpoint_values(),
              cert4.yt.p1_divergence()):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    y = corrected_flux(cert4.yt, cert4.q, space)
    assert y.p1_midpoint_values() is cert4.yt.p1_midpoint_values()
    assert y.p1_divergence() is cert4.yt.p1_divergence()

    alpha = alpha_weights((1.0, 1.0, 1.0), cert4.constants)
    other = alpha_weights((0.3, 2.0, 5.0), cert4.constants)
    first = corrector_rhs(space, table, alpha, beta)
    corrector_rhs(space, table, other, beta)
    third = corrector_rhs(space, table, alpha, beta)
    fresh_yt = BrokenFluxField(cert4.mesh, cert4.decomp,
                               cert4.yt.p1_part.copy())
    fresh = corrector_rhs(
        space, rhs_table(space, fresh_yt, cert4.a_grad_v, cert4.problem,
                         cert4.f_tri), alpha, beta)
    for got in (third, fresh):
        for a, b in zip(got, first):
            assert a.tobytes() == b.tobytes()


def test_kkt_local_optimality(cert4):
    # perturbing any single DOF and re-projecting onto the constraints
    # never decreases the objective
    space, constants = cert4.space, cert4.constants
    alphas = alpha_weights((1.0, 1.0, 1.0), constants)
    G = corrector_matrix(space, alphas, constants.beta).toarray()
    table = rhs_table(space, cert4.yt, cert4.a_grad_v, cert4.problem,
                      cert4.f_tri)
    b, d = corrector_rhs(space, table, alphas, constants.beta)
    C = space.C.toarray()
    CCt_inv = np.linalg.inv(C @ C.T)

    def objective(x):
        return x @ G @ x - 2 * b @ x

    base = objective(cert4.q)
    rng = np.random.default_rng(42)
    dofs = rng.choice(space.n_dofs, size=25, replace=False)
    for i in dofs:
        for delta in (1e-4, -1e-4):
            x = cert4.q.copy()
            x[i] += delta
            x -= C.T @ (CCt_inv @ (C @ x - d))
            assert objective(x) >= base - 1e-13 * abs(base)


# ---------------------------------------------------------------------------
# steering sums: the majorant's sums from the corrector's quadratic form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("A", [np.eye(2), np.array([[2.0, 0.7], [0.7, 1.3]])],
                         ids=["A=I", "A=full"])
@pytest.mark.parametrize("preset", ["lshape", "rect"])
@pytest.mark.parametrize("H", [1 / 8, 1 / 4], ids=["H=h", "H=1/4"])
def test_steering_sums_equal_the_direct_sums(A, preset, H):
    base = manufactured_lshape_problem()
    problem = EllipticProblem(A=A, f=base.f, u_g=base.u_g,
                              exact_u=base.exact_u,
                              exact_grad=base.exact_grad)

    def iterate(h, H, sweeps):
        """The solver of a run, an iterate's averaged flux and A grad v,
        and its table with the steering term."""
        mesh, decomp, _ = build_preset(RunConfig(h=h, H=H, preset=preset))
        v = run_schwarz(mesh, decomp, problem, "multiplicative", sweeps)
        space = build_corrector_space(build_coarse_mesh(mesh, decomp, H),
                                      decomp, problem.A)
        solver = CorrectorSolver(space, problem,
                                 MajorantConstants.default(decomp, problem))
        gv = a_grad(v, problem.A)
        yt = average_gradient(gv, decomp)
        return (solver, yt, gv,
                rhs_table(space, yt, gv, problem, solver.f_tri, steering=True))

    coarse = iterate(1 / 8, H, 2)
    solver, yt, gv, _ = coarse
    assert rhs_table(solver.space, yt, gv, problem, solver.f_tri).S1 is None
    rng = np.random.default_rng(7)
    cases = [(*coarse, q) for q in (np.zeros(solver.space.n_dofs),
                                    rng.standard_normal(solver.space.n_dofs))]
    if H == 1 / 8:
        # the solved corrector of a first iterate at h = 1/64, whose ytilde
        # is far from admissible: a sum expanded in q cancels there
        fine = iterate(1 / 64, 1 / 64, 1)
        cases.append((*fine, fine[0].solve(fine[3], fine[0].alphas)[0]))
    for solver, yt, gv, table, q in cases:
        rep = evaluate_majorant(corrected_flux(yt, q, solver.space), gv,
                                problem, solver.constants, solver.f_tri,
                                solver.f_osc)
        S1, S2, S3 = steering_sums(solver.space, table, q, solver.f_osc)
        assert abs(S1 - rep.S1.sum()) <= 1e-12 * rep.S1.sum()
        assert abs(S2 - rep.S2.sum()) <= 1e-12 * rep.S2.sum()
        assert S3.shape == rep.S3.shape
        assert np.all(np.abs(S3 - rep.S3) <= 1e-12 * rep.S3)


# ---------------------------------------------------------------------------
# eps rounds: projected CG preconditioned by a kept factorization
# ---------------------------------------------------------------------------

# near the fixed weights of eps = (1, 1, 1): CG, not a factorization
NEAR_EPS = (0.7, 1.3, 0.9)


def eps_round(cert4):
    """A solver, the iterate's table and the weights of a near eps round,
    with that round's freshly factorized solution and matrix."""
    space, constants = cert4.space, cert4.constants
    solver = CorrectorSolver(space, cert4.problem, constants)
    table = rhs_table(space, cert4.yt, cert4.a_grad_v, cert4.problem,
                      solver.f_tri)
    alphas = alpha_weights(NEAR_EPS, constants)
    G = corrector_matrix(space, alphas, constants.beta)
    q_ref, _ = linalg.SaddleFactorization(G, space.C).solve(
        *corrector_rhs(space, table, alphas, constants.beta))
    return solver, table, alphas, q_ref, G


def g_norm(G, x):
    return float(np.sqrt(x @ (G @ x)))


def near_majorant_sq(cert4, solver, q):
    """M^2 of the iterate's flux corrected by q, under NEAR_EPS."""
    return evaluate_majorant(corrected_flux(cert4.yt, q, cert4.space),
                             cert4.a_grad_v, cert4.problem, cert4.constants,
                             solver.f_tri, solver.f_osc, NEAR_EPS).total_sq


def test_eps_round_by_projected_cg_matches_a_fresh_factorization(
        cert4, monkeypatch):
    solver, table, alphas, q_ref, G = eps_round(cert4)
    assert weight_ratio_bound(alphas, solver.alphas) <= KAPPA_MAX
    steps = []
    pcg = linalg.projected_cg

    def counted(*args):
        out = pcg(*args)
        steps.append(out[2])
        return out

    monkeypatch.setattr(linalg, "projected_cg", counted)
    ref_sq = near_majorant_sq(cert4, solver, cert4.q)
    q, _ = solver.solve(table, alphas, start=cert4.q, ref_sq=ref_sq)
    assert len(steps) == 1 and steps[0] > 1
    assert np.linalg.norm(cert4.space.C @ (q - q_ref)) <= 1e-12
    # the stop's contract: the round's M^2 exceeds its minimum, the freshly
    # factorized round's, by e'G e <= PCG_GAP ref_sq, up to roundoff
    m_cg, m_fresh = (near_majorant_sq(cert4, solver, x) for x in (q, q_ref))
    e_sq = g_norm(G, q - q_ref) ** 2
    roundoff = 1e-14 * m_fresh
    assert e_sq <= flux.PCG_GAP * ref_sq
    assert m_cg - m_fresh >= -roundoff
    assert abs((m_cg - m_fresh) - e_sq) <= roundoff


def test_eps_round_needs_the_start_majorant(cert4):
    solver, table, alphas, _, _ = eps_round(cert4)
    with pytest.raises(ValueError, match="ref_sq"):
        solver.solve(table, alphas, start=cert4.q)
    ref_sq = near_majorant_sq(cert4, solver, cert4.q)
    with pytest.raises(ValueError, match="start"):
        solver.solve(table, alphas, ref_sq=ref_sq)


def test_eps_round_factorizes_when_cg_hits_its_cap(cert4, monkeypatch):
    solver, table, alphas, q_ref, G = eps_round(cert4)
    made = []
    init = linalg.SaddleFactorization.__init__

    def recording_init(self, G, C):
        made.append(C.shape[0])
        init(self, G, C)

    monkeypatch.setattr(linalg.SaddleFactorization, "__init__",
                        recording_init)
    monkeypatch.setattr(flux, "PCG_MAXITER", 1)
    q, _ = solver.solve(table, alphas, start=cert4.q,
                        ref_sq=near_majorant_sq(cert4, solver, cert4.q))
    # never the unconverged iterate: the round is factorized instead
    assert made == [cert4.space.C.shape[0]]
    assert g_norm(G, q - q_ref) <= 1e-12 * g_norm(G, q_ref)
