"""Certification kernels against reference forms, under a non-identity A.

The references below are the kernels written with ``einsum`` and
``np.add.at``, the forms the package used before its kernels became
written-out array arithmetic, and the corrector space's forms as products
through the slot matrix Q, which maps the dofs to the three outward side
fluxes of every cell-triangle; they are kept here only to check the
package's kernels.  The preset coefficient is the identity, under which a
transposed A, or A swapped for its inverse, gives the same numbers, so
these tests use the h = 1/8 L-shape with a full symmetric A, on the fine
triangulation (H = h) and on the coarse one at H = 1/4.  The exact
gradient of the preset stands in for that of this A's solution: the
kernels only integrate the difference.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from ddmcert.flux import (CorrectorSolver, average_gradient,
                          build_corrector_space, corrected_flux,
                          corrector_matrix, rhs_table)
from ddmcert.majorant import (MajorantConstants, alpha_weights, energy_error,
                              evaluate_majorant)
from ddmcert.mesh import build_coarse_mesh, build_lshape_mesh
from ddmcert.pipeline import RunConfig, build_preset
from ddmcert.problem import (EllipticProblem, manufactured_lshape_problem,
                             mat_vec, p1_gradients, quad_form, quad_rule)
from ddmcert.schwarz import run_schwarz

from _iterate import a_grad

A_FULL = np.array([[2.0, 0.7], [0.7, 1.3]])
RTOL = 1e-13


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max()


# ---------------------------------------------------------------------------
# Reference kernels
# ---------------------------------------------------------------------------


def ref_gradient(v):
    mesh = v.mesh
    return np.einsum("ti,tid->td", v.values[mesh.triangles],
                     p1_gradients(mesh))


def ref_average_gradient(v, decomp, A):
    mesh = v.mesh
    flux = np.einsum("de,te->td", A, ref_gradient(v))
    p1_part = np.empty((mesh.n_triangles, 3, 2))
    for sub in decomp.basic:
        tris = sub.tris
        num = np.zeros((mesh.n_vertices, 2))
        den = np.zeros(mesh.n_vertices)
        w = mesh.areas[tris]
        verts = mesh.triangles[tris]
        np.add.at(num, verts.ravel(),
                  np.repeat(w[:, None] * flux[tris], 3, axis=0).reshape(-1, 2))
        np.add.at(den, verts.ravel(), np.repeat(w, 3))
        p1_part[tris] = (num / np.where(den > 0, den, 1.0)[:, None])[verts]
    return p1_part


def ref_edge_dofs(coarse):
    """Per coarse edge: its number of dofs, its first dof and the basic
    subdomains of its two cells (-1 off the mesh)."""
    tri, cell_sub = coarse.tri, coarse.cell_sub
    t0, t1 = tri.edge_tris.T
    s0, s1 = cell_sub[t0], np.where(t1 >= 0, cell_sub[t1], -1)
    per_edge = np.where((t1 >= 0) & (s0 != s1), 2, 1)
    return per_edge, np.cumsum(per_edge) - per_edge, s0, s1


def ref_jump_pieces(coarse, decomp):
    """Per interface, the penalty J_m: sum over its coarse edges e of
    (q_k - q_j)^2 / |e|, q_k and q_j the edge's dofs on either side."""
    tri = coarse.tri
    per_edge, edge_dof, s0, s1 = ref_edge_dofs(coarse)
    n = int(per_edge.sum())
    out = []
    for g in decomp.interfaces:
        e = np.flatnonzero((np.minimum(s0, s1) == g.k)
                           & (np.maximum(s0, s1) == g.j))
        dk, dj, w = edge_dof[e], edge_dof[e] + 1, 1.0 / tri.edge_lengths[e]
        out.append(sp.coo_matrix(
            (np.concatenate([w, -w, -w, w]),
             (np.concatenate([dk, dk, dj, dj]),
              np.concatenate([dk, dj, dk, dj]))), shape=(n, n)).tocsr())
    return out


def ref_slot_matrix(coarse):
    """Q (3 CT x n_dofs): row 3c + i holds the outward flux of side i of
    cell-triangle c.  Dofs are numbered edge by edge, two per interface
    edge (omega_k side, then omega_j side), one per other edge; a dof is
    the flux along its edge's normal, the tangent from ``edges[:, 0]`` to
    ``edges[:, 1]`` turned clockwise.  The signs come from that geometry."""
    tri, cell_sub = coarse.tri, coarse.cell_sub
    per_edge, edge_dof, s0, s1 = ref_edge_dofs(coarse)
    edge_j = np.where(per_edge == 2, np.maximum(s0, s1), -1)
    slot_edge = tri.tri_edges.ravel()
    slot_dof = edge_dof[slot_edge] + (edge_j[slot_edge]
                                      == np.repeat(cell_sub, 3))
    a, b = tri.vertices[tri.edges.T]
    normal = np.stack([b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]], axis=1)
    v = tri.vertices[tri.triangles]
    side = (v[:, [2, 0, 1]] - v[:, [1, 2, 0]]).reshape(-1, 2)
    outward = np.stack([side[:, 1], -side[:, 0]], axis=1)
    sign = np.where(np.einsum("sd,sd->s", outward, normal[slot_edge]) > 0,
                    1.0, -1.0)
    return sp.coo_matrix(
        (sign, (np.arange(len(slot_dof)), slot_dof)),
        shape=(len(slot_dof), int(per_edge.sum()))).tocsr()


def ref_slot_blocks(coarse, A):
    """The mass and divergence forms (3 CT x 3 CT) of the cell-triangles'
    outward side fluxes, block diagonal."""
    v = coarse.tri.vertices[coarse.tri.triangles]
    n_ct = len(v)
    e1, e2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    mids = 0.5 * (v[:, [1, 2, 0]] + v[:, [2, 0, 1]])
    diff = mids[:, :, None, :] - v[:, None, :, :]
    adiff = np.einsum("de,cmie->cmid", np.linalg.inv(A), diff)
    m_loc = (np.einsum("cmid,cmjd->cij", adiff, diff)
             / (12.0 * area)[:, None, None])
    d_loc = np.repeat(1.0 / area, 9).reshape(n_ct, 3, 3)
    rows = 3 * np.arange(n_ct)[:, None, None] + np.arange(3)[None, :, None]
    cols = 3 * np.arange(n_ct)[:, None, None] + np.arange(3)[None, None, :]
    rows, cols = [np.broadcast_to(a, (n_ct, 3, 3)).ravel()
                  for a in (rows, cols)]
    return [sp.coo_matrix((loc.ravel(), (rows, cols)),
                          shape=(3 * n_ct, 3 * n_ct)).tocsr()
            for loc in (m_loc, d_loc)]


def ref_c1_rows(coarse, decomp, Q):
    """The c1 constraint rows: per basic subdomain, the mean of the
    corrector's divergence, through Q."""
    n_slots = Q.shape[0]
    r1 = sp.coo_matrix((np.ones(n_slots),
                        (np.repeat(coarse.cell_sub, 3), np.arange(n_slots))),
                       shape=(decomp.n_basic, n_slots)).tocsr()
    areas_k = np.array([sub.area for sub in decomp.basic])
    return sp.diags(1.0 / areas_k) @ (r1 @ Q)


def ref_affine(y, Q):
    """Per fine triangle, the corrector as a + g x, or zero without one."""
    T = y.mesh.n_triangles
    if y.space is None:
        return np.zeros((T, 2)), np.zeros(T)
    s = y.space
    fluxes = (Q @ y.coeffs).reshape(-1, 3)
    moment = np.einsum("ci,cid->cd", fluxes, s.ct_verts)
    scale = 1.0 / (2.0 * s.ct_area)
    ct = s.fine_tri_ct
    return (-moment * scale[:, None])[ct], (fluxes.sum(axis=1) * scale)[ct]


def ref_midpoint_values(y, Q):
    mesh = y.mesh
    bary, _ = quad_rule(2)
    p1 = np.einsum("qi,tid->tqd", bary, y.p1_part)
    pts = np.einsum("qi,tid->tqd", bary, mesh.vertices[mesh.triangles])
    a, g = ref_affine(y, Q)
    return p1 + (a[:, None, :] + g[:, None, None] * pts)


def ref_divergence(y, Q):
    _, g = ref_affine(y, Q)
    return (np.einsum("tid,tid->t", y.p1_part, p1_gradients(y.mesh))
            + 2.0 * g)


def ref_jumps(y, m, Q):
    g = y.decomp.interfaces[m]
    a, slope = ref_affine(y, Q)
    out = np.zeros((len(g.edges), 2))
    for side, sgn in ((0, 1.0), (1, -1.0)):
        tris = g.side_tris[:, side]
        tv = y.mesh.triangles[tris]
        for pos in range(2):
            vid = g.endpoints[:, pos]
            loc = np.argmax(tv == vid[:, None], axis=1)
            vals = y.p1_part[tris, loc]
            coords = y.mesh.vertices[vid]
            corr = a[tris] @ g.normal + slope[tris] * (coords @ g.normal)
            out[:, pos] += sgn * (vals @ g.normal + corr)
    return out


def ref_rhs_table(space, yt, v, problem, f_tri, Q):
    """(cross, per_ct, a_grad_v) of the averaged flux ``yt`` of v."""
    mesh = space.decomp.mesh
    gv = np.einsum("de,te->td", problem.A, ref_gradient(v))
    r = ref_midpoint_values(yt, Q) - gv[:, None, :]
    ra = np.einsum("de,tqe->tqd", np.linalg.inv(problem.A), r)
    ct = space.fine_tri_ct
    bary, _ = quad_rule(2)
    pts = np.einsum("qi,tid->tqd", bary, mesh.vertices[mesh.triangles])
    diff = pts[:, :, None, :] - space.ct_verts[ct][:, None, :, :]
    cross = np.einsum("tmd,tmid->ti", ra, diff)
    cross *= (mesh.areas / (6.0 * space.ct_area[ct]))[:, None]
    per_ct = np.zeros(len(space.ct_area))
    np.add.at(per_ct, ct, ref_divergence(yt, Q) * mesh.areas + f_tri)
    return cross, per_ct, gv


def ref_energy_error(v, problem):
    mesh = v.mesh
    bary, w = quad_rule(5)
    pts = np.einsum("qi,tid->tqd", bary, mesh.vertices[mesh.triangles])
    d = problem.exact_grad(pts) - ref_gradient(v)[:, None, :]
    ad = np.einsum("de,tqe->tqd", problem.A, d)
    return float(np.sqrt(np.einsum("tq,tqd,tqd->",
                                   mesh.areas[:, None] * w, d, ad)))


def ref_term_sums(y, v, problem, f_tri, f_sq, Q):
    """S1, S2 per basic subdomain and S3 per interface."""
    mesh, decomp = y.mesh, y.decomp
    _, w = quad_rule(2)
    gv = np.einsum("de,te->td", problem.A, ref_gradient(v))
    r = ref_midpoint_values(y, Q) - gv[:, None, :]
    ra = np.einsum("de,tqe->tqd", np.linalg.inv(problem.A), r)
    S1 = np.zeros(decomp.n_basic)
    np.add.at(S1, decomp.tri_subdomain,
              mesh.areas * np.einsum("tqd,tqd,q->t", ra, r, w))
    c = ref_divergence(y, Q)
    S2 = np.zeros(decomp.n_basic)
    np.add.at(S2, decomp.tri_subdomain,
              c ** 2 * mesh.areas + 2.0 * c * f_tri + f_sq)
    S3 = np.array([
        np.sum(mesh.edge_lengths[g.edges] * (a * a + a * b + b * b) / 3.0)
        for m, g in enumerate(decomp.interfaces)
        for a, b in [ref_jumps(y, m, Q).T]])
    return S1, S2, S3


# ---------------------------------------------------------------------------
# The package's kernels against them
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=[1 / 8, 1 / 4], ids=["H=h", "H=1/4"])
def full_a(request):
    """An iterate of the h = 1/8 L-shape under ``A_FULL``, its flux
    A grad v and averaged flux, the iterate's table and a corrected flux at
    the fixed weights."""
    base = manufactured_lshape_problem()
    problem = EllipticProblem(A=A_FULL, f=base.f, u_g=base.u_g,
                              exact_u=base.exact_u,
                              exact_grad=base.exact_grad)
    mesh, decomp = build_lshape_mesh(1 / 8)
    v = run_schwarz(mesh, decomp, problem, "multiplicative", 3)
    constants = MajorantConstants.default(decomp, problem)
    coarse = build_coarse_mesh(mesh, decomp, request.param)
    space = build_corrector_space(coarse, decomp, problem.A)
    solver = CorrectorSolver(space, problem, constants)
    gv = a_grad(v, problem.A)
    yt = average_gradient(gv, decomp)
    table = rhs_table(space, yt, gv, problem, solver.f_tri)
    q, _ = solver.solve(table, solver.alphas)
    return SimpleNamespace(problem=problem, decomp=decomp, v=v,
                           constants=constants, space=space, solver=solver,
                           a_grad_v=gv, yt=yt, table=table,
                           y=corrected_flux(yt, q, space),
                           Q=ref_slot_matrix(coarse))


def test_average_gradient_matches_reference(full_a):
    assert_close(full_a.yt.p1_part,
                 ref_average_gradient(full_a.v, full_a.decomp, A_FULL))


def test_rhs_table_matches_reference(full_a):
    cross, per_ct, gv = ref_rhs_table(full_a.space, full_a.yt, full_a.v,
                                      full_a.problem, full_a.solver.f_tri,
                                      full_a.Q)
    assert_close(full_a.table.cross, cross)
    assert_close(full_a.table.per_ct, per_ct)
    assert_close(full_a.a_grad_v, gv)


def test_energy_error_matches_reference(full_a):
    v = full_a.v
    got = energy_error(v.mesh, full_a.problem.A, v.gradient(),
                       full_a.solver.exact_grad)
    want = ref_energy_error(full_a.v, full_a.problem)
    assert abs(got - want) <= RTOL * want


def test_term_sums_match_reference(full_a):
    s = full_a.solver
    rep = evaluate_majorant(full_a.y, full_a.a_grad_v, full_a.problem,
                            full_a.constants, s.f_tri, s.f_sq)
    S1, S2, S3 = ref_term_sums(full_a.y, full_a.v, full_a.problem,
                               s.f_tri, s.f_sq, full_a.Q)
    assert_close(rep.S1, S1)
    assert_close(rep.S2, S2)
    assert_close(rep.S3, S3)


def assert_same_csr(got, want):
    """Equal in structure and values, bit for bit."""
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(want, part)), part


def stored(piece):
    """A piece of the corrector's quadratic form as csr, zeros dropped."""
    out = piece.tocsr()
    out.eliminate_zeros()
    return out


@pytest.mark.parametrize("preset", ["lshape", "rect"])
@pytest.mark.parametrize("H", [1 / 8, 1 / 4], ids=["H=h", "H=1/4"])
def test_space_forms_match_slot_products(preset, H):
    # M_hat, D_hat and the c1 rows, assembled straight into dof space, are
    # the products through Q to the bit: a dof touches at most two slots
    # and the signs are +-1
    mesh, decomp, _ = build_preset(RunConfig(h=1 / 8, H=H, preset=preset))
    coarse = build_coarse_mesh(mesh, decomp, H)
    space = build_corrector_space(coarse, decomp, A_FULL)
    Q = ref_slot_matrix(coarse)
    M_blk, D_blk = ref_slot_blocks(coarse, A_FULL)
    assert space.n_dofs == Q.shape[1]
    # both store zeros on the one pattern they share
    for part in ("indices", "indptr"):
        assert np.shares_memory(getattr(space.D_hat, part),
                                getattr(space.M_hat, part))
    assert_same_csr(stored(space.M_hat), (Q.T @ M_blk @ Q).tocsr())
    assert_same_csr(stored(space.D_hat), (Q.T @ D_blk @ Q).tocsr())
    # stacked on the interface rows as coo, as the package stacked them
    iface_rows = space.C[decomp.n_basic:].tocoo()
    assert_same_csr(space.C, sp.vstack([ref_c1_rows(coarse, decomp, Q),
                                        iface_rows]).tocsr())
    # the slot map is Q's rows
    dense = np.zeros(Q.shape)
    dense[np.arange(Q.shape[0]),
          space.slot_dof.ravel()] = space.slot_sign.ravel()
    assert np.array_equal(dense, Q.toarray())


@pytest.mark.parametrize("preset", ["lshape", "rect"])
@pytest.mark.parametrize("H", [1 / 16, 1 / 4], ids=["H=h", "H=1/4"])
def test_corrector_matrix_is_the_sparse_sum_to_the_bit(preset, H):
    # G on the pieces' one pattern is what the sparse sum of the pieces,
    # converted to csc, gives: same pattern, same bits, for any weights
    mesh, decomp, problem = build_preset(RunConfig(h=1 / 16, H=H,
                                                   preset=preset))
    coarse = build_coarse_mesh(mesh, decomp, H)
    space = build_corrector_space(coarse, decomp, A_FULL)
    constants = MajorantConstants.default(decomp, problem)
    Q = ref_slot_matrix(coarse)
    M_blk, D_blk = ref_slot_blocks(coarse, A_FULL)
    M, D = (Q.T @ M_blk @ Q).tocsr(), (Q.T @ D_blk @ Q).tocsr()
    J = ref_jump_pieces(coarse, decomp)
    assert len(J) == len(decomp.interfaces)    # none on the rect preset
    for eps in [(1.0, 1.0, 1.0), (0.3, 2.0, 5.0), (1.7, 0.01, 40.0)]:
        alphas = alpha_weights(eps, constants)
        want = alphas[0] * M + alphas[1] * D
        for m, Jm in enumerate(J):
            want = want + (alphas[2] * constants.beta[m] ** 2) * Jm
        got = corrector_matrix(space, alphas, constants.beta)
        assert got.format == "csc"
        assert_same_csr(got, want.tocsc())


def test_quad_form_rounds_as_mat_vec():
    # bitwise: the in-place form must not change a certified digit
    rng = np.random.default_rng(3)
    x0, x1 = rng.standard_normal((2, 50, 7))
    m0, m1 = mat_vec(A_FULL, x0, x1)
    want = m0 * x0 + m1 * x1
    x1_before = x1.copy()
    assert np.array_equal(quad_form(A_FULL, x0.copy(), x1), want)
    assert np.array_equal(x1, x1_before)
