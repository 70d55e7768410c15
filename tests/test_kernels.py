"""Certification kernels against reference forms, under a non-identity A.

The references below are the kernels written with ``einsum`` and
``np.add.at``, the forms the package used before its kernels became
written-out array arithmetic; they are kept here only to check the
package's kernels.  The preset coefficient is the identity, under which a
transposed A, or A swapped for its inverse, gives the same numbers, so
these tests use the h = 1/8 L-shape with a full symmetric A, on the fine
triangulation (H = h) and on quad cells (H = 1/4).  The exact gradient of
the preset stands in for that of this A's solution: the kernels only
integrate the difference.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from ddmcert.flux import (CorrectorSolver, average_gradient,
                          build_corrector_space, corrected_flux, rhs_table)
from ddmcert.majorant import (MajorantConstants, energy_error,
                              evaluate_majorant)
from ddmcert.mesh import build_coarse_mesh, build_lshape_mesh
from ddmcert.problem import (EllipticProblem, manufactured_lshape_problem,
                             p1_gradients, quad_rule)
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


def ref_affine(y):
    """Per fine triangle, the corrector as a + g x, or zero without one."""
    T = y.mesh.n_triangles
    if y.space is None:
        return np.zeros((T, 2)), np.zeros(T)
    s = y.space
    fluxes = (s.Q @ y.coeffs).reshape(-1, 3)
    moment = np.einsum("ci,cid->cd", fluxes, s.coarse.ct_verts)
    scale = 1.0 / (2.0 * s.ct_area)
    ct = s.coarse.fine_tri_ct
    return (-moment * scale[:, None])[ct], (fluxes.sum(axis=1) * scale)[ct]


def ref_midpoint_values(y):
    mesh = y.mesh
    bary, _ = quad_rule(2)
    p1 = np.einsum("qi,tid->tqd", bary, y.p1_part)
    pts = np.einsum("qi,tid->tqd", bary, mesh.vertices[mesh.triangles])
    a, g = ref_affine(y)
    return p1 + (a[:, None, :] + g[:, None, None] * pts)


def ref_divergence(y):
    _, g = ref_affine(y)
    return (np.einsum("tid,tid->t", y.p1_part, p1_gradients(y.mesh))
            + 2.0 * g)


def ref_jumps(y, m):
    g = y.decomp.interfaces[m]
    a, slope = ref_affine(y)
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


def ref_rhs_table(space, yt, v, problem, f_tri):
    """(cross, per_ct, a_grad_v) of the averaged flux ``yt`` of v."""
    mesh = space.mesh
    gv = np.einsum("de,te->td", problem.A, ref_gradient(v))
    r = ref_midpoint_values(yt) - gv[:, None, :]
    ra = np.einsum("de,tqe->tqd", np.linalg.inv(problem.A), r)
    ct = space.coarse.fine_tri_ct
    bary, _ = quad_rule(2)
    pts = np.einsum("qi,tid->tqd", bary, mesh.vertices[mesh.triangles])
    diff = pts[:, :, None, :] - space.coarse.ct_verts[ct][:, None, :, :]
    cross = np.einsum("tmd,tmid->ti", ra, diff)
    cross *= (mesh.areas / (6.0 * space.ct_area[ct]))[:, None]
    per_ct = np.zeros(len(space.ct_area))
    np.add.at(per_ct, ct, ref_divergence(yt) * mesh.areas + f_tri)
    return cross, per_ct, gv


def ref_energy_error(v, problem):
    mesh = v.mesh
    bary, w = quad_rule(5)
    pts = np.einsum("qi,tid->tqd", bary, mesh.vertices[mesh.triangles])
    d = problem.exact_grad(pts) - ref_gradient(v)[:, None, :]
    ad = np.einsum("de,tqe->tqd", problem.A, d)
    return float(np.sqrt(np.einsum("tq,tqd,tqd->",
                                   mesh.areas[:, None] * w, d, ad)))


def ref_term_sums(y, v, problem, f_tri, f_sq):
    """S1, S2 per basic subdomain and S3 per interface."""
    mesh, decomp = y.mesh, y.decomp
    _, w = quad_rule(2)
    gv = np.einsum("de,te->td", problem.A, ref_gradient(v))
    r = ref_midpoint_values(y) - gv[:, None, :]
    ra = np.einsum("de,tqe->tqd", np.linalg.inv(problem.A), r)
    S1 = np.zeros(decomp.n_basic)
    np.add.at(S1, decomp.tri_subdomain,
              mesh.areas * np.einsum("tqd,tqd,q->t", ra, r, w))
    c = ref_divergence(y)
    S2 = np.zeros(decomp.n_basic)
    np.add.at(S2, decomp.tri_subdomain,
              c ** 2 * mesh.areas + 2.0 * c * f_tri + f_sq)
    S3 = np.array([
        np.sum(mesh.edge_lengths[g.edges] * (a * a + a * b + b * b) / 3.0)
        for m, g in enumerate(decomp.interfaces)
        for a, b in [ref_jumps(y, m).T]])
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
                           y=corrected_flux(yt, q, space))


def test_average_gradient_matches_reference(full_a):
    assert_close(full_a.yt.p1_part,
                 ref_average_gradient(full_a.v, full_a.decomp, A_FULL))


def test_rhs_table_matches_reference(full_a):
    cross, per_ct, gv = ref_rhs_table(full_a.space, full_a.yt, full_a.v,
                                      full_a.problem, full_a.solver.f_tri)
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
                               s.f_tri, s.f_sq)
    assert_close(rep.S1, S1)
    assert_close(rep.S2, S2)
    assert_close(rep.S3, S3)
