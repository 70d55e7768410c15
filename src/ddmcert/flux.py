"""Broken flux fields: gradient averaging, flux correctors, admissibility.

A broken flux field lives independently on every basic subdomain omega_k as
the sum of two layers: a piecewise-linear vector field (the averaged
numerical flux, stored per triangle corner so interface vertices may carry
distinct one-sided values) and a lowest-order Raviart-Thomas corrector
attached to a coarse cell mesh.  The corrector is defined by one constant
normal-flux coefficient per coarse edge — two coefficients on interface
edges, one per side — and is what the constrained minimization adjusts to
make the field weakly admissible:

    c1:  the mean of div y + f vanishes on every omega_k,
    c2:  the mean normal-flux jump vanishes on every interface gamma_kj.

Inside each cell the corrector is the RT0 extension of its edge fluxes.
Quadrilateral cells are split by their lower-left/upper-right diagonal into
two triangles; the splitting diagonal carries an ordinary interior
coefficient of the minimization (it never meets an interface or the
boundary, so it enters the volume terms only).  On triangle-celled coarse
meshes (in particular the fine triangulation itself when H = h) every fine
edge is a degree of freedom.

Internally every cell contributes its triangle(s) to a list of
"cell-triangles"; a sparse matrix Q maps coefficients to the three local
outward fluxes (slots) of each cell-triangle, and all volume terms are
assembled in slot space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import linalg
from .mesh import (CoarseMesh, DomainDecomposition, MeshError, TriMesh,
                   DIRICHLET, INTERFACE, INTERIOR, compatibility_check)
from .problem import (EllipticProblem, ScalarFieldP1, f_cell_integrals,
                      p1_gradients, quad_rule)


# ---------------------------------------------------------------------------
# Broken flux fields
# ---------------------------------------------------------------------------


@dataclass
class BrokenFluxField:
    """Per-subdomain vector field: P1 layer plus optional RT0 corrector."""

    mesh: TriMesh
    decomp: DomainDecomposition
    p1_part: np.ndarray                      # (T, 3, 2) corner values
    space: Optional["CorrectorSpace"] = None
    coeffs: Optional[np.ndarray] = None
    _affine: tuple = field(default=None, repr=False)

    def corrector_affine(self):
        """Per fine triangle, the corrector as value a_t + g_t * x.

        Any RT0 field on a triangle has the form a + g*x with scalar g; this
        returns (a, g) arrays of shapes (T, 2) and (T,), zero without a
        corrector.
        """
        if self._affine is None:
            T = self.mesh.n_triangles
            if self.space is None or self.coeffs is None:
                self._affine = (np.zeros((T, 2)), np.zeros(T))
            else:
                s = self.space
                fluxes = (s.Q @ self.coeffs).reshape(-1, 3)      # (CT, 3)
                sigma = fluxes.sum(axis=1)
                moment = np.einsum("ci,cid->cd", fluxes, s.ct_verts)
                scale = 1.0 / (2.0 * s.ct_area)
                a_ct = -moment * scale[:, None]
                g_ct = sigma * scale
                ct = s.fine_tri_ct
                self._affine = (a_ct[ct], g_ct[ct])
        return self._affine

    def values(self, bary: np.ndarray) -> np.ndarray:
        """Field values (T, Q, 2) at barycentric evaluation points."""
        corners = self.mesh.vertices[self.mesh.triangles]
        pts = np.einsum("qi,tid->tqd", bary, corners)
        out = np.einsum("qi,tid->tqd", bary, self.p1_part)
        a, g = self.corrector_affine()
        out += a[:, None, :] + g[:, None, None] * pts
        return out

    def divergence(self) -> np.ndarray:
        """Per-triangle (constant) divergence."""
        grads = p1_gradients(self.mesh)
        div = np.einsum("tid,tid->t", self.p1_part, grads)
        _, g = self.corrector_affine()
        return div + 2.0 * g

    def jump_endpoint_values(self, m: int) -> np.ndarray:
        """(y_k - y_j) . n_kj at the endpoints of interface m's fine edges.

        Returns (n_edges, 2), ordered like the interface's edge list, with
        endpoint order following the interface traversal.
        """
        g = self.decomp.interfaces[m]
        n = g.normal
        a, slope = self.corrector_affine()
        out = np.zeros((len(g.edges), 2))
        for side, sgn in ((0, 1.0), (1, -1.0)):
            tris = g.side_tris[:, side]
            tv = self.mesh.triangles[tris]                    # (n_e, 3)
            for pos in range(2):
                vid = g.endpoints[:, pos]
                loc = np.argmax(tv == vid[:, None], axis=1)
                vals = self.p1_part[tris, loc]                # (n_e, 2)
                coords = self.mesh.vertices[vid]
                corr = a[tris] @ n + slope[tris] * (coords @ n)
                out[:, pos] += sgn * (vals @ n + corr)
        return out

    def with_corrector(self, space, coeffs) -> "BrokenFluxField":
        return BrokenFluxField(self.mesh, self.decomp, self.p1_part,
                               space, coeffs)


def average_gradient(v: ScalarFieldP1, decomp: DomainDecomposition,
                     A=None) -> BrokenFluxField:
    """Subdomain-wise averaged numerical flux G_k(A grad v).

    Within each basic subdomain the nodal value is the area-weighted average
    of A grad v over the subdomain's triangles meeting that vertex; vertices
    on an interface receive distinct values from either side.  The result is
    piecewise linear on each omega_k (zero corrector).
    """
    mesh = v.mesh
    A = np.eye(2) if A is None else np.asarray(A, dtype=float)
    flux = v.gradient() @ A.T                            # (T, 2)
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
    return BrokenFluxField(mesh, decomp, p1_part)


def corrected_flux(ytilde: BrokenFluxField, q: np.ndarray,
                   space: Optional["CorrectorSpace"] = None) -> BrokenFluxField:
    """The admissible candidate y = ytilde + q."""
    space = space if space is not None else ytilde.space
    if space is None:
        raise ValueError("no corrector space attached or given")
    return ytilde.with_corrector(space, np.asarray(q, dtype=float))


@dataclass
class ConstraintResiduals:
    """Mean equilibration and mean jump residuals of a flux field."""

    subdomain: np.ndarray      # (N,)  mean of div y + f over omega_k
    interface: np.ndarray      # (E1,) mean normal jump over gamma_kj


def constraint_residuals(y: BrokenFluxField, f, decomp: DomainDecomposition,
                         f_tri: np.ndarray | None = None) -> ConstraintResiduals:
    """Evaluate the admissibility means c1/c2 for a broken flux field."""
    mesh = y.mesh
    if f_tri is None:
        f_tri = f_cell_integrals(mesh, f)[0]
    cell = y.divergence() * mesh.areas + f_tri
    r = np.zeros(decomp.n_basic)
    np.add.at(r, decomp.tri_subdomain, cell)
    r /= np.array([sub.area for sub in decomp.basic])

    s = np.zeros(len(decomp.interfaces))
    for m, g in enumerate(decomp.interfaces):
        ev = y.jump_endpoint_values(m)
        lens = mesh.edge_lengths()[g.edges]
        s[m] = float((lens * ev.mean(axis=1)).sum() / g.length)
    return ConstraintResiduals(r, s)


# ---------------------------------------------------------------------------
# Corrector space
# ---------------------------------------------------------------------------


@dataclass
class CorrectorSpace:
    """Assembled RT0 corrector space over a coarse cell mesh.

    ``Q`` maps the coefficient vector to the three local outward fluxes of
    every cell-triangle; ``C`` holds the admissibility constraint rows (one
    per basic subdomain, then one per interface), each normalized by the
    measure it averages over.  ``M_hat``/``D_hat``/``J_hat`` are the
    weight-independent pieces of the minimization's quadratic form.
    """

    mesh: TriMesh
    decomp: DomainDecomposition
    coarse: CoarseMesh
    ct_verts: np.ndarray          # (CT, 3, 2)
    ct_area: np.ndarray           # (CT,)
    ct_sub: np.ndarray            # (CT,)
    fine_tri_ct: np.ndarray       # (T,)
    Q: sp.csr_matrix              # (3 CT, n_dofs)
    n_dofs: int
    dof_edge: np.ndarray          # coarse edge per dof (-1 for cell diagonals)
    dof_side: np.ndarray          # subdomain side per dof (-1 if single)
    dof_cell: np.ndarray          # owning cell for diagonal dofs (-1 otherwise)
    C: sp.csr_matrix              # constraints
    M_hat: sp.csr_matrix
    D_hat: sp.csr_matrix
    J_hats: list                  # per interface
    iface_info: list              # per interface: (edge, dof_k, dof_j, sign, pos)

    @property
    def dim_per_cell(self) -> int:
        return self.coarse.dim_per_cell

    @property
    def n_edge_dofs(self) -> int:
        """Coefficients attached to coarse-mesh edges (diagonals excluded)."""
        return int(np.count_nonzero(self.dof_edge >= 0))

    @property
    def n_constraints(self) -> int:
        return self.C.shape[0]

    def is_fine(self) -> bool:
        return (self.coarse.ell == 3
                and self.coarse.N_cells == self.mesh.n_triangles)

    def dof_table(self) -> list[tuple[int, int, int, int]]:
        """(dof, coarse edge, side, cell) rows, one per degree of freedom."""
        return [(i, int(self.dof_edge[i]), int(self.dof_side[i]),
                 int(self.dof_cell[i])) for i in range(self.n_dofs)]


def _outward_sign(ct_verts, loc, normal):
    """Sign of a cell-triangle's outward normal on local edge ``loc`` against
    a fixed global edge normal."""
    a = ct_verts[(loc + 1) % 3]
    b = ct_verts[(loc + 2) % 3]
    d = b - a
    out = np.array([d[1], -d[0]])
    return 1.0 if float(out @ normal) > 0 else -1.0


def build_corrector_space(coarse: CoarseMesh, decomp: DomainDecomposition,
                          A=None) -> CorrectorSpace:
    """Enumerate corrector degrees of freedom and assemble all static parts.

    One coefficient per coarse edge interior to a basic subdomain or on the
    Dirichlet boundary; two per interface edge (one per side).  Raises
    MeshError when the coarse mesh fails the solvability count.
    """
    ok, slack = compatibility_check(coarse)
    if not ok:
        raise MeshError(
            f"coarse mesh cannot carry the constraints (slack {slack})")
    mesh = decomp.mesh
    A = np.eye(2) if A is None else np.asarray(A, dtype=float)
    A_inv = np.linalg.inv(A)

    # --- degrees of freedom ------------------------------------------------
    dof_edge: list[int] = []
    dof_side: list[int] = []
    dof_cell: list[int] = []
    edge_dofs: dict[int, dict[int, int]] = {}
    for ce, edge in enumerate(coarse.edges):
        if edge.kind == INTERFACE:
            g = decomp.interfaces[edge.interface]
            edge_dofs[ce] = {g.k: len(dof_edge), g.j: len(dof_edge) + 1}
            dof_edge += [ce, ce]
            dof_side += [g.k, g.j]
            dof_cell += [-1, -1]
        elif edge.kind in (INTERIOR, DIRICHLET):
            edge_dofs[ce] = {-1: len(dof_edge)}
            dof_edge.append(ce)
            dof_side.append(-1)
            dof_cell.append(-1)
        # INACTIVE edges carry no coefficient (flux pinned to zero)
    diag_dofs: dict[int, int] = {}
    if coarse.ell == 4:
        # the splitting diagonal of every quadrilateral cell
        for c in range(len(coarse.cells)):
            diag_dofs[c] = len(dof_edge)
            dof_edge.append(-1)
            dof_side.append(-1)
            dof_cell.append(c)
    n_dofs = len(dof_edge)

    def edge_dof(ce: int, subdomain: int):
        dofs = edge_dofs.get(ce)
        if dofs is None:
            return None
        if -1 in dofs:
            return dofs[-1]
        return dofs[subdomain]

    # --- cell-triangles and the slot map Q ----------------------------------
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    ct_verts: list[np.ndarray] = []
    ct_sub: list[int] = []
    cell_cts: list[tuple[int, ...]] = []

    if coarse.ell == 3:
        # Cells are triangles; every cell edge is a coefficient-carrying
        # coarse edge of its own.
        fine2coarse = np.full(mesh.n_edges, -1, dtype=np.int64)
        for ce, edge in enumerate(coarse.edges):
            fine2coarse[edge.fine_edges[0]] = ce
        for c, cell in enumerate(coarse.cells):
            t = int(cell.fine_tris[0])
            ct = len(ct_verts)
            ct_verts.append(cell.verts)
            ct_sub.append(cell.subdomain)
            cell_cts.append((ct,))
            for loc in range(3):
                ce = int(fine2coarse[mesh.tri_edges[t, loc]])
                dof = edge_dof(ce, cell.subdomain)
                if dof is None:
                    continue
                sign = _outward_sign(cell.verts, loc, coarse.edges[ce].normal)
                rows.append(3 * ct + loc)
                cols.append(dof)
                vals.append(sign)
    else:
        # Quadrilateral cells split into a lower (ll, lr, ur) and an upper
        # (ll, ur, ul) triangle.  Each of the six slots is a single
        # coefficient: the four sides via the cell adjacency sign, the
        # diagonal via its fixed normal pointing into the upper half.
        cell_sides: list[dict] = [dict() for _ in coarse.cells]
        for ce, edge in enumerate(coarse.edges):
            for c, sign in edge.cells:
                cell = coarse.cells[c]
                cx, cy = cell.verts.mean(axis=0)
                if abs(edge.normal[1]) > 0.5:      # horizontal edge
                    name = "b" if edge.p0[1] < cy else "t"
                else:
                    name = "l" if edge.p0[0] < cx else "r"
                cell_sides[c][name] = (ce, sign)
        for c, cell in enumerate(coarse.cells):
            ll, lr, ur, ul = cell.verts
            lower = len(ct_verts)
            ct_verts.append(np.array([ll, lr, ur]))
            ct_sub.append(cell.subdomain)
            upper = len(ct_verts)
            ct_verts.append(np.array([ll, ur, ul]))
            ct_sub.append(cell.subdomain)
            cell_cts.append((lower, upper))

            def put(slot, dof, weight):
                if dof is not None:
                    rows.append(slot)
                    cols.append(dof)
                    vals.append(weight)

            for name, slot in (("r", 3 * lower), ("b", 3 * lower + 2),
                               ("t", 3 * upper), ("l", 3 * upper + 1)):
                ce, sign = cell_sides[c][name]
                # adjacency stores sign = cell-outward normal . edge normal
                put(slot, edge_dof(ce, cell.subdomain), sign)
            # diagonal dof measures flux along the up-left normal, which is
            # outward for the lower triangle, inward for the upper
            put(3 * lower + 1, diag_dofs[c], 1.0)
            put(3 * upper + 2, diag_dofs[c], -1.0)

    ct_verts = np.asarray(ct_verts)
    ct_sub = np.asarray(ct_sub, dtype=np.int64)
    n_ct = len(ct_verts)
    e1 = ct_verts[:, 1] - ct_verts[:, 0]
    e2 = ct_verts[:, 2] - ct_verts[:, 0]
    ct_area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    Q = sp.coo_matrix((vals, (rows, cols)), shape=(3 * n_ct, n_dofs)).tocsr()

    # fine triangle -> containing cell-triangle
    if coarse.ell == 3:
        fine_tri_ct = np.empty(mesh.n_triangles, dtype=np.int64)
        for c, cts in enumerate(cell_cts):
            fine_tri_ct[coarse.cells[c].fine_tris] = cts[0]
    else:
        cent = mesh.centroids()
        cells = coarse.tri_cell
        x0 = np.array([coarse.cells[c].verts[0] for c in cells])
        lower_half = (cent[:, 0] - x0[:, 0]) > (cent[:, 1] - x0[:, 1])
        fine_tri_ct = np.array(
            [cell_cts[c][0 if low else 1]
             for c, low in zip(cells, lower_half)], dtype=np.int64)

    # --- static quadratic-form pieces ---------------------------------------
    mids = 0.5 * (ct_verts[:, [1, 2, 0]] + ct_verts[:, [2, 0, 1]])  # (CT,3,2)
    diff = mids[:, :, None, :] - ct_verts[:, None, :, :]            # m, i
    adiff = np.einsum("de,cmie->cmid", A_inv, diff)
    m_loc = np.einsum("cmid,cmjd->cij", adiff, diff) / (12.0 * ct_area)[:, None, None]
    blk_rows = (3 * np.arange(n_ct)[:, None, None]
                + np.arange(3)[None, :, None] * np.ones(3, dtype=int))
    blk_cols = (3 * np.arange(n_ct)[:, None, None]
                + np.ones(3, dtype=int)[None, :, None] * np.arange(3))
    M_blk = sp.coo_matrix((m_loc.ravel(), (blk_rows.ravel(), blk_cols.ravel())),
                          shape=(3 * n_ct, 3 * n_ct)).tocsr()
    d_loc = np.repeat(1.0 / ct_area, 9).reshape(n_ct, 3, 3)
    D_blk = sp.coo_matrix((d_loc.ravel(), (blk_rows.ravel(), blk_cols.ravel())),
                          shape=(3 * n_ct, 3 * n_ct)).tocsr()
    M_hat = (Q.T @ M_blk @ Q).tocsr()
    D_hat = (Q.T @ D_blk @ Q).tocsr()

    # --- interface jump pieces ----------------------------------------------
    iface_info: list[list] = [[] for _ in decomp.interfaces]
    J_hats = []
    edge_pos = []
    for g in decomp.interfaces:
        edge_pos.append({int(e): i for i, e in enumerate(g.edges)})
    for m, g in enumerate(decomp.interfaces):
        jr, jc, jv = [], [], []
        for ce, edge in enumerate(coarse.edges):
            if edge.kind != INTERFACE or edge.interface != m:
                continue
            dk = edge_dofs[ce][g.k]
            dj = edge_dofs[ce][g.j]
            sign = 1.0 if float(edge.normal @ g.normal) > 0 else -1.0
            pos = np.array([edge_pos[m][int(e)] for e in edge.fine_edges])
            iface_info[m].append((ce, dk, dj, sign, pos))
            w = 1.0 / edge.length
            jr += [dk, dk, dj, dj]
            jc += [dk, dj, dk, dj]
            jv += [w, -w, -w, w]
        J_hats.append(sp.coo_matrix((jv, (jr, jc)),
                                    shape=(n_dofs, n_dofs)).tocsr())

    # --- constraint rows -----------------------------------------------------
    n_basic = decomp.n_basic
    r1 = sp.coo_matrix(
        (np.ones(3 * n_ct),
         (np.repeat(ct_sub, 3), np.arange(3 * n_ct))),
        shape=(n_basic, 3 * n_ct)).tocsr()
    areas_k = np.array([sub.area for sub in decomp.basic])
    C1 = sp.diags(1.0 / areas_k) @ (r1 @ Q)
    c2r, c2c, c2v = [], [], []
    for m, g in enumerate(decomp.interfaces):
        for (_, dk, dj, sign, _) in iface_info[m]:
            c2r += [m, m]
            c2c += [dk, dj]
            c2v += [sign / g.length, -sign / g.length]
    C2 = sp.coo_matrix((c2v, (c2r, c2c)),
                       shape=(len(decomp.interfaces), n_dofs)).tocsr()
    C = sp.vstack([C1, C2]).tocsr()

    return CorrectorSpace(mesh, decomp, coarse, ct_verts, ct_area, ct_sub,
                          fine_tri_ct, Q, n_dofs,
                          np.asarray(dof_edge, dtype=np.int64),
                          np.asarray(dof_side, dtype=np.int64),
                          np.asarray(dof_cell, dtype=np.int64),
                          C, M_hat, D_hat, J_hats, iface_info)


# ---------------------------------------------------------------------------
# Constrained minimization
# ---------------------------------------------------------------------------


def corrector_matrix(space: CorrectorSpace, alphas, betas) -> sp.csc_matrix:
    """G = a1 M + a2 D + a3 sum_m beta_m^2 J_m."""
    G = alphas[0] * space.M_hat + alphas[1] * space.D_hat
    for m, Jm in enumerate(space.J_hats):
        G = G + (alphas[2] * betas[m] ** 2) * Jm
    return G.tocsc()


def corrector_rhs(space: CorrectorSpace, ytilde: BrokenFluxField,
                  v: ScalarFieldP1, problem: EllipticProblem, alphas, betas,
                  f_tri: np.ndarray | None = None):
    """Linear term b and constraint right-hand side d for the saddle system.

    The minimized functional is
        a1 ||ytilde + q - A grad v||^2_{A^{-1}}  +  a2 ||div(ytilde+q) + f||^2
        + a3 sum beta^2 ||jump(ytilde+q)||^2,
    so b collects minus the cross terms against the corrector basis and d the
    negated means of the uncorrected residuals.
    """
    mesh = space.mesh
    decomp = space.decomp
    if f_tri is None:
        f_tri = f_cell_integrals(mesh, problem.f)[0]
    a1, a2, a3 = alphas
    A_inv = problem.A_inv

    bary, _ = quad_rule(2)
    corners = mesh.vertices[mesh.triangles]
    pts = np.einsum("qi,tid->tqd", bary, corners)               # (T, 3, 2)
    yt = np.einsum("qi,tid->tqd", bary, ytilde.p1_part)
    gv = v.gradient() @ problem.A.T
    r = yt - gv[:, None, :]
    ra = np.einsum("de,tqe->tqd", A_inv, r)

    ct = space.fine_tri_ct
    verts_ct = space.ct_verts[ct]                                # (T, 3, 2)
    s_ct = space.ct_area[ct]
    diff = pts[:, :, None, :] - verts_ct[:, None, :, :]          # (T, m, i, 2)
    term1 = np.einsum("tmd,tmid->ti", ra, diff)
    term1 *= (mesh.areas / (6.0 * s_ct))[:, None]                # w/(2 S_ct)

    slot_c = np.zeros(3 * len(space.ct_area))
    slot_ids = (3 * ct)[:, None] + np.arange(3)[None, :]
    np.add.at(slot_c, slot_ids.ravel(), (a1 * term1).ravel())

    div_yt = ytilde.divergence()
    cell_resid = div_yt * mesh.areas + f_tri                     # per fine tri
    per_ct = np.zeros(len(space.ct_area))
    np.add.at(per_ct, ct, cell_resid)
    slot_c += np.repeat(a2 * per_ct / space.ct_area, 3)

    c = space.Q.T @ slot_c

    n_basic = decomp.n_basic
    d = np.zeros(space.n_constraints)
    per_sub = np.zeros(n_basic)
    np.add.at(per_sub, decomp.tri_subdomain, cell_resid)
    d[:n_basic] = -per_sub / np.array([s.area for s in decomp.basic])

    edge_len = mesh.edge_lengths()
    for m, g in enumerate(decomp.interfaces):
        ev = ytilde.jump_endpoint_values(m)
        fine_int = edge_len[g.edges] * ev.mean(axis=1)           # trapezoid
        for (ce, dk, dj, sign, pos) in space.iface_info[m]:
            ie = float(fine_int[pos].sum())
            w = a3 * betas[m] ** 2 * sign * ie / space.coarse.edges[ce].length
            c[dk] += w
            c[dj] -= w
        d[n_basic + m] = -float(fine_int.sum()) / g.length
    return -c, d


class CorrectorSolver:
    """Factorized corrector saddle system, reusable across iterates."""

    def __init__(self, space: CorrectorSpace, problem: EllipticProblem,
                 alphas, betas, f_tri: np.ndarray | None = None):
        self.space = space
        self.problem = problem
        self.alphas = tuple(alphas)
        self.betas = np.asarray(betas, dtype=float)
        self.f_tri = (f_cell_integrals(space.mesh, problem.f)[0]
                      if f_tri is None else f_tri)
        G = corrector_matrix(space, self.alphas, self.betas)
        self.fact = linalg.SaddleFactorization(G, space.C)

    def solve(self, ytilde: BrokenFluxField, v: ScalarFieldP1):
        b, d = corrector_rhs(self.space, ytilde, v, self.problem,
                             self.alphas, self.betas, self.f_tri)
        return self.fact.solve(b, d)
