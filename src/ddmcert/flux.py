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

Every coarse cell is a triangle, and inside it the corrector is the RT0
extension of its three edge fluxes.  At H = h the cells are the fine
triangles, so every fine edge is a degree of freedom; at H > h each H x H
square is split by its lower-left/upper-right diagonal, and the diagonal
carries an ordinary interior coefficient of the minimization.  Dofs are
numbered edge by edge; two (CT, 3) arrays give the dof and sign of the
three local outward fluxes (slots) of each cell-triangle, and the volume
forms are assembled from the cells' 3 x 3 blocks straight into dof space.

Certification reads its sweep-invariant tables from their owners and
never recomputes them: the P1 gradients, edge lengths and side midpoints
from the ``TriMesh``, and the cell integrals of f and f^2 and the exact
gradient at the degree-5 points from the ``CorrectorSolver``, which keeps
them for every iterate it certifies.  A flux's residual integrals and
their means c1/c2 are formed in one place, ``constraint_residuals``; the
corrector's right-hand side and the majorant read them from there.

What depends on the iterate but not on the weights is formed once per
iterate.  ``pipeline.certify_iterate`` forms the flux A grad v, which
``average_gradient`` averages and ``rhs_table`` reads; ``rhs_table`` holds
the weight-free terms of the corrector's right-hand side, and every eps
round only weights them in ``corrector_rhs``.  ``CorrectorSolver.solve``
solves an eps round by projected CG from the round before, preconditioned
by a factorization it keeps: the fixed-weight one or that of the last eps
round it had to factorize.  CG stops once the round's majorant exceeds
its minimum by at most ``PCG_GAP`` times the start's.  The P1 layer at the
side midpoints and its divergence are kept by the averaged flux and shared
with every corrected flux built from it.  The kernels are plain array
arithmetic: 2x2 products written out, sums over triangles by
``np.bincount`` over a key, the interface endpoint corners
(``Interface.corners``) found once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import linalg
from .mesh import (CoarseMesh, DomainDecomposition, MeshError, TriMesh,
                   INACTIVE, INTERFACE, compatibility_check)
from .problem import (EllipticProblem, exact_grad_table, f_cell_integrals,
                      mat_vec)


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
    _p1_mid: np.ndarray = field(default=None, repr=False)
    _p1_div: np.ndarray = field(default=None, repr=False)

    def p1_midpoint_values(self) -> np.ndarray:
        """The P1 layer at the side midpoints (T, 3, 2), read-only; filled
        on first use and shared by ``corrected_flux``."""
        if self._p1_mid is None:
            p = self.p1_part
            self._p1_mid = mid = np.empty_like(p)
            for m, d in np.ndindex(3, 2):       # 1-D views: faster than einsum
                np.add(p[:, m - 2, d], p[:, m - 1, d], out=mid[:, m, d])
            mid *= 0.5
            mid.flags.writeable = False
        return self._p1_mid

    def p1_divergence(self) -> np.ndarray:
        """The P1 layer's per-triangle divergence (T,), read-only; filled
        on first use and shared by ``corrected_flux``."""
        if self._p1_div is None:
            self._p1_div = np.einsum("tid,tid->t", self.p1_part,
                                     self.mesh.p1_grads)
            self._p1_div.flags.writeable = False
        return self._p1_div

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
                f = np.take(self.coeffs, s.slot_dof)             # (CT, 3)
                f *= s.slot_sign
                v = s.ct_verts
                scale = 1.0 / (2.0 * s.ct_area)
                a_ct = np.stack([-(f[:, 0] * v[:, 0, d] + f[:, 1] * v[:, 1, d]
                                   + f[:, 2] * v[:, 2, d]) * scale
                                 for d in range(2)], axis=1)
                g_ct = (f[:, 0] + f[:, 1] + f[:, 2]) * scale
                ct = s.fine_tri_ct
                self._affine = (a_ct[ct], g_ct[ct])
        return self._affine

    def values(self, bary: Optional[np.ndarray] = None) -> np.ndarray:
        """Field values (T, Q, 2) at barycentric evaluation points; by
        default at the side midpoints, the points of the degree-2 rule."""
        if bary is None:
            p1 = self.p1_midpoint_values()
            pts = self.mesh.side_midpoints
        else:
            p1 = bary @ self.p1_part
            pts = bary @ self.mesh.vertices[self.mesh.triangles]
        a, g = self.corrector_affine()
        out = g[:, None, None] * pts
        out += a[:, None, :]
        out += p1
        return out

    def divergence(self) -> np.ndarray:
        """Per-triangle (constant) divergence."""
        _, g = self.corrector_affine()
        return self.p1_divergence() + 2.0 * g

    def jump_endpoint_values(self, m: int) -> np.ndarray:
        """(y_k - y_j) . n_kj at the endpoints of interface m's fine edges.

        Returns (n_edges, 2), ordered like the interface's edge list, with
        endpoint order following the interface traversal.
        """
        g = self.decomp.interfaces[m]
        n0, n1 = g.normal
        a, slope = self.corrector_affine()
        vals = self.p1_part.reshape(-1, 2)[g.corners]        # (n_e, side, pos, 2)
        coords = self.mesh.vertices[g.endpoints]             # (n_e, pos, 2)
        a_n = a[g.side_tris] @ g.normal                      # (n_e, side)
        x_n = coords[..., 0] * n0 + coords[..., 1] * n1
        y_n = (vals[..., 0] * n0 + vals[..., 1] * n1
               + (a_n[:, :, None] + slope[g.side_tris][:, :, None]
                  * x_n[:, None, :]))
        return y_n[:, 0] - y_n[:, 1]


def average_gradient(a_grad_v: np.ndarray,
                     decomp: DomainDecomposition) -> BrokenFluxField:
    """Subdomain-wise averaged numerical flux G_k(A grad v).

    Within each basic subdomain the nodal value is the area-weighted average
    of the per-triangle flux ``a_grad_v`` = A grad v (T, 2) over the
    subdomain's triangles meeting that vertex; vertices on an interface
    receive distinct values from either side.  The result is piecewise
    linear on each omega_k (zero corrector).  The sums run over one key per
    (subdomain, vertex) pair.
    """
    mesh = decomp.mesh
    w = mesh.areas
    key = (decomp.tri_subdomain * mesh.n_vertices)[:, None] + mesh.triangles
    n = decomp.n_basic * mesh.n_vertices
    den = np.bincount(key.ravel(), np.repeat(w, 3), n)[key]
    p1_part = np.empty((mesh.n_triangles, 3, 2))
    for d in range(2):
        num = np.bincount(key.ravel(), np.repeat(w * a_grad_v[:, d], 3), n)
        p1_part[:, :, d] = num[key] / den
    return BrokenFluxField(mesh, decomp, p1_part)


def corrected_flux(ytilde: BrokenFluxField, q: np.ndarray,
                   space: "CorrectorSpace") -> BrokenFluxField:
    """The admissible candidate y = ytilde + q; it shares ytilde's P1
    layer, its midpoint values and its divergence."""
    return BrokenFluxField(ytilde.mesh, ytilde.decomp, ytilde.p1_part,
                           space, np.asarray(q, dtype=float),
                           _p1_mid=ytilde.p1_midpoint_values(),
                           _p1_div=ytilde.p1_divergence())


@dataclass
class ConstraintResiduals:
    """Mean equilibration and mean jump residuals of a flux field."""

    subdomain: np.ndarray      # (N,)  mean of div y + f over omega_k
    interface: np.ndarray      # (E1,) mean normal jump over gamma_kj


@dataclass
class FluxResiduals:
    """Residual integrals of a flux field and their means c1/c2."""

    cell: np.ndarray           # (T,) integral of div y + f per fine triangle
    jumps: list                # per interface: jump_endpoint_values
    edge_int: list             # per interface: jump integral per fine edge
    means: ConstraintResiduals


def constraint_residuals(y: BrokenFluxField, f_tri: np.ndarray) -> FluxResiduals:
    """The residual integrals of y and the admissibility means c1/c2;
    ``f_tri`` holds the cell integrals of f."""
    mesh = y.mesh
    decomp = y.decomp
    cell = y.divergence() * mesh.areas + f_tri
    r = np.bincount(decomp.tri_subdomain, cell, decomp.n_basic)
    r /= np.array([sub.area for sub in decomp.basic])

    jumps, edge_int = [], []
    s = np.zeros(len(decomp.interfaces))
    for m, g in enumerate(decomp.interfaces):
        ev = y.jump_endpoint_values(m)
        fine_int = mesh.edge_lengths[g.edges] * ev.mean(axis=1)   # trapezoid
        jumps.append(ev)
        edge_int.append(fine_int)
        s[m] = float(fine_int.sum() / g.length)
    return FluxResiduals(cell, jumps, edge_int, ConstraintResiduals(r, s))


# ---------------------------------------------------------------------------
# Corrector space
# ---------------------------------------------------------------------------


@dataclass
class CorrectorSpace:
    """Assembled RT0 corrector space over a coarse triangulation.

    Degrees of freedom are numbered edge by edge over the coarse edges: two
    per interface edge (the omega_k side, then the omega_j side), one per
    interior or Dirichlet edge, none on inactive edges.  A dof is the total
    flux across its edge along the edge normal.  Slot ``i`` of a
    cell-triangle is its side opposite vertex ``i``, with outward flux
    ``slot_sign * q[slot_dof]``: ``slot_dof`` is the dof of the side's edge
    on the cell's side and ``slot_sign`` the sign of the outward normal
    against the edge normal (0, with dof 0, on inactive edges).
    ``ifaces[m]`` holds, for the coarse edges of interface m in the
    traversal order of its fine edges, their omega_k dofs (each omega_j dof
    is the next one), their orientation (+1 where the edge normal points
    along n_kj, else -1) and their lengths.  Of the coarse mesh the space
    keeps only the cell-triangles' vertices and ``fine_tri_ct``.

    ``C`` holds the admissibility constraint rows (one per basic subdomain,
    then one per interface), each normalized by the measure it averages
    over.  ``M_hat``/``D_hat``/``J_hat`` are the weight-independent pieces
    of the minimization's quadratic form.
    """

    decomp: DomainDecomposition
    ct_verts: np.ndarray          # (CT, 3, 2)
    ct_area: np.ndarray           # (CT,)
    fine_tri_ct: np.ndarray       # (T,)
    slot_dof: np.ndarray          # (CT, 3)
    slot_sign: np.ndarray         # (CT, 3)
    n_dofs: int
    ifaces: list                  # per interface: (dofs, signs, lengths)
    C: sp.csr_matrix              # constraints
    M_hat: sp.csr_matrix
    D_hat: sp.csr_matrix
    J_hats: list                  # per interface


def build_corrector_space(coarse: CoarseMesh, decomp: DomainDecomposition,
                          A) -> CorrectorSpace:
    """Enumerate corrector degrees of freedom and assemble all static parts.

    One coefficient per coarse edge interior to a basic subdomain or on the
    Dirichlet boundary; two per interface edge (one per side).  ``A`` is
    the problem's coefficient, whose inverse weights the flux term.  Raises
    MeshError when the coarse mesh fails the solvability count.
    """
    ok, slack = compatibility_check(coarse.N_cells, coarse.N_f,
                                    coarse.N_fD, 3)
    if not ok:
        raise MeshError(
            f"coarse mesh cannot carry the constraints (slack {slack})")
    A_inv = np.linalg.inv(np.asarray(A, dtype=float))

    # --- degrees of freedom and the slot map --------------------------------
    kind = coarse.edge_kind
    per_edge = np.select([kind == INTERFACE, kind == INACTIVE], [2, 0], 1)
    n_dofs = int(per_edge.sum())
    edge_dof = np.cumsum(per_edge) - per_edge
    # A slot takes its edge's dof, the omega_j one on the omega_j side; the
    # appended -1 is the omega_j of edges off interfaces (edge_iface -1).
    iface_j = np.array([g.j for g in decomp.interfaces] + [-1])
    ct_edge = coarse.ct_edge
    live = per_edge[ct_edge] > 0
    slot_dof = np.where(live, edge_dof[ct_edge]
                        + (iface_j[coarse.edge_iface[ct_edge]]
                           == coarse.cell_sub[:, None]), 0)
    slot_sign = np.where(live, coarse.ct_sign, 0.0)
    ct_verts = coarse.ct_verts
    e1 = ct_verts[:, 1] - ct_verts[:, 0]
    e2 = ct_verts[:, 2] - ct_verts[:, 0]
    ct_area = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    # --- static quadratic-form pieces ---------------------------------------
    # a dof touches at most two slots and the signs are +-1, so every entry
    # is exact; exact zeros are dropped, as a sparse product drops them
    rows = np.repeat(slot_dof, 3, axis=1).ravel()
    cols = np.tile(slot_dof, 3).ravel()
    sign_pair = (slot_sign[:, :, None] * slot_sign[:, None, :]).ravel()

    def assemble(local):
        out = sp.coo_matrix((sign_pair * local.ravel(), (rows, cols)),
                            shape=(n_dofs, n_dofs)).tocsr()
        out.eliminate_zeros()
        return out

    mids = 0.5 * (ct_verts[:, [1, 2, 0]] + ct_verts[:, [2, 0, 1]])  # (CT,3,2)
    diff = mids[:, :, None, :] - ct_verts[:, None, :, :]            # m, i
    adiff = np.einsum("de,cmie->cmid", A_inv, diff)
    M_hat = assemble(np.einsum("cmid,cmjd->cij", adiff, diff)
                     / (12.0 * ct_area)[:, None, None])
    del mids, diff, adiff          # (CT, 3, 3, 2): not alive through D_hat
    D_hat = assemble(np.repeat(1.0 / ct_area, 9))
    del rows, cols, sign_pair

    # --- constraint rows and interface jump pieces ---------------------------
    inv_area_k = 1.0 / np.array([sub.area for sub in decomp.basic])
    c1 = sp.coo_matrix(
        ((slot_sign * inv_area_k[coarse.cell_sub][:, None]).ravel(),
         (np.repeat(coarse.cell_sub, 3), slot_dof.ravel())),
        shape=(decomp.n_basic, n_dofs)).tocsr()
    c1.eliminate_zeros()        # the two slots of an interior edge cancel
    C_rows = [c1]
    J_hats, ifaces = [], []
    for m, g in enumerate(decomp.interfaces):
        ce = np.flatnonzero(coarse.edge_iface == m)
        ce = ce[np.lexsort((coarse.edge_mid[ce, 1], coarse.edge_mid[ce, 0]))]
        dk = edge_dof[ce]
        dj = dk + 1
        length = coarse.edge_length[ce]
        w = 1.0 / length
        J_hats.append(sp.coo_matrix(
            (np.concatenate([w, -w, -w, w]),
             (np.concatenate([dk, dk, dj, dj]),
              np.concatenate([dk, dj, dk, dj]))),
            shape=(n_dofs, n_dofs)).tocsr())
        sign = np.where(coarse.edge_normal[ce] @ g.normal > 0, 1.0, -1.0)
        ifaces.append((dk, sign, length))
        C_rows.append(sp.coo_matrix(
            (np.concatenate([sign / g.length, -sign / g.length]),
             (np.zeros(2 * len(ce), dtype=np.int64), np.concatenate([dk, dj]))),
            shape=(1, n_dofs)))
    C = sp.vstack(C_rows).tocsr()

    return CorrectorSpace(decomp, ct_verts, ct_area, coarse.fine_tri_ct,
                          slot_dof, slot_sign, n_dofs, ifaces, C, M_hat, D_hat,
                          J_hats)


# ---------------------------------------------------------------------------
# Constrained minimization
# ---------------------------------------------------------------------------


def corrector_matrix(space: CorrectorSpace, alphas, betas) -> sp.csc_matrix:
    """G = a1 M + a2 D + a3 sum_m beta_m^2 J_m."""
    G = alphas[0] * space.M_hat + alphas[1] * space.D_hat
    for m, Jm in enumerate(space.J_hats):
        G = G + (alphas[2] * betas[m] ** 2) * Jm
    return G.tocsc()


@dataclass(frozen=True)
class RhsTable:
    """Weight-free terms of one iterate's corrector right-hand side.

    ``cross`` (T, 3) is, per fine triangle, the cross term of ytilde -
    A grad v against the three corrector basis fluxes of its
    cell-triangle; ``per_ct`` (CT,) the integral of div ytilde + f per
    cell-triangle; ``residuals`` the residual integrals of ytilde.  All
    arrays are read-only.
    """

    cross: np.ndarray
    per_ct: np.ndarray
    residuals: FluxResiduals


def rhs_table(space: CorrectorSpace, ytilde: BrokenFluxField,
              a_grad_v: np.ndarray, problem: EllipticProblem,
              f_tri: np.ndarray) -> RhsTable:
    """The weight-free terms of the corrector right-hand side for the
    averaged flux ``ytilde`` of v; ``a_grad_v`` (T, 2) is A grad v and
    ``f_tri`` holds the cell integrals of f.

    The cross term of basis function i is sum_m ra_m . p_m - (sum_m ra_m)
    . V_i, ra_m = A^{-1} (ytilde - A grad v) at side midpoint p_m and V_i
    the cell-triangle's vertices.
    """
    mesh = space.decomp.mesh

    mid = ytilde.p1_midpoint_values()
    pts = mesh.side_midpoints
    ra = [mat_vec(problem.A_inv, mid[:, m, 0] - a_grad_v[:, 0],
                  mid[:, m, 1] - a_grad_v[:, 1]) for m in range(3)]
    ra_p = sum(r0 * pts[:, m, 0] + r1 * pts[:, m, 1]
               for m, (r0, r1) in enumerate(ra))
    ra_sum = [ra[0][d] + ra[1][d] + ra[2][d] for d in range(2)]

    ct = space.fine_tri_ct
    scale = mesh.areas / (6.0 * space.ct_area[ct])               # w/(2 S_ct)
    cross = np.empty((len(ct), 3))
    for i in range(3):
        cross[:, i] = (ra_p - ra_sum[0] * space.ct_verts[ct, i, 0]
                       - ra_sum[1] * space.ct_verts[ct, i, 1]) * scale

    res = constraint_residuals(ytilde, f_tri)
    per_ct = np.bincount(ct, res.cell, len(space.ct_area))
    for a in (cross, per_ct, res.cell, res.means.subdomain,
              res.means.interface, *res.jumps, *res.edge_int):
        a.flags.writeable = False
    return RhsTable(cross, per_ct, res)


def corrector_rhs(space: CorrectorSpace, table: RhsTable, alphas, betas):
    """Linear term b and constraint right-hand side d for the saddle system.

    The minimized functional is
        a1 ||ytilde + q - A grad v||^2_{A^{-1}}  +  a2 ||div(ytilde+q) + f||^2
        + a3 sum beta^2 ||jump(ytilde+q)||^2,
    so b collects minus the cross terms against the corrector basis and d the
    negated means of the uncorrected residuals.  Both come from ``table``,
    weighted here by the round's ``alphas`` and ``betas``.
    """
    a1, a2, a3 = alphas

    ct = space.fine_tri_ct
    n_ct = len(space.ct_area)
    slot_c = np.empty((n_ct, 3))
    # weighted before the slot sums, which keeps the certified values'
    # rounding; summing once per iterate and scaling by a1 would change it
    for i in range(3):
        slot_c[:, i] = np.bincount(ct, a1 * table.cross[:, i], n_ct)
    slot_c += (a2 * table.per_ct / space.ct_area)[:, None]
    slot_c *= space.slot_sign

    res = table.residuals
    c = np.bincount(space.slot_dof.ravel(), slot_c.ravel(), space.n_dofs)
    for m, (dk, sign, length) in enumerate(space.ifaces):
        # every coarse edge covers an equal run of consecutive fine edges
        ie = res.edge_int[m].reshape(len(dk), -1).sum(axis=1)
        w = a3 * betas[m] ** 2 * sign * ie / length
        c[dk] += w
        c[dk + 1] -= w
    d = -np.concatenate([res.means.subdomain, res.means.interface])
    return -c, d


# An eps round's weights alphas differ from a kept factorization's p only
# in the positive factors of the same three pieces of G = a1 M_hat +
# a2 D_hat + a3 sum beta^2 J_hat, so mu G_P <= G <= kappa mu G_P with
# mu = min(a/p), and kappa = max(a/p) / min(a/p) bounds the condition
# number of G preconditioned by G_P.  Projected CG stops at r'g <= PCG_GAP
# mu ref_sq, ref_sq the majorant M^2 of the round's start under the round's
# weights.  The error e of its q then has e'G e <= r'g / mu <= PCG_GAP
# ref_sq, and e'G e is exactly what the round's M^2 exceeds its minimum by.
# Within KAPPA_MAX, CG reduces the G-norm error at least as fast as
# 2 ((sqrt(4) - 1) / (sqrt(4) + 1))^n = 2 / 3^n from |e_0|^2 <= ref_sq, and
# r'g <= kappa mu |e_n|^2, so the stop holds once 9^n >= 4 kappa / PCG_GAP,
# by n = 14; PCG_MAXITER leaves slack for roundoff.
KAPPA_MAX = 4.0
PCG_GAP = 1e-12
PCG_MAXITER = 25


def weight_ratio_bound(alphas, alphas_p) -> float:
    """max(alphas / alphas_p) / min(alphas / alphas_p): the bound on the
    condition number of the corrector matrix at ``alphas`` preconditioned
    by the one at ``alphas_p``."""
    ratios = [a / p for a, p in zip(alphas, alphas_p)]
    return max(ratios) / min(ratios)


class CorrectorSolver:
    """Corrector saddle system of a run, factorized for its fixed weights.

    The weights come from the majorant ``constants``: ``constants.beta``
    and ``alphas``, those of eps = (1, 1, 1).  The solver also owns the
    run's tables of the problem on the fine mesh: the cell integrals
    ``f_tri``/``f_sq`` of f and f^2 and ``exact_grad``, the exact gradient
    at the degree-5 points, filled on first use.  ``solve`` takes an
    iterate's ``rhs_table``, the weights of its round, a start and the
    start's majorant under those weights.

    Besides the fixed-weight factor the solver keeps at most one other:
    that of the last eps round it factorized, kept across iterates, since
    the next iterates' eps rounds ask for nearby weights.
    """

    def __init__(self, space: CorrectorSpace, problem: EllipticProblem,
                 constants: "MajorantConstants"):
        from .majorant import alpha_weights     # majorant imports this module
        self.space = space
        self.problem = problem
        self.constants = constants
        self.f_tri, self.f_sq = f_cell_integrals(space.decomp.mesh, problem.f)
        self.alphas = tuple(alpha_weights((1.0, 1.0, 1.0), constants))
        self.fact = linalg.SaddleFactorization(self._matrix(self.alphas),
                                               space.C)
        self._round = None        # (alphas, factorization) or None

    def _matrix(self, alphas) -> sp.csc_matrix:
        return corrector_matrix(self.space, alphas, self.constants.beta)

    @cached_property
    def exact_grad(self) -> np.ndarray:
        """``exact_grad_table`` on the fine mesh (T, 7, 2)."""
        out = exact_grad_table(self.space.decomp.mesh, self.problem)
        out.flags.writeable = False
        return out

    def solve(self, table: RhsTable, alphas, start=None, ref_sq=None):
        """(q, lam) for the iterate whose weight-free terms are ``table``,
        under ``alphas``.

        The fixed weights solve with the solver's own factor.  Other
        weights run projected CG preconditioned by the kept factor of the
        smallest ``weight_ratio_bound``, if that is at most ``KAPPA_MAX``.
        CG starts from ``start``, a q of the same iterate (which meets the
        same constraints).  It stops once the majorant of its q exceeds the
        round's minimum by at most ``PCG_GAP`` ``ref_sq``, where ``ref_sq``
        is the majorant M^2 of ``start`` under ``alphas``; weights other
        than the solver's own need both, else ValueError.  Weights with no
        kept factor near enough, or whose CG does not converge, are
        factorized; that factor replaces the kept one.
        """
        alphas = tuple(alphas)
        if alphas == self.alphas:
            fact = self.fact
        else:
            if start is None or ref_sq is None:
                raise ValueError("weights other than the solver's own "
                                 "need a start and its ref_sq")
            solved = self._iterate(table, alphas, start, ref_sq)
            if solved is not None:
                return solved
            # released before the next factorization is made, so that no
            # more than two corrector factorizations are ever alive at once
            self._round = None
            fact = linalg.SaddleFactorization(self._matrix(alphas),
                                              self.space.C)
            self._round = (alphas, fact)
        b, d = corrector_rhs(self.space, table, alphas, self.constants.beta)
        return fact.solve(b, d)

    def _iterate(self, table, alphas, start, ref_sq):
        """(q, lam) by projected CG to the gap ``PCG_GAP`` ``ref_sq``, or
        None if no kept factor is near enough or CG does not converge
        within ``PCG_MAXITER`` steps."""
        kept = [(self.alphas, self.fact)]
        if self._round is not None:
            kept.append(self._round)
        kappa, p, fact = min(((weight_ratio_bound(alphas, p), p, f)
                              for p, f in kept), key=lambda kpf: kpf[0])
        if kappa > KAPPA_MAX:
            return None
        mu = min(a / w for a, w in zip(alphas, p))
        b, _ = corrector_rhs(self.space, table, alphas, self.constants.beta)
        try:
            q, lam, _ = linalg.projected_cg(self._matrix(alphas), b, start,
                                            fact, self.space.C,
                                            PCG_GAP * mu * ref_sq, PCG_MAXITER)
        except linalg.SolverError:
            return None
        return q, lam
