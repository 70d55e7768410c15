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
carries an ordinary interior coefficient of the minimization.
``build_corrector_space`` is the one place that classifies and orients
the coarse ``TriMesh``'s edges: an edge between cells of two basic
subdomains lies on their interface, and a side's sign compares its two
vertex indices.  Dofs are numbered edge by edge; two (CT, 3) arrays give
the dof and sign of the three local outward fluxes (slots) of each
cell-triangle, and the volume forms are assembled from the cells' 3 x 3
blocks straight into dof space.

Certification reads its sweep-invariant tables from their owners and
never recomputes them: the P1 gradients, edge lengths and side midpoints
from the ``TriMesh``, the averaging's corner keys and area sums from the
``DomainDecomposition``, the slot weights (the cells' geometry) from the
``CorrectorSpace``, and the cell integrals and oscillation of f and the
exact gradient's degree-5 moments from the ``CorrectorSolver``, which
keeps them for every iterate it certifies.  A flux's residual integrals
and their means c1/c2 are formed in one place, ``constraint_residuals``;
the corrector's right-hand side and the majorant read them from there.
The certificate and the eps steering share ``s2_density``,
``corrector_jumps`` and ``jump_norms_sq`` for S2 and S3.

What depends on the iterate but not on the weights is formed once per
iterate.  ``pipeline.certify_iterate`` forms the flux A grad v, which
``average_gradient`` averages and ``rhs_table`` reads; ``rhs_table`` holds
the weight-free terms of the corrector's right-hand side as dof vectors,
and every eps round only weights them in ``corrector_rhs``, in O(n_dofs).
For an eps-opt certification it also holds sum S1 of ytilde, so that
``steering_sums`` forms the sums that set the next round's weights from q:
sum S1 as a quadratic in q with M_hat, sum S2 from the residual integrals
plus the corrector's divergence per cell-triangle, and S3 from the jumps
on the interface triangles only.  ``corrector_matrix`` forms G as a
weighted sum of the pieces' data on their one csc pattern.
``CorrectorSolver.solve`` solves an eps round by projected CG from the
round before, preconditioned by a factorization it keeps: the fixed-weight
one or that of the last eps round it had to factorize.  CG stops once the
round's majorant exceeds its minimum by at most ``PCG_GAP`` times the
start's.  The P1 layer at the side midpoints and its divergence are kept
by the averaged flux and shared with every corrected flux built from it.
The kernels are plain array arithmetic: 2x2 products written out, sums
over triangles by ``np.bincount`` over a key, gathers by ``np.take``,
the corrector and the transpose that takes cell terms to the dofs
(``rt0_affine``, ``_to_dofs``) as products with the slot weights' rows,
the interface endpoint corners (``Interface.corners``) found once per
run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import linalg
from .mesh import CoarseMesh, DomainDecomposition, TriMesh
from .problem import (EllipticProblem, exact_grad_moments, f_cell_integrals,
                      f_oscillation, mat_vec, quad_rule)


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
            # the corners after and before m; whole-row gathers run faster
            # than sums over 1-D views or einsum
            mid = np.take(p, [1, 2, 0], axis=1)
            mid += np.take(p, [2, 0, 1], axis=1)
            mid *= 0.5
            mid.flags.writeable = False
            self._p1_mid = mid
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
                a_ct, g_ct = rt0_affine(self.space, self.coeffs, slice(None))
                ct = self.space.fine_tri_ct
                # ``np.take``: fancy indexing of the (CT, 2) rows costs 5x
                self._affine = (np.take(a_ct, ct, axis=0), np.take(g_ct, ct))
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
        n_q = p1.shape[1]
        # spread over the points by np.repeat/np.tile: broadcasting over a
        # length-2 axis costs 2x
        out = np.repeat(g, 2 * n_q).reshape(p1.shape)
        out *= pts
        out += np.tile(a, n_q).reshape(p1.shape)
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
        vals = self.p1_part.reshape(-1, 2)[g.corners]        # (n_e, side, pos, 2)
        y_n = vals[..., 0] * n0 + vals[..., 1] * n1
        jump = y_n[:, 0] - y_n[:, 1]
        if self.coeffs is not None:
            jump += corrector_jumps(self.space, self.coeffs, g)
        return jump


def rt0_affine(space: "CorrectorSpace", q: np.ndarray, cts):
    """The corrector of dofs ``q`` on the cell-triangles ``cts`` (an index
    array or a slice) as value a + g * x: (a, g) of shapes cts + (2,) and
    cts, (a, g)_k = sum_i q[slot_dof[c, i]] slot_weights[i, k, c]."""
    f = np.take(q, space.slot_dof[cts])                    # cts + (3,)
    w = space.slot_weights[:, :, cts]
    a0, a1, g = (f[..., 0] * w[0, k] + f[..., 1] * w[1, k]
                 + f[..., 2] * w[2, k] for k in range(3))
    return np.stack([a0, a1], axis=-1), g


def corrector_jumps(space: "CorrectorSpace", q: np.ndarray, g) -> np.ndarray:
    """(q_k - q_j) . n_kj of the corrector of dofs ``q`` at the endpoints
    of interface g's fine edges, ordered as ``jump_endpoint_values``."""
    n0, n1 = g.normal
    a, slope = rt0_affine(space, q, space.fine_tri_ct[g.side_tris])
    coords = space.decomp.mesh.vertices[g.endpoints]        # (n_e, pos, 2)
    x_n = coords[..., 0] * n0 + coords[..., 1] * n1
    q_n = ((a[..., 0] * n0 + a[..., 1] * n1)[:, :, None]
           + slope[:, :, None] * x_n[:, None, :])          # (n_e, side, pos)
    return q_n[:, 0] - q_n[:, 1]


def s2_density(cell: np.ndarray, areas: np.ndarray,
               f_osc: np.ndarray) -> np.ndarray:
    """Per triangle, int_T (div y + f)^2 = cell_T^2 / |T| + osc_T, from the
    residual integrals ``cell`` and the oscillation ``f_osc`` of f."""
    out = cell * cell
    out /= areas
    out += f_osc
    return out


def jump_norms_sq(decomp: DomainDecomposition, jumps) -> np.ndarray:
    """Per interface, the squared L2 norm of the jump whose values at the
    endpoints of its fine edges are ``jumps[m]`` (n_edges, 2), exact for a
    jump affine on each edge."""
    lens = decomp.mesh.edge_lengths
    return np.array([float(np.sum(lens[g.edges] * (a * a + a * b + b * b)
                                  / 3.0))
                     for g, (a, b) in zip(decomp.interfaces,
                                          (ev.T for ev in jumps))],
                    dtype=float)


def average_gradient(a_grad_v: np.ndarray,
                     decomp: DomainDecomposition) -> BrokenFluxField:
    """Subdomain-wise averaged numerical flux G_k(A grad v).

    Within each basic subdomain the nodal value is the area-weighted average
    of the per-triangle flux ``a_grad_v`` = A grad v (T, 2) over the
    subdomain's triangles meeting that vertex; vertices on an interface
    receive distinct values from either side.  The result is piecewise
    linear on each omega_k (zero corrector).  The sums run over one key per
    (subdomain, vertex) pair that a corner has, so that no key's area sum
    is 0; the keys and the area sums are the decomposition's
    (``corner_key``, ``corner_area_sums``).
    """
    w = decomp.mesh.areas
    key = decomp.corner_key
    den = decomp.corner_area_sums
    avg = np.empty((len(den), 2))
    for d in range(2):
        avg[:, d] = np.bincount(key.ravel(), np.repeat(w * a_grad_v[:, d], 3),
                                len(den))
    avg /= den[:, None]
    return BrokenFluxField(decomp.mesh, decomp, np.take(avg, key, axis=0))


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
    r /= decomp.sub_area

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
    other edge.  A dof is the total flux across its edge along the edge
    normal, the tangent from the lower to the higher vertex index turned
    clockwise.  Slot ``i`` of a cell-triangle is its side opposite vertex
    ``i``, with outward flux sign * q[slot_dof]: ``slot_dof`` is the dof
    of the side's edge on the cell's side and the sign is +1 where the
    counter-clockwise side runs from its lower vertex index to its higher
    one, so that the edge normal points outward, else -1.
    ``ifaces[m]`` holds, for the coarse edges of interface m in the
    traversal order of its fine edges, their omega_k dofs (each omega_j dof
    is the next one), their orientation (+1 where the edge normal points
    along n_kj, else -1) and their lengths.  Of the coarse mesh the space
    keeps only ``fine_tri_ct`` and the slot weights: with V_i the vertex
    opposite slot i and S the area of cell-triangle c, ``slot_weights[i,
    :, c]`` is sign (-V_i, 1) / (2 S), so that the corrector of dofs
    q on c is a + g x with (a, g) = sum_i q[slot_dof[c, i]]
    slot_weights[i, :, c] (``rt0_affine``); the weights are the one record
    of the sign, that of ``slot_weights[i, 2, c]``.  The cell index is
    last, so that each of the nine weights is one contiguous (CT,) row.

    ``C`` holds the admissibility constraint rows (one per basic subdomain,
    then one per interface), each normalized by the measure it averages
    over.  ``M_hat``/``D_hat``/``J_hats`` are the weight-independent pieces
    of the minimization's quadratic form, on the one csc pattern of their
    sum: ``M_hat`` and ``D_hat`` share its ``indices`` and ``indptr`` and
    store zeros where they have no entry, and ``J_hats[m]`` holds the
    positions in that pattern of interface m's four entries per coarse
    edge and their values.
    """

    decomp: DomainDecomposition
    fine_tri_ct: np.ndarray       # (T,)
    slot_dof: np.ndarray          # (CT, 3)
    slot_weights: np.ndarray      # (3, 3, CT)
    n_dofs: int
    ifaces: list                  # per interface: (dofs, signs, lengths)
    C: sp.csr_matrix              # constraints
    M_hat: sp.csc_matrix          # on D_hat's pattern
    D_hat: sp.csc_matrix
    J_hats: list                  # per interface: (positions, values)


def build_corrector_space(coarse: CoarseMesh, decomp: DomainDecomposition,
                          A) -> CorrectorSpace:
    """Enumerate corrector degrees of freedom and assemble all static parts.

    A coarse edge whose two cell-triangles lie in different basic
    subdomains is an interface edge and carries two coefficients (one per
    side); every other edge, boundary edges included, carries one.  ``A``
    is the problem's coefficient, whose inverse weights the flux term.
    """
    tri, cell_sub = coarse.tri, coarse.cell_sub
    A_inv = np.linalg.inv(np.asarray(A, dtype=float))

    # --- degrees of freedom and the slot map --------------------------------
    # t1 is -1 on the boundary, which the mask leaves out
    t0, t1 = tri.edge_tris.T
    crossing = np.flatnonzero(~tri.boundary_edge_flags
                              & (cell_sub[t0] != cell_sub[t1]))
    s0, s1 = cell_sub[t0[crossing]], cell_sub[t1[crossing]]
    per_edge = np.ones(tri.n_edges, dtype=np.int64)
    per_edge[crossing] = 2
    n_dofs = int(per_edge.sum())
    edge_dof = np.cumsum(per_edge) - per_edge
    # A slot takes its edge's dof, the omega_j one (j the higher subdomain)
    # on the omega_j side; -1 is the omega_j of edges off interfaces.
    edge_j = np.full(tri.n_edges, -1, dtype=np.int64)
    edge_j[crossing] = np.maximum(s0, s1)
    slot_dof = (edge_dof[tri.tri_edges]
                + (edge_j[tri.tri_edges] == cell_sub[:, None]))
    side_sign = np.where(tri.triangles[:, [1, 2, 0]]
                         < tri.triangles[:, [2, 0, 1]], 1.0, -1.0)
    ct_verts = tri.vertices[tri.triangles]
    ct_area = tri.areas
    slot_weights = np.empty((3, 3, tri.n_triangles))
    for i in range(3):
        s_i = side_sign[:, i] / (2.0 * ct_area)
        slot_weights[i, 0] = -s_i * ct_verts[:, i, 0]
        slot_weights[i, 1] = -s_i * ct_verts[:, i, 1]
        slot_weights[i, 2] = s_i

    # --- constraint rows and interface edges -------------------------------
    inv_area_k = 1.0 / decomp.sub_area
    c1 = sp.coo_matrix(
        ((side_sign * inv_area_k[cell_sub][:, None]).ravel(),
         (np.repeat(cell_sub, 3), slot_dof.ravel())),
        shape=(decomp.n_basic, n_dofs)).tocsr()
    c1.eliminate_zeros()        # the two slots of an interior edge cancel
    C_rows = [c1]
    ifaces = []
    pair = np.minimum(s0, s1) * decomp.n_basic + np.maximum(s0, s1)
    for g in decomp.interfaces:
        ce = crossing[pair == g.k * decomp.n_basic + g.j]
        a, b = tri.vertices[tri.edges[ce].T]
        mid = 0.5 * (a + b)
        order = np.lexsort((mid[:, 1], mid[:, 0]))
        ce, d = ce[order], (b - a)[order]
        dk = edge_dof[ce]
        # the edge normal is d turned clockwise
        sign = np.where(d @ [-g.normal[1], g.normal[0]] > 0, 1.0, -1.0)
        ifaces.append((dk, sign, tri.edge_lengths[ce]))
        C_rows.append(sp.coo_matrix(
            (np.concatenate([sign / g.length, -sign / g.length]),
             (np.zeros(2 * len(ce), dtype=np.int64),
              np.concatenate([dk, dk + 1]))),
            shape=(1, n_dofs)))
    C = sp.vstack(C_rows).tocsr()

    # --- static quadratic-form pieces on one pattern -------------------------
    # The slot pairs of every cell-triangle, then the four entries of each
    # interface edge's jump piece, which enter M_hat and D_hat as zeros: so
    # both have the pattern of G and share it.  A dof touches at most two
    # slots and the signs are +-1, so every entry is exact.
    j_rows = [np.concatenate([dk, dk, dk + 1, dk + 1]) for dk, _, _ in ifaces]
    j_cols = [np.concatenate([dk, dk + 1, dk, dk + 1]) for dk, _, _ in ifaces]
    n_j = sum(len(r) for r in j_rows)
    rows = np.concatenate([np.repeat(slot_dof, 3, axis=1).ravel(), *j_rows])
    cols = np.concatenate([np.tile(slot_dof, 3).ravel(), *j_cols])
    sign_pair = (side_sign[:, :, None] * side_sign[:, None, :]).ravel()

    def assemble(local):
        data = np.concatenate([sign_pair * local.ravel(), np.zeros(n_j)])
        return sp.coo_matrix((data, (rows, cols)),
                             shape=(n_dofs, n_dofs)).tocsc()

    # D_hat first, M_hat on its pattern: in the other order the peak RSS
    # of run --h 1/128 --sweeps 16 read 277-282 MB against 275-276 MB
    D_hat = assemble(np.repeat(1.0 / ct_area, 9))
    mids = 0.5 * (ct_verts[:, [1, 2, 0]] + ct_verts[:, [2, 0, 1]])  # (CT,3,2)
    diff = mids[:, :, None, :] - ct_verts[:, None, :, :]            # m, i
    adiff = np.einsum("de,cmie->cmid", A_inv, diff)
    M_hat = sp.csc_matrix(
        (assemble(np.einsum("cmid,cmjd->cij", adiff, diff)
                  / (12.0 * ct_area)[:, None, None]).data,
         D_hat.indices, D_hat.indptr), shape=D_hat.shape)
    del mids, diff, adiff, rows, cols, sign_pair
    J_hats = []
    for (dk, _, length), r, c in zip(ifaces, j_rows, j_cols):
        w = 1.0 / length
        J_hats.append((_pattern_positions(D_hat, r, c),
                       np.concatenate([w, -w, -w, w])))

    return CorrectorSpace(decomp, coarse.fine_tri_ct, slot_dof, slot_weights,
                          n_dofs, ifaces, C, M_hat, D_hat, J_hats)


# ---------------------------------------------------------------------------
# Constrained minimization
# ---------------------------------------------------------------------------


def _pattern_positions(A: sp.csc_matrix, rows, cols) -> np.ndarray:
    """The positions in ``A.data`` of the entries (rows, cols), all of them
    in A's canonical pattern: each column's rows are scanned upward from
    its first stored one."""
    pos = A.indptr[cols].astype(np.int64)
    miss = A.indices[pos] != rows
    while miss.any():
        pos[miss] += 1
        miss = A.indices[pos] != rows
    return pos


def corrector_matrix(space: CorrectorSpace, alphas, betas) -> sp.csc_matrix:
    """G = a1 M + a2 D + a3 sum_m beta_m^2 J_m, as a weighted sum of the
    pieces' data on their one pattern, exact zeros dropped.

    Entry by entry this rounds as the sparse sum ((a1 M + a2 D) + w_1 J_1)
    + ... does, since a piece's missing entry adds an exact zero, so G is
    that sum bit for bit, pattern included.
    """
    data = alphas[0] * space.M_hat.data
    data += alphas[1] * space.D_hat.data
    for m, (pos, vals) in enumerate(space.J_hats):
        data[pos] += (alphas[2] * betas[m] ** 2) * vals
    # copies: dropping the zeros compacts the pattern in place
    G = sp.csc_matrix((data, space.D_hat.indices.copy(),
                       space.D_hat.indptr.copy()), shape=space.D_hat.shape)
    G.eliminate_zeros()
    return G


@dataclass(frozen=True)
class RhsTable:
    """Weight-free terms of one iterate's corrector right-hand side as
    read-only dof vectors ``l1``, ``l2``, ``l3`` (see ``rhs_table``), the
    residual integrals of ytilde and sum S1 of ytilde, or None if the
    table was made without it."""

    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray
    residuals: FluxResiduals
    S1: Optional[float] = None


def _to_dofs(space: CorrectorSpace, x: dict) -> np.ndarray:
    """Per dof, the sum over its slots (c, i) of sum_k slot_weights[i, k,
    c] x[k][c], for per-cell rows ``x`` {k: (CT,)} (a missing k is a zero
    row): the transpose of ``rt0_affine``'s map."""
    w = space.slot_weights
    slot = np.empty(space.slot_dof.shape)
    for i in range(3):
        slot[:, i] = sum(w[i, k] * x_k for k, x_k in x.items())
    return np.bincount(space.slot_dof.ravel(), slot.ravel(), space.n_dofs)


def rhs_table(space: CorrectorSpace, ytilde: BrokenFluxField,
              a_grad_v: np.ndarray, problem: EllipticProblem,
              f_tri: np.ndarray, steering: bool = False) -> RhsTable:
    """The weight-free terms of the corrector right-hand side for the
    averaged flux ``ytilde`` of v; ``a_grad_v`` (T, 2) is A grad v and
    ``f_tri`` holds the cell integrals of f.  With ``steering`` the table
    also holds sum S1 of ytilde, for the iterate's eps rounds.

    With ra_m = A^{-1} (ytilde - A grad v) at side midpoint p_m, a cell's
    midpoint-rule sums R = sum_t |t|/3 sum_m ra_m and P = sum_t |t|/3
    sum_m ra_m . p_m over its fine triangles give the cross term of its
    slot i, (P - R . V_i) / (2 S) times the slot's sign, V_i the vertex
    opposite the slot and S the cell's area.  Summed over the slots of
    each dof it is l1 (``_to_dofs`` of (R, P)); the residual against the
    basis's divergence is l2, and ytilde's jump integral over each coarse
    interface edge, over its length, l3.
    """
    mesh = space.decomp.mesh

    mid = ytilde.p1_midpoint_values()
    pts = mesh.side_midpoints
    ra = [mat_vec(problem.A_inv, mid[:, m, 0] - a_grad_v[:, 0],
                  mid[:, m, 1] - a_grad_v[:, 1]) for m in range(3)]
    ct = space.fine_tri_ct
    n_ct = space.slot_dof.shape[0]
    x = {d: np.bincount(ct, (ra[0][d] + ra[1][d] + ra[2][d]) * mesh.areas,
                        n_ct) for d in range(2)}
    x[2] = np.bincount(ct, sum(r0 * pts[:, m, 0] + r1 * pts[:, m, 1]
                               for m, (r0, r1) in enumerate(ra)) * mesh.areas,
                       n_ct)
    for row in x.values():
        row /= 3.0                           # the midpoint rule's weight
    l1 = _to_dofs(space, x)
    S1 = None
    if steering:
        _, w = quad_rule(2)
        dens = sum(w[m] * (ra[m][0] * (mid[:, m, 0] - a_grad_v[:, 0])
                           + ra[m][1] * (mid[:, m, 1] - a_grad_v[:, 1]))
                   for m in range(3))              # r . A^{-1} r
        S1 = float(np.sum(mesh.areas * dens))

    res = constraint_residuals(ytilde, f_tri)
    # slot i's weight 2 is its sign over 2 S
    l2 = _to_dofs(space, {2: 2.0 * np.bincount(ct, res.cell, n_ct)})
    l3 = np.zeros(space.n_dofs)
    for m, (dk, sign, length) in enumerate(space.ifaces):
        # every coarse edge covers an equal run of consecutive fine edges
        ie = res.edge_int[m].reshape(len(dk), -1).sum(axis=1)
        l3[dk] = sign * ie / length
        l3[dk + 1] = -l3[dk]
    for a in (l1, l2, l3, res.cell, res.means.subdomain,
              res.means.interface, *res.jumps, *res.edge_int):
        a.flags.writeable = False
    return RhsTable(l1, l2, l3, res, S1)


def corrector_rhs(space: CorrectorSpace, table: RhsTable, alphas, betas):
    """Linear term b and constraint right-hand side d for the saddle system.

    The minimized functional is
        a1 ||ytilde + q - A grad v||^2_{A^{-1}}  +  a2 ||div(ytilde+q) + f||^2
        + a3 sum beta^2 ||jump(ytilde+q)||^2,
    so b is minus the weighted sum of ``table``'s dof vectors and d the
    negated means of the uncorrected residuals, in O(n_dofs).
    """
    a1, a2, a3 = alphas
    c = a1 * table.l1
    c += a2 * table.l2
    for m, (dk, _, _) in enumerate(space.ifaces):
        w = a3 * betas[m] ** 2
        c[dk] += w * table.l3[dk]
        c[dk + 1] += w * table.l3[dk + 1]
    means = table.residuals.means
    return -c, -np.concatenate([means.subdomain, means.interface])


def steering_sums(space: CorrectorSpace, table: RhsTable, q: np.ndarray,
                  f_osc: np.ndarray):
    """sum S1, sum S2 and S3 per interface of the majorant of y = ytilde +
    q, ``f_osc`` the oscillation of f: sum S1 = ``table.S1`` + 2 l1.q +
    q'M_hat q, S2 and S3 by the certificate's formulas from ytilde's
    residuals plus the corrector's.  They agree with ``evaluate_majorant``
    to roundoff and steer the eps rounds; no certified number comes from
    them."""
    # not ``@`` for the dot product (see ``linalg._dot``)
    S1 = table.S1 + np.einsum("i,i->", 2.0 * table.l1 + space.M_hat @ q, q)
    areas = space.decomp.mesh.areas
    half_div = np.take(rt0_affine(space, q, slice(None))[1],
                       space.fine_tri_ct)
    cell = table.residuals.cell + 2.0 * areas * half_div
    S2 = s2_density(cell, areas, f_osc).sum()
    jumps = [ev + corrector_jumps(space, q, g) for g, ev
             in zip(space.decomp.interfaces, table.residuals.jumps)]
    return S1, S2, jump_norms_sq(space.decomp, jumps)


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
    ``f_tri`` of f, the oscillation ``f_osc`` of f (see ``s2_density``)
    and ``grad_moments``, the exact gradient's degree-5 mean (T, 2) and
    centered spread (T,) per triangle (``problem.exact_grad_moments``),
    filled on first use.  ``solve`` takes an iterate's ``rhs_table``, the
    weights of its round, a start and the start's majorant under those
    weights.

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
        self.f_tri, f_sq = f_cell_integrals(space.decomp.mesh, problem.f)
        self.f_osc = f_oscillation(space.decomp.mesh, self.f_tri, f_sq)
        self.alphas = tuple(alpha_weights((1.0, 1.0, 1.0), constants))
        self.fact = linalg.SaddleFactorization(self._matrix(self.alphas),
                                               space.C)
        self._round = None        # (alphas, factorization) or None

    def _matrix(self, alphas) -> sp.csc_matrix:
        return corrector_matrix(self.space, alphas, self.constants.beta)

    @cached_property
    def grad_moments(self) -> tuple:
        """``exact_grad_moments`` on the fine mesh, read-only: the mean
        (T, 2) and the centered spread (T,) of the exact gradient."""
        out = exact_grad_moments(self.space.decomp.mesh, self.problem)
        for a in out:
            a.flags.writeable = False
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
