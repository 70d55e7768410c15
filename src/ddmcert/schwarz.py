"""Overlapping Schwarz alternating method on a shared background mesh.

Subdomain problems are re-discretizations of the global P1 system restricted
to an overlapping subdomain: one iteration solves the discrete Dirichlet
problem on a single Omega_j with boundary data taken from the trace of the
current global iterate, then overwrites the iterate inside Omega_j.  The
iteration counter therefore advances by one per subdomain solve; the additive
variant instead solves every subdomain against the same pre-iterate once per
sweep and combines updates in index order.  Each subdomain solve is the
``linalg.dirichlet_correction`` of its interior nodes, with a
``linalg.SymmetricFactorization`` of the subdomain block.  ``run_schwarz``
makes one per subdomain at its entry and keeps it for every sweep, since
the blocks do not change (Toselli & Widlund, Domain Decomposition
Methods, Springer 2005); no block is kept.  Beside those factors a run
keeps only the iterate, which ``run_schwarz`` returns; anything
measured along the way (a majorant, a distance to the discrete solution)
is computed by the caller in the ``on_sweep(n, v)`` callback.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import linalg
from .mesh import TriMesh, DomainDecomposition
from .problem import (EllipticProblem, ScalarFieldP1, assemble_load,
                      assemble_stiffness)


def interior_nodes(mesh: TriMesh, decomp: DomainDecomposition, j: int) -> np.ndarray:
    """Vertices strictly inside Omega_j: all incident triangles belong to
    Omega_j and the vertex is not on the outer boundary."""
    in_overlap = np.isin(decomp.tri_subdomain, decomp.overlaps[j])
    total = np.bincount(mesh.triangles.ravel(), minlength=mesh.n_vertices)
    inside = np.bincount(mesh.triangles[in_overlap].ravel(),
                         minlength=mesh.n_vertices)
    mask = (inside > 0) & (inside == total) & ~mesh.boundary_vertex_mask
    return np.nonzero(mask)[0]


def run_schwarz(mesh: TriMesh, decomp: DomainDecomposition,
                problem: EllipticProblem, mode: str, sweeps: int,
                on_sweep: Optional[Callable] = None) -> ScalarFieldP1:
    """Run ``sweeps`` sweeps of the alternating method from the zero
    iterate (with the boundary data in place) and return the final iterate.

    A multiplicative sweep n solves on Omega_j, j = (n - 1) mod the number
    of subdomains; an additive sweep solves every Omega_j against the same
    pre-iterate, in index order.  ``on_sweep(n, v)`` is invoked after sweep
    n with the iterate v, which later sweeps update in place; callers use it
    to certify the iterate or to measure it against a reference solution.
    ValueError for an unknown ``mode`` or ``sweeps < 1``; SolverError if a
    subdomain block does not factorize or a subdomain solve fails.
    """
    if mode not in ("multiplicative", "additive"):
        raise ValueError(f"unknown mode {mode!r}")
    if sweeps < 1:
        raise ValueError("sweeps must be >= 1")
    K = assemble_stiffness(mesh, problem.A)
    F = assemble_load(mesh, problem.f)

    bdry = mesh.boundary_vertices
    v = np.zeros(mesh.n_vertices)
    v[bdry] = problem.u_g(mesh.vertices[bdry])

    # Per-subdomain interior index sets and the factors of their blocks.
    M = decomp.n_overlap
    idx_sets = [interior_nodes(mesh, decomp, j) for j in range(M)]
    facts = []
    for j, idx in enumerate(idx_sets):
        try:
            facts.append(linalg.SymmetricFactorization(K[idx][:, idx]))
        except linalg.SolverError as exc:
            raise linalg.SolverError(
                f"subdomain factorization failed on Omega_{j + 1}: {exc}",
                residual=exc.residual) from exc

    def solve_on(j, values):
        try:
            return linalg.dirichlet_correction(facts[j], K, F, values,
                                               idx_sets[j])
        except linalg.SolverError as exc:
            raise linalg.SolverError(
                f"subdomain solve failed on Omega_{j + 1}: {exc}",
                residual=exc.residual) from exc

    iterate = ScalarFieldP1(mesh, v)      # shares v, updated in place
    for n in range(1, sweeps + 1):
        if mode == "multiplicative":
            j = (n - 1) % M
            delta = solve_on(j, v)
            v[idx_sets[j]] += delta
        else:
            pre = v.copy()
            deltas = [solve_on(j, pre) for j in range(M)]
            for j, delta in enumerate(deltas):
                v[idx_sets[j]] = pre[idx_sets[j]] + delta
        if on_sweep is not None:
            on_sweep(n, iterate)
    return iterate
