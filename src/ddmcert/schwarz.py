"""Overlapping Schwarz alternating method on a shared background mesh.

Subdomain problems are re-discretizations of the global P1 system restricted
to an overlapping subdomain: one iteration solves the discrete Dirichlet
problem on a single Omega_j with boundary data taken from the trace of the
current global iterate, then overwrites the iterate inside Omega_j.  The
iteration counter therefore advances by one per subdomain solve; the additive
variant instead solves every subdomain against the same pre-iterate once per
sweep and combines updates in a fixed order.  Each subdomain solve is the
``linalg.dirichlet_correction`` of its interior nodes: a sparse direct
factorization of the subdomain block, made afresh in the sweep that uses
it.  A run keeps only the iterate and which subdomains each sweep solved;
anything measured along the way (a majorant, a distance to the discrete
solution) is computed by the caller in the ``on_sweep`` callback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .mesh import TriMesh, DomainDecomposition
from .problem import (EllipticProblem, ScalarFieldP1, assemble_load,
                      assemble_stiffness)


@dataclass
class SchwarzConfig:
    mode: str = "multiplicative"
    sweeps: int = 16
    order: Optional[tuple[int, ...]] = None

    def validated(self, n_overlap: int) -> "SchwarzConfig":
        if self.mode not in ("multiplicative", "additive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        order = tuple(range(n_overlap)) if self.order is None else tuple(self.order)
        if sorted(order) != list(range(n_overlap)):
            raise ValueError("order must be a permutation of the subdomains")
        return SchwarzConfig(self.mode, self.sweeps, order)


@dataclass
class SweepRecord:
    sweep: int
    solved: tuple[int, ...]


@dataclass
class SchwarzState:
    """Iterate, counter, and per-sweep history of a Schwarz run."""

    v: ScalarFieldP1
    sweep: int
    history: list[SweepRecord] = field(default_factory=list)


def interior_nodes(mesh: TriMesh, decomp: DomainDecomposition, j: int) -> np.ndarray:
    """Vertices strictly inside Omega_j: all incident triangles belong to
    Omega_j and the vertex is not on the outer boundary."""
    in_overlap = np.zeros(mesh.n_triangles, dtype=bool)
    in_overlap[decomp.overlap_tris(j)] = True
    total = np.zeros(mesh.n_vertices, dtype=np.int64)
    inside = np.zeros(mesh.n_vertices, dtype=np.int64)
    np.add.at(total, mesh.triangles.ravel(), 1)
    np.add.at(inside, mesh.triangles[in_overlap].ravel(), 1)
    mask = (inside > 0) & (inside == total) & ~mesh.boundary_vertex_mask
    return np.nonzero(mask)[0]


def run_schwarz(mesh: TriMesh, decomp: DomainDecomposition,
                problem: EllipticProblem, config: SchwarzConfig,
                on_sweep: Optional[Callable] = None) -> SchwarzState:
    """Run the alternating method from the zero iterate (with the boundary
    data in place) and return its state and history.

    ``on_sweep(state, record)`` is invoked after every sweep; callers use it
    to certify the iterate or to measure it against a reference solution.
    """
    config = config.validated(decomp.n_overlap)
    K = assemble_stiffness(mesh, problem.A)
    F = assemble_load(mesh, problem.f)

    bdry = mesh.boundary_vertices
    v = np.zeros(mesh.n_vertices)
    v[bdry] = problem.u_g(mesh.vertices[bdry])

    # Per-subdomain interior index sets and their stiffness blocks.
    idx_sets = [interior_nodes(mesh, decomp, j) for j in range(decomp.n_overlap)]
    blocks = [K[idx][:, idx].tocsc() for idx in idx_sets]

    def solve_on(j, values):
        try:
            return linalg.dirichlet_correction(blocks[j], K, F, values,
                                               idx_sets[j])
        except linalg.SolverError as exc:
            raise linalg.SolverError(
                f"subdomain solve failed on Omega_{j + 1}: {exc}",
                residual=exc.residual) from exc

    state = SchwarzState(ScalarFieldP1(mesh, v), 0)
    M = decomp.n_overlap
    for n in range(1, config.sweeps + 1):
        if config.mode == "multiplicative":
            j = config.order[(n - 1) % M]
            delta = solve_on(j, v)
            v[idx_sets[j]] += delta
            solved = (j,)
        else:
            pre = v.copy()
            deltas = [solve_on(j, pre) for j in config.order]
            for j, delta in zip(config.order, deltas):
                v[idx_sets[j]] = pre[idx_sets[j]] + delta
            solved = tuple(config.order)
        state.sweep = n
        record = SweepRecord(n, solved)
        state.history.append(record)
        if on_sweep is not None:
            on_sweep(state, record)
    return state
