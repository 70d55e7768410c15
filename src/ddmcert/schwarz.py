"""Overlapping Schwarz alternating method on a shared background mesh.

Subdomain problems are re-discretizations of the global P1 system restricted
to an overlapping subdomain: one iteration solves the discrete Dirichlet
problem on a single Omega_j with boundary data taken from the trace of the
current global iterate, then overwrites the iterate inside Omega_j.  The
iteration counter therefore advances by one per subdomain solve; the additive
variant instead solves every subdomain against the same pre-iterate once per
sweep and combines updates in a fixed order.  Each subdomain solve is a sparse
direct factorization of the subdomain block, made afresh in the sweep that
uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from . import linalg
from .mesh import TriMesh, DomainDecomposition
from .problem import (EllipticProblem, LinearSystem, ScalarFieldP1,
                      assemble_load, assemble_stiffness)


@dataclass
class SchwarzConfig:
    mode: str = "multiplicative"
    sweeps: int = 16
    order: Optional[tuple[int, ...]] = None
    initial: object = "zero"     # "zero" or a ScalarFieldP1

    def validated(self, n_overlap: int) -> "SchwarzConfig":
        if self.mode not in ("multiplicative", "additive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        order = tuple(range(n_overlap)) if self.order is None else tuple(self.order)
        if sorted(order) != list(range(n_overlap)):
            raise ValueError("order must be a permutation of the subdomains")
        return SchwarzConfig(self.mode, self.sweeps, order, self.initial)


@dataclass
class SweepRecord:
    sweep: int
    solved: tuple[int, ...]
    error_to_discrete: Optional[float] = None
    energy_error: Optional[float] = None
    majorant: object = None


@dataclass
class SchwarzState:
    """Iterate, counter, and per-sweep history of a Schwarz run."""

    v: ScalarFieldP1
    sweep: int
    history: list[SweepRecord] = field(default_factory=list)
    discrete_solution: Optional[ScalarFieldP1] = None
    discrete_scale: float = 0.0

    def discrete_errors(self) -> list[float]:
        return [r.error_to_discrete for r in self.history
                if r.error_to_discrete is not None]

    def contraction(self) -> "ContractionEstimate":
        return contraction_estimate(self.discrete_errors(),
                                    floor=1e-10 * max(self.discrete_scale, 1e-300))


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
                system: LinearSystem | None = None,
                load: np.ndarray | None = None,
                on_sweep: Optional[Callable] = None,
                track_discrete: bool = True) -> SchwarzState:
    """Run the alternating method and return its state and history.

    ``on_sweep(state, record)`` is invoked after every sweep; callers use it
    to attach majorant evaluations to the history.  When ``track_discrete``
    is set, the converged discrete solution is computed once up front and
    each record carries the energy distance to it.
    """
    config = config.validated(decomp.n_overlap)
    if system is None:
        system = assemble_stiffness(mesh, problem.A)
    K = system.matrix
    F = assemble_load(mesh, problem.f) if load is None else load

    bdry = mesh.boundary_vertices
    bvals = problem.u_g(mesh.vertices[bdry])

    if isinstance(config.initial, ScalarFieldP1):
        v = config.initial.values.copy()
    else:
        v = np.zeros(mesh.n_vertices)
    v[bdry] = bvals

    # Per-subdomain interior index sets and their stiffness blocks.
    idx_sets = [interior_nodes(mesh, decomp, j) for j in range(decomp.n_overlap)]
    blocks = [K[idx][:, idx].tocsc() for idx in idx_sets]

    vh = None
    scale = 0.0
    if track_discrete:
        from .problem import solve_dirichlet
        vh = solve_dirichlet(LinearSystem(K, F, mesh=mesh), bdry, bvals)
        scale = float(np.sqrt(max(vh.values @ (K @ vh.values), 0.0)))

    def err_to_discrete(values):
        e = vh.values - values
        return float(np.sqrt(max(e @ (K @ e), 0.0)))

    def solve_on(j, values):
        idx = idx_sets[j]
        r = (F - K @ values)[idx]
        try:
            fact = linalg.SaddleFactorization(blocks[j],
                                              sp.csc_matrix((0, len(idx))))
            return fact.solve(r)[0]
        except linalg.SolverError as exc:
            raise linalg.SolverError(
                f"subdomain solve failed on Omega_{j + 1}: {exc}",
                residual=exc.residual) from exc

    state = SchwarzState(ScalarFieldP1(mesh, v), 0,
                         discrete_solution=vh, discrete_scale=scale)
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
        if track_discrete:
            record.error_to_discrete = err_to_discrete(v)
        state.history.append(record)
        if on_sweep is not None:
            on_sweep(state, record)
    return state


@dataclass
class ContractionEstimate:
    rho_hat: float
    ratios: list[float]
    floored: bool


def contraction_estimate(history, floor: float = 0.0) -> ContractionEstimate:
    """Geometric-mean contraction factor of a recorded error sequence.

    ``history`` is a list of error norms (or SweepRecords carrying them).
    Ratios are formed until the sequence reaches ``floor``; if fewer than two
    usable values remain, the estimate is 0 with the floor flag set.
    """
    errors = [r.error_to_discrete if isinstance(r, SweepRecord) else float(r)
              for r in history]
    if len(errors) < 3:
        raise ValueError("need at least 3 recorded sweeps")
    cut = len(errors)
    for i, e in enumerate(errors):
        if e <= floor:
            cut = i
            break
    valid = errors[:cut]
    floored = cut < len(errors)
    if len(valid) < 2:
        return ContractionEstimate(0.0, [], True)
    ratios = [valid[i + 1] / valid[i] for i in range(len(valid) - 1)]
    rho = (valid[-1] / valid[0]) ** (1.0 / (len(valid) - 1))
    return ContractionEstimate(float(rho), ratios, floored)
