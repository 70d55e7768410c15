"""Schwarz iterates measured against the discrete solution.

The package's Schwarz run records only its iterate.  The convergence tests
solve the global discrete Dirichlet problem once, then record the energy
distance sqrt(e . K e), e = v_h - v, after every sweep through
``on_sweep``.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ddmcert.problem import assemble_load, assemble_stiffness, solve_dirichlet
from ddmcert.schwarz import run_schwarz


def run_to_discrete(mesh, decomp, problem, sweeps, mode="multiplicative"):
    """Run Schwarz; return its final iterate, the per-sweep energy
    distances to the discrete solution, and that solution's own energy
    norm."""
    K = assemble_stiffness(mesh, problem.A)
    F = assemble_load(mesh, problem.f)
    bdry = mesh.boundary_vertices
    vh = solve_dirichlet(mesh, K, F, bdry,
                         problem.u_g(mesh.vertices[bdry])).values
    errors = []

    def on_sweep(n, v):
        e = vh - v.values
        errors.append(float(np.sqrt(max(e @ (K @ e), 0.0))))

    v = run_schwarz(mesh, decomp, problem, mode, sweeps, on_sweep=on_sweep)
    scale = float(np.sqrt(max(vh @ (K @ vh), 0.0)))
    return SimpleNamespace(v=v, errors=errors, scale=scale)


def contraction(run) -> "ContractionEstimate":
    """Contraction estimate of a ``run_to_discrete`` result, with ratios cut
    once the distance reaches 1e-10 of the discrete solution's norm."""
    return contraction_estimate(run.errors,
                                floor=1e-10 * max(run.scale, 1e-300))


@dataclass
class ContractionEstimate:
    rho_hat: float
    ratios: list[float]
    floored: bool


def contraction_estimate(history, floor: float = 0.0) -> ContractionEstimate:
    """Geometric-mean contraction factor of a recorded error sequence.

    ``history`` is a list of error norms.  Ratios are formed until the
    sequence reaches ``floor``; if fewer than two usable values remain, the
    estimate is 0 with the floor flag set.
    """
    errors = [float(r) for r in history]
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
