"""End-to-end runs: Schwarz iteration with certified per-sweep error bounds.

A run builds the preset geometry, iterates the alternating method, and at
selected sweeps reconstructs an admissible broken flux (averaged gradient
plus corrector) and evaluates the majorant.  The run's ``CorrectorSolver``,
built from the majorant constants, factorizes the corrector saddle system
once for the fixed weights.  ``certify_iterate`` runs one loop of rounds:
the fixed-weight one and, under ``--eps opt``, ``OPT_ROUNDS`` more with the
closed-form weights, each started from the round before; the solver solves
them by projected CG preconditioned by a factorization it keeps, stopped
once the round's majorant exceeds its minimum by at most a fixed fraction
of its start's, and factorizes only weights too far from both kept ones.
The sums that set a round's weights come from the round before's
corrector (``flux.steering_sums``, by the majorant's own S2 and jump
formulas), so the majorant is evaluated once per certified sweep, for the
final round's flux.  ``output_dir`` makes a run's artifact directory
before anything is computed, and a table command checks every
configuration of its runs (``table_configs``) before that; ``table_rows``
then runs exactly those configurations, certifying only the sweeps the
table prints.  A run returns its geometry, its problem and one
``SweepRow`` per certified sweep, which reads its error from its report.

What does not change from sweep to sweep is computed once per run: the
mesh keeps its P1 gradients, edge lengths and side midpoints, the
decomposition the averaging's corner keys and area sums, the corrector
space its slot weights, and the run's ``CorrectorSolver`` the cell
integrals and oscillation of f and the exact gradient's degree-5 mean
and centered spread per triangle, from which the energy error is one
pass over (T,) arrays.  What depends on the iterate but
not on the eps weights is formed once per iterate in ``certify_iterate``,
however many eps rounds certify it, and passed on: grad v, the flux
A grad v (averaged into the flux candidate, read by the table and by the
majorant), the energy error, and then the ``rhs_table`` of the corrector's
right-hand side as dof vectors, which each round only weights, with sum
S1 of the averaged flux under ``--eps opt``.  The majorant itself never reads the exact solution;
``certify_iterate`` attaches the energy error to its report.

Every certified sweep is checked twice.  A flux that misses the
admissibility constraints gives no guarantee, so ``certify_iterate`` raises
SolverError (the CLI turns it into exit code 2).  The true energy error may
never exceed the reported bounds beyond quadrature slack; a violation marks
the result (the CLI turns it into exit code 3) and would indicate a bug, not
a property of the method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from .flux import (CorrectorSolver, average_gradient, build_corrector_space,
                   corrected_flux, rhs_table, steering_sums)
from .linalg import SolverError
from . import majorant
from .majorant import (MajorantConstants, MajorantReport, alpha_weights,
                       evaluate_majorant, optimize_eps, weighted_parts)
from .mesh import (DomainDecomposition, TriMesh, build_coarse_mesh,
                   build_lshape_mesh, build_rect_mesh)
from .problem import (EllipticProblem, ScalarFieldP1,
                      manufactured_lshape_problem, mat_vec)
from .schwarz import run_schwarz
from . import vtkio

GUARANTEE_RTOL = 1e-9
# Rounds of the eps fixed point under ``--eps opt``; two reach it in practice.
OPT_ROUNDS = 2

PRESETS = ("lshape", "rect")
EPS_POLICIES = ("fixed", "opt")


class ConfigError(ValueError):
    """Invalid run configuration."""


def _check_reciprocal(value: float, name: str) -> None:
    if (not math.isfinite(value) or value <= 0
            or abs(1.0 / value - round(1.0 / value)) > 1e-9):
        raise ConfigError(f"{name}={value!r} must be the reciprocal "
                          "of a positive integer")


@dataclass
class RunConfig:
    """One pipeline invocation; see the CLI for the file/flag surface."""

    preset: str = "lshape"
    h: float = 0.25
    H: Optional[float] = None
    sweeps: int = 16
    mode: str = "multiplicative"
    eps_policy: str = "fixed"
    out: Optional[str] = None
    emit_fields: bool = False

    def validated(self) -> "RunConfig":
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        _check_reciprocal(self.h, "h")
        H = self.h if self.H is None else self.H
        _check_reciprocal(H, "H")
        if H < self.h - 1e-12:
            raise ConfigError(f"H={H} must not be finer than h={self.h}")
        if abs(H / self.h - round(H / self.h)) > 1e-9:
            raise ConfigError(f"H={H} is not an integer multiple of "
                              f"h={self.h}")
        if int(self.sweeps) != self.sweeps or self.sweeps < 1:
            raise ConfigError("sweeps must be a positive integer")
        if self.mode not in ("multiplicative", "additive"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.eps_policy not in EPS_POLICIES:
            raise ConfigError(f"unknown eps policy {self.eps_policy!r}")
        if self.emit_fields and self.out is None:
            raise ConfigError("emit_fields needs an output directory (out)")
        return replace(self, H=H, sweeps=int(self.sweeps))


def output_dir(out: Optional[str]) -> Optional[Path]:
    """The artifact directory ``out``, made if missing (None without one);
    ConfigError if it cannot be made, say where a file of that name is."""
    if out is None:
        return None
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: "
                          f"{exc}") from exc
    return path


@dataclass
class SweepRow:
    """Certified state of the iteration after a given sweep."""

    sweep: int
    report: MajorantReport

    @property
    def error(self) -> float:
        return self.report.energy_err

    def violates_guarantee(self) -> bool:
        """True unless error <= min(M, D11) (1 + GUARANTEE_RTOL), so that a
        NaN error or bound is a violation."""
        bound = np.minimum(self.report.total, self.report.D11)
        return not self.error <= bound * (1.0 + GUARANTEE_RTOL)


@dataclass
class RunResult:
    mesh: TriMesh
    decomp: DomainDecomposition
    problem: EllipticProblem
    rows: list = field(default_factory=list)

    def final_row(self) -> SweepRow:
        return self.rows[-1]


def build_preset(config: RunConfig):
    """Geometry + problem for a validated config."""
    if config.preset == "lshape":
        mesh, decomp = build_lshape_mesh(config.h)
    else:
        k = int(round(1.0 / config.h))
        mesh, decomp = build_rect_mesh(k, k, config.h)
    problem = manufactured_lshape_problem()
    return mesh, decomp, problem


def certify_iterate(v: ScalarFieldP1, solver: CorrectorSolver,
                    eps_policy: str = "fixed"):
    """Admissible flux + majorant report for one iterate.

    The first round uses the solver's fixed weights; with
    ``eps_policy='opt'`` ``OPT_ROUNDS`` more re-solve under the closed-form
    optimal weights of the round before, starting from its q, whose
    majorant under the new weights sets how closely the round is solved
    (``CorrectorSolver.solve``'s ``ref_sq``).  Those weights and that
    majorant come from the ``steering_sums`` of the round before's q; the
    final round's flux alone is evaluated by ``evaluate_majorant``, and the
    report carries the eps its weights used and the energy error of v.
    The constants and tables come from ``solver``; grad v, A grad v, the
    energy error and the weight-free ``rhs_table`` are formed once.
    Raises SolverError when the flux misses the admissibility constraints,
    ValueError for an ``eps_policy`` other than 'fixed' and 'opt'.
    """
    if eps_policy not in EPS_POLICIES:
        raise ValueError(f"unknown eps policy {eps_policy!r}: expected "
                         "'fixed' or 'opt'")
    space = solver.space
    problem = solver.problem
    constants = solver.constants
    grad_v = v.gradient()
    a_grad_v = np.stack(mat_vec(problem.A, grad_v[:, 0], grad_v[:, 1]), axis=1)
    yt = average_gradient(a_grad_v, space.decomp)
    # through the module, so that a probe wrapping it there sees it
    err = majorant.energy_error(v.mesh, problem.A, grad_v,
                                *solver.grad_moments)
    rounds = 1 + (OPT_ROUNDS if eps_policy == "opt" else 0)
    table = rhs_table(space, yt, a_grad_v, problem, solver.f_tri,
                      steering=rounds > 1)
    eps, sums, q, ref_sq = (1.0, 1.0, 1.0), None, None, None
    for n in range(rounds):
        if sums is not None:
            eps = optimize_eps(*sums, constants)
            # the start's M^2 (D11^2 unless optimize_eps clamps), from sums
            # already made
            ref_sq = sum(weighted_parts(*sums, alpha_weights(eps, constants),
                                        constants))
        q, _ = solver.solve(table, alpha_weights(eps, constants), start=q,
                            ref_sq=ref_sq)
        if n + 1 < rounds:
            sums = steering_sums(space, table, q, solver.f_osc)
    y = corrected_flux(yt, q, space)
    rep = evaluate_majorant(y, a_grad_v, problem, constants, solver.f_tri,
                            solver.f_osc, eps)
    if not rep.guaranteed:
        r = rep.residuals
        worst_s = np.abs(r.interface).max() if len(r.interface) else 0.0
        raise SolverError(
            "flux is not admissible, no guarantee: subdomain mean residual "
            f"{np.abs(r.subdomain).max():.3e}, interface mean residual "
            f"{worst_s:.3e}")
    return y, replace(rep, energy_err=err)


def _emit_fields(out: Path, sweep: int, mesh, v, y, problem, decomp):
    center = np.array([[1.0, 1.0, 1.0]]) / 3.0
    yc = y.values(center)[:, 0, :]
    vtkio.write_vtk(
        out / f"fields_sweep{sweep}.vtk", mesh,
        point_scalars={"v": v.values,
                       "u_exact": problem.exact_u(mesh.vertices)},
        cell_scalars={"div_y": y.divergence(),
                      "subdomain": decomp.tri_subdomain.astype(float)},
        cell_vectors={"flux_y": yc},
        title=f"sweep {sweep}")


def run_case(config: RunConfig,
             majorant_sweeps: Optional[Iterable[int]] = None) -> RunResult:
    """Run the full pipeline; certify the sweeps in ``majorant_sweeps``
    (default: every sweep)."""
    config = config.validated()
    out = output_dir(config.out)
    mesh, decomp, problem = build_preset(config)
    constants = MajorantConstants.default(decomp, problem)
    space = build_corrector_space(build_coarse_mesh(mesh, decomp, config.H),
                                  decomp, problem.A)
    solver = CorrectorSolver(space, problem, constants)
    wanted = (set(range(1, config.sweeps + 1)) if majorant_sweeps is None
              else {int(n) for n in majorant_sweeps})
    result = RunResult(mesh, decomp, problem)

    def on_sweep(n: int, iterate: ScalarFieldP1) -> None:
        if n not in wanted:
            return
        v = ScalarFieldP1(mesh, iterate.values.copy())
        y, rep = certify_iterate(v, solver, config.eps_policy)
        result.rows.append(SweepRow(n, rep))
        if config.emit_fields:
            _emit_fields(out, n, mesh, v, y, problem, decomp)

    # a keyword, so that a probe wrapping run_schwarz sees the callback
    run_schwarz(mesh, decomp, problem, config.mode, config.sweeps,
                on_sweep=on_sweep)
    return result


# ---------------------------------------------------------------------------
# Table drivers
# ---------------------------------------------------------------------------

TABLE1_H = (1 / 4, 1 / 8, 1 / 16, 1 / 32, 1 / 64)
TABLE2_COARSE = (1 / 4, 1 / 8, 1 / 16, 1 / 32)
# the sweeps the per-sweep tables list
TABLE_SWEEPS = {"table3": (2, 4, 6, 8), "table4": (2, 3, 4, 7, 8)}
# default (h, sweeps) per table; h is the finest mesh size for table1
TABLE_DEFAULTS = {"table1": (TABLE1_H[-1], 16), "table2": (1 / 64, 16),
                  "table3": (1 / 64, 8), "table4": (1 / 64, 8)}


def table_configs(name: str, h: Optional[float] = None,
                  sweeps: Optional[int] = None) -> list:
    """The validated configurations of the runs behind table ``name``
    (``table1`` .. ``table4``) at mesh size ``h`` and ``sweeps`` sweeps,
    the table's defaults where None; ConfigError if any is invalid.  It
    computes nothing, so a caller can check a table before making its
    output directory."""
    default_h, default_sweeps = TABLE_DEFAULTS[name]
    h = default_h if h is None else h
    sweeps = default_sweeps if sweeps is None else sweeps
    if name == "table1":
        if not any(abs(h - t) <= 1e-12 for t in TABLE1_H):
            sizes = ", ".join(f"1/{round(1 / t)}" for t in TABLE1_H)
            raise ConfigError(f"h={h} is not one of the table's mesh sizes "
                              f"{sizes}")
        configs = [RunConfig(h=t, H=t, sweeps=sweeps)
                   for t in TABLE1_H if t >= h - 1e-12]
    elif name == "table2":
        configs = [RunConfig(h=h, H=H, sweeps=sweeps)
                   for H in TABLE2_COARSE if H >= h - 1e-12]
        if not configs:
            raise ConfigError(f"no coarse sizes >= h={h} available")
    else:
        first = TABLE_SWEEPS[name][0]
        if sweeps < first:
            raise ConfigError(f"sweeps={sweeps} leaves the table empty: its "
                              f"first row is sweep {first}")
        configs = [RunConfig(h=h, H=h, sweeps=sweeps)]
    return [cfg.validated() for cfg in configs]


def table_rows(name: str, configs) -> list:
    """(key, row) pairs of table ``name`` for the ``configs`` that
    ``table_configs(name, ...)`` returned.

    ``table1`` keys by h the final sweep of one run per configuration,
    corrector on the fine mesh.  ``table2`` keys by H the certificates of
    one Schwarz run on the configurations' shared fine mesh, one corrector
    per coarse size.  ``table3`` and ``table4`` key by sweep the rows of
    their one run, which certifies only the sweeps the table lists.
    """
    if name == "table1":
        return [(cfg.h, run_case(cfg, majorant_sweeps=[cfg.sweeps])
                 .final_row()) for cfg in configs]
    if name in TABLE_SWEEPS:
        (cfg,) = configs
        res = run_case(cfg, majorant_sweeps=TABLE_SWEEPS[name])
        return [(row.sweep, row) for row in res.rows]
    fine = configs[0]
    mesh, decomp, problem = build_preset(fine)
    constants = MajorantConstants.default(decomp, problem)
    v = run_schwarz(mesh, decomp, problem, fine.mode, fine.sweeps)
    rows = []
    for cfg in configs:
        space = build_corrector_space(build_coarse_mesh(mesh, decomp, cfg.H),
                                      decomp, problem.A)
        solver = CorrectorSolver(space, problem, constants)
        _, rep = certify_iterate(v, solver, "fixed")
        rows.append((cfg.H, SweepRow(cfg.sweeps, rep)))
    return rows


# ---------------------------------------------------------------------------
# Invariant suite (CLI `check`)
# ---------------------------------------------------------------------------


def run_checks(h: float = 0.25):
    """Fast self-checks on a small preset; returns (name, ok, detail) rows."""
    out = []

    def add(name, ok, detail=""):
        out.append((name, bool(ok), detail))

    res = run_case(RunConfig(h=h, H=h, sweeps=8), majorant_sweeps=[4, 8])
    rep = res.final_row().report
    err = res.final_row().error

    r = rep.residuals
    worst = max(np.abs(r.subdomain).max(),
                np.abs(r.interface).max() if len(r.interface) else 0.0)
    add("admissibility means <= 1e-10", worst <= 1e-10, f"max {worst:.2e}")
    ok = not any(row.violates_guarantee() for row in res.rows)
    add("guarantee error <= bounds", ok,
        f"final error {err:.3e} vs bound {min(rep.total, rep.D11):.3e}")

    def within(name, bound, *pairs):
        gap = max(abs(got - want) / max(abs(want), 1e-300)
                  for got, want in pairs)
        add(name, gap <= bound, f"rel gap {gap:.1e} vs {bound:.0e}")

    within("M_sq equals sum of parts", 1e-12,
           (rep.M1_sq + rep.M2_sq + rep.M3_sq, rep.total_sq))
    within("per-subdomain breakdown sums", 1e-12,
           (rep.alphas[0] * rep.S1.sum(), rep.M1_sq),
           (rep.alphas[1] * rep.S2.sum(), rep.M2_sq))

    opt = run_case(RunConfig(h=h, H=h, sweeps=8, eps_policy="opt"),
                   majorant_sweeps=[8]).final_row().report
    add("optimized eps never increases M",
        opt.total <= rep.total * (1 + 1e-12),
        f"{opt.total:.4e} <= {rep.total:.4e}")
    within("optimal-eps value matches structural bound", 1e-6,
           (opt.total, opt.D11))
    return out
