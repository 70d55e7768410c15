"""Acceptance gate.

Each criterion is one test emitting one PASS/FAIL line with the measured
numbers; the heavy runs are shared through module-scoped fixtures.  Nothing
here is tuned to pass — the bands and tolerances are the contract.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from ddmcert.flux import (CorrectorSolver, average_gradient, corrected_flux,
                          rhs_table)
from ddmcert.majorant import (MajorantConstants, evaluate_majorant,
                              optimize_eps, poincare_edge_constant)
from ddmcert.mesh import (build_coarse_mesh, build_lshape_mesh,
                          build_rect_mesh, compatibility_check)
from ddmcert.pipeline import (RunConfig, run_case, table1_rows, table2_rows,
                              table_configs)
from ddmcert.problem import (assemble_load, assemble_stiffness,
                             f_cell_integrals, manufactured_lshape_problem)
from ddmcert.schwarz import run_schwarz

from _discrete import contraction, run_to_discrete
from _iterate import a_grad, error_of

PI = math.pi


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------


MATRIX_H = (1 / 4, 1 / 8, 1 / 16)
MATRIX_SWEEPS = (2, 4, 8, 16)


@pytest.fixture(scope="module")
def matrix_runs():
    """{h} x {H in {h, 4h}} runs certified at sweeps {2, 4, 8, 16}."""
    t0 = time.perf_counter()
    runs = {}
    for h in MATRIX_H:
        for H in (h, 4 * h):
            cfg = RunConfig(h=h, H=H, sweeps=16)
            runs[(h, H)] = run_case(cfg, majorant_sweeps=MATRIX_SWEEPS)
    return SimpleNamespace(runs=runs, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def table1_data():
    t0 = time.perf_counter()
    rows = table1_rows(table_configs("table1", 1 / 32, 16))
    return SimpleNamespace(rows=rows, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def table2_data():
    """Table 2 at h = 1/64, plus the H = h row the coarse rows compare to."""
    t0 = time.perf_counter()
    configs = table_configs("table2", 1 / 64, 16)
    rows = table2_rows(configs + [RunConfig(h=1 / 64, sweeps=16).validated()])
    return SimpleNamespace(rows=rows, elapsed=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def table2_half_data():
    """Table 2 on the h = 1/32 iterate, for the coarse sizes shared with
    h = 1/64 (H = 1/32 would be H = h there)."""
    return table2_rows([RunConfig(h=1 / 32, H=H, sweeps=16).validated()
                        for H in (1 / 4, 1 / 8, 1 / 16)])


@pytest.fixture(scope="module")
def table34_data():
    (cfg,) = table_configs("table3", 1 / 64, 8)
    return run_case(cfg, majorant_sweeps=(2, 3, 4, 5, 6, 7, 8))


# ---------------------------------------------------------------------------
# 1. guarantee property
# ---------------------------------------------------------------------------


def test_criterion_01_guarantee_property(matrix_runs):
    worst = math.inf
    count = 0
    for res in matrix_runs.runs.values():
        for row in res.rows:
            rep = row.report
            assert rep.guaranteed, "corrected flux not admissible"
            for bound in (rep.total, rep.D11):
                worst = min(worst, (bound - row.error) / bound)
            count += 1
    ok = worst >= -1e-9 and matrix_runs.elapsed < 120.0
    verdict(1, ok, f"error within both bounds on {count} certified iterates "
                   f"(min relative slack {worst:.3e}, "
                   f"{matrix_runs.elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. refinement study, corrector on the fine mesh
# ---------------------------------------------------------------------------


def test_criterion_02_table1_bands(table1_data):
    effs = [row.report.efficiency for _, row in table1_data.rows]
    totals = [row.report.total_sq for _, row in table1_data.rows]
    factors = [a / b for a, b in zip(totals, totals[1:])]
    ok = (all(2.0 <= e <= 4.5 for e in effs)
          and all(3.2 <= f <= 4.8 for f in factors)
          and table1_data.elapsed < 300.0)
    verdict(2, ok, "I_eff " + "/".join(f"{e:.2f}" for e in effs)
                   + ", refinement factors "
                   + "/".join(f"{f:.2f}" for f in factors)
                   + f" ({table1_data.elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. coarse corrector on the fine h=1/64 run
# ---------------------------------------------------------------------------


def _boundary_strip(h: float):
    """Where the uncorrected equilibration residual sits on the Table 2
    iterate.

    Runs the Schwarz iteration ``table2_rows`` certifies, averages its flux
    and splits ||div ytilde + f||^2 between the triangles that touch a
    vertex on some basic-subdomain boundary (outer boundary or interface)
    and the rest.  Returns the strip's share of the residual and of the
    area, and the iterate's energy error (to tie it to the Table 2 rows).
    """
    problem = manufactured_lshape_problem()
    mesh, decomp = build_lshape_mesh(h)
    v = run_schwarz(mesh, decomp, problem, "multiplicative", 16)
    c = average_gradient(a_grad(v, problem.A), decomp).divergence()
    f_tri, f_sq = f_cell_integrals(mesh, problem.f)
    resid = c * c * mesh.areas + 2.0 * c * f_tri + f_sq
    on_boundary = np.zeros(mesh.n_vertices, dtype=bool)
    on_boundary[mesh.boundary_vertices] = True
    for g in decomp.interfaces:
        on_boundary[g.endpoints.ravel()] = True
    strip = on_boundary[mesh.triangles].any(axis=1)
    return SimpleNamespace(
        share=float(resid[strip].sum() / resid.sum()),
        area=float(mesh.areas[strip].sum() / mesh.areas.sum()),
        error=error_of(v, problem))


def test_criterion_03_table2_coarse_corrector(table2_data, table2_half_data):
    """A coarse corrector certifies, M2 carries the excess, and efficiency
    is lost as H coarsens.

    The averaged flux is one-sided at the nodes of every basic-subdomain
    boundary, so div ytilde + f is O(1) in the one-triangle strip along
    it.  A corrector whose divergence is constant on H-cells cannot remove
    that strip, and only its mean is constrained, so the leftover stays in
    M2: ||div ytilde + f||^2 ~ h against an error^2 ~ h^2, i.e. the
    coarse-corrector I_eff grows like h^(-1/2).  No fixed I_eff floor
    holds for every h; what holds is asserted below.
    """
    rows = [row for _, row in table2_data.rows]
    coarse, fine = rows[:-1], rows[-1]
    effs = [row.report.efficiency for row in rows]
    shares = [row.report.M2_sq / row.report.total_sq for row in coarse]

    # (a) guarantee on every row, including H > 4h, which criterion 1
    # never reaches
    guaranteed = all(
        row.report.guaranteed
        and row.error <= min(row.report.total, row.report.D11) * (1 + 1e-9)
        for row in rows + [row for _, row in table2_half_data])

    # (b) 2H cell-triangles are tiled by H cell-triangles with the same
    # diagonal, so the corrector spaces are nested; the mean constraints
    # do not depend on H and the corrector minimizes M^2(1,1,1) exactly,
    # so M cannot grow as H is refined down to H = h.
    totals = [row.report.total for row in rows]
    monotone = (all(b <= a * (1 + 1e-10) for a, b in zip(totals, totals[1:]))
                and all(row.report.efficiency > fine.report.efficiency
                        for row in coarse))

    # (c) an O(h^(1/2)) residual against an O(h) error: halving h raises
    # the coarse I_eff by about sqrt(2); an O(h) residual would leave it
    # near 1
    half = {round(1 / H): row.report.efficiency
            for H, row in table2_half_data}
    ratios = [row.report.efficiency / half[round(1 / H)]
              for H, row in table2_data.rows if round(1 / H) in half]
    growth = len(ratios) == 3 and all(r >= 1.2 for r in ratios)

    # (d) the residual sits in the strip along the subdomain boundaries
    strip = _boundary_strip(1 / 64)
    same_iterate = abs(strip.error - fine.error) <= 1e-12 * fine.error
    located = same_iterate and strip.share > 0.5

    checks = {"guarantee": guaranteed, "monotone in H": monotone,
              "h-growth": growth, "strip": located,
              "M2 share": all(s >= 0.9 for s in shares),
              "time": table2_data.elapsed < 600.0}
    failed = [name for name, ok in checks.items() if not ok]
    verdict(3, not failed,
            "I_eff " + "/".join(f"{e:.2f}" for e in effs)
            + " at H=1/4..1/32 and H=h=1/64, M2^2 share "
            + "/".join(f"{s:.3f}" for s in shares)
            + " (need >= 0.9), I_eff(h=1/64)/I_eff(h=1/32) "
            + "/".join(f"{r:.2f}" for r in ratios)
            + f" at H=1/4..1/16 (need >= 1.2), {strip.share:.0%} of "
            f"||div ytilde + f||^2 on the {strip.area:.1%}-area boundary "
            f"strip (need > 50%) ({table2_data.elapsed:.1f}s)"
            + (f"; failed: {', '.join(failed)}" if failed else ""))


# ---------------------------------------------------------------------------
# 4. decay along the iteration
# ---------------------------------------------------------------------------


def test_criterion_04_table3_decay(table34_data):
    totals = [row.report.total_sq for row in table34_data.rows]
    monotone = all(a > b for a, b in zip(totals, totals[1:]))
    drop = totals[0] / totals[-1]
    ok = monotone and drop >= 100.0
    verdict(4, ok, f"M^2 monotone={monotone}, sweep-2/sweep-8 ratio "
                   f"{drop:.0f} (need >= 100)")


# ---------------------------------------------------------------------------
# 5. per-subdomain terms locate the stale subdomain
# ---------------------------------------------------------------------------


def test_criterion_05_table4_argmax(table34_data):
    row3 = next(r for r in table34_data.rows if r.sweep == 3)
    parts = row3.report.alphas[0] * row3.report.S1
    ok = int(np.argmax(parts)) == 2
    verdict(5, ok, "largest M1^2 part at sweep 3 is subdomain "
                   f"{np.argmax(parts) + 1} (expect omega_3); parts "
                   + "/".join(f"{p:.2e}" for p in parts))


# ---------------------------------------------------------------------------
# 6. admissibility residuals
# ---------------------------------------------------------------------------


def test_criterion_06_admissibility(matrix_runs, table34_data):
    worst = 0.0
    results = list(matrix_runs.runs.values()) + [table34_data]
    for res in results:
        f_tri = f_cell_integrals(res.mesh, res.problem.f)[0]
        scale = 1.0 + float(np.abs(f_tri).max() / res.mesh.areas.min())
        for row in res.rows:
            r = row.report.residuals
            worst = max(worst, float(np.abs(r.subdomain).max()) / scale)
            if len(r.interface):
                worst = max(worst, float(np.abs(r.interface).max()) / scale)
    ok = worst <= 1e-10
    verdict(6, ok, f"worst scale-normalized constraint mean {worst:.2e} "
                   f"over {sum(len(r.rows) for r in results)} corrected "
                   "fluxes (need <= 1e-10)")


# ---------------------------------------------------------------------------
# 7. weight optimizer against a grid-search oracle
# ---------------------------------------------------------------------------


def test_criterion_07_eps_optimizer_oracle():
    unit = MajorantConstants(C_min=1.0, C_P=np.array([1.0]),
                             beta=np.array([1.0]), E_max=1.0)

    def objective(e1, e2, e3, T):
        return ((1 + e1 + e2) * T[0] + (1 + 1 / e1 + e3) * T[1]
                + (1 / e2 + 1 / e3 + 1) * T[2])

    grid = np.logspace(-4, 4, 60)
    E1 = grid[:, None, None]
    E2 = grid[None, :, None]
    E3 = grid[None, None, :]
    rng = np.random.default_rng(42)
    worst_gap = -math.inf
    for T in 10.0 ** rng.uniform(-3, 3, size=(100, 3)):
        eps = optimize_eps(T[0], T[1], T[2], unit)
        val = objective(*eps, T)
        grid_best = float(objective(E1, E2, E3, T).min())
        assert val <= grid_best * (1 + 1e-6), \
            f"grid beats closed form on T={T}"
        assert val <= objective(1.0, 1.0, 1.0, T) * (1 + 1e-12)
        worst_gap = max(worst_gap, val / grid_best - 1.0)
    verdict(7, True, "closed form at or below the 60^3 grid on 100 random "
                     f"triples (worst relative gap {worst_gap:+.1e}) and "
                     "never above eps=(1,1,1)")


# ---------------------------------------------------------------------------
# 8. constants and solvability verdicts
# ---------------------------------------------------------------------------


def test_criterion_08_constants():
    cp_ok = abs(poincare_edge_constant(1.0) - 0.565244) <= 1e-5
    hex_no, _ = compatibility_check(6, 13, 0, 3)
    hex_yes, _ = compatibility_check(6, 13, 1, 3)
    case_a = (not hex_no) and hex_yes
    case_b = True
    for n, m in ((1, 1), (1, 4), (3, 1), (2, 2), (2, 3), (4, 4)):
        grid, _ = build_rect_mesh(n, m, 1.0)     # no Dirichlet edge
        ok, _ = compatibility_check(grid.n_triangles, grid.n_edges, 0, 3)
        case_b = case_b and (ok == (n > 1 and m > 1))
    verdict(8, cp_ok and case_a and case_b,
            f"poincare_edge_constant(1)={poincare_edge_constant(1.0):.6f} "
            "(0.565244 +- 1e-5); hexagon needs one Dirichlet edge: "
            f"{case_a}; grids solvable iff n,m>1: {case_b}")


# ---------------------------------------------------------------------------
# 9. Schwarz convergence
# ---------------------------------------------------------------------------


def test_criterion_09_schwarz_convergence():
    problem = manufactured_lshape_problem()
    rhos = []
    monotone = True
    for h in (1 / 8, 1 / 16):
        mesh, decomp = build_lshape_mesh(h)
        run = run_to_discrete(mesh, decomp, problem, 16)
        dists = run.errors
        monotone = monotone and all(
            b <= a * (1 + 1e-12) for a, b in zip(dists, dists[1:]))
        rhos.append(contraction(run).rho_hat)
    ok = all(r < 1.0 for r in rhos) and monotone
    verdict(9, ok, "contraction rho_hat "
                   + "/".join(f"{r:.4f}" for r in rhos)
                   + f" at h=1/8, 1/16 (need < 1); per-sweep distance "
                   f"monotone: {monotone}")


# ---------------------------------------------------------------------------
# 10. dense brute-force oracle on the six-triangle mesh
# ---------------------------------------------------------------------------


def _cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _p1_gradients(verts):
    """Gradients of the three barycentric functions on one triangle."""
    B = np.array([verts[1] - verts[0], verts[2] - verts[0]]).T
    ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return ref @ np.linalg.inv(B)


def _linear_div(verts, vals):
    """Divergence of the linear vector field with the given vertex values."""
    g = _p1_gradients(verts)
    return float(vals[:, 0] @ g[:, 0] + vals[:, 1] @ g[:, 1])


class _DenseOracle:
    """From-scratch dense implementation of every pipeline formula on the
    coarsest L-shape; shares only mesh data, dof meanings and the integrals
    of f with the package."""

    def __init__(self, mesh, decomp, coarse, space, problem, f_tri, f_sq):
        self.mesh = mesh
        self.decomp = decomp
        self.problem = problem
        self.f_tri = f_tri
        self.f_sq = f_sq
        self.tverts = mesh.vertices[mesh.triangles]
        self.areas = np.array([0.5 * abs(_cross2(v[1] - v[0], v[2] - v[0]))
                               for v in self.tverts])
        self.beta_sq = 1.0 / (PI * math.tanh(PI))
        self.alphas = (3.0, 6.0 / PI ** 2, 6.0)
        self._index_corrector(coarse)
        assert self.n_dofs == space.n_dofs

    # -- assembly -----------------------------------------------------------

    def stiffness(self):
        n = self.mesh.n_vertices
        K = np.zeros((n, n))
        for tri, verts, S in zip(self.mesh.triangles, self.tverts,
                                 self.areas):
            g = _p1_gradients(verts)
            K[np.ix_(tri, tri)] += S * g @ self.problem.A @ g.T
        return K

    def load(self):
        F = np.zeros(self.mesh.n_vertices)
        for tri, verts, S in zip(self.mesh.triangles, self.tverts,
                                 self.areas):
            mids = 0.5 * (verts[[1, 2, 0]] + verts[[2, 0, 1]])
            fm = self.problem.f(mids)
            for i in range(3):
                F[tri[i]] += S / 3.0 * 0.5 * (fm[(i + 1) % 3]
                                              + fm[(i + 2) % 3])
        return F

    # -- Schwarz ------------------------------------------------------------

    def schwarz(self, K, F, sweeps):
        pts = self.mesh.vertices
        inside = [
            (pts[:, 0] > 1e-12) & (pts[:, 0] < 1 - 1e-12)
            & (pts[:, 1] > 1e-12) & (pts[:, 1] < 2 - 1e-12),
            (pts[:, 0] > 1e-12) & (pts[:, 0] < 2 - 1e-12)
            & (pts[:, 1] > 1e-12) & (pts[:, 1] < 1 - 1e-12),
        ]
        v = np.zeros(self.mesh.n_vertices)
        bdry = self.mesh.boundary_vertices
        v[bdry] = self.problem.u_g(pts[bdry])
        for n in range(1, sweeps + 1):
            idx = np.flatnonzero(inside[(n - 1) % 2])
            r = (F - K @ v)[idx]
            v[idx] += np.linalg.solve(K[np.ix_(idx, idx)], r)
        return v

    # -- averaged flux ------------------------------------------------------

    def averaged_flux(self, v):
        grads = np.array([
            vals @ _p1_gradients(verts)
            for verts, vals in zip(self.tverts, v[self.mesh.triangles])])
        flux = grads @ self.problem.A.T
        sub = self.decomp.tri_subdomain
        p1 = np.zeros((self.mesh.n_triangles, 3, 2))
        for t, tri in enumerate(self.mesh.triangles):
            for i, vert in enumerate(tri):
                num = np.zeros(2)
                den = 0.0
                for t2, tri2 in enumerate(self.mesh.triangles):
                    if sub[t2] == sub[t] and vert in tri2:
                        num += self.areas[t2] * flux[t2]
                        den += self.areas[t2]
                p1[t, i] = num / den
        return p1

    # -- corrector field reconstruction --------------------------------------

    def _index_corrector(self, coarse):
        """Resolve every cell-triangle slot to (dof, sign) from geometry and
        the published dof meanings (numbered edge by edge; total flux along
        each edge's normal, its tangent from ``edges[:, 0]`` to
        ``edges[:, 1]`` turned clockwise; an interface edge's omega_k dof,
        then its omega_j dof)."""
        tri = coarse.tri
        ends = tri.vertices[tri.edges]                     # (E, 2, 2)
        first_dof, iface, n = [], [], 0
        for e, (t0, t1) in enumerate(tri.edge_tris):
            first_dof.append(n)
            subs = {int(coarse.cell_sub[t]) for t in (t0, t1) if t >= 0}
            iface.append(next((m for m, g in enumerate(self.decomp.interfaces)
                               if subs == {g.k, g.j}), -1))
            n += 2 if iface[-1] >= 0 else 1
        self.n_dofs = n
        self.slots = []          # per cell-triangle: (verts, [(dof, sign)*3])
        for verts, subdomain in zip(tri.vertices[tri.triangles],
                                    coarse.cell_sub):
            entries = []
            for loc in range(3):
                a, b = verts[(loc + 1) % 3], verts[(loc + 2) % 3]
                d = b - a
                out = np.array([d[1], -d[0]])
                ce = next(i for i, (pa, pb) in enumerate(ends)
                          if np.allclose(0.5 * (pa + pb), 0.5 * (a + b),
                                         atol=1e-12))
                dof = first_dof[ce]
                m = iface[ce]
                if m >= 0:
                    g = self.decomp.interfaces[m]
                    assert subdomain in (g.k, g.j)
                    dof += int(subdomain == g.j)
                t = ends[ce, 1] - ends[ce, 0]
                sign = 1.0 if out @ np.array([t[1], -t[0]]) > 0 else -1.0
                entries.append((dof, sign))
            self.slots.append((verts, entries))

    def corrector_field(self, x):
        """Vertex values of the RT0 field with coefficients x, per fine
        triangle (here cell-triangles coincide with the fine triangles)."""
        vals = np.zeros((self.mesh.n_triangles, 3, 2))
        for verts, entries in self.slots:
            S = 0.5 * abs(_cross2(verts[1] - verts[0], verts[2] - verts[0]))
            cent = verts.mean(axis=0)
            t = next(t for t in range(self.mesh.n_triangles)
                     if np.allclose(self.tverts[t].mean(axis=0), cent,
                                    atol=1e-12))
            # map this cell-triangle's vertices onto the fine ordering
            perm = [next(k for k in range(3)
                         if np.allclose(verts[k], self.tverts[t][i]))
                    for i in range(3)]
            for i, k in enumerate(perm):
                p = verts[k]
                q = np.zeros(2)
                for loc, (dof, sign) in enumerate(entries):
                    q += sign * x[dof] * (p - verts[loc]) / (2.0 * S)
                vals[t, i] = q
        return vals

    # -- majorant -----------------------------------------------------------

    def majorant_parts(self, v, y_vals):
        """(S1, S2, S3) sums from explicit quadrature on vertex-value data."""
        A_inv = np.linalg.inv(self.problem.A)
        sub = self.decomp.tri_subdomain
        S1 = np.zeros(self.decomp.n_basic)
        S2 = np.zeros(self.decomp.n_basic)
        for t, (verts, tri) in enumerate(zip(self.tverts,
                                             self.mesh.triangles)):
            grad = v[tri] @ _p1_gradients(verts)
            flux = grad @ self.problem.A.T
            mids = 0.5 * (y_vals[t][[1, 2, 0]] + y_vals[t][[2, 0, 1]])
            diff = mids - flux
            S1[sub[t]] += self.areas[t] / 3.0 * float(
                np.einsum("md,de,me->", diff, A_inv, diff))
            c = _linear_div(verts, y_vals[t])
            S2[sub[t]] += (c * c * self.areas[t] + 2.0 * c * self.f_tri[t]
                           + self.f_sq[t])
        S3 = np.zeros(len(self.decomp.interfaces))
        for m, g in enumerate(self.decomp.interfaces):
            for e in g.edges:
                va, vb = self.mesh.edges[e]
                ts = [t for t in self.mesh.edge_tris[e] if t >= 0]
                tk = next(t for t in ts if sub[t] == g.k)
                tj = next(t for t in ts if sub[t] == g.j)
                jump = []
                for vert in (va, vb):
                    yk = y_vals[tk][list(self.mesh.triangles[tk]).index(vert)]
                    yj = y_vals[tj][list(self.mesh.triangles[tj]).index(vert)]
                    jump.append(float((yk - yj) @ g.normal))
                L = float(np.linalg.norm(self.mesh.vertices[vb]
                                         - self.mesh.vertices[va]))
                d0, d1 = jump
                S3[m] += L * (d0 * d0 + d0 * d1 + d1 * d1) / 3.0
        return S1, S2, S3

    def weighted_total(self, S1, S2, S3):
        a1, a2, a3 = self.alphas
        return (a1 * S1.sum() + a2 * S2.sum()
                + a3 * self.beta_sq * S3.sum())

    def d11(self, S1, S2, S3):
        t1 = S1.sum()
        t2 = (2.0 / PI ** 2) * S2.sum()
        t3 = 2.0 * self.beta_sq * S3.sum()
        return math.sqrt(t1) + math.sqrt(t2) + math.sqrt(t3)

    def constraint_means(self, y_vals):
        r = np.zeros(self.decomp.n_basic)
        for t, verts in enumerate(self.tverts):
            c = _linear_div(verts, y_vals[t])
            r[self.decomp.tri_subdomain[t]] += (c * self.areas[t]
                                                + self.f_tri[t])
        r /= np.array([s.area for s in self.decomp.basic])
        s = np.zeros(len(self.decomp.interfaces))
        for m, g in enumerate(self.decomp.interfaces):
            total = 0.0
            for e in g.edges:
                va, vb = self.mesh.edges[e]
                ts = [t for t in self.mesh.edge_tris[e] if t >= 0]
                tk = next(t for t in ts
                          if self.decomp.tri_subdomain[t] == g.k)
                tj = next(t for t in ts
                          if self.decomp.tri_subdomain[t] == g.j)
                ends = []
                for vert in (va, vb):
                    yk = y_vals[tk][list(self.mesh.triangles[tk]).index(vert)]
                    yj = y_vals[tj][list(self.mesh.triangles[tj]).index(vert)]
                    ends.append(float((yk - yj) @ g.normal))
                L = float(np.linalg.norm(self.mesh.vertices[vb]
                                         - self.mesh.vertices[va]))
                total += L * 0.5 * (ends[0] + ends[1])
            s[m] = total / g.length
        return np.concatenate([r, s])

    def solve_corrector(self, v, yt_vals):
        """Constrained minimizer via polarization of the black-box quadratic
        objective and a dense KKT solve."""
        n = self.n_dofs

        def phi(x):
            y = yt_vals + self.corrector_field(x)
            return self.weighted_total(*self.majorant_parts(v, y))

        def resid(x):
            return self.constraint_means(yt_vals + self.corrector_field(x))

        e = np.eye(n)
        phi0 = phi(np.zeros(n))
        phis = np.array([phi(e[i]) for i in range(n)])
        H = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                H[i, j] = H[j, i] = (phi(e[i] + e[j]) - phis[i] - phis[j]
                                     + phi0)
        g = np.array([(phis[i] - phi(-e[i])) / 2.0 for i in range(n)])
        r0 = resid(np.zeros(n))
        C = np.column_stack([resid(e[i]) - r0 for i in range(n)])
        m = C.shape[0]
        kkt = np.block([[H, C.T], [C, np.zeros((m, m))]])
        rhs = np.concatenate([-g, -r0])
        sol = np.linalg.solve(kkt, rhs)
        return sol[:n]


def test_criterion_10_dense_oracle():
    problem = manufactured_lshape_problem()
    mesh, decomp = build_lshape_mesh(1.0)
    coarse = build_coarse_mesh(mesh, decomp, 1.0)
    from ddmcert.flux import build_corrector_space
    space = build_corrector_space(coarse, decomp, problem.A)
    f_tri, f_sq = f_cell_integrals(mesh, problem.f)
    constants = MajorantConstants.default(decomp, problem)

    oracle = _DenseOracle(mesh, decomp, coarse, space, problem, f_tri, f_sq)

    K_pkg = assemble_stiffness(mesh, problem.A).toarray()
    K_orc = oracle.stiffness()
    d_stiff = float(np.abs(K_pkg - K_orc).max())

    F_pkg = assemble_load(mesh, problem.f)
    F_orc = oracle.load()
    d_load = float(np.abs(F_pkg - F_orc).max())

    v = run_schwarz(mesh, decomp, problem, "multiplicative", 3)
    v_orc = oracle.schwarz(K_orc, F_orc, sweeps=3)
    d_sweep = float(np.abs(v.values - v_orc).max())

    gv = a_grad(v, problem.A)
    yt = average_gradient(gv, decomp)
    yt_orc = oracle.averaged_flux(v_orc)
    d_avg = float(np.abs(yt.p1_part - yt_orc).max())

    solver = CorrectorSolver(space, problem, constants)
    q, _ = solver.solve(rhs_table(space, yt, gv, problem, solver.f_tri),
                        solver.alphas)
    x_orc = oracle.solve_corrector(v_orc, yt_orc)
    d_corr = float(np.abs(q - x_orc).max())

    y = corrected_flux(yt, q, space)
    rep = evaluate_majorant(y, gv, problem, constants,
                            f_tri=f_tri, f_sq_tri=f_sq)
    S1, S2, S3 = oracle.majorant_parts(
        v_orc, yt_orc + oracle.corrector_field(x_orc))
    a1, a2, a3 = oracle.alphas
    parts_orc = (a1 * S1.sum(), a2 * S2.sum(),
                 a3 * oracle.beta_sq * S3.sum())
    parts_pkg = (rep.M1_sq, rep.M2_sq, rep.M3_sq)
    d_maj = max(abs(a - b) / max(abs(a), 1e-14)
                for a, b in zip(parts_pkg, parts_orc))
    d_maj = max(d_maj,
                abs(rep.total_sq - oracle.weighted_total(S1, S2, S3))
                / rep.total_sq,
                abs(rep.D11 - oracle.d11(S1, S2, S3)) / rep.D11)

    deltas = {"stiffness": d_stiff, "load": d_load, "sweep": d_sweep,
              "avg flux": d_avg, "corrector": d_corr, "majorant": d_maj}
    ok = all(d <= 1e-10 for d in deltas.values())
    verdict(10, ok, "max deviations: " + ", ".join(
        f"{k} {v:.1e}" for k, v in deltas.items()) + " (need <= 1e-10)")
