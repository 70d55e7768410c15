"""What a certified run computes once and what it keeps alive."""

import gc
import weakref
from collections import Counter

import pytest

from ddmcert import flux, linalg, majorant, pipeline, problem
from ddmcert.pipeline import OPT_ROUNDS, RunConfig, run_case
from ddmcert.problem import quad_rule


@pytest.fixture
def calls(monkeypatch):
    """Counts of the sweep-invariant and per-iterate computations of the
    runs that follow."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(problem, "p1_gradients",
                        counted("p1_gradients", problem.p1_gradients))
    monkeypatch.setattr(majorant, "energy_error",
                        counted("energy_error", majorant.energy_error))
    monkeypatch.setattr(pipeline, "rhs_table",
                        counted("rhs_table", pipeline.rhs_table))
    monkeypatch.setattr(flux, "corrector_rhs",
                        counted("corrector_rhs", flux.corrector_rhs))
    monkeypatch.setattr(flux, "exact_grad_table",
                        counted("exact_grad_table", flux.exact_grad_table))
    make_problem = pipeline.manufactured_lshape_problem

    def counted_problem():
        prob = make_problem()
        prob.exact_grad = counted("exact_grad", prob.exact_grad)
        return prob

    monkeypatch.setattr(pipeline, "manufactured_lshape_problem",
                        counted_problem)
    return counts


def test_sweep_invariants_computed_once_per_run(calls):
    per_run = {}
    for sweeps in (2, 6):
        calls.clear()
        res = run_case(RunConfig(h=1 / 8, sweeps=sweeps, eps_policy="opt"))
        assert len(res.rows) == sweeps
        # one energy error per certified iterate, however many eps rounds
        assert calls["energy_error"] == sweeps
        # one weight-free table per iterate, weighted once per round
        assert calls["rhs_table"] == sweeps
        assert calls["corrector_rhs"] == sweeps * (1 + OPT_ROUNDS)
        per_run[sweeps] = (calls["p1_gradients"], calls["exact_grad_table"],
                           calls["exact_grad"])
    assert per_run[2] == per_run[6]
    # one table per run, filled one degree-5 point at a time
    assert per_run[2][1] == 1
    assert per_run[2][2] == len(quad_rule(5)[1])


@pytest.mark.parametrize("eps_policy", ["fixed", "opt"])
@pytest.mark.parametrize("H", [1 / 8, 1 / 4], ids=["H=h", "H=1/4"])
def test_one_fine_mesh_majorant_per_certified_sweep(monkeypatch, eps_policy,
                                                    H):
    # the eps rounds before the last are steered by sums from the
    # corrector's dofs; only the certified round evaluates the majorant
    counts = Counter()
    for name in ("evaluate_majorant", "steering_sums"):
        def counted(*args, _fn=getattr(pipeline, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(pipeline, name, counted)
    sweeps = 4
    res = run_case(RunConfig(h=1 / 8, H=H, sweeps=sweeps,
                             eps_policy=eps_policy),
                   majorant_sweeps=[1, 3, 4])
    assert len(res.rows) == 3
    assert counts["evaluate_majorant"] == 3
    assert counts["steering_sums"] == (3 * OPT_ROUNDS if eps_policy == "opt"
                                       else 0)


@pytest.mark.parametrize("H", [1 / 8, 1 / 4], ids=["H=h", "H=1/4"])
def test_run_drops_the_coarse_mesh_before_the_sweeps(monkeypatch, H):
    coarse_refs, dead = [], []
    build = pipeline.build_coarse_mesh
    schwarz = pipeline.run_schwarz

    def recorded_build(*args, **kwargs):
        coarse = build(*args, **kwargs)
        coarse_refs.append(weakref.ref(coarse))
        return coarse

    def checked_schwarz(*args, on_sweep, **kwargs):
        def check(n, v):
            gc.collect()
            dead.append(all(ref() is None for ref in coarse_refs))
            on_sweep(n, v)
        return schwarz(*args, on_sweep=check, **kwargs)

    monkeypatch.setattr(pipeline, "build_coarse_mesh", recorded_build)
    monkeypatch.setattr(pipeline, "run_schwarz", checked_schwarz)
    res = run_case(RunConfig(h=1 / 8, H=H, sweeps=2))
    assert len(res.rows) == 2 and len(coarse_refs) == 1
    # the corrector space keeps the arrays it reads, not the coarse mesh
    assert dead == [True, True]


def test_eps_opt_rounds_keep_one_other_factorization(monkeypatch):
    live = weakref.WeakSet()
    others_alive = []          # per corrector factorization
    cg_rounds = Counter()
    init = linalg.SaddleFactorization.__init__
    pcg = linalg.projected_cg

    def recording_init(self, G, C):
        others_alive.append(len(live))
        init(self, G, C)
        live.add(self)

    def counted_pcg(*args):
        cg_rounds["runs"] += 1
        return pcg(*args)

    monkeypatch.setattr(linalg.SaddleFactorization, "__init__",
                        recording_init)
    monkeypatch.setattr(linalg, "projected_cg", counted_pcg)
    sweeps = 6
    res = run_case(RunConfig(h=1 / 8, sweeps=sweeps, eps_policy="opt"))
    assert len(res.rows) == sweeps
    # the fixed-weight factorization and the first sweep's two eps rounds;
    # the kept round factor preconditions the other ten rounds
    assert len(others_alive) == 3
    assert cg_rounds["runs"] == sweeps * OPT_ROUNDS - 2
    # each factorization is made next to at most one other factor
    assert max(others_alive) <= 1


def test_eps_opt_rows_match_factorized_rounds_within_their_gap(monkeypatch):
    # With KAPPA_MAX = 0 every eps round is factorized, so solved exactly.
    # The exact run replays the CG run's eps: a round's q also sets the
    # next round's eps, which moves M^2 by more than the round's own gap.
    kkt_solves = Counter()
    rounds = []               # per corrector solve: (ref_sq, KKT solves)
    eps_made = []
    saddle_solve = linalg.SaddleFactorization.solve
    corrector_solve = flux.CorrectorSolver.solve
    optimize_eps = pipeline.optimize_eps

    def counted_saddle_solve(self, b, d):
        kkt_solves["n"] += 1
        return saddle_solve(self, b, d)

    def recording_solve(self, table, alphas, start=None, ref_sq=None):
        before = kkt_solves["n"]
        out = corrector_solve(self, table, alphas, start, ref_sq)
        rounds.append((ref_sq, kkt_solves["n"] - before))
        return out

    def recording_optimize_eps(*args):
        eps_made.append(optimize_eps(*args))
        return eps_made[-1]

    monkeypatch.setattr(linalg.SaddleFactorization, "solve",
                        counted_saddle_solve)
    monkeypatch.setattr(flux.CorrectorSolver, "solve", recording_solve)
    monkeypatch.setattr(pipeline, "optimize_eps", recording_optimize_eps)
    config = RunConfig(h=1 / 16, sweeps=4, eps_policy="opt")
    cg = run_case(config)
    per_row = [rounds[i:i + 1 + OPT_ROUNDS]
               for i in range(0, len(rounds), 1 + OPT_ROUNDS)]

    replay = iter(eps_made)
    monkeypatch.setattr(pipeline, "optimize_eps", lambda *args: next(replay))
    monkeypatch.setattr(flux, "KAPPA_MAX", 0.0)
    exact = run_case(config)
    assert len(cg.rows) == len(exact.rows) == len(per_row) == 4
    for row, ref, row_rounds in zip(cg.rows, exact.rows, per_row):
        assert row.report.eps == ref.report.eps
        excess = row.report.total_sq - ref.report.total_sq
        ref_sq = row_rounds[-1][0]
        assert -1e-14 * ref.report.total_sq <= excess <= flux.PCG_GAP * ref_sq
        for r in (row, ref):
            assert r.report.guaranteed
            assert r.error <= r.report.total
    # KKT solves per certified sweep; CG stopped relative to its own start
    # took [11, 17, 25, 8]
    per_sweep = [sum(n for _, n in row_rounds) for row_rounds in per_row]
    assert all(n <= cap for n, cap in zip(per_sweep, [8, 10, 14, 5]))
