"""What a certified run computes once and what it keeps alive."""

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
