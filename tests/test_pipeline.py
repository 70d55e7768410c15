"""What a certified run computes once and what it keeps alive."""

import weakref
from collections import Counter

import pytest

from ddmcert import linalg, majorant, pipeline, problem
from ddmcert.flux import CorrectorSolver
from ddmcert.pipeline import OPT_ROUNDS, RunConfig, certify_iterate, run_case


@pytest.fixture
def calls(monkeypatch):
    """Counts of the sweep-invariant computations of the runs that follow."""
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
        per_run[sweeps] = (calls["p1_gradients"], calls["exact_grad"])
    assert per_run[2] == per_run[6]
    assert per_run[2][1] == 1


def test_eps_opt_rounds_keep_one_other_factorization(cert4, monkeypatch):
    live = weakref.WeakSet()
    others_alive = []
    init = linalg.SaddleFactorization.__init__

    def recording_init(self, G, C):
        others_alive.append(len(live))
        init(self, G, C)
        live.add(self)

    monkeypatch.setattr(linalg.SaddleFactorization, "__init__",
                        recording_init)
    solver = CorrectorSolver(cert4.space, cert4.problem, cert4.constants)
    certify_iterate(cert4.v, solver, "opt")
    # the fixed-weight factorization, then one per eps round
    assert len(others_alive) == 1 + OPT_ROUNDS
    # each round factorizes next to the fixed-weight factor only
    assert max(others_alive) <= 1
