"""ddmcert benchmark: certified-step latency of ``ddmcert run`` on fixed inputs.

One workload, as the benchmark contract asks:

    python3 perfbench/run.py --workload h64-opt --seed 1 --seconds 45 --trace 0

All workloads, with every end-to-end metric by name and unit, two traced
runs per workload, the exact-count check and the environment:

    python3 perfbench/run.py --all --seed 1 --seconds 45

Each invocation of the program is a fresh Python process (child.py) that
calls ``ddmcert.cli.main(argv)``; invocations run one at a time with the
BLAS/OpenMP pools capped at the number of usable cores.  The inputs are
fixed; the seed only shuffles the order in which ``--all`` interleaves the
workloads.  Every certified row is checked (see ``check_invocation``) and
the last line of standard output is the JSON result.  Spans of traced runs
are written under ``.perfbench_out/spans/`` in the checkout.  See README.md
beside this file for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
OUT = CHECKOUT / ".perfbench_out"
REFERENCE = HERE / "reference"

SWEEPS = 16
WORKLOADS = {
    "h64-opt": ["run", "--h", "1/64", "--sweeps", str(SWEEPS), "--eps", "opt"],
    "h128-fixed": ["run", "--h", "1/128", "--sweeps", str(SWEEPS),
                   "--eps", "fixed"],
    "h64-H8-opt": ["run", "--h", "1/64", "--H", "1/8", "--sweeps",
                   str(SWEEPS), "--eps", "opt"],
}

# history.csv against the stored reference.  The certified values (M_sq,
# error, I_eff) must agree to RTOL relative; no tighter than the 1e-8 on M
# that an inexact eps-optimal minimizer is allowed.  Such a minimizer moves
# the split of M into M1/M2/M3 to first order, so the parts are compared
# with PART_RTOL relative to the row's M_sq.
RTOL = 1e-6
PART_RTOL = 1e-4
CERTIFIED_COLUMNS = ("M_sq", "error", "I_eff")
PART_COLUMNS = ("M1_sq", "M2_sq", "M3_sq")

HARD_LIMIT_S = 170.0     # a driver run, and any one child, ends within this
CHILD_MIN_S = 5.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "step_s_p50": "s",
                    "step_s_p75": "s", "certs_per_s": "1/s",
                    "peak_rss_mb": "MB", "ieff_final": "ratio"}


# ---------------------------------------------------------------------------
# Invoking the program
# ---------------------------------------------------------------------------


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    cap = str(usable_cores())
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = cap
    env["PYTHONHASHSEED"] = "0"
    return env


class Invoker:
    """Starts child processes one at a time within a deadline."""

    def __init__(self, tag: str, deadline: float):
        self.tag = tag
        self.deadline = deadline
        self.count = 0
        self.work = OUT / "work"
        self.spans_dir = OUT / "spans"

    def run(self, workload: str, trace: bool) -> dict:
        self.count += 1
        name = f"{workload}-{self.tag}-{self.count}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.spans_dir.mkdir(parents=True, exist_ok=True)
        out_dir = self.work / name
        result_path = self.work / f"{name}.json"
        spans_path = self.spans_dir / f"{name}.jsonl"
        argv = WORKLOADS[workload] + ["--out", str(out_dir)]
        cmd = [sys.executable, str(HERE / "child.py"), str(result_path),
               "1" if trace else "0", str(spans_path), "--"] + argv
        timeout = max(CHILD_MIN_S,
                      min(HARD_LIMIT_S, self.deadline - time.monotonic()))
        started = time.monotonic()
        inv = {"workload": workload, "trace": trace, "index": self.count}
        try:
            proc = subprocess.run(cmd, cwd=CHECKOUT, env=child_env(),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            inv["error"] = f"timed out after {timeout:.0f} s"
        else:
            if proc.returncode != 0 or not result_path.is_file():
                tail = proc.stderr.strip().splitlines()[-3:]
                inv["error"] = (f"benchmark child exited {proc.returncode}: "
                                + " | ".join(tail))
            else:
                inv.update(json.loads(result_path.read_text()))
                inv["history"] = read_history(out_dir / "history.csv")
        inv["elapsed_s"] = time.monotonic() - started
        result_path.unlink(missing_ok=True)
        shutil.rmtree(out_dir, ignore_errors=True)
        return inv


def read_history(path: Path):
    if not path.is_file():
        return None
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def load_reference(workload: str) -> list:
    with open(REFERENCE / f"{workload}.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def _history_mismatches(row: dict, ref: dict) -> list:
    bad = []
    if row.get("sweep") != ref["sweep"]:
        return [f"sweep {row.get('sweep')} where reference has {ref['sweep']}"]
    scale = abs(float(ref["M_sq"]))
    for col in CERTIFIED_COLUMNS + PART_COLUMNS:
        try:
            got = float(row[col])
        except (KeyError, TypeError, ValueError):
            bad.append(f"history.csv has no usable {col}")
            continue
        want = float(ref[col])
        if col in PART_COLUMNS:
            ok = abs(got - want) <= PART_RTOL * scale
        else:
            ok = abs(got - want) <= RTOL * abs(want)
        if not ok or not math.isfinite(got):
            bad.append(f"history.csv {col}={got!r}, reference {want!r}")
    return bad


def check_invocation(inv: dict, reference: list) -> dict:
    """Failure reasons per certified row (1-based sweep -> list of text).

    A row fails when the CLI exit code is not 0, when the row was not
    certified, when ``MajorantReport.guaranteed`` is false, when the error
    exceeds min(total, D11), or when its history.csv values are outside the
    tolerances above.
    """
    reasons = {k: [] for k in range(1, len(reference) + 1)}
    if "error" in inv:
        for k in reasons:
            reasons[k].append(inv["error"])
        return reasons
    if inv["exit_code"] != 0:
        for k in reasons:
            reasons[k].append(f"exit code {inv['exit_code']}")
    reports = inv["reports"]
    history = inv["history"] or []
    for k in reasons:
        if k > len(reports):
            reasons[k].append("not certified")
        else:
            rep = reports[k - 1]
            if not rep["guaranteed"]:
                reasons[k].append("guaranteed=False")
            if not rep["error"] <= min(rep["total"], rep["D11"]):
                reasons[k].append(
                    f"error {rep['error']!r} exceeds min(total, D11) = "
                    f"{min(rep['total'], rep['D11'])!r}")
        if k > len(history):
            reasons[k].append("missing from history.csv")
        else:
            reasons[k].extend(_history_mismatches(history[k - 1],
                                                  reference[k - 1]))
    if len(reports) > len(reference):
        reasons[len(reference)].append(
            f"{len(reports)} certified rows, expected {len(reference)}")
    return {k: v for k, v in reasons.items() if v}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile, p in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values, p: float = 0.5, half: float = 0.25) -> dict:
    """The p-th percentile with the (p - half, p + half) percentiles."""
    return {"value": percentile(values, p),
            "lo": percentile(values, p - half),
            "hi": percentile(values, p + half),
            "range": (round(100 * (p - half)), round(100 * (p + half))),
            "n": len(values)}


def step_intervals(inv: dict) -> list:
    """Time between consecutive certified iterates; the first interval
    starts at the Schwarz entry."""
    marks = [inv["setup_s"]] + inv["cert_times"]
    return [b - a for a, b in zip(marks, marks[1:])]


def usable(inv: dict) -> bool:
    return ("error" not in inv and inv["exit_code"] == 0
            and inv["setup_s"] is not None and inv["cert_times"])


def end_to_end(invs: list) -> dict:
    """Every end-to-end metric with its spread, over untraced invocations."""
    ok = [inv for inv in invs if usable(inv)]
    if not ok:
        return {}
    steps = [s for inv in ok for s in step_intervals(inv)]
    per_inv = {
        "wall_s": [inv["wall_s"] for inv in ok],
        "setup_s": [inv["setup_s"] for inv in ok],
        "certs_per_s": [len(inv["cert_times"])
                        / (inv["wall_s"] - inv["setup_s"]) for inv in ok],
        "peak_rss_mb": [inv["peak_rss_mb"] for inv in ok],
        "ieff_final": [inv["reports"][-1]["efficiency"] for inv in ok],
    }
    out = {name: spread(vals) for name, vals in per_inv.items()}
    out["step_s_p50"] = spread(steps)
    out["step_s_p75"] = spread(steps, 0.75, 0.10)
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced invocation
# ---------------------------------------------------------------------------

LAYERS = ("mesh", "problem", "linalg", "schwarz", "flux", "majorant",
          "pipeline", "cli")

# (metric, unit, better); names are <layer>.<what>.
PER_LAYER = [
    ("mesh.build_lshape_mesh_s", "s", "lower"),
    ("mesh.from_arrays_s", "s", "lower"),
    ("mesh.build_coarse_mesh_s", "s", "lower"),
    ("mesh.n_triangles", "count", "lower"),
    ("mesh.coarse_edges", "count", "lower"),
    ("problem.assemble_s", "s", "lower"),
    ("problem.f_cell_integrals_s", "s", "lower"),
    ("problem.energy_error_s", "s", "lower"),
    ("problem.energy_error_per_cert", "1/cert", "lower"),
    ("problem.p1_gradients_calls", "count", "lower"),
    ("linalg.kkt_factor_s", "s", "lower"),
    ("linalg.kkt_factor_calls", "count", "lower"),
    ("linalg.kkt_factor_per_cert", "1/cert", "lower"),
    ("linalg.kkt_solve_s", "s", "lower"),
    ("linalg.kkt_dim", "count", "lower"),
    ("linalg.kkt_nnz", "count", "lower"),
    ("linalg.pcg_s", "s", "lower"),
    ("linalg.pcg_calls", "count", "lower"),
    ("linalg.pcg_matvecs", "count", "lower"),
    ("linalg.solver_errors", "count", "lower"),
    ("schwarz.self_s", "s", "lower"),
    ("schwarz.sweep_s_p50", "s", "lower"),
    ("schwarz.subdomain_dofs", "count", "lower"),
    ("flux.build_corrector_space_s", "s", "lower"),
    ("flux.corrector_dofs", "count", "lower"),
    ("flux.average_gradient_s", "s", "lower"),
    ("flux.corrector_rhs_s", "s", "lower"),
    ("flux.corrector_rhs_calls", "count", "lower"),
    ("flux.solver_init_s", "s", "lower"),
    ("flux.constraint_residuals_s", "s", "lower"),
    ("majorant.evaluate_s", "s", "lower"),
    ("majorant.evaluate_per_cert", "1/cert", "lower"),
    ("majorant.optimize_eps_calls", "count", "lower"),
    ("majorant.constants_s", "s", "lower"),
    ("pipeline.certify_s", "s", "lower"),
    ("pipeline.certify_self_s", "s", "lower"),
    ("pipeline.certs", "count", "higher"),
    ("cli.write_s", "s", "lower"),
] + [(f"{layer}.busy_s", "s", "lower") for layer in LAYERS] + [
    ("trace.uncovered_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]

COUNT_UNITS = ("count", "1/cert")


def layer_metrics(trace: dict, traced_wall: float,
                  untraced_wall: float) -> dict:
    by = trace["by_name"]
    calls = trace["calls"]
    sizes = trace["sizes"]

    def self_s(*names):
        return sum(by[n]["self_s"] for n in names if n in by)

    def total_s(name):
        return by[name]["total_s"] if name in by else 0.0

    def spans(name, key="spans"):
        return by[name][key] if name in by else 0

    certs = spans("pipeline.certify_iterate")

    def per_cert(name):
        return spans(name, "in_cert") / certs if certs else 0.0

    m = {
        "mesh.build_lshape_mesh_s": self_s("mesh.build_lshape_mesh"),
        "mesh.from_arrays_s": self_s("mesh.TriMesh.from_arrays"),
        "mesh.build_coarse_mesh_s": self_s("mesh.build_coarse_mesh"),
        "mesh.n_triangles": sizes.get("n_triangles", 0),
        "mesh.coarse_edges": sizes.get("coarse_edges", 0),
        "problem.assemble_s": self_s("problem.assemble_stiffness",
                                     "problem.assemble_load"),
        "problem.f_cell_integrals_s": self_s("problem.f_cell_integrals"),
        "problem.energy_error_s": self_s("problem.energy_error"),
        "problem.energy_error_per_cert": per_cert("problem.energy_error"),
        "problem.p1_gradients_calls": calls.get("problem.p1_gradients", 0),
        "linalg.kkt_factor_s": self_s("linalg.SaddleFactorization.__init__"),
        "linalg.kkt_factor_calls": spans("linalg.SaddleFactorization.__init__"),
        "linalg.kkt_factor_per_cert":
            per_cert("linalg.SaddleFactorization.__init__"),
        "linalg.kkt_solve_s": self_s("linalg.SaddleFactorization.solve"),
        "linalg.kkt_dim": sizes.get("kkt_dim", 0),
        "linalg.kkt_nnz": sizes.get("kkt_nnz", 0),
        "linalg.pcg_s": self_s("linalg.spd_solve"),
        "linalg.pcg_calls": spans("linalg.spd_solve"),
        "linalg.pcg_matvecs": calls.get("linalg.SparseSymmetric.matvec", 0),
        "linalg.solver_errors": sum(v["raised"] for n, v in by.items()
                                    if n.startswith("linalg.")),
        "schwarz.self_s": (total_s("schwarz.run_schwarz")
                           - total_s("pipeline.on_sweep")),
        "schwarz.sweep_s_p50": (statistics.median(trace["sweeps_s"])
                                if trace["sweeps_s"] else 0.0),
        "schwarz.subdomain_dofs": sizes.get("subdomain_dofs", 0),
        "flux.build_corrector_space_s": self_s("flux.build_corrector_space"),
        "flux.corrector_dofs": sizes.get("corrector_dofs", 0),
        "flux.average_gradient_s": self_s("flux.average_gradient"),
        "flux.corrector_rhs_s": self_s("flux.corrector_rhs"),
        "flux.corrector_rhs_calls": spans("flux.corrector_rhs"),
        "flux.solver_init_s": self_s("flux.CorrectorSolver.__init__"),
        "flux.constraint_residuals_s": self_s("flux.constraint_residuals"),
        "majorant.evaluate_s": self_s("majorant.evaluate_majorant"),
        "majorant.evaluate_per_cert": per_cert("majorant.evaluate_majorant"),
        "majorant.optimize_eps_calls": spans("majorant.optimize_eps"),
        "majorant.constants_s": self_s("majorant.MajorantConstants.default"),
        "pipeline.certify_s": total_s("pipeline.certify_iterate"),
        "pipeline.certify_self_s": self_s("pipeline.certify_iterate"),
        "pipeline.certs": certs,
        "cli.write_s": self_s("cli.write_history_csv", "cli._emit"),
        "trace.uncovered_s": self_s("root"),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": trace["n_spans"],
    }
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = sum(v["self_s"] for n, v in by.items()
                                   if n.split(".", 1)[0] == layer)
    return m


def count_metrics(metrics: dict) -> dict:
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {k: v for k, v in metrics.items() if units[k] in COUNT_UNITS}


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(invs: list) -> dict:
    versions = next((inv["versions"] for inv in invs if "versions" in inv), {})
    return {**versions, "nproc": usable_cores(),
            "thread_cap": usable_cores(), "cpu": cpu_model()}


def report_failures(workload: str, invs: list, reference: list):
    attempted = failed = 0
    for inv in invs:
        attempted += len(reference)
        bad = check_invocation(inv, reference)
        failed += len(bad)
        for sweep, why in sorted(bad.items()):
            print(f"FAIL {workload} invocation {inv['index']} row {sweep}: "
                  + "; ".join(why))
    return attempted, failed


def print_end_to_end(workload: str, e2e: dict, attempted: int, failed: int):
    print(f"== {workload}: ddmcert {' '.join(WORKLOADS[workload])}")
    for name, unit in END_TO_END_UNITS.items():
        s = e2e[name]
        lo, hi = s["range"]
        print(f"  {name:<12} {s['value']:12.6g} {unit:<5}  "
              f"p{lo} {s['lo']:.6g}  p{hi} {s['hi']:.6g}  n={s['n']}")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'fail_frac':<12} {frac:12.6g} {'ratio':<5}  "
          f"({failed} of {attempted} certified rows)")


def print_layers(workload: str, metrics: dict):
    units = {name: unit for name, unit, _ in PER_LAYER}
    print(f"== {workload}: traced per-layer metrics")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:14.6g} {units[name]}")


def result_line(correct: bool, attempted: int, failed: int, values: dict,
                units: dict) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()}})


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def timed_loop(invoker: Invoker, workload: str, seconds: float, invs: list):
    """Invoke until the next invocation, if as slow as the slowest so far,
    would end after ``seconds``."""
    start = time.monotonic()
    while True:
        inv = invoker.run(workload, False)
        invs.append(inv)
        if not usable(inv):
            return
        slowest = max(i["elapsed_s"] for i in invs)
        if time.monotonic() - start + slowest > seconds:
            return


def single_workload(args) -> int:
    deadline = time.monotonic() + HARD_LIMIT_S
    invoker = Invoker(f"s{args.seed}", deadline)
    reference = load_reference(args.workload)
    invs = []
    if not args.trace:
        timed_loop(invoker, args.workload, args.seconds, invs)
    else:
        # one untraced invocation (for the tracing overhead), one traced,
        # and a second traced one if it fits (for the exact-count check)
        start = time.monotonic()
        invs.append(invoker.run(args.workload, False))
        if usable(invs[0]):
            invs.append(invoker.run(args.workload, True))
            if usable(invs[1]):
                elapsed = time.monotonic() - start
                if elapsed + invs[1]["elapsed_s"] <= args.seconds:
                    invs.append(invoker.run(args.workload, True))
    print("env: " + json.dumps(environment(invs)))
    attempted, failed = report_failures(args.workload, invs, reference)
    untraced = [inv for inv in invs if not inv["trace"]]
    traced = [inv for inv in invs if inv["trace"]]
    e2e = end_to_end(untraced)
    if not e2e or (args.trace and not any(usable(i) for i in traced)):
        print(f"{args.workload}: no invocation completed", file=sys.stderr)
        return 1
    print_end_to_end(args.workload, e2e, attempted, failed)
    correct = failed == 0
    if not args.trace:
        values = {k: e2e[k]["value"] for k in END_TO_END_UNITS}
        print(result_line(correct, attempted, failed, values,
                          END_TO_END_UNITS))
        return 0
    layers = traced_layers(args.workload, traced, e2e["wall_s"]["value"])
    print_layers(args.workload, layers["metrics"])
    if layers["repeat"] is not None:
        print(f"  counts repeat exactly: {layers['repeat']}")
    units = {name: unit for name, unit, _ in PER_LAYER}
    print(result_line(correct, attempted, failed, layers["metrics"], units))
    return 0


def traced_layers(workload: str, traced: list, untraced_wall: float) -> dict:
    """Per-layer metrics: times are medians over the traced invocations,
    counts are taken from the first and checked to repeat exactly."""
    runs = [layer_metrics(inv["trace"], inv["wall_s"], untraced_wall)
            for inv in traced if usable(inv)]
    for inv in traced[:1]:
        for note in inv["trace"]["missing"]:
            print(f"  probe missing, counted as zero calls: {note}")
        for note in inv["trace"]["warnings"][:5]:
            print(f"  probe warning: {note}")
    counts = [count_metrics(m) for m in runs]
    metrics = {}
    for name in runs[0]:
        vals = [m[name] for m in runs]
        metrics[name] = vals[0] if name in counts[0] else statistics.median(
            vals)
    repeat = None
    if len(runs) > 1:
        diff = [k for k in counts[0] if counts[0][k] != counts[1][k]]
        repeat = "yes" if not diff else "NO: " + ", ".join(diff)
    return {"metrics": metrics, "repeat": repeat}


def all_workloads(args) -> int:
    """Untraced rounds over every workload in seeded order, then two traced
    invocations of each; prints every metric and writes a summary file."""
    rng = random.Random(args.seed)
    names = list(WORKLOADS)
    invoker = Invoker(f"all{args.seed}", math.inf)   # each child <= 170 s
    invs = {name: [] for name in names}
    start = time.monotonic()
    budget = args.seconds * len(names)
    while True:
        rng.shuffle(names)
        for name in names:
            invs[name].append(invoker.run(name, False))
        elapsed = time.monotonic() - start
        rounds = len(invs[names[0]])
        if elapsed + elapsed / rounds > budget:
            break
    for _ in range(2):
        rng.shuffle(names)
        for name in names:
            invs[name].append(invoker.run(name, True))

    everything = [inv for group in invs.values() for inv in group]
    env = environment(everything)
    print("env: " + json.dumps(env))
    summary = {"seed": args.seed, "env": env, "workloads": {}}
    total_attempted = total_failed = 0
    for name in WORKLOADS:
        reference = load_reference(name)
        attempted, failed = report_failures(name, invs[name], reference)
        total_attempted += attempted
        total_failed += failed
        untraced = [i for i in invs[name] if not i["trace"]]
        traced = [i for i in invs[name] if i["trace"]]
        e2e = end_to_end(untraced)
        if not e2e or not any(usable(i) for i in traced):
            print(f"{name}: no invocation completed", file=sys.stderr)
            return 1
        print_end_to_end(name, e2e, attempted, failed)
        layers = traced_layers(name, traced, e2e["wall_s"]["value"])
        busy = sorted(((layers["metrics"][f"{layer}.busy_s"], layer)
                       for layer in LAYERS), reverse=True)
        print("  self time by layer: " + ", ".join(
            f"{layer} {t:.3g} s" for t, layer in busy))
        print(f"  tracing overhead: "
              f"{layers['metrics']['trace.overhead_s']:.3g} s; "
              f"uncovered: {layers['metrics']['trace.uncovered_s']:.3g} s; "
              f"counts repeat exactly: {layers['repeat']}")
        print_layers(name, layers["metrics"])
        summary["workloads"][name] = {
            "argv": WORKLOADS[name], "end_to_end": e2e,
            "attempted": attempted, "failed": failed,
            "per_layer": layers["metrics"], "counts_repeat": layers["repeat"]}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"summary-seed{args.seed}.json"
    path.write_text(json.dumps(summary, indent=1))
    print(f"summary written to {path.relative_to(CHECKOUT)}")
    print(json.dumps({"correct": total_failed == 0,
                      "attempted": total_attempted, "failed": total_failed}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true",
                      help="every workload, traced and untraced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises, so subprocess.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (CHECKOUT / "src" / "ddmcert" / "cli.py").is_file():
        print(f"run.py: no ddmcert sources under {CHECKOUT / 'src'}",
              file=sys.stderr)
        return 2
    if args.all:
        return all_workloads(args)
    return single_workload(args)


if __name__ == "__main__":
    sys.exit(main())
