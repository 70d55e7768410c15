"""``ddmcert`` command line: presets, config files, CSV/markdown artifacts.

Subcommands either run one configured pipeline (``run``) or reproduce a
preset experiment (``table1`` .. ``table4``, ``check``).  Artifacts land in
``--out``: ``history.csv`` with full-precision per-row data (RFC 4180),
``table.md`` with the 3-significant-digit summary, and optional
``fields_sweep<N>.vtk``.  Exit codes: 0 ok, 1 config error, 2 solver
failure, 3 guarantee violation (a bug trap -- the bound fell below the true
error, which the theory excludes).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

from .linalg import SolverError
from .mesh import MeshError
from .pipeline import (ConfigError, RunConfig, RunResult, SweepRow,
                       TABLE3_SWEEPS, TABLE4_SWEEPS, output_dir, run_case,
                       run_checks, table1_rows, table2_rows, table34_result,
                       table_configs)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_GUARANTEE = 3

CSV_HEADER = ["sweep", "M1_sq", "M2_sq", "M3_sq", "M_sq", "error", "I_eff"]

CONFIG_KEYS = ("preset", "h", "H", "sweeps", "mode", "eps", "out",
               "emit_fields")
_BOOL = {"true": True, "yes": True, "1": True, "on": True,
         "false": False, "no": False, "0": False, "off": False}


def _ratio(text: str) -> float:
    """Grid spacings as plain floats or 'p/q' fractions; ValueError on
    text that is neither, or on a zero denominator."""
    s = text.strip()
    if "/" in s:
        num, den = (float(part) for part in s.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return num / den
    return float(s)


def parse_config_file(path) -> dict:
    """Flat key=value options; '#' starts a comment; unknown keys rejected."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    opts = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, "
                              f"got {raw.strip()!r}")
        key, _, value = (p.strip() for p in line.partition("="))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        opts[key] = value
    return opts


def _coerce(key: str, value):
    if isinstance(value, str):
        try:
            if key in ("h", "H"):
                return _ratio(value)
            if key == "sweeps":
                return int(value)
            if key == "emit_fields":
                return _BOOL[value.lower()]
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return value


def build_config(args) -> RunConfig:
    """Merge config file and flags (flags win) into a validated RunConfig."""
    opts = parse_config_file(args.config) if args.config else {}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            opts[key] = flag
    kwargs = {}
    for key, value in opts.items():
        value = _coerce(key, value)
        kwargs["eps_policy" if key == "eps" else key] = value
    if kwargs.get("eps_policy") == "optimized":
        kwargs["eps_policy"] = "opt"
    return RunConfig(**kwargs).validated()


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def sci3(x: float) -> str:
    """3 significant digits, compact exponent: 0.0828 -> '8.28e-2'."""
    if x == 0:
        return "0.00e0"
    mant, exp = f"{x:.2e}".split("e")
    return f"{mant}e{int(exp)}"


def fmt_ieff(x: float) -> str:
    return f"{x:.2f}" if 1.0 <= x < 10.0 else sci3(x)


def frac(value: float) -> str:
    inv = 1.0 / value
    return f"1/{round(inv)}" if abs(inv - round(inv)) < 1e-9 else f"{value:g}"


def markdown_table(headers, rows) -> str:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join(" --- " for _ in headers) + "|"]
    lines += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(lines) + "\n"


def _std_cells(row: SweepRow) -> list:
    rep = row.report
    return [sci3(rep.M1_sq), sci3(rep.M2_sq), sci3(rep.M3_sq),
            sci3(rep.total_sq), fmt_ieff(rep.efficiency)]


def _csv_cells(row: SweepRow) -> list:
    rep = row.report
    return [row.sweep] + [repr(float(x)) for x in
                          (rep.M1_sq, rep.M2_sq, rep.M3_sq, rep.total_sq,
                           row.error, rep.efficiency)]


def write_history_csv(path: Path, rows, label: str | None = None) -> None:
    """rows: (label_value, SweepRow) pairs; label column only when named."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ([label] if label else []) + CSV_HEADER
    writer.writerow(header)
    for key, row in rows:
        prefix = [key] if label else []
        writer.writerow(prefix + _csv_cells(row))
    path.write_text(buf.getvalue())


def _emit(out: Path | None, name: str, text: str) -> None:
    print(text, end="" if text.endswith("\n") else "\n")
    if out is not None:
        (out / name).write_text(text)


def _write_artifacts(out_dir: str | None, rows, label: str | None, headers,
                     body, violation: bool) -> int:
    """Write a subcommand's artifacts and return its exit code.

    ``history.csv`` (only with an output directory, which ``output_dir``
    made before the command computed anything) gets ``rows`` as
    ``write_history_csv`` takes them; ``table.md`` is ``body`` under
    ``headers``, and is printed either way.
    """
    out = Path(out_dir) if out_dir else None
    if out is not None:
        write_history_csv(out / "history.csv", rows, label=label)
    _emit(out, "table.md", markdown_table(headers, body))
    return EXIT_GUARANTEE if violation else EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_run(args) -> int:
    cfg = build_config(args)
    res = run_case(cfg)
    headers = ["n", "M1^2", "M2^2", "M3^2", "M^2", "I_eff", "error"]
    body = [[str(r.sweep)] + _std_cells(r) + [sci3(r.error)]
            for r in res.rows]
    return _write_artifacts(cfg.out, [(None, r) for r in res.rows], None,
                            headers, body, res.violation)


def cmd_table1(args) -> int:
    configs = table_configs("table1", args.h, args.sweeps)
    output_dir(args.out)
    rows = [(frac(h), row) for h, row in table1_rows(configs)]
    headers = ["h", "M1^2", "M2^2", "M3^2", "M^2", "I_eff"]
    body = [[h] + _std_cells(row) for h, row in rows]
    return _write_artifacts(args.out, rows, "h", headers, body, any(
        row.violates_guarantee() for _, row in rows))


def cmd_table2(args) -> int:
    configs = table_configs("table2", args.h, args.sweeps)
    output_dir(args.out)
    rows = [(frac(H), row) for H, row in table2_rows(configs)]
    headers = ["H", "M1^2", "M2^2", "M3^2", "M^2", "I_eff"]
    body = [[H] + _std_cells(row) for H, row in rows]
    return _write_artifacts(args.out, rows, "H", headers, body, any(
        row.violates_guarantee() for _, row in rows))


def _table34_run(args, name, table_sweeps) -> tuple[RunResult, list]:
    """The shared run and the rows of table ``name``, which lists
    ``table_sweeps``."""
    (cfg,) = table_configs(name, args.h, args.sweeps)
    output_dir(args.out)
    res = table34_result(cfg)
    return res, [r for r in res.rows if r.sweep in table_sweeps]


def cmd_table3(args) -> int:
    res, wanted = _table34_run(args, "table3", TABLE3_SWEEPS)
    headers = ["n", "M1^2", "M2^2", "M3^2", "M^2", "I_eff"]
    body = [[str(r.sweep)] + _std_cells(r) for r in wanted]
    return _write_artifacts(args.out, [(None, r) for r in wanted], None,
                            headers, body, res.violation)


def cmd_table4(args) -> int:
    res, wanted = _table34_run(args, "table4", TABLE4_SWEEPS)
    n_sub = len(res.decomp.basic)
    headers = (["n"] + [f"M1^2 w{k + 1}" for k in range(n_sub)]
               + [f"M2^2 w{k + 1}" for k in range(n_sub)])
    body = []
    for r in wanted:
        rep = r.report
        parts = ([sci3(rep.alphas[0] * s) for s in rep.S1]
                 + [sci3(rep.alphas[1] * s) for s in rep.S2])
        body.append([str(r.sweep)] + parts)
    return _write_artifacts(args.out, [(None, r) for r in wanted], None,
                            headers, body, res.violation)


def cmd_check(args) -> int:
    h = args.h if args.h is not None else 0.25
    results = run_checks(h=h)
    width = max(len(name) for name, _, _ in results)
    guarantee_failed = False
    any_failed = False
    for name, ok, detail in results:
        tag = "PASS" if ok else "FAIL"
        print(f"{tag}  {name:<{width}}  {detail}".rstrip())
        if not ok:
            any_failed = True
            if "guarantee" in name:
                guarantee_failed = True
    if guarantee_failed:
        return EXIT_GUARANTEE
    return EXIT_SOLVER if any_failed else EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors carry the config exit code."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


_FLAGS = {
    "--config": dict(metavar="FILE", help="flat key=value config file"),
    "--preset": dict(choices=("lshape", "rect")),
    "--h": dict(type=_ratio, metavar="R",
                help="fine mesh size (e.g. 0.25 or 1/4)"),
    "--H": dict(type=_ratio, metavar="R",
                help="corrector mesh size (default: h)"),
    "--sweeps": dict(type=int, metavar="N"),
    "--mode": dict(choices=("multiplicative", "additive")),
    "--eps": dict(choices=("fixed", "opt"),
                  help="weight policy for the majorant"),
    "--out": dict(metavar="DIR",
                  help="artifact directory (history.csv, table.md)"),
    "--emit-fields": dict(dest="emit_fields", action="store_true",
                          default=False,
                          help="write per-sweep VTK field dumps"),
}
_TABLE_FLAGS = ("--h", "--sweeps", "--out")
# Each subcommand takes only the flags its handler reads.
_SUBCOMMAND_FLAGS = {"run": tuple(_FLAGS), "table1": _TABLE_FLAGS,
                     "table2": _TABLE_FLAGS, "table3": _TABLE_FLAGS,
                     "table4": _TABLE_FLAGS, "check": ("--h",)}


def build_parser() -> _Parser:
    parser = _Parser(prog="ddmcert",
                     description="Overlapping Schwarz iteration with "
                                 "guaranteed a posteriori error bounds.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)
    handlers = {"run": cmd_run, "table1": cmd_table1, "table2": cmd_table2,
                "table3": cmd_table3, "table4": cmd_table4,
                "check": cmd_check}
    descriptions = {
        "run": "one configured pipeline with per-sweep certification",
        "table1": "refinement study, corrector on the fine mesh (H=h)",
        "table2": "fixed fine mesh, corrector on coarser meshes (H>h)",
        "table3": "majorant parts along the iteration (H=h)",
        "table4": "per-subdomain volume terms along the iteration",
        "check": "invariant suite on a small preset",
    }
    for name, handler in handlers.items():
        sub = subs.add_parser(name, help=descriptions[name])
        for flag in _SUBCOMMAND_FLAGS[name]:
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"ddmcert: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MeshError, SolverError) as exc:
        print(f"ddmcert: solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
