import argparse
import csv
import math
from pathlib import Path

import numpy as np
import pytest

from ddmcert import flux
from ddmcert.cli import (CSV_HEADER, _ratio, build_config, fmt_ieff, frac,
                         main, markdown_table, parse_config_file, sci3)
from ddmcert.pipeline import ConfigError

DATA = Path(__file__).parent / "data"

def make_args(**kw):
    ns = argparse.Namespace(config=None)
    for key, value in kw.items():
        setattr(ns, key, value)
    return ns


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_ratio_parsing():
    assert _ratio("1/4") == 0.25
    assert _ratio(" 3/8 ") == 0.375
    assert _ratio("0.125") == 0.125
    with pytest.raises(ValueError):
        _ratio("abc")


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# full pipeline\n"
                   "preset = lshape\n"
                   "h = 1/8   # fine grid\n"
                   "\n"
                   "sweeps=4\n")
    assert parse_config_file(cfg) == {"preset": "lshape", "h": "1/8",
                                      "sweeps": "4"}


def test_parse_config_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("stride = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(bad)
    bad.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_file(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file(tmp_path / "missing.cfg")


def test_build_config_flags_beat_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("h = 1/4\nsweeps = 2\neps = optimized\n")
    args = make_args(config=str(cfg), sweeps=9)
    rc = build_config(args)
    assert rc.h == 0.25 and rc.H == 0.25     # H defaults to h
    assert rc.sweeps == 9                    # flag wins over file
    assert rc.eps_policy == "opt"            # long spelling normalized
    args = make_args(config=str(cfg), eps="fixed")
    assert build_config(args).eps_policy == "fixed"


def test_build_config_validation():
    with pytest.raises(ConfigError, match="reciprocal"):
        build_config(make_args(h="0.3"))
    with pytest.raises(ConfigError, match="eps policy"):
        build_config(make_args(h="1/4", eps="sometimes"))
    with pytest.raises(ConfigError):
        build_config(make_args(h="1/4", sweeps=0))


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def test_sci3():
    assert sci3(0.0828) == "8.28e-2"
    assert sci3(123.456) == "1.23e2"
    assert sci3(1.0) == "1.00e0"
    assert sci3(0.0) == "0.00e0"


def test_fmt_ieff():
    assert fmt_ieff(3.14159) == "3.14"
    assert fmt_ieff(9.999) == "10.00"        # %.2f rounding at the boundary
    assert fmt_ieff(12.3) == "1.23e1"
    assert fmt_ieff(0.5) == "5.00e-1"


def test_frac():
    assert frac(0.25) == "1/4"
    assert frac(1 / 64) == "1/64"
    assert frac(0.3) == "0.3"


def test_markdown_table_shape():
    text = markdown_table(["a", "b"], [["1", "2"], ["3", "4"]])
    lines = text.splitlines()
    assert lines[0] == "| a | b |"
    assert set(lines[1]) <= set("|- ")
    assert lines[2] == "| 1 | 2 |"
    assert len(lines) == 4 and text.endswith("\n")


# ---------------------------------------------------------------------------
# subcommands (in-process, small grids)
# ---------------------------------------------------------------------------


RUN_ARGS = ["run", "--h", "1/4", "--sweeps", "3"]


def test_run_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "art"
    assert main(RUN_ARGS + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "| n | M1^2 |" in stdout
    table = (out / "table.md").read_text()
    assert stdout.strip().endswith(table.strip().splitlines()[-1])
    raw = (out / "history.csv").read_bytes()
    assert raw.count(b"\r\n") == 4           # RFC 4180 line endings
    lines = raw.decode().split("\r\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[-1] == ""
    assert len(lines) == 5                   # header + 3 sweeps + trailing


def test_run_history_is_exact_and_consistent(tmp_path):
    out = tmp_path / "art"
    main(RUN_ARGS + ["--out", str(out)])
    rows = [ln.split(",") for ln in
            (out / "history.csv").read_bytes().decode().strip().split("\r\n")[1:]]
    for cells in rows:
        sweep, m1, m2, m3, m, err, ieff = cells
        m1, m2, m3, m, err, ieff = map(float, (m1, m2, m3, m, err, ieff))
        assert math.isclose(m, m1 + m2 + m3, rel_tol=1e-12)
        assert err <= math.sqrt(m) * (1 + 1e-9)
        assert math.isclose(ieff, math.sqrt(m) / err, rel_tol=1e-12)
    assert [int(c[0]) for c in rows] == [1, 2, 3]


def test_run_output_is_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(RUN_ARGS + ["--out", str(out1)])
    main(RUN_ARGS + ["--out", str(out2)])
    assert (out1 / "history.csv").read_bytes() == \
        (out2 / "history.csv").read_bytes()
    assert (out1 / "table.md").read_bytes() == (out2 / "table.md").read_bytes()


def test_run_emit_fields(tmp_path):
    out = tmp_path / "art"
    assert main(RUN_ARGS[:3] + ["--sweeps", "2", "--out", str(out),
                                "--emit-fields"]) == 0
    dumps = sorted(p.name for p in out.glob("fields_sweep*.vtk"))
    assert dumps == ["fields_sweep1.vtk", "fields_sweep2.vtk"]
    assert "POINT_DATA" in (out / "fields_sweep1.vtk").read_text()


def test_emit_fields_without_out_exits_config(capsys):
    assert main(RUN_ARGS[:3] + ["--sweeps", "2", "--emit-fields"]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_config_file_end_to_end(tmp_path):
    cfg = tmp_path / "case.cfg"
    out = tmp_path / "art"
    cfg.write_text(f"preset = lshape\nh = 1/4\nsweeps = 2\nout = {out}\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert (out / "history.csv").exists()


def test_table3_small_grid(tmp_path, capsys):
    out = tmp_path / "t3"
    assert main(["table3", "--h", "1/4", "--sweeps", "4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "history.csv").read_bytes().decode().strip().split("\r\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [2, 4]


def test_table4_small_grid(tmp_path, capsys):
    out = tmp_path / "t4"
    assert main(["table4", "--h", "1/4", "--sweeps", "4",
                 "--out", str(out)]) == 0
    table = (out / "table.md").read_text()
    assert "M1^2 w3" in table and "M2^2 w3" in table
    capsys.readouterr()


def test_table1_labels_rows_by_h(tmp_path, capsys):
    out = tmp_path / "t1"
    assert main(["table1", "--h", "1/8", "--sweeps", "4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "history.csv").read_bytes().decode().strip().split("\r\n")
    assert lines[0] == "h," + ",".join(CSV_HEADER)
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1/4", "1/8"]


def test_table2_labels_rows_by_coarse_size(tmp_path, capsys):
    out = tmp_path / "t2"
    assert main(["table2", "--h", "1/8", "--sweeps", "4",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "history.csv").read_bytes().decode().strip().split("\r\n")
    assert lines[0] == "H," + ",".join(CSV_HEADER)
    assert [ln.split(",")[0] for ln in lines[1:]] == ["1/4", "1/8"]


def test_check_command_passes(capsys):
    assert main(["check", "--h", "1/4"]) == 0
    stdout = capsys.readouterr().out
    assert "FAIL" not in stdout
    assert stdout.count("PASS") >= 8


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_config_on_bad_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("stride = 3\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert main(["run", "--h", "0.3"]) == 1
    assert "config error" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv", [
    ["table1", "--eps", "opt"],
    ["table1", "--preset", "rect"],
    ["table1", "--mode", "additive"],
    ["table1", "--H", "1/2"],
    ["table2", "--preset", "rect"],
    ["table3", "--config", "f"],
    ["table4", "--emit-fields"],
    ["check", "--out", "d"],
    ["check", "--sweeps", "2"],
])
def test_table_commands_reject_flags_they_ignore(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["table1", "--sweeps", "0"],
    ["table2", "--sweeps", "0"],
    ["table3", "--sweeps", "0"],
    ["table4", "--sweeps", "0"],
    ["table1", "--h", "1/2"],
    ["table1", "--h", "0.3"],
    ["table2", "--h", "1/2"],
    ["table1", "--h", "0.2"],
    ["table1", "--h", "1/6"],
    ["table2", "--h", "1/6"],
    ["table3", "--h", "1/4", "--sweeps", "1"],
    ["table4", "--h", "1/4", "--sweeps", "1"],
])
def test_bad_table_inputs_exit_config(argv, capsys):
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err


def test_coarse_size_not_a_multiple_of_h_exits_config(capsys):
    assert main(["run", "--h", "1/4", "--H", "1/3"]) == 1
    assert main(["run", "--h", "1/6", "--H", "1/4"]) == 1
    err = capsys.readouterr().err
    assert err.count("config error") == 2
    assert "not an integer multiple" in err


@pytest.mark.parametrize("H", [None, "1/4"])
def test_rect_preset_certifies(tmp_path, capsys, H):
    # one basic subdomain: no interfaces, so no jump term
    out = tmp_path / "rect"
    args = ["run", "--preset", "rect", "--h", "1/8", "--sweeps", "3",
            "--out", str(out)]
    assert main(args + (["--H", H] if H else [])) == 0
    capsys.readouterr()
    lines = (out / "history.csv").read_bytes().decode().strip().split("\r\n")
    assert len(lines) == 4
    for line in lines[1:]:
        sweep, m1, m2, m3, m, err, ieff = line.split(",")
        assert float(m3) == 0.0
        assert float(ieff) >= 1.0


def test_non_admissible_certificate_exits_solver(monkeypatch, capsys):
    exact_rhs = flux.corrector_rhs

    def shifted_rhs(*args, **kwargs):
        b, d = exact_rhs(*args, **kwargs)
        return b, d + 1.0

    monkeypatch.setattr(flux, "corrector_rhs", shifted_rhs)
    assert main(["run", "--h", "1/4", "--sweeps", "2"]) == 2
    err = capsys.readouterr().err
    assert "not admissible" in err
    assert "subdomain mean residual" in err


# history.csv of these runs as an earlier version of the code wrote them;
# every certified number must still match
PINNED_RUNS = [
    ("history_h16_opt.csv",
     ["run", "--h", "1/16", "--sweeps", "4", "--eps", "opt"]),
    ("history_h16_H4_additive_opt.csv",
     ["run", "--h", "1/16", "--H", "1/4", "--sweeps", "4", "--mode",
      "additive", "--eps", "opt"]),
    ("history_table2_h16.csv", ["table2", "--h", "1/16", "--sweeps", "4"]),
]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("name, argv", PINNED_RUNS)
def test_certified_numbers_match_pinned_history(name, argv, tmp_path,
                                                capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = _read_csv(tmp_path / "history.csv")
    want = _read_csv(DATA / name)
    assert got[0] == want[0]
    assert want[0] in (CSV_HEADER, ["H"] + CSV_HEADER)   # table2 labels H
    keys = len(want[0]) - len(CSV_HEADER) + 1            # label and sweep
    assert [row[:keys] for row in got] == [row[:keys] for row in want]
    for got_row, want_row in zip(got[1:], want[1:]):
        for field, a, b in zip(CSV_HEADER[1:], got_row[keys:],
                               want_row[keys:]):
            assert abs(float(a) - float(b)) <= 1e-12 * abs(float(b)), \
                (want_row[0], field, a, b)
