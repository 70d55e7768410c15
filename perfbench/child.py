"""One benchmark invocation: ``ddmcert.cli.main(argv)`` in a fresh process.

Usage (started by run.py, not by hand):

    python3 perfbench/child.py RESULT_JSON TRACE SPANS_JSONL -- CLI_ARGV...

The package is imported from ``src/`` of the checkout this file sits in.
Untraced, the only hooks are two timestamp wrappers, on
``ddmcert.pipeline.run_schwarz`` (entry time) and on
``ddmcert.pipeline.certify_iterate`` (return time and the report it
returns).  With TRACE=1 the probes of probes.py are installed as well and
the spans are written to SPANS_JSONL.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_package():
    if not (SRC / "ddmcert" / "cli.py").is_file():
        raise SystemExit(f"ddmcert sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import ddmcert.cli
    import ddmcert.pipeline
    found = Path(ddmcert.__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise SystemExit(f"imported ddmcert from {found}, not from {SRC}")
    return ddmcert.cli, ddmcert.pipeline


def _report_fields(rep):
    return {"guaranteed": bool(rep.guaranteed), "total": float(rep.total),
            "D11": float(rep.D11), "error": float(rep.energy_err),
            "efficiency": float(rep.efficiency)}


def install_timestamps(pipeline, marks):
    """The two end-to-end hooks; a missing target is a hard error."""
    for attr in ("run_schwarz", "certify_iterate"):
        if not callable(getattr(pipeline, attr, None)):
            raise SystemExit(f"benchmark hook target ddmcert.pipeline.{attr} "
                             "is missing")
    run_schwarz = pipeline.run_schwarz
    certify_iterate = pipeline.certify_iterate

    def timed_run_schwarz(*args, **kwargs):
        marks["schwarz_entry"].append(time.perf_counter())
        return run_schwarz(*args, **kwargs)

    def timed_certify_iterate(*args, **kwargs):
        out = certify_iterate(*args, **kwargs)
        marks["cert_end"].append(time.perf_counter())
        marks["reports"].append(out[-1] if isinstance(out, tuple) else out)
        return out

    pipeline.run_schwarz = timed_run_schwarz
    pipeline.certify_iterate = timed_certify_iterate


def main(argv):
    result_path, trace, spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT TRACE SPANS -- CLI_ARGV...")
    trace = trace == "1"
    cli, pipeline = _import_package()
    import numpy
    import scipy

    marks = {"schwarz_entry": [], "cert_end": [], "reports": []}
    install_timestamps(pipeline, marks)
    tracer = None
    if trace:
        sys.path.insert(0, str(HERE))
        from probes import Tracer
        tracer = Tracer()
        tracer.install()

    root = tracer.open("root") if tracer else None
    t0 = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    t1 = time.perf_counter()
    if tracer:
        tracer.close(root)

    entry = marks["schwarz_entry"][0] if marks["schwarz_entry"] else None
    out = {
        "exit_code": code,
        "wall_s": t1 - t0,
        "setup_s": None if entry is None else entry - t0,
        "cert_times": [t - t0 for t in marks["cert_end"]],
        "reports": [_report_fields(r) for r in marks["reports"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer:
        tracer.dump(spans_path)
        out["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
