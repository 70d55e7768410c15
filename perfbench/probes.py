"""Traced-run probes for the ddmcert benchmark.

Every probe wraps one function at the place its caller looks it up: the
package's modules use ``from .x import y``, so a function is patched in the
namespace of the module that calls it, not only where it is defined.  A
probe whose target no longer exists is reported as missing and counts zero
calls.

Two kinds of probe exist.  A ``span`` probe records (name, start, end,
parent) for each call.  A ``count`` probe only counts calls; it is used for
small functions called in inner loops, whose time belongs to the caller.

A span's layer is the text before the first dot of its name, which is the
module the function is defined in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

def _size_of(obj, attr):
    """``len(obj.attr)`` for a container, ``int(obj.attr)`` for a number."""
    value = getattr(obj, attr)
    return len(value) if hasattr(value, "__len__") else int(value)


def _n_triangles(args, kwargs, result):
    mesh = result[0] if isinstance(result, tuple) else result
    return {"n_triangles": _size_of(mesh, "triangles")}


def _coarse_edges(args, kwargs, result):
    return {"coarse_edges": _size_of(result, "edges")}


def _kkt_size(args, kwargs, result):
    _, G, C = args[:3]
    return {"kkt_dim": G.shape[0] + C.shape[0],
            "kkt_nnz": G.nnz + 2 * C.nnz}


def _subdomain_dofs(args, kwargs, result):
    return {"subdomain_dofs": len(result)}


def _corrector_dofs(args, kwargs, result):
    return {"corrector_dofs": _size_of(result, "n_dofs")}


# (span name, kind, lookup sites "module:attr[.attr]", size extractor).
# Sizes are reported as the largest value seen over the calls.
PROBES = [
    ("mesh.build_lshape_mesh", "span",
     ["ddmcert.pipeline:build_lshape_mesh"], _n_triangles),
    ("mesh.TriMesh.from_arrays", "span",
     ["ddmcert.mesh:TriMesh.from_arrays"], None),
    ("mesh.build_coarse_mesh", "span",
     ["ddmcert.pipeline:build_coarse_mesh"], _coarse_edges),
    ("mesh.compatibility_check", "span",
     ["ddmcert.flux:compatibility_check"], None),
    ("problem.manufactured_lshape_problem", "span",
     ["ddmcert.pipeline:manufactured_lshape_problem"], None),
    ("problem.assemble_stiffness", "span",
     ["ddmcert.schwarz:assemble_stiffness"], None),
    ("problem.assemble_load", "span",
     ["ddmcert.schwarz:assemble_load"], None),
    ("problem.solve_dirichlet", "span",
     ["ddmcert.problem:solve_dirichlet"], None),
    ("problem.f_cell_integrals", "span",
     ["ddmcert.pipeline:f_cell_integrals", "ddmcert.flux:f_cell_integrals",
      "ddmcert.majorant:f_cell_integrals"], None),
    ("problem.energy_error", "span",
     ["ddmcert.majorant:energy_error"], None),
    ("problem.p1_gradients", "count",
     ["ddmcert.problem:p1_gradients", "ddmcert.flux:p1_gradients"], None),
    ("linalg.SaddleFactorization.__init__", "span",
     ["ddmcert.linalg:SaddleFactorization.__init__"], _kkt_size),
    ("linalg.SaddleFactorization.solve", "span",
     ["ddmcert.linalg:SaddleFactorization.solve"], None),
    ("linalg.spd_solve", "span", ["ddmcert.linalg:spd_solve"], None),
    ("linalg.SparseSymmetric.from_csr", "span",
     ["ddmcert.linalg:SparseSymmetric.from_csr"], None),
    ("linalg.SparseSymmetric.matvec", "count",
     ["ddmcert.linalg:SparseSymmetric.matvec"], None),
    ("schwarz.run_schwarz", "span",
     ["ddmcert.pipeline:run_schwarz"], None),
    ("schwarz.interior_nodes", "span",
     ["ddmcert.schwarz:interior_nodes"], _subdomain_dofs),
    ("flux.build_corrector_space", "span",
     ["ddmcert.pipeline:build_corrector_space"], _corrector_dofs),
    ("flux.average_gradient", "span",
     ["ddmcert.pipeline:average_gradient"], None),
    ("flux.corrector_matrix", "span",
     ["ddmcert.flux:corrector_matrix"], None),
    ("flux.corrector_rhs", "span", ["ddmcert.flux:corrector_rhs"], None),
    ("flux.CorrectorSolver.__init__", "span",
     ["ddmcert.flux:CorrectorSolver.__init__"], None),
    ("flux.CorrectorSolver.solve", "span",
     ["ddmcert.flux:CorrectorSolver.solve"], None),
    ("flux.corrected_flux", "span",
     ["ddmcert.pipeline:corrected_flux"], None),
    ("flux.constraint_residuals", "span",
     ["ddmcert.majorant:constraint_residuals"], None),
    ("majorant.MajorantConstants.default", "span",
     ["ddmcert.majorant:MajorantConstants.default"], None),
    ("majorant.alpha_weights", "span",
     ["ddmcert.pipeline:alpha_weights"], None),
    ("majorant.evaluate_majorant", "span",
     ["ddmcert.pipeline:evaluate_majorant"], None),
    ("majorant.optimize_eps", "span",
     ["ddmcert.pipeline:optimize_eps"], None),
    ("pipeline.run_case", "span", ["ddmcert.cli:run_case"], None),
    ("pipeline.build_preset", "span",
     ["ddmcert.pipeline:build_preset"], None),
    ("pipeline.certify_iterate", "span",
     ["ddmcert.pipeline:certify_iterate"], None),
    ("cli.build_config", "span", ["ddmcert.cli:build_config"], None),
    ("cli.write_history_csv", "span",
     ["ddmcert.cli:write_history_csv"], None),
    ("cli._emit", "span", ["ddmcert.cli:_emit"], None),
    ("vtkio.write_vtk", "span", ["ddmcert.vtkio:write_vtk"], None),
]

# The Schwarz loop calls back into the pipeline after every sweep; that
# callback gets a span of its own so Schwarz self time excludes it.
ON_SWEEP = "pipeline.on_sweep"


class Tracer:
    """Spans and call counts of one traced process, kept in memory."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, raised]
        self.stack = []
        self.calls = {}
        self.sizes = {}
        self.missing = []
        self.warnings = []

    # -- recording -------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, False])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span, raised=False):
        span[2] = time.perf_counter()
        span[4] = raised
        self.stack.pop()

    def _record_sizes(self, name, extract, args, kwargs, result):
        try:
            found = extract(args, kwargs, result)
        except Exception as exc:  # the program's types may change
            self.warnings.append(f"{name}: size not readable ({exc!r})")
            return
        for key, value in found.items():
            self.sizes[key] = max(self.sizes.get(key, 0), int(value))

    def wrap(self, fn, name, kind, extract=None):
        tracer = self

        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            if name == "schwarz.run_schwarz" and "on_sweep" in kwargs:
                kwargs["on_sweep"] = tracer.wrap(kwargs["on_sweep"], ON_SWEEP,
                                                 "span")
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(span, raised=True)
                raise
            tracer.close(span)
            if extract is not None:
                tracer._record_sizes(name, extract, args, kwargs, result)
            return result
        return traced

    # -- installing ------------------------------------------------------

    def install(self, probes=PROBES):
        for name, kind, sites, extract in probes:
            for site in sites:
                if not self._patch(site, name, kind, extract):
                    self.missing.append(f"{name} at {site}")

    def _patch(self, site, name, kind, extract):
        module_name, _, path = site.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if not hasattr(owner, attr):
            return False
        raw = (inspect.getattr_static(owner, attr)
               if inspect.isclass(owner) else getattr(owner, attr))
        if isinstance(raw, classmethod):
            setattr(owner, attr,
                    classmethod(self.wrap(raw.__func__, name, kind, extract)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr,
                    staticmethod(self.wrap(raw.__func__, name, kind, extract)))
        elif callable(raw):
            setattr(owner, attr, self.wrap(raw, name, kind, extract))
        else:
            return False
        return True

    # -- output ----------------------------------------------------------

    def dump(self, path):
        """Write the spans as JSON lines: id, name, start, end, parent."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, raised) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "raised": raised}) + "\n")

    def summary(self):
        """Per-span-name totals, self times and per-certification counts."""
        n = len(self.spans)
        child_time = [0.0] * n
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        in_cert = [False] * n
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            # parents precede their children, so one forward pass suffices
            in_cert[i] = parent >= 0 and (
                in_cert[parent]
                or self.spans[parent][0] == "pipeline.certify_iterate")
        by_name = {}
        for i, (name, start, end, parent, raised) in enumerate(self.spans):
            entry = by_name.setdefault(name, {"total_s": 0.0, "self_s": 0.0,
                                              "spans": 0, "in_cert": 0,
                                              "raised": 0})
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["spans"] += 1
            entry["in_cert"] += in_cert[i]
            entry["raised"] += raised
        return {"by_name": by_name, "calls": dict(self.calls),
                "sizes": dict(self.sizes), "missing": list(self.missing),
                "warnings": list(self.warnings), "n_spans": n,
                "sweeps_s": self.sweep_times()}

    def sweep_times(self):
        """Schwarz time of each sweep, without the callback that follows it:
        from the end of the previous callback (or the Schwarz entry) to the
        start of the next callback."""
        out = []
        last = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name == "schwarz.run_schwarz":
                last[i] = start
            elif name == ON_SWEEP and parent in last:
                out.append(start - last[parent])
                last[parent] = end
        return out
