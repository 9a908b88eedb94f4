"""Spans around the calls into each qtree module, recorded from outside the package.

`installed(tracer)` replaces, for its duration, the module attributes
under which `qtree.cli`, `qtree.efficiency` and `qtree.ensemble` call
the public functions of the other modules, and puts the originals back
on exit.  Calls made inside one module (for example `efficiency_report`
calling `chi_exact`) are not split out; their time is that function's
self time.  A name a later version of the package no longer imports is
skipped, so its layer then reads zero.

Layers are the package modules: cli, graphs, spectral, efficiency, ensemble.
"""
from __future__ import annotations

import importlib
import json
import statistics
from contextlib import contextmanager
from time import perf_counter_ns


def _counts_of(name: str, result) -> dict | None:
    """Work counts attached to a span, read from the call's result."""
    if name in ("graphs.read_edge_list", "spectral.eigendecompose"):
        return {"n": result.n}
    if name == "spectral.bin_degeneracies":
        return {"classes": len(result.classes)}
    if name == "spectral.multiplicity_exact":
        return {"multiplicity": result}
    if name == "efficiency.efficiency_report":
        return {
            "n": result.n,
            "multiplicity_exact": result.multiplicity_e_star_exact,
            "multiplicity_binned": round(result.rho_star_exact * result.n),
        }
    if name == "ensemble.run_ensemble":
        return {"realizations": result.config.r}
    if name == "ensemble.sweep":
        return {"rows": len(result), "rows_ok": sum(row.status == "ok" for row in result)}
    return None


# (calling module, attribute it calls through, span name "<layer>.<function>")
WRAPPED = (
    ("qtree.cli", "read_edge_list", "graphs.read_edge_list"),
    ("qtree.cli", "build_hamiltonian", "spectral.build_hamiltonian"),
    ("qtree.cli", "eigendecompose", "spectral.eigendecompose"),
    ("qtree.cli", "bin_degeneracies", "spectral.bin_degeneracies"),
    ("qtree.cli", "efficiency_report", "efficiency.efficiency_report"),
    ("qtree.cli", "default_time_grid", "efficiency.default_time_grid"),
    ("qtree.cli", "return_amplitude_series", "efficiency.return_amplitude_series"),
    ("qtree.cli", "mean_return_probability_series", "efficiency.mean_return_probability_series"),
    ("qtree.cli", "time_average", "efficiency.time_average"),
    ("qtree.cli", "chi_exact", "efficiency.chi_exact"),
    ("qtree.cli", "sweep", "ensemble.sweep"),
    ("qtree.efficiency", "structural_stats", "graphs.structural_stats"),
    ("qtree.efficiency", "build_hamiltonian", "spectral.build_hamiltonian"),
    ("qtree.efficiency", "eigendecompose", "spectral.eigendecompose"),
    ("qtree.efficiency", "bin_degeneracies", "spectral.bin_degeneracies"),
    ("qtree.efficiency", "multiplicity_exact", "spectral.multiplicity_exact"),
    ("qtree.ensemble", "run_ensemble", "ensemble.run_ensemble"),
    ("qtree.ensemble", "generate_sft", "graphs.generate_sft"),
    ("qtree.ensemble", "structural_stats", "graphs.structural_stats"),
)

# Functions called once per realization: their spans carry no counts, to
# keep the tracing cost per realization small.
_UNCOUNTED = {"graphs.generate_sft", "graphs.structural_stats"}


class Tracer:
    """Keeps spans in memory as [id, parent id, name, start ns, end ns, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int | None] = [None]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counted = name not in _UNCOUNTED

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1], name, 0, 0, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter_ns()
                stack.pop()
            if counted:
                try:
                    span[5] = _counts_of(name, result)
                except (AttributeError, TypeError):
                    pass  # a result of another shape: the span keeps no counts
            return result

        return traced

    def clear(self) -> None:
        self.spans.clear()


@contextmanager
def installed(tracer: Tracer):
    """Route the package's cross-module calls through `tracer` until exit."""
    saved = []
    try:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(span_name, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its child spans cover, in ns."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[4] - s[3]
    return own


def write_spans(spans: list[list], fh, pass_index: int) -> None:
    """Append one JSON object per span; times in seconds from the pass's first span."""
    if not spans:
        return
    origin = spans[0][3]
    own = self_times(spans)
    for s, self_ns in zip(spans, own):
        fh.write(json.dumps({
            "pass": pass_index, "id": s[0], "parent": s[1], "name": s[2],
            "start_s": (s[3] - origin) / 1e9, "end_s": (s[4] - origin) / 1e9,
            "self_s": self_ns / 1e9, "counts": s[5],
        }, separators=(",", ":")) + "\n")


def pass_metrics(spans: list[list], commands: int) -> dict[str, float]:
    """Per-layer figures for one traced pass over `commands` commands.

    `*_s` are seconds in the pass, `*_us` microseconds per call,
    `*_calls` calls per command.  `cli.main` root spans must be present.
    """
    own = self_times(spans)
    total: dict[str, int] = {}
    self_total: dict[str, int] = {}
    calls: dict[str, int] = {}
    for s, self_ns in zip(spans, own):
        total[s[2]] = total.get(s[2], 0) + s[4] - s[3]
        self_total[s[2]] = self_total.get(s[2], 0) + self_ns
        calls[s[2]] = calls.get(s[2], 0) + 1

    def seconds(name):
        return total.get(name, 0) / 1e9

    def per_call_us(name):
        return total[name] / calls[name] / 1e3 if calls.get(name) else 0.0

    def counts(name):
        return [s[5] for s in spans if s[2] == name and s[5] is not None]

    realizations = sum(c["realizations"] for c in counts("ensemble.run_ensemble"))
    # time in run_ensemble not covered by the per-realization spans under it
    glue_ns = self_total.get("ensemble.run_ensemble", 0)

    # one class count per command: the last binning under each root span
    last_classes: dict[int, int] = {}
    root_of: dict[int, int] = {}
    for s in spans:
        root_of[s[0]] = s[0] if s[1] is None else root_of[s[1]]
        if s[2] == "spectral.bin_degeneracies" and s[5] is not None:
            last_classes[root_of[s[0]]] = s[5]["classes"]

    reports = counts("efficiency.efficiency_report")
    agreeing = sum(r["multiplicity_exact"] == r["multiplicity_binned"] for r in reports)
    sweeps = counts("ensemble.sweep")
    rows = sum(c["rows"] for c in sweeps)
    rows_ok = sum(c["rows_ok"] for c in sweeps)
    # ratios over zero attempts read 1: nothing of that kind disagreed or failed
    return {
        "graphs.generate_sft_us": per_call_us("graphs.generate_sft"),
        "graphs.structural_stats_us": per_call_us("graphs.structural_stats"),
        "ensemble.glue_us": glue_ns / realizations / 1e3 if realizations else 0.0,
        "graphs.read_edge_list_s": seconds("graphs.read_edge_list"),
        "spectral.eigendecompose_s": seconds("spectral.eigendecompose"),
        "spectral.eigendecompose_calls": calls.get("spectral.eigendecompose", 0) / commands,
        "spectral.multiplicity_exact_s": seconds("spectral.multiplicity_exact"),
        "spectral.build_hamiltonian_s": seconds("spectral.build_hamiltonian"),
        "spectral.bin_degeneracies_s": seconds("spectral.bin_degeneracies"),
        "efficiency.mean_return_probability_series_s":
            seconds("efficiency.mean_return_probability_series"),
        "efficiency.return_amplitude_series_s": seconds("efficiency.return_amplitude_series"),
        "efficiency.efficiency_report_self_s":
            self_total.get("efficiency.efficiency_report", 0) / 1e9,
        "cli.self_s": self_total.get("cli.main", 0) / 1e9,
        "spectral.degeneracy_classes": sum(last_classes.values()),
        "spectral.oracle_agreement_ratio": agreeing / len(reports) if reports else 1.0,
        "ensemble.realizations": realizations,
        "ensemble.rows_ok_ratio": rows_ok / rows if rows else 1.0,
    }


# Unit of each per-layer metric; the last two are added by the caller.
LAYER_UNITS = {
    "graphs.generate_sft_us": "us",
    "graphs.structural_stats_us": "us",
    "ensemble.glue_us": "us",
    "graphs.read_edge_list_s": "s",
    "spectral.eigendecompose_s": "s",
    "spectral.eigendecompose_calls": "count",
    "spectral.multiplicity_exact_s": "s",
    "spectral.build_hamiltonian_s": "s",
    "spectral.bin_degeneracies_s": "s",
    "efficiency.mean_return_probability_series_s": "s",
    "efficiency.return_amplitude_series_s": "s",
    "efficiency.efficiency_report_self_s": "s",
    "cli.self_s": "s",
    "spectral.degeneracy_classes": "count",
    "spectral.oracle_agreement_ratio": "ratio",
    "ensemble.realizations": "count",
    "ensemble.rows_ok_ratio": "ratio",
    "cli.output_bytes": "bytes",
    "trace_overhead_ratio": "ratio",
}


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
