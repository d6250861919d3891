"""In-process traced run of one workload, and the per-layer numbers from it.

The tracer wraps the public functions of each ``ebdi`` module *as bound in
the module that calls them* (``ebdi.report.build_profile`` and
``ebdi.metrics.build_profile`` are separate bindings of one function; the
second is what ``compute_journal_indicators`` calls). Every call records a
span: layer, function, start, end, parent span and a few attributes. Spans
stay in memory and are written out when the run ends. A span's self time is
its duration minus the duration of its direct children, so the self times of
one iteration sum exactly to its root spans' durations.

Run as a script, it executes a workload through ``ebdi.cli.main`` in this
process: one traced warm-up iteration (its spans give the counts, and the RSS
just after its first corpus load is the process's first big allocation), then
untraced/traced pairs until ``--seconds`` have passed, at least one pair. Times
are medians over the pairs. It writes a JSON result plus the spans as JSON
lines. ``run.py --trace 1`` starts it in a fresh interpreter, so that its
peak RSS reflects only the workload.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import time
from pathlib import Path
from typing import Callable

# (module holding the binding, attribute, layer)
BINDINGS = (
    ("ebdi.cli", "main", "cli"),
    ("ebdi.cli", "run_indicators", "report"),
    ("ebdi.cli", "run_roles", "report"),
    ("ebdi.cli", "run_correlations", "report"),
    ("ebdi.cli", "export_sc_network", "report"),
    ("ebdi.report", "aggregate_sc_network", "report"),
    ("ebdi.report", "load_corpus", "corpus"),
    ("ebdi.corpus", "load_classification", "corpus"),
    ("ebdi.corpus", "load_edges", "corpus"),
    ("ebdi.report", "compute_journal_indicators", "metrics"),
    ("ebdi.report", "build_profile", "metrics"),
    ("ebdi.metrics", "build_profile", "metrics"),
    ("ebdi.report", "compute_ebdi", "metrics"),
    ("ebdi.metrics", "compute_ebdi", "metrics"),
    ("ebdi.report", "build_journal_roles", "taxonomy"),
    ("ebdi.report", "classify_discipline", "taxonomy"),
    ("ebdi.report", "median_threshold", "taxonomy"),
    ("ebdi.report", "load_metric_series", "stats"),
    ("ebdi.report", "correlate", "stats"),
    ("ebdi.report", "scatter_svg", "svg"),
)
REPORT_STAGES = ("run_indicators", "run_roles", "run_correlations", "export_sc_network")


def _attrs(name: str, args: tuple, kwargs: dict, result: object) -> object:
    """The per-call facts a layer metric needs, taken at the call boundary."""
    if name == "build_profile":
        return [args[1], args[3].value]  # unit_id, dimension
    if name == "load_edges":
        return result.edge_count
    if name == "scatter_svg":
        return len(kwargs["points"])
    return None


class Tracer:
    """Spans kept in memory as lists: [id, parent, layer, name, start, end, attrs, error]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.rss_after_first_load_kb: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, layer, name, 0.0, 0.0, None, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = time.perf_counter()
                span[7] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[5] = time.perf_counter()
            span[6] = _attrs(name, args, kwargs, result)
            if name == "load_edges" and self.rss_after_first_load_kb is None:
                self.rss_after_first_load_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, layer in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, attr, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {span[0]: span[5] - span[4] for span in spans}
    for span in spans:
        if span[1] is not None:
            own[span[1]] -= span[5] - span[4]
    return own


def run_iterations(invocations: Callable[[Path], list[list[str]]], out_dir: Path,
                   seconds: float) -> tuple[list[dict], Tracer]:
    """Warm-up, then alternating untraced/traced iterations of a workload in this process."""
    import ebdi.cli

    tracer = Tracer()
    iterations: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(iterations) < 3 or len(iterations) % 2 == 0 or time.perf_counter() < deadline:
        mode = "warmup" if not iterations else ("untraced", "traced")[(len(iterations) - 1) % 2]
        out = out_dir / str(len(iterations))
        first_span = len(tracer.spans)
        if mode != "untraced":
            tracer.install()
        try:
            start = time.perf_counter()
            codes = [ebdi.cli.main(argv) for argv in invocations(out)]
            total = time.perf_counter() - start
        finally:
            tracer.uninstall()
        iterations.append({"mode": mode, "total_s": total, "codes": codes, "out": str(out),
                           "spans": [first_span, len(tracer.spans)]})
    return iterations, tracer


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="traced in-process run of one workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    iterations, tracer = run_iterations(
        lambda out: workload.invocations(args.inputs, out), args.out, args.seconds)
    with (args.result.with_suffix(".spans.jsonl")).open("w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span, separators=(",", ":")) + "\n")
    args.result.write_text(json.dumps({
        "iterations": iterations,
        "rss_after_first_load_kb": tracer.rss_after_first_load_kb,
    }))
    return 0


# -- per-layer metrics --------------------------------------------------------------


def _visits_per_unit(memberships: dict[str, list[str]], citation_rows) -> dict[tuple[str, str], int]:
    """Merged edges a build_profile call scans, per (unit, dimension); computed from inputs."""
    merged = {(focal, partner, dim) for focal, partner, dim, _ in citation_rows}
    per_journal: dict[tuple[str, str], int] = {}
    for focal, _, dim in merged:
        per_journal[(focal, dim)] = per_journal.get((focal, dim), 0) + 1
    visits = dict(per_journal)
    for jid, scs in memberships.items():
        for sc in scs:
            for dim in ("CITED", "CITING"):
                visits[(sc, dim)] = visits.get((sc, dim), 0) + per_journal.get((jid, dim), 0)
    return visits


def layer_metrics(spans: list[list], iterations: list[dict], rss_after_first_load_kb: int | None,
                  corpus, bytes_written: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: self times are medians over the traced iterations,
    counts come from the warm-up iteration (they repeat exactly)."""
    traced = [it for it in iterations if it["mode"] == "traced"]
    per_iteration = []
    for it in traced:
        chunk = spans[it["spans"][0]:it["spans"][1]]
        own = self_times(chunk)
        sums: dict[tuple[str, str], float] = {}
        for span in chunk:
            key = (span[2], span[3])
            sums[key] = sums.get(key, 0.0) + own[span[0]]
        per_iteration.append(sums)

    def seconds(*keys: tuple[str, str]) -> float:
        return statistics.median(sum(sums.get(key, 0.0) for key in keys) for sums in per_iteration)

    warmup = iterations[0]
    first = spans[warmup["spans"][0]:warmup["spans"][1]]

    def calls(name: str, error: str | None = None) -> int:
        return sum(1 for s in first if s[3] == name and (error is None or s[7] == error))

    loads = [s[6] for s in first if s[3] == "load_edges"]
    rows_parsed = len(loads) * len(corpus.citation_rows)
    visits_per_unit = _visits_per_unit(corpus.memberships, corpus.citation_rows)
    edge_visits = sum(visits_per_unit.get(tuple(s[6]), 0) for s in first if s[3] == "build_profile")
    merged_edges = len({row[:3] for row in corpus.citation_rows})
    taxonomy = [("taxonomy", name)
                for name in ("build_journal_roles", "classify_discipline", "median_threshold")]
    traced_total = statistics.median(it["total_s"] for it in traced)
    untraced_total = statistics.median(it["total_s"] for it in iterations if it["mode"] == "untraced")
    return {
        "corpus.load_classification_s": (seconds(("corpus", "load_classification")), "s"),
        "corpus.load_edges_s": (seconds(("corpus", "load_edges")), "s"),
        "corpus.load_calls": (len(loads), "count"),
        "corpus.rows_parsed": (rows_parsed, "count"),
        "corpus.edges_merged": (sum(loads), "count"),
        "corpus.edges_per_row": (sum(loads) / rows_parsed if rows_parsed else 0.0, "ratio"),
        "corpus.rss_mb": ((rss_after_first_load_kb or 0) / 1024, "MB"),
        "metrics.build_profile_s": (seconds(("metrics", "build_profile")), "s"),
        "metrics.build_profile_calls": (calls("build_profile"), "count"),
        "metrics.compute_ebdi_s": (seconds(("metrics", "compute_ebdi")), "s"),
        "metrics.compute_ebdi_calls": (calls("compute_ebdi"), "count"),
        "metrics.missing": (calls("compute_ebdi", "NoCitationsError"), "count"),
        "metrics.edge_visits": (edge_visits, "count"),
        "metrics.edge_visits_per_edge": (edge_visits / merged_edges if merged_edges else 0.0, "ratio"),
        "report.aggregate_sc_network_s": (seconds(("report", "aggregate_sc_network")), "s"),
        "report.self_s": (seconds(*(("report", name) for name in REPORT_STAGES)), "s"),
        "report.bytes_written": (bytes_written, "B"),
        "taxonomy.s": (seconds(*taxonomy), "s"),
        "taxonomy.calls": (sum(calls(name) for _, name in taxonomy), "count"),
        "stats.load_metric_series_s": (seconds(("stats", "load_metric_series")), "s"),
        "stats.correlate_s": (seconds(("stats", "correlate")), "s"),
        "stats.correlate_calls": (calls("correlate"), "count"),
        "stats.pairs_skipped": (calls("correlate", "ValidationError"), "count"),
        "svg.scatter_svg_s": (seconds(("svg", "scatter_svg")), "s"),
        "svg.points": (sum(s[6] for s in first if s[3] == "scatter_svg"), "count"),
        "cli.self_s": (seconds(("cli", "main")), "s"),
        "trace.total_s": (traced_total, "s"),
        "trace.overhead_s": (traced_total - untraced_total, "s"),
    }


if __name__ == "__main__":
    raise SystemExit(main())
