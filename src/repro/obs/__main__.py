"""Command-line front-end for the observability layer.

Render a trace export::

    python -m repro.obs trace.jsonl                 # every trace, as trees
    python -m repro.obs trace.jsonl --trace-id q000001
    python -m repro.obs trace.jsonl --totals        # Figure-9 breakdown only
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.obs import tracing
from repro.obs.report import report


def _render_file(path: Path, trace_id: str | None, totals_only: bool) -> int:
    spans = tracing.TraceCollector.from_jsonl(path.read_text())
    if trace_id is not None:
        spans = [span for span in spans if span.trace_id == trace_id]
        if not spans:
            report(f"no spans for trace {trace_id!r} in {path}")
            return 1
    by_trace: dict[str, list[tracing.Span]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    for tid in sorted(by_trace):
        trace = by_trace[tid]
        report(f"trace {tid} ({len(trace)} spans)")
        if not totals_only:
            report(tracing.render_tree(trace))
        totals = tracing.category_totals(trace)
        if totals:
            report("  simulated seconds by category:")
            for category, seconds in sorted(totals.items()):
                report(f"    {category:>14}: {seconds:.6f}")
        report()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.obs``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render trace exports.",
    )
    parser.add_argument(
        "path", type=Path, help="JSON-lines trace export to render"
    )
    parser.add_argument(
        "--trace-id", help="render only this trace (e.g. q000001)"
    )
    parser.add_argument(
        "--totals", action="store_true",
        help="print only the per-category simulated-time totals",
    )
    args = parser.parse_args(argv)

    if not args.path.exists():
        report(f"no such file: {args.path}")
        return 2
    return _render_file(args.path, args.trace_id, args.totals)


if __name__ == "__main__":
    raise SystemExit(main())
