"""Text rendering of sweep results in the paper's panel layout."""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.metrics import Results
from repro.experiments.runner import SweepTable

__all__ = ["format_profile_report", "format_results_row", "format_sweep_table"]

#: (attribute, panel title, unit, format)
PANELS: List[Tuple[str, str, str]] = [
    ("access_latency", "(a) Access Latency", "s"),
    ("server_request_ratio", "(b) Server Request Ratio", "%"),
    ("gch_ratio", "(c) GCH Ratio", "%"),
    ("power_per_gch", "(d) Power per GCH", "uW.s"),
]


def _fmt(value: float) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "      n/a"
    if math.isinf(value):
        return "      inf"
    if value == 0:
        return "        0"
    magnitude = abs(value)
    if magnitude >= 1000:
        return f"{value:9.0f}"
    if magnitude >= 1:
        return f"{value:9.2f}"
    return f"{value:9.4f}"


def format_results_row(result: Results) -> str:
    """One-line summary of a single run."""
    return (
        f"{result.scheme:>3}  lat={result.access_latency:.4f}s  "
        f"server={result.server_request_ratio:5.1f}%  "
        f"gch={result.gch_ratio:5.1f}%  lch={result.lch_ratio:5.1f}%  "
        f"power/gch={_fmt(result.power_per_gch).strip()}"
    )


def format_sweep_table(table: SweepTable, title: str = "") -> str:
    """Render all four panels of one figure as aligned text tables.

    Columns are 10 characters wide, or as wide as their widest cell plus a
    separating space when a value label or number needs more.
    """
    lines: List[str] = []
    header = f"=== {table.figure}: {title or table.parameter} ==="
    lines.append(header)
    schemes = list(table.rows)
    labels = [str(v) for v in table.values]
    for metric, panel, unit in PANELS:
        lines.append("")
        lines.append(f"{panel} [{unit}]")
        rows = [
            [_fmt(v) for v in table.series(scheme, metric)] for scheme in schemes
        ]
        widths = []
        for col, label in enumerate(labels):
            width = max([10, *(len(row[col]) + 1 for row in rows)])
            if len(label) > 10:  # longer labels get a separating space
                width = max(width, len(label) + 1)
            widths.append(width)
        value_cells = "".join(
            f"{label:>{width}}" for label, width in zip(labels, widths)
        )
        lines.append(f"  {table.parameter:>12} |{value_cells}")
        lines.append("  " + "-" * (14 + sum(widths)))
        for scheme, row in zip(schemes, rows):
            cells = "".join(f"{cell:>{width}}" for cell, width in zip(row, widths))
            lines.append(f"  {scheme:>12} |{cells}")
    lines.append("")
    return "\n".join(lines)


def format_profile_report(table: SweepTable) -> str:
    """Per-run wall-clock / events/s report of one sweep.

    Sourced from each run's :class:`~repro.sim.profile.RunProfile`; runs
    resolved from the result cache report the timing of the run that
    originally produced them.
    """
    lines = [f"=== {table.figure}: per-run profile ({table.parameter}) ==="]
    total_wall = 0.0
    total_events = 0
    profiled = 0
    for value in table.values:
        for scheme in table.rows:
            result = table.result(scheme, value)
            profile = result.profile if result is not None else None
            if profile is None:
                continue
            profiled += 1
            total_wall += profile.wall_time
            total_events += profile.events
            counters = profile.counters
            p2p = counters.get("p2p_broadcasts", 0) + counters.get(
                "p2p_unicasts", 0
            )
            lines.append(
                f"  {table.parameter}={value!s:>8} {scheme:>3}: "
                f"{profile.wall_time:8.2f}s  {profile.events:>10} events  "
                f"{profile.events_per_sec:>12,.0f} ev/s  p2p_tx={p2p}  "
                f"snapshots={counters.get('snapshot_refreshes', 0)}"
                f"+{counters.get('snapshot_rebuilds', 0)}full  "
                f"ndp_rounds={counters.get('ndp_rounds', 0)}"
            )
    if profiled:
        rate = total_events / total_wall if total_wall > 0 else 0.0
        lines.append(
            f"  total: {profiled} runs  {total_wall:.2f}s simulation wall-clock  "
            f"{total_events} events  {rate:,.0f} ev/s"
        )
    else:
        lines.append("  (no profiles recorded)")
    return "\n".join(lines)
