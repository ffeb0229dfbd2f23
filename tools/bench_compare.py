#!/usr/bin/env python3
"""Compare two ``BENCH_<date>.json`` snapshots and gate on regressions.

Usage::

    python tools/bench_compare.py results/BENCH_old.json results/BENCH_new.json
    python tools/bench_compare.py old.json new.json --threshold 0.15

Prints a per-benchmark speedup table (micro benches matched by name, plus
the sweep's aggregate events/sec and wall-clock ms per 1000 simulated
requests) and exits non-zero when any compared series regresses by more
than ``--threshold`` (default 15%).  Series that exist on only one side are
reported but never gate — adding or retiring a micro suite, or comparing
against a snapshot recorded before a series existed, must not fail CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

__all__ = ["compare", "main"]


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bench_compare: cannot read {path}: {exc}")


def _fmt_ratio(speedup: float) -> str:
    """Human-readable change: >1 is faster, <1 is slower."""
    if speedup >= 1.0:
        return f"{speedup:.2f}x faster"
    return f"{1.0 / speedup:.2f}x slower"


def compare(old: dict, new: dict, threshold: float) -> tuple:
    """Diff two snapshots; return (report lines, regression lines).

    Micro benches compare ``mean_s`` and the sweep ``wall_ms_per_kreq``
    (lower is better); the sweep also compares ``aggregate_events_per_sec``
    (higher is better).  A series regresses when its speedup (old time /
    new time, or new rate / old rate) falls below ``1 - threshold``.
    """
    lines = []
    regressions = []
    floor = 1.0 - threshold

    old_micro = {bench["name"]: bench for bench in old.get("micro", [])}
    new_micro = {bench["name"]: bench for bench in new.get("micro", [])}
    for name in sorted(old_micro.keys() | new_micro.keys()):
        before = old_micro.get(name)
        after = new_micro.get(name)
        if before is None or after is None:
            side = "new" if before is None else "old"
            lines.append(f"  {name}: only in {side} snapshot (not compared)")
            continue
        if after["mean_s"] <= 0 or before["mean_s"] <= 0:
            lines.append(f"  {name}: non-positive timing (not compared)")
            continue
        speedup = before["mean_s"] / after["mean_s"]
        lines.append(
            f"  {name}: {before['mean_s'] * 1e3:.2f}ms -> "
            f"{after['mean_s'] * 1e3:.2f}ms ({_fmt_ratio(speedup)})"
        )
        if speedup < floor:
            regressions.append(
                f"{name}: {_fmt_ratio(speedup)} exceeds the "
                f"{threshold:.0%} regression budget"
            )

    old_agg = old.get("sweep", {}).get("aggregate_events_per_sec", 0.0)
    new_agg = new.get("sweep", {}).get("aggregate_events_per_sec", 0.0)
    if old_agg > 0 and new_agg > 0:
        speedup = new_agg / old_agg
        lines.append(
            f"  sweep aggregate: {old_agg:,.0f} -> {new_agg:,.0f} events/s "
            f"({_fmt_ratio(speedup)})"
        )
        if speedup < floor:
            regressions.append(
                f"sweep aggregate events/sec: {_fmt_ratio(speedup)} exceeds "
                f"the {threshold:.0%} regression budget"
            )
    else:
        lines.append("  sweep aggregate: missing on one side (not compared)")

    old_cost = old.get("sweep", {}).get("wall_ms_per_kreq", 0.0)
    new_cost = new.get("sweep", {}).get("wall_ms_per_kreq", 0.0)
    if old_cost > 0 and new_cost > 0:
        speedup = old_cost / new_cost
        lines.append(
            f"  sweep cost: {old_cost:,.1f} -> {new_cost:,.1f} ms per 1k "
            f"requests ({_fmt_ratio(speedup)})"
        )
        if speedup < floor:
            regressions.append(
                f"sweep ms per 1k requests: {_fmt_ratio(speedup)} exceeds "
                f"the {threshold:.0%} regression budget"
            )
    elif old_cost > 0 or new_cost > 0:
        side, cost = ("old", old_cost) if old_cost > 0 else ("new", new_cost)
        lines.append(
            f"  sweep cost: {cost:,.1f} ms per 1k requests only in {side} "
            "snapshot (not compared)"
        )
    else:
        lines.append("  sweep cost: missing on both sides (not compared)")
    return lines, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="baseline BENCH_*.json")
    parser.add_argument("new", type=Path, help="candidate BENCH_*.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed fractional throughput loss before failing (default 0.15)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.threshold < 1:
        parser.error("--threshold must be in [0, 1)")

    old, new = _load(args.old), _load(args.new)
    print(
        f"baseline {args.old.name} ({old.get('date', '?')}, "
        f"queue={old.get('kernel_queue', '?')}, rev={old.get('git_rev', '?')})"
    )
    print(
        f"candidate {args.new.name} ({new.get('date', '?')}, "
        f"queue={new.get('kernel_queue', '?')}, rev={new.get('git_rev', '?')})"
    )
    lines, regressions = compare(old, new, args.threshold)
    print("\n".join(lines))
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        return 1
    print(f"ok: no series regressed beyond {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
