#!/usr/bin/env python3
"""Run the micro-benchmarks and one profiled quick sweep; emit BENCH_<date>.json.

Produces a single machine-readable snapshot of the simulator's hot-path
performance:

* the pytest-benchmark stats for the two micro suites (DES kernel event
  throughput, signature build/match), via ``--benchmark-json``;
* a quick-profile figure sweep executed in-process with per-run
  :class:`~repro.sim.profile.RunProfile` data (wall-clock, events
  processed, events/sec, measured requests, subsystem counters), plus the
  sweep's aggregate events/sec and wall-clock ms per 1000 measured
  requests.

Usage::

    python tools/bench_profile.py [--figure fig2] [--jobs N] [--skip-micro]

Writes ``results/BENCH_<YYYY-MM-DD>.json``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MICRO_SUITES = [
    "benchmarks/test_micro_kernel.py",
    "benchmarks/test_micro_signatures.py",
]

#: Rounds per micro bench: the sims are deterministic, so multiple rounds
#: exist purely to measure machine noise — the recorded stddev is real.
MICRO_ROUNDS = 5


def git_revision() -> str:
    """Short git revision of the working tree, or ``"unknown"``."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return "unknown"
    if completed.returncode != 0:
        return "unknown"
    return completed.stdout.strip() or "unknown"


def run_micro_benchmarks() -> list:
    """Run the micro suites under pytest-benchmark; return per-bench stats."""
    with tempfile.TemporaryDirectory() as scratch:
        report = Path(scratch) / "micro.json"
        command = [
            sys.executable,
            "-m",
            "pytest",
            *MICRO_SUITES,
            "--benchmark-only",
            f"--benchmark-json={report}",
            "-q",
        ]
        completed = subprocess.run(
            command,
            cwd=ROOT,
            env={
                "PYTHONPATH": str(ROOT / "src"),
                "PATH": "/usr/bin:/bin",
                "REPRO_BENCH_ROUNDS": str(MICRO_ROUNDS),
            },
            capture_output=True,
            text=True,
        )
        if completed.returncode != 0:
            print(completed.stdout, file=sys.stderr)
            print(completed.stderr, file=sys.stderr)
            raise RuntimeError("micro benchmarks failed")
        payload = json.loads(report.read_text())
    return [
        {
            "name": bench["name"],
            "mean_s": bench["stats"]["mean"],
            "stddev_s": bench["stats"]["stddev"],
            "rounds": bench["stats"]["rounds"],
            "ops_per_sec": bench["stats"]["ops"],
        }
        for bench in payload.get("benchmarks", [])
    ]


def run_profiled_sweep(figure: str, jobs: int, rounds: int = 3) -> dict:
    """Run one quick-scale figure sweep in-process and collect run profiles.

    The sweep is executed ``rounds`` times and each (scheme, value) point
    keeps its *fastest* wall-clock observation: simulated outcomes are
    deterministic, so min-of-N is the standard way to strip scheduler and
    container timing noise (observed at ±30% on shared machines) from the
    recorded throughput.
    """
    import os

    os.environ["REPRO_PROFILE"] = "quick"
    os.environ.pop("REPRO_FULL", None)
    from repro.cli import FIGURES
    from repro.experiments import sweeps

    sweep_name, _ = FIGURES[figure]
    best: dict = {}
    table = None
    for _ in range(max(1, rounds)):
        table = getattr(sweeps, sweep_name)(jobs=jobs)
        for scheme, results in sorted(table.rows.items()):
            for value, result in zip(table.values, results):
                profile = result.profile
                if profile is None:
                    continue
                key = (scheme, value)
                held = best.get(key)
                if held is not None and held["wall_time_s"] <= profile.wall_time:
                    continue
                entry = {
                    "scheme": scheme,
                    table.parameter: value,
                    "wall_time_s": profile.wall_time,
                    "events": profile.events,
                    "events_per_sec": profile.events_per_sec,
                    "requests": result.requests,
                }
                entry.update(profile.counters)
                best[key] = entry
    runs = [best[key] for key in sorted(best)]
    total_wall = sum(run["wall_time_s"] for run in runs)
    total_events = sum(run["events"] for run in runs)
    total_requests = sum(run["requests"] for run in runs)
    return {
        "figure": table.figure,
        "parameter": table.parameter,
        "scale": "quick",
        "jobs": jobs,
        "rounds": max(1, rounds),
        "runs": runs,
        "total_wall_time_s": total_wall,
        "total_events": total_events,
        "total_requests": total_requests,
        "aggregate_events_per_sec": (
            total_events / total_wall if total_wall > 0 else 0.0
        ),
        # Host cost per simulated request: unlike events/sec, it does not
        # read a change that removes kernel events as a slowdown.
        "wall_ms_per_kreq": (
            total_wall * 1e6 / total_requests if total_requests else 0.0
        ),
    }


def main(argv=None) -> int:
    """Run both stages and write the dated JSON snapshot."""
    from repro.cli import FIGURES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--figure",
        default="fig2",
        choices=sorted(FIGURES),
        help="figure sweep to profile",
    )
    parser.add_argument("--jobs", type=int, default=1, help="parallel workers")
    parser.add_argument(
        "--sweep-rounds",
        type=int,
        default=3,
        help="sweep repetitions; each point keeps its fastest observation",
    )
    parser.add_argument(
        "--skip-micro", action="store_true", help="skip the pytest micro suites"
    )
    args = parser.parse_args(argv)

    from repro.sim.kernel import default_queue_name

    snapshot = {
        "date": datetime.date.today().isoformat(),
        "python": sys.version.split()[0],
        "git_rev": git_revision(),
        "kernel_queue": default_queue_name(),
        "micro": [] if args.skip_micro else run_micro_benchmarks(),
        "sweep": run_profiled_sweep(args.figure, args.jobs, args.sweep_rounds),
    }
    target = ROOT / "results" / f"BENCH_{snapshot['date']}.json"
    target.write_text(json.dumps(snapshot, indent=2) + "\n")
    sweep = snapshot["sweep"]
    print(
        f"wrote {target}: {len(snapshot['micro'])} micro benches, "
        f"{len(sweep['runs'])} profiled runs, "
        f"{sweep['aggregate_events_per_sec']:,.0f} events/s aggregate, "
        f"{sweep['wall_ms_per_kreq']:,.1f} ms per 1k requests"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
