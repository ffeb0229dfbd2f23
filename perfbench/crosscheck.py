#!/usr/bin/env python3
"""Cross-check the per-layer ledger against cProfile, grouped by layer.

Run from the repository root::

    python3 perfbench/crosscheck.py --workload gc-zipf --seed 1

Runs the workload's simulation once under ``cProfile`` and once under the
ledger (``run.py --traced-child``, its own process), and prints both
layer rankings as shares of their layer total.  cProfile's own time for
a function in an unmapped module or in C (numpy, heapq, builtins) is
handed to the layers of its direct callers in proportion to their calls,
which is how the ledger charges such time to the calling span.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import subprocess
import sys
from collections import defaultdict
from typing import Dict, Optional

import run


def module_of(filename: str) -> Optional[str]:
    path = os.path.abspath(filename)
    if not path.startswith(run.SRC + os.sep) or not path.endswith(".py"):
        return None
    relative = os.path.relpath(path, run.SRC)[: -len(".py")]
    return relative.replace(os.sep, ".").removesuffix(".__init__")


def cprofile_layers(name: str, seed: int) -> Dict[str, float]:
    from ledger import repro_layer
    from repro.core.simulation import Simulation

    config = run.config_for(name, seed)
    simulation = Simulation(config)
    profiler = cProfile.Profile()
    profiler.runcall(lambda: (simulation.warm_up(), simulation.measure()))
    stats = pstats.Stats(profiler).stats

    def layer_of(func) -> Optional[str]:
        module = module_of(func[0])
        return repro_layer(module) if module else None

    shares: Dict[str, float] = defaultdict(float)
    for func, (_, _, tottime, _, callers) in stats.items():
        layer = layer_of(func)
        if layer is not None:
            shares[layer] += tottime
            continue
        calls = sum(entry[1] for entry in callers.values())
        for caller, entry in callers.items():
            weight = entry[1] / calls if calls else 0.0
            shares[layer_of(caller) or "other"] += tottime * weight
    return dict(shares)


def ledger_layers(name: str, seed: int) -> Dict[str, float]:
    command = [
        sys.executable, os.path.join(run.HERE, "run.py"),
        "--workload", name, "--seed", str(seed), "--traced-child",
    ]
    child = subprocess.run(command, capture_output=True, text=True, timeout=600, check=True)
    trace = json.loads(child.stdout.strip().splitlines()[-1])
    shares = dict(trace["self_s"])
    shares["other"] = trace["run_s"] - trace["attributed_s"]
    return shares


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run.load_repro()
    profiled = cprofile_layers(args.workload, args.seed)
    ledger = ledger_layers(args.workload, args.seed)
    totals = (sum(profiled.values()), sum(ledger.values()))
    print(f"{args.workload} seed={args.seed}: cProfile {totals[0]:.1f} s, ledger {totals[1]:.1f} s")
    print(f"{'layer':<16}{'cProfile %':>12}{'ledger %':>10}")
    for layer in sorted(ledger, key=ledger.get, reverse=True):
        print(
            f"{layer:<16}{100 * profiled.get(layer, 0.0) / totals[0]:>12.1f}"
            f"{100 * ledger[layer] / totals[1]:>10.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
