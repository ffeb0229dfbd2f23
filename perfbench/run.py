#!/usr/bin/env python3
"""Paper-scale benchmark of the ``repro`` simulator: host time per request.

Run from the repository root::

    python3 perfbench/run.py --workload gc-zipf --seed 1 --seconds 30 --trace 0

Each workload is a 100-MH Table II simulation (see ``WORKLOADS``), run
in this process with the sources under ``src/``.  ``--trace 0`` simulates
several seeds derived from ``--seed``, as many as fit in ``--seconds``,
repeats the first one, and reports the end-to-end metrics over them.
``--trace 1`` simulates the first of those seeds once untraced here and
once under the per-layer ledger (``ledger.py``) in a child process, and
reports the per-layer metrics.  Every simulation is checked
(``check_results``), and a repeated simulation must reproduce the same
``Results`` digest.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
See README.md in this directory for what each metric and workload means.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Table II values every workload pins, so a later change of a config
#: default cannot silently change what the benchmark measures.
TABLE_II = dict(
    n_clients=100,
    n_data=10_000,
    cache_size=100,
    access_range=1000,
    theta=0.5,
    area_width=1000.0,
    area_height=1000.0,
    hop_dist=2,
    ndp_enabled=True,
    workload="",
)

@dataclasses.dataclass(frozen=True)
class Workload:
    scheme: str
    #: Warm-up cap in simulated seconds (``warmup_max_time``).
    warmup_s: float
    measure_requests: int
    #: Host seconds one simulation takes on a 2-vCPU x86 VM; fixes how
    #: many simulations a run of ``--seconds`` makes.
    nominal_s: float
    overrides: Dict[str, float]
    why: str


# Per-request cost depends on where the seed puts the motion groups (how
# many peers a flood reaches): one seed's ms_per_kreq differs from
# another's by up to 1.5x.  A run therefore simulates several short runs
# of distinct seeds and reports their aggregate, rather than one long run.
WORKLOADS: Dict[str, Workload] = {
    "gc-zipf": Workload(
        "GC", 90.0, 13, 5.8, {},
        "GroCoCa read-only: the only workload where signatures and TCG discovery work",
    ),
    "cc-zipf": Workload(
        "CC", 60.0, 13, 7.2, {},
        "COCA read-only: flooded peer search, heaviest on p2p and kernel, no signatures/TCG",
    ),
    "lc-update": Workload(
        "LC", 90.0, 50, 1.5, {"data_update_rate": 10.0, "p_disc": 0.1},
        "conventional caching with updates and disconnection: MSS channel and validation, no p2p",
    ),
}

#: Simulations built (and discarded) per run on top of the measured ones,
#: spread over the run, so ``setup_s`` is a median over enough samples.
EXTRA_SETUPS = 30

#: Host speed on a shared VM drifts by up to 25% over minutes.  Each run
#: times a fixed pure-Python loop between its simulations and rescales
#: its host times to a host where one loop takes CALIBRATION_NOMINAL_S
#: (about its time on a 2-vCPU x86 VM), so the drift cancels out.
CALIBRATION_NOMINAL_S = 0.040
CALIBRATION_SAMPLES = 20

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ms_per_kreq": "ms",
    "peak_rss_mb": "MB",
    "sim_latency_ms": "ms",
    "server_request_pct": "%",
}


def per_layer_units(layers) -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in layers:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(
        {
            "other.self_s": "s",
            "sim.kernel.events": "count",
            "sim.kernel.ns_per_event": "ns",
            "net.p2p.broadcasts": "count",
            "net.p2p.unicasts": "count",
            "net.p2p.unicast_fail_ratio": "ratio",
            "mobility.snapshot_reuse_ratio": "ratio",
            "net.channel.downlink_wait_sim_s": "s",
            "net.channel.uplink_wait_sim_s": "s",
            "net.ndp.beacons": "count",
            "core.client.peer_search_hit_ratio": "ratio",
            "core.client.gch_pct": "%",
            "signatures.bypassed_searches": "count",
            "core.server.validations": "count",
            "trace.overhead_x": "x",
        }
    )
    return units


class CheckFailed(Exception):
    """A run's output broke a correctness rule."""


def load_repro() -> None:
    """Put the checkout's ``src/`` first on the path; fail without it."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: simulator sources not found under {SRC}")
    sys.path.insert(0, SRC)


def simulation_count(name: str, seconds: float) -> int:
    """Distinct seeds a run simulates; one more simulation repeats the first."""
    return max(2, int(seconds / WORKLOADS[name].nominal_s) - 1)


def config_for(name: str, seed: int, index: int = 0):
    """The ``index``-th simulation of a run with benchmark seed ``seed``."""
    from repro.core.config import CachingScheme, SimulationConfig

    workload = WORKLOADS[name]
    return SimulationConfig(
        scheme=CachingScheme[workload.scheme],
        seed=seed * 1000 + index,
        warmup_min_time=0.0,
        warmup_max_time=workload.warmup_s,
        measure_requests=workload.measure_requests,
        **TABLE_II,
        **workload.overrides,
    )


def results_digest(results) -> str:
    """Hash of every compared ``Results`` field (timing is excluded)."""
    fields = {
        f.name: getattr(results, f.name)
        for f in dataclasses.fields(results)
        if f.compare
    }
    encoded = json.dumps(fields, sort_keys=True, default=repr).encode()
    return hashlib.sha256(encoded).hexdigest()[:16]


def check_results(results, config) -> None:
    outcomes = (
        results.local_hits
        + results.global_hits
        + results.server_requests
        + results.failures
    )
    if outcomes != results.requests:
        raise CheckFailed(f"outcomes sum to {outcomes}, requests = {results.requests}")
    floor = config.n_clients * config.measure_requests
    if results.requests < floor:
        raise CheckFailed(f"{results.requests} requests < n_clients x measure_requests = {floor}")
    if config.scheme.cooperative:
        if results.global_hits == 0:
            raise CheckFailed(f"{config.scheme.value} run earned no global hit")
    elif results.global_hits or results.peer_searches:
        raise CheckFailed("LC run used peer cooperation")


@dataclasses.dataclass
class Rep:
    setup_s: float
    run_s: float
    measure_s: float
    results: object
    events: int
    counters: Dict[str, float]


class _Slot:
    __slots__ = ("hits", "last")

    def __init__(self) -> None:
        self.hits = 0
        self.last = 0


def _accumulator():
    total = 0
    while True:
        total += yield total


def calibration_loop() -> float:
    """Host seconds for a fixed mix of the simulator's kinds of Python work:
    heap pushes and pops, dict updates, slotted attributes, generator sends.
    It uses none of the simulator's code, so no change to it moves this."""
    start = time.perf_counter()
    heap: list = []
    table: Dict[int, int] = {}
    slots = [_Slot() for _ in range(2000)]
    accumulator = _accumulator()
    next(accumulator)
    for step in range(20000):
        key = (step * 7919) % 20011
        table[key] = table.get(key, 0) + 1
        slot = slots[key % 2000]
        slot.hits += 1
        slot.last = key
        heapq.heappush(heap, ((step * 31) % 997 + step * 0.001, step, slot))
        if len(heap) > 500:
            heapq.heappop(heap)
        accumulator.send(slot.hits & 3)
    return time.perf_counter() - start


def run_once(config) -> Rep:
    """One simulation, timed by phase: set-up, warm-up, measurement."""
    from repro.core.simulation import Simulation

    clock = time.perf_counter
    start = clock()
    simulation = Simulation(config)
    wired = clock()
    simulation.warm_up()
    warm = clock()
    results = simulation.measure()
    done = clock()
    profile = simulation.profile(done - start)
    return Rep(wired - start, done - wired, done - warm, results, profile.events, profile.counters)


def time_setup(config) -> float:
    from repro.core.simulation import Simulation

    start = time.perf_counter()
    simulation = Simulation(config)
    elapsed = time.perf_counter() - start
    del simulation
    gc.collect()
    return elapsed


def report(correct: bool, attempted: int, failed: int, values: Dict[str, float], units: Dict[str, str]) -> None:
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def attempt(config, failures: List[str]) -> Optional[Rep]:
    """One checked simulation; a raise or a failed check is recorded."""
    try:
        rep = run_once(config)
        check_results(rep.results, config)
        return rep
    except Exception:  # noqa: BLE001 - a failed run is counted, not fatal
        failures.append(traceback.format_exc())
        return None
    finally:
        gc.collect()


def end_to_end(name: str, seed: int, seconds: float) -> int:
    configs = [config_for(name, seed, index) for index in range(simulation_count(name, seconds))]
    loops_each = max(1, round(CALIBRATION_SAMPLES / (len(configs) + 1)))
    setups_each = -(-EXTRA_SETUPS // (len(configs) + 1))
    loops: List[float] = []
    setups: List[float] = []
    failures: List[str] = []
    attempts = []
    for config in configs + [configs[0]]:
        loops += [calibration_loop() for _ in range(loops_each)]
        setups += [time_setup(config) for _ in range(setups_each)]
        attempts.append(attempt(config, failures))
    # The last simulation repeats the first: it must reproduce its Results.
    repeat = attempts.pop()
    reps = [rep for rep in attempts if rep is not None]
    if not reps:
        sys.stderr.write("".join(failures) + "perfbench: every simulation failed\n")
        return 1
    digests = [results_digest(rep.results) for rep in (attempts[0], repeat) if rep is not None]
    if len(digests) == 2 and digests[0] != digests[1]:
        failures.append(f"repeated simulation changed its Results digest: {digests}\n")
    sys.stderr.write("".join(failures))
    results = [rep.results for rep in reps]
    requests = sum(r.requests for r in results)
    completed = sum(r.requests - r.failures for r in results)
    host = {
        "setup_s": statistics.median(setups + [rep.setup_s for rep in reps]),
        "run_s": statistics.fmean(rep.run_s for rep in reps),
        "ms_per_kreq": sum(rep.measure_s for rep in reps) * 1e6 / requests,
    }
    scale = CALIBRATION_NOMINAL_S / statistics.fmean(loops)
    print(f"{name} seed={seed} simulations={len(configs)} results digest: {' '.join(digests)}")
    print(
        f"calibration loop {1e3 * statistics.fmean(loops):.1f} ms (x{scale:.3f} to nominal); uncorrected "
        + " ".join(f"{key}={value:.6g}" for key, value in host.items())
    )
    values = {key: value * scale for key, value in host.items()}
    values.update(
        {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_latency_ms": sum(r.access_latency * (r.requests - r.failures) for r in results) * 1e3 / completed,
            "server_request_pct": 100.0 * sum(r.server_requests for r in results) / requests,
        }
    )
    report(not failures, len(configs) + 1, len(failures), values, E2E_UNITS)
    return 0


def traced_child(name: str, seed: int) -> int:
    """Run once under the ledger; print the ledger and outcome as JSON."""
    import ledger as ledger_module
    from repro.core.simulation import Simulation

    config = config_for(name, seed)
    # A first, untraced build finishes the simulator's lazy imports, so
    # the tracer sees every module the run uses.
    Simulation(config)
    gc.collect()
    spans = ledger_module.Ledger(ledger_module.LAYERS)
    tracer = ledger_module.repro_tracer(spans)
    loaded = set(sys.modules)
    with tracer:
        simulation = Simulation(config)
        spans.reset()
        start = time.perf_counter()
        simulation.warm_up()
        results = simulation.measure()
        run_s = time.perf_counter() - start
    late = sorted(
        module for module in set(sys.modules) - loaded
        if ledger_module.repro_layer(module) is not None
    )
    profile = simulation.profile(run_s)
    print(
        json.dumps(
            {
                "digest": results_digest(results),
                "run_s": run_s,
                "self_s": spans.self_s,
                "calls": spans.calls,
                "attributed_s": spans.attributed_s,
                "late_modules": late,
                "events": profile.events,
                "counters": profile.counters,
                "peer_searches": results.peer_searches,
                "global_hits": results.global_hits,
                "gch_pct": results.gch_ratio,
                "bypassed_searches": results.bypassed_searches,
                "validations": results.validations,
            }
        )
    )
    return 0


def per_layer(name: str, seed: int) -> int:
    from ledger import LAYERS

    config = config_for(name, seed)
    failures: List[str] = []
    rep = attempt(config, failures)
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed), "--traced-child",
    ]
    child = subprocess.run(command, capture_output=True, text=True, timeout=170, check=False)
    sys.stderr.write(child.stderr)
    trace = None
    if child.returncode != 0:
        failures.append(f"traced run exited with {child.returncode}\n")
    else:
        trace = json.loads(child.stdout.strip().splitlines()[-1])
        if trace["late_modules"]:
            failures.append(f"modules imported after the tracer installed: {trace['late_modules']}\n")
        if rep is not None:
            untraced = {"digest": results_digest(rep.results), "events": rep.events, "counters": rep.counters}
            for key, value in untraced.items():
                if trace[key] != value:
                    failures.append(f"traced {key} differs from the untraced run\n")
    for text in failures:
        sys.stderr.write(text)
    if rep is None or trace is None:
        return 1
    print(f"{name} seed={seed} results digest: untraced {results_digest(rep.results)} traced {trace['digest']}")
    counters = trace["counters"]
    events = trace["events"]
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = trace["self_s"][layer]
        values[f"{layer}.calls"] = trace["calls"][layer]
    unicasts = counters["p2p_unicasts"]
    snapshots = counters["snapshot_rebuilds"] + counters["snapshot_refreshes"] + counters["snapshot_reuses"]
    values.update(
        {
            "other.self_s": trace["run_s"] - trace["attributed_s"],
            "sim.kernel.events": events,
            "sim.kernel.ns_per_event": trace["self_s"]["sim.kernel"] * 1e9 / events,
            "net.p2p.broadcasts": counters["p2p_broadcasts"],
            "net.p2p.unicasts": unicasts,
            "net.p2p.unicast_fail_ratio": counters["p2p_failed_unicasts"] / unicasts if unicasts else 0.0,
            "mobility.snapshot_reuse_ratio": counters["snapshot_reuses"] / snapshots if snapshots else 0.0,
            "net.channel.downlink_wait_sim_s": counters["server_downlink_wait"],
            "net.channel.uplink_wait_sim_s": counters["server_uplink_wait"],
            "net.ndp.beacons": counters["beacons_sent"],
            "core.client.peer_search_hit_ratio": (
                trace["global_hits"] / trace["peer_searches"] if trace["peer_searches"] else 0.0
            ),
            "core.client.gch_pct": trace["gch_pct"],
            "signatures.bypassed_searches": trace["bypassed_searches"],
            "core.server.validations": trace["validations"],
            "trace.overhead_x": trace["run_s"] / rep.run_s,
        }
    )
    report(not failures, 2, len(failures), values, per_layer_units(LAYERS))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    load_repro()
    if args.traced_child:
        return traced_child(args.workload, args.seed)
    if args.trace:
        return per_layer(args.workload, args.seed)
    return end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
