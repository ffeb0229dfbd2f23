"""Tests of the benchmark's own tracer and harness.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import ledger  # noqa: E402
import run  # noqa: E402
from repro.core.config import CachingScheme, SimulationConfig  # noqa: E402
from repro.core.simulation import Simulation  # noqa: E402
from repro.sim import kernel  # noqa: E402
from repro.sim.kernel import Environment, Interrupt  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_module(name: str, source: str, **bindings) -> types.ModuleType:
    module = types.ModuleType(name)
    module.__dict__.update(bindings)
    exec(source, module.__dict__)
    return module


def fake_layer(name: str):
    return name.split(".", 1)[1] if name.startswith("fake.") else None


LEAF = """
def leaf(clock):
    clock.advance(4)
    return "leaf"
"""

PRODUCE = """
def produce(clock):
    clock.advance(2)
    first = leaf(clock)
    yield first
    clock.advance(2)
    return "done"
"""

OUTER = """
def outer(clock):
    clock.advance(1)
    generator = produce(clock)
    first = next(generator)
    try:
        generator.send(None)
    except StopIteration as stop:
        result = stop.value
    clock.advance(8)
    return first, result

def twice(clock):
    clock.advance(1)
    return outer(clock)
"""


def test_self_time_of_function_in_generator_in_function():
    clock = FakeClock()
    leaf_module = make_module("fake.a", LEAF)
    produce_module = make_module("fake.b", PRODUCE, leaf=leaf_module.leaf)
    outer_module = make_module("fake.c", OUTER, produce=produce_module.produce)
    spans = ledger.Ledger(("a", "b", "c"), clock=clock)
    modules = [leaf_module, produce_module, outer_module]
    with ledger.Tracer(modules, fake_layer, spans):
        assert outer_module.outer(clock) == ("leaf", "done")
    assert spans.self_s == {"a": 4.0, "b": 4.0, "c": 9.0}
    # One leaf call, two generator resumes (the second ends it), one outer.
    assert spans.calls == {"a": 1, "b": 2, "c": 1}
    assert spans.attributed_s == 17.0
    assert spans.stack == [17.0] and spans.open_layers == [None]


def test_same_layer_call_opens_no_span():
    clock = FakeClock()
    leaf_module = make_module("fake.a", LEAF)
    produce_module = make_module("fake.b", PRODUCE, leaf=leaf_module.leaf)
    outer_module = make_module("fake.c", OUTER, produce=produce_module.produce)
    spans = ledger.Ledger(("a", "b", "c"), clock=clock)
    with ledger.Tracer([leaf_module, produce_module, outer_module], fake_layer, spans):
        outer_module.twice(clock)
    assert spans.self_s["c"] == 10.0
    assert spans.calls["c"] == 1


CHILD = """
def child(env, log):
    try:
        yield env.timeout(10)
    except Interrupt as interrupt:
        log.append(("child interrupted", env.now, interrupt.cause))
        return "early"
    return "late"
"""

WORKER = """
def _worker(env, log):
    value = yield from child(env, log)
    log.append(("child returned", value, env.now))
    for _ in range(5):
        yield env.timeout(1)
    return "worker-done"

def _interrupter(env, process):
    yield env.timeout(3)
    process.interrupt("stop")
"""


def run_interrupt_scenario(worker_module):
    env = Environment()
    log = []
    process = env.process(worker_module._worker(env, log))
    env.process(worker_module._interrupter(env, process))
    env.run()
    return process, (log, process.value, env.now, env.events_processed, env.freelist_hits)


def test_proxy_forwards_interrupt_and_early_return():
    child_module = make_module("fake.child", CHILD, Interrupt=Interrupt)
    worker_module = make_module("fake.worker", WORKER, child=child_module.child)
    _, untraced = run_interrupt_scenario(worker_module)
    log, value, _, _, freelist_hits = untraced
    assert log == [("child interrupted", 3.0, "stop"), ("child returned", "early", 3.0)]
    assert value == "worker-done"
    assert freelist_hits > 0

    def layer_of(name):
        return "sim.kernel" if name == kernel.__name__ else fake_layer(name)

    spans = ledger.Ledger(("sim.kernel", "child", "worker"))
    modules = [child_module, worker_module, kernel]
    with ledger.Tracer(modules, layer_of, spans, spawner=(Environment, "process")):
        process, traced = run_interrupt_scenario(worker_module)
    # Same outcome, same event count, and the Timeout free list recycled
    # exactly as often: the proxies kept no reference to a yielded event.
    assert traced == untraced
    assert isinstance(process.generator, ledger.TimedGenerator)
    assert spans.calls["worker"] > 0 and spans.calls["child"] > 0


def snapshot_repro():
    entries = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            entries[(name, attr)] = value
            if isinstance(value, type):
                for member, raw in vars(value).items():
                    entries[(name, attr, member)] = raw
    return entries


def test_uninstall_restores_every_attribute():
    before = snapshot_repro()
    tracer = ledger.repro_tracer(ledger.Ledger(ledger.LAYERS))
    tracer.install()
    try:
        original = before[("repro.sim.kernel", "Environment", "run")]
        assert vars(Environment)["run"].__wrapped__ is original
    finally:
        tracer.uninstall()
    after = snapshot_repro()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert not tracer.installed


def tiny_config(scheme):
    return SimulationConfig(
        scheme=scheme,
        n_clients=10,
        n_data=200,
        cache_size=10,
        access_range=50,
        measure_requests=3,
        warmup_max_time=30.0,
        seed=3,
    )


@pytest.mark.parametrize("scheme", list(CachingScheme))
def test_traced_run_matches_untraced(scheme):
    config = tiny_config(scheme)
    untraced = Simulation(config)
    expected = untraced.run()
    spans = ledger.Ledger(ledger.LAYERS)
    with ledger.repro_tracer(spans):
        traced = Simulation(config)
        results = traced.run()
    assert results == expected
    assert traced.profile(0.0).counters == untraced.profile(0.0).counters
    assert traced.env.events_processed == untraced.env.events_processed
    assert spans.calls["core.client"] > 0
    assert (spans.calls["signatures"] > 0) == (scheme is CachingScheme.GC)


def test_check_results_rejects_unbalanced_outcomes():
    config = tiny_config(CachingScheme.CC)
    results = Simulation(config).run()
    run.check_results(results, config)
    broken = dataclasses.replace(results, failures=results.failures + 1)
    with pytest.raises(run.CheckFailed):
        run.check_results(broken, config)
    assert run.results_digest(results) != run.results_digest(broken)


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(ledger.LAYERS)
