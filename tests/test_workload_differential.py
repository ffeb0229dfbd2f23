"""Differential pin: the registry path vs the legacy demand path.

``workload=""`` and ``workload="stationary-zipf"`` must be *the same
process*, bit for bit: same Results, same golden-trace fixtures, with no
re-record.  The committed goldens were recorded before the workload
registry existed, so replaying them here under an explicit
``workload="stationary-zipf"`` proves the refactor moved the legacy
draw chain without disturbing a single draw.

The flip side: a genuinely different engine (``flash-crowd``) must
visibly diverge on the same seed — otherwise this test file would pass
vacuously.
"""

import json

import pytest

from repro.check.golden import (
    GOLDEN_CASES,
    default_fixtures_dir,
    diff_fixture,
    fixture_results,
    results_to_dict,
    without_event_count,
)
from repro.core.config import SimulationConfig
from repro.core.simulation import run_simulation

SMALL = SimulationConfig(
    n_clients=6,
    n_data=120,
    access_range=30,
    cache_size=6,
    group_size=3,
    measure_requests=5,
    warmup_min_time=20.0,
    warmup_max_time=40.0,
    max_sim_time=400.0,
    ndp_enabled=False,
    seed=11,
)


def test_empty_workload_equals_stationary_zipf_bitwise():
    legacy = results_to_dict(run_simulation(SMALL))
    registry = results_to_dict(
        run_simulation(SMALL.replace(workload="stationary-zipf"))
    )
    assert legacy == registry


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_fixtures_replay_under_explicit_stationary_zipf(name):
    path = default_fixtures_dir() / f"{name}.json"
    with path.open("r", encoding="utf-8") as handle:
        fixture = json.load(handle)
    config = SimulationConfig.from_dict(fixture["config"])
    assert config.workload == ""  # recorded before the registry existed
    replayed = results_to_dict(
        run_simulation(config.replace(workload="stationary-zipf"))
    )
    diffs = diff_fixture(fixture_results(fixture), without_event_count(replayed))
    assert diffs == [], f"{name}: {diffs[:5]}"


def test_flash_crowd_diverges_from_the_stationary_process():
    stationary = results_to_dict(run_simulation(SMALL))
    crowd = results_to_dict(
        run_simulation(SMALL.replace(workload="flash-crowd"))
    )
    assert stationary != crowd


def test_workload_field_does_not_leak_into_results():
    # Results carry no workload-dependent *shape*: both runs expose the
    # same metric fields, so sweep tables mix workloads freely.
    stationary = results_to_dict(run_simulation(SMALL))
    ycsb = results_to_dict(run_simulation(SMALL.replace(workload="ycsb")))
    assert set(stationary) == set(ycsb)
