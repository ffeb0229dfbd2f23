"""Tests for the BENCH snapshot regression gate (tools/bench_compare.py)."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_compare  # noqa: E402


def snapshot(mean_s=None, events_per_sec=None, ms_per_kreq=None):
    micro = [] if mean_s is None else [{"name": "kernel", "mean_s": mean_s}]
    sweep = {}
    if events_per_sec is not None:
        sweep["aggregate_events_per_sec"] = events_per_sec
    if ms_per_kreq is not None:
        sweep["wall_ms_per_kreq"] = ms_per_kreq
    return {"micro": micro, "sweep": sweep}


def regressions(old, new, threshold=0.15):
    return bench_compare.compare(old, new, threshold)[1]


def test_identical_snapshots_pass():
    snap = snapshot(mean_s=1.0, events_per_sec=1000.0, ms_per_kreq=500.0)
    assert regressions(snap, snap) == []


def test_micro_bench_gates():
    assert regressions(snapshot(mean_s=1.0), snapshot(mean_s=1.10)) == []
    [line] = regressions(snapshot(mean_s=1.0), snapshot(mean_s=1.25))
    assert line.startswith("kernel:")


def test_events_per_sec_gates():
    old = snapshot(events_per_sec=1000.0)
    assert regressions(old, snapshot(events_per_sec=900.0)) == []
    [line] = regressions(old, snapshot(events_per_sec=800.0))
    assert "events/sec" in line


def test_ms_per_kreq_gates_when_both_sides_have_it():
    old = snapshot(events_per_sec=1000.0, ms_per_kreq=500.0)
    faster = snapshot(events_per_sec=1000.0, ms_per_kreq=300.0)
    assert regressions(old, faster) == []
    assert regressions(old, snapshot(events_per_sec=1000.0, ms_per_kreq=560.0)) == []
    [line] = regressions(old, snapshot(events_per_sec=1000.0, ms_per_kreq=650.0))
    assert "ms per 1k requests" in line


def test_fewer_events_at_lower_cost_fails_only_the_events_gate():
    """A change that removes kernel events by design lowers events/sec even
    while each request gets cheaper: only the events/sec series trips."""
    old = snapshot(events_per_sec=100_000.0, ms_per_kreq=500.0)
    new = snapshot(events_per_sec=80_000.0, ms_per_kreq=450.0)
    [line] = regressions(old, new)
    assert "events/sec" in line


def test_one_sided_series_are_reported_but_never_gate():
    old = snapshot(mean_s=1.0, events_per_sec=1000.0)
    new = snapshot(events_per_sec=1000.0, ms_per_kreq=500.0)
    lines, found = bench_compare.compare(old, new, 0.15)
    assert found == []
    text = "\n".join(lines)
    assert "kernel: only in old snapshot (not compared)" in text
    assert "500.0 ms per 1k requests only in new snapshot (not compared)" in text
    _, found = bench_compare.compare(new, old, 0.15)
    assert found == []


def test_main_exit_status(tmp_path, capsys):
    old_path = tmp_path / "old.json"
    new_path = tmp_path / "new.json"
    old_path.write_text(json.dumps(snapshot(events_per_sec=1000.0, ms_per_kreq=500.0)))
    new_path.write_text(json.dumps(snapshot(events_per_sec=1000.0, ms_per_kreq=700.0)))
    assert bench_compare.main([str(old_path), str(old_path)]) == 0
    assert bench_compare.main([str(old_path), str(new_path)]) == 1
    assert "ms per 1k requests" in capsys.readouterr().err
