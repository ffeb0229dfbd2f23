"""Tests for TCG discovery (Algorithms 1-3)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.monitor import InvariantMonitor
from repro.core.tcg import TCGManager


def manager(n=4, n_data=100, delta=50.0, sim=0.5, omega=0.5):
    return TCGManager(n, n_data, delta, sim, omega)


def test_initial_state_no_groups():
    m = manager()
    assert m.tcg_of(0) == set()
    assert math.isinf(m.weighted_distance(0, 1))
    assert m.similarity(0, 1) == 0.0


def test_first_location_pair_sets_distance_directly():
    m = manager()
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (30.0, 40.0))
    assert m.weighted_distance(0, 1) == pytest.approx(50.0)
    assert m.weighted_distance(1, 0) == pytest.approx(50.0)


def test_ewma_distance_blending():
    m = manager(omega=0.5)
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (100.0, 0.0))  # initial 100
    m.record_location(0, (60.0, 0.0))  # new distance 40 -> 0.5*40 + 0.5*100 = 70
    assert m.weighted_distance(0, 1) == pytest.approx(70.0)


def test_omega_one_tracks_latest_distance_only():
    m = manager(omega=1.0)
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (100.0, 0.0))
    m.record_location(0, (90.0, 0.0))
    assert m.weighted_distance(0, 1) == pytest.approx(10.0)


def test_similarity_identical_patterns():
    m = manager()
    for item in (1, 2, 3):
        m.record_access(0, item)
        m.record_access(1, item)
    assert m.similarity(0, 1) == pytest.approx(1.0)


def test_similarity_disjoint_patterns_zero():
    m = manager()
    m.record_access(0, 1)
    m.record_access(1, 2)
    assert m.similarity(0, 1) == 0.0


def test_similarity_self_is_one():
    m = manager()
    assert m.similarity(2, 2) == 1.0


def test_similarity_symmetric_and_bounded():
    m = manager()
    rng = np.random.default_rng(0)
    for _ in range(200):
        m.record_access(int(rng.integers(0, 4)), int(rng.integers(0, 100)))
    for i in range(4):
        for j in range(4):
            assert m.similarity(i, j) == pytest.approx(m.similarity(j, i))
            assert -1e-9 <= m.similarity(i, j) <= 1.0 + 1e-9


def test_incremental_similarity_matches_direct_cosine():
    m = manager(n=3, n_data=20)
    rng = np.random.default_rng(1)
    for _ in range(300):
        m.record_access(int(rng.integers(0, 3)), int(rng.integers(0, 20)))
    counts = m.access_counts
    for i in range(3):
        for j in range(i + 1, 3):
            direct = float(
                counts[i] @ counts[j]
                / (np.linalg.norm(counts[i]) * np.linalg.norm(counts[j]))
            )
            assert m.similarity(i, j) == pytest.approx(direct, rel=1e-9)


def test_membership_requires_both_conditions():
    m = manager(delta=50.0, sim=0.5)
    # Close but dissimilar.
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (10.0, 0.0))
    m.record_access(0, 1)
    m.record_access(1, 2)
    assert m.tcg_of(0) == set()
    # Now make them similar -> pair forms.
    for _ in range(5):
        m.record_access(0, 3)
        m.record_access(1, 3)
    assert 1 in m.tcg_of(0)
    assert 0 in m.tcg_of(1)  # symmetric


def test_membership_breaks_when_distance_grows():
    m = manager(delta=50.0, sim=0.5, omega=1.0)
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (10.0, 0.0))
    for _ in range(3):
        m.record_access(0, 7)
        m.record_access(1, 7)
    assert 1 in m.tcg_of(0)
    m.record_location(1, (500.0, 0.0))
    assert 1 not in m.tcg_of(0)
    assert 0 not in m.tcg_of(1)


def test_no_membership_without_location():
    m = manager()
    for _ in range(3):
        m.record_access(0, 7)
        m.record_access(1, 7)
    assert m.tcg_of(0) == set()  # similarity alone is not enough


def test_drain_changes_delivers_asynchronously():
    m = manager(delta=50.0, sim=0.4)
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (5.0, 0.0))
    m.record_access(0, 1)
    m.record_access(1, 1)
    added, removed = m.drain_changes(0)
    assert added == {1}
    assert removed == set()
    # A second drain with no changes is empty.
    assert m.drain_changes(0) == (set(), set())
    # Break the pair; the removal is announced on next contact.
    m.record_location(1, (500.0, 0.0))
    m.record_location(1, (500.0, 0.0))  # EWMA needs two reports at ω=0.5
    added, removed = m.drain_changes(0)
    assert removed == {1}


def test_full_view_marks_announced():
    m = manager(delta=50.0, sim=0.4)
    m.record_location(0, (0.0, 0.0))
    m.record_location(1, (5.0, 0.0))
    m.record_access(0, 1)
    m.record_access(1, 1)
    assert m.full_view(0) == {1}
    assert m.drain_changes(0) == (set(), set())


def test_record_access_count_batch():
    m = manager()
    m.record_access(0, 5, count=4)
    m.record_access(1, 5, count=4)
    assert m.similarity(0, 1) == pytest.approx(1.0)
    assert m.access_counts[0, 5] == 4


def test_validation():
    with pytest.raises(ValueError):
        TCGManager(0, 10, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        TCGManager(2, 10, -1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        TCGManager(2, 10, 1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        TCGManager(2, 10, 1.0, 0.5, 2.0)
    m = manager()
    with pytest.raises(ValueError):
        m.record_access(0, 1, count=0)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 9)), max_size=120))
@settings(max_examples=40)
def test_member_matrix_always_symmetric_no_self(accesses):
    m = manager(n=4, n_data=10, delta=1000.0, sim=0.3)
    rng = np.random.default_rng(2)
    for index, (client, item) in enumerate(accesses):
        if index % 5 == 0:
            m.record_location(client, tuple(rng.uniform(0, 100, size=2)))
        m.record_access(client, item)
    assert np.array_equal(m.member, m.member.T)
    assert not m.member.diagonal().any()


# -- threshold matrices against a from-scratch recomputation -----------------------

_GRID = [(0.0, 0.0), (3.0, 4.0), (6.0, 8.0), (0.0, 5.0), (5.0, 0.0), (9.0, 12.0)]
_BOUNDARY_DELTA = 5.0  # many grid pairs sit exactly at this distance

_tcg_ops = st.lists(
    st.one_of(
        st.tuples(st.just("loc"), st.integers(0, 4), st.integers(0, len(_GRID) - 1)),
        st.tuples(
            st.just("acc"), st.integers(0, 4), st.integers(0, 5), st.integers(1, 3)
        ),
    ),
    max_size=60,
)


def _reference_wadm_update(wadm, positions, client, position, omega):
    """Algorithm 1 one pair at a time (the EWMA, first report taken as is)."""
    for other, seen in enumerate(positions):
        if other == client or seen is None:
            continue
        distance = float(np.hypot(seen[0] - position[0], seen[1] - position[1]))
        old = wadm[client][other]
        new = distance if math.isinf(old) else omega * distance + (1.0 - omega) * old
        wadm[client][other] = wadm[other][client] = new
    positions[client] = position


def _reference_similarity(counts):
    """Cosine similarity (Equation 2) from the raw access counts."""
    dot = (counts @ counts.T).astype(float)
    norms = (counts * counts).sum(axis=1).astype(float)
    n = len(counts)
    similarity = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            denominator = norms[i] * norms[j]
            if i == j:
                similarity[i, j] = 1.0
            elif denominator > 0.0:
                similarity[i, j] = dot[i, j] / np.sqrt(denominator)
    return similarity


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("sim", [0.0, 0.1, 1.0])
@given(ops=_tcg_ops)
@settings(max_examples=25, deadline=None)
def test_threshold_matrices_match_recomputation(omega, sim, ops):
    n = 5
    monitor = InvariantMonitor()
    m = TCGManager(n, 6, _BOUNDARY_DELTA, sim, omega, monitor=monitor)
    wadm = [[math.inf] * n for _ in range(n)]
    positions = [None] * n
    for op in ops:
        with np.errstate(all="raise"):
            if op[0] == "loc":
                _, client, cell = op
                m.record_location(client, _GRID[cell])
                _reference_wadm_update(wadm, positions, client, _GRID[cell], omega)
            else:
                _, client, item, count = op
                m.record_access(client, item, count)
        assert np.array_equal(m.wadm, np.array(wadm))
        near = np.array(wadm) <= _BOUNDARY_DELTA
        alike = _reference_similarity(m.access_counts) >= sim
        located = np.array([p is not None for p in positions])
        member = near & alike & np.outer(located, located)
        np.fill_diagonal(member, False)
        assert np.array_equal(m._near, near)
        assert np.array_equal(m._alike, alike)
        assert np.array_equal(m.member, member)
    assert monitor.violations == []
