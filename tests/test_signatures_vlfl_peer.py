"""Tests for VLFL compression (Algorithm 4) and the peer counter vector."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signatures import (
    CompressedSignature,
    PeerSignature,
    SignatureScheme,
    expected_compressed_bits,
    find_optimal_r,
    should_compress,
    vlfl_decode,
    vlfl_encode,
)
from repro.signatures.vlfl import expected_run_length, zero_probability


def scheme(size=1024, k=2, seed=0):
    return SignatureScheme(np.random.default_rng(seed), size, k)


# -- vlfl encoding ---------------------------------------------------------------


def test_encode_decode_simple():
    bits = np.array([0, 0, 1, 0, 0, 0, 0, 1, 0, 0], dtype=bool)
    compressed = vlfl_encode(bits, run_cap=3)
    assert np.array_equal(vlfl_decode(compressed), bits)


def test_encode_all_zeros():
    bits = np.zeros(100, dtype=bool)
    compressed = vlfl_encode(bits, run_cap=7)
    assert np.array_equal(vlfl_decode(compressed), bits)
    # 100 zeros = 14 full runs of 7 + tail of 2 -> 15 symbols of 3 bits.
    assert compressed.symbol_count == 15
    assert compressed.size_bits == 45


def test_encode_all_ones():
    bits = np.ones(32, dtype=bool)
    compressed = vlfl_encode(bits, run_cap=3)
    assert np.array_equal(vlfl_decode(compressed), bits)
    assert compressed.symbol_count == 32  # every bit its own (L=0, 1) run


def test_encode_empty_vector():
    bits = np.zeros(0, dtype=bool)
    compressed = vlfl_encode(bits, run_cap=3)
    assert vlfl_decode(compressed).size == 0


def test_run_cap_must_be_power_of_two_minus_one():
    bits = np.zeros(8, dtype=bool)
    for bad in (0, 2, 4, 5, 6):
        with pytest.raises(ValueError):
            vlfl_encode(bits, run_cap=bad)
    for good in (1, 3, 7, 15):
        vlfl_encode(bits, run_cap=good)


def test_sparse_signature_compresses_well():
    rng = np.random.default_rng(1)
    bits = np.zeros(10_000, dtype=bool)
    bits[rng.choice(10_000, size=200, replace=False)] = True
    run_cap = find_optimal_r(100, 10_000, 2)
    compressed = vlfl_encode(bits, run_cap)
    assert compressed.size_bytes < 10_000 // 8  # beats the raw signature
    assert np.array_equal(vlfl_decode(compressed), bits)


@given(
    st.lists(st.booleans(), max_size=300),
    st.sampled_from([1, 3, 7, 15, 31]),
)
@settings(max_examples=80)
def test_roundtrip_property(bit_list, run_cap):
    bits = np.array(bit_list, dtype=bool)
    assert np.array_equal(vlfl_decode(vlfl_encode(bits, run_cap)), bits)


def test_codeword_bits():
    assert vlfl_encode(np.zeros(4, dtype=bool), 1).codeword_bits == 1
    assert vlfl_encode(np.zeros(4, dtype=bool), 7).codeword_bits == 3
    assert vlfl_encode(np.zeros(4, dtype=bool), 15).codeword_bits == 4


# -- equivalence with the per-gap reference encoder ------------------------------------

RUN_CAPS = [(1 << exponent) - 1 for exponent in range(1, 9)]  # 1 .. 255


def _reference_symbols_for_gap(zeros, run_cap, terminated):
    symbols = [run_cap] * (zeros // run_cap)
    remainder = zeros % run_cap
    if terminated or remainder:
        symbols.append(remainder)  # the tail's phantom one is truncated
    return symbols


def _reference_encode(bits, run_cap):
    """The original encoder: one Python symbol list per gap."""
    bits = np.asarray(bits).astype(bool)
    ones = np.nonzero(bits)[0]
    gaps = np.diff(np.concatenate([[-1], ones])) - 1
    symbols = []
    for gap in gaps:
        symbols.extend(_reference_symbols_for_gap(int(gap), run_cap, True))
    tail = len(bits) - (int(ones[-1]) + 1 if ones.size else 0)
    symbols.extend(_reference_symbols_for_gap(tail, run_cap, False))
    codeword = max(1, (run_cap + 1).bit_length() - 1)
    payload = b""
    if symbols:
        values = np.asarray(symbols, dtype=np.uint32)
        shifts = np.arange(codeword - 1, -1, -1, dtype=np.uint32)
        stream = ((values[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
        payload = np.packbits(stream.ravel()).tobytes()
    return CompressedSignature(run_cap, len(bits), len(symbols), payload)


def _assert_matches_reference(bits, run_cap):
    compressed = vlfl_encode(bits, run_cap)
    assert compressed == _reference_encode(bits, run_cap)
    assert np.array_equal(vlfl_decode(compressed), bits)


def _from_gaps(gaps, tail):
    """A vector with ``gaps[i]`` zeros before its i-th one, then ``tail`` zeros."""
    bits = []
    for gap in gaps:
        bits.extend([False] * gap)
        bits.append(True)
    bits.extend([False] * tail)
    return np.array(bits, dtype=bool)


@pytest.mark.parametrize("run_cap", RUN_CAPS)
def test_encoder_matches_reference_for_small_sigma(run_cap):
    rng = np.random.default_rng(run_cap)
    for sigma in range(65):
        _assert_matches_reference(np.zeros(sigma, dtype=bool), run_cap)
        _assert_matches_reference(np.ones(sigma, dtype=bool), run_cap)
        for density in (0.05, 0.3, 0.7):
            _assert_matches_reference(rng.random(sigma) < density, run_cap)


@pytest.mark.parametrize("run_cap", RUN_CAPS)
def test_encoder_matches_reference_at_sigma_10000(run_cap):
    rng = np.random.default_rng(run_cap)
    _assert_matches_reference(np.zeros(10_000, dtype=bool), run_cap)
    _assert_matches_reference(np.ones(10_000, dtype=bool), run_cap)
    for ones in (1, 200, 2_000):
        bits = np.zeros(10_000, dtype=bool)
        bits[rng.choice(10_000, size=ones, replace=False)] = True
        _assert_matches_reference(bits, run_cap)


@pytest.mark.parametrize("run_cap", RUN_CAPS)
def test_encoder_matches_reference_on_exact_multiples(run_cap):
    for multiple in (0, 1, 2, 3):
        run = multiple * run_cap
        _assert_matches_reference(_from_gaps([run, run, 0, run], run), run_cap)
        _assert_matches_reference(_from_gaps([run], 0), run_cap)
        _assert_matches_reference(_from_gaps([], run), run_cap)
        _assert_matches_reference(_from_gaps([run + 1, run], run + 1), run_cap)


def test_encoder_matches_reference_for_an_empty_cache():
    # With ε = 0 every bit is zero with probability 1, so Algorithm 4's
    # expected size shrinks with every doubling and R reaches 2^62 − 1.
    run_cap = find_optimal_r(0, 10_000, 2)
    assert run_cap == (1 << 62) - 1
    assert should_compress(0, 10_000, 2)
    for sigma in (0, 1, 63, 10_000):
        _assert_matches_reference(np.zeros(sigma, dtype=bool), run_cap)
    bits = np.zeros(10_000, dtype=bool)
    bits[[0, 17, 9_999]] = True
    _assert_matches_reference(bits, run_cap)


@given(
    st.lists(st.integers(0, 40), max_size=20),
    st.integers(0, 40),
    st.sampled_from(RUN_CAPS),
)
@settings(max_examples=150)
def test_encoder_matches_reference_property(gaps, tail, run_cap):
    _assert_matches_reference(_from_gaps(gaps, tail), run_cap)


# -- analytics / algorithm 4 ----------------------------------------------------------


def test_zero_probability_bounds():
    phi = zero_probability(100, 10_000, 2)
    assert 0.97 < phi < 1.0
    assert zero_probability(0, 10_000, 2) == 1.0


def test_expected_run_length_uniform_zeros():
    # φ -> 1: every run maxes out at R.
    assert expected_run_length(1.0, 7) == 7.0
    # φ = 0: runs are single terminators.
    assert expected_run_length(0.0, 7) == 1.0


def test_find_optimal_r_sparse_beats_dense():
    sparse = find_optimal_r(cache_items=100, size_bits=10_000, k=2)
    dense = find_optimal_r(cache_items=5000, size_bits=10_000, k=2)
    assert sparse > dense


def test_find_optimal_r_matches_exhaustive_search():
    for cache_items, size_bits, k in [(100, 10_000, 2), (50, 1024, 4), (10, 512, 2)]:
        phi = zero_probability(cache_items, size_bits, k)
        best = min(
            ((1 << l) - 1 for l in range(1, 20)),
            key=lambda r: expected_compressed_bits(size_bits, phi, r),
        )
        assert find_optimal_r(cache_items, size_bits, k) == best


def test_should_compress_decision():
    assert should_compress(cache_items=100, size_bits=10_000, k=2)
    assert not should_compress(cache_items=5000, size_bits=10_000, k=2)


def test_expected_size_predicts_actual_size():
    rng = np.random.default_rng(2)
    size_bits, items, k = 10_000, 150, 2
    s = SignatureScheme(rng, size_bits, k)
    bloom = s.make_filter()
    bloom.add_all(range(items))
    run_cap = find_optimal_r(items, size_bits, k)
    compressed = vlfl_encode(bloom.bits, run_cap)
    phi = zero_probability(items, size_bits, k)
    predicted = expected_compressed_bits(size_bits, phi, run_cap)
    assert compressed.size_bits == pytest.approx(predicted, rel=0.15)


# -- peer signature ---------------------------------------------------------------------


def test_peer_signature_starts_empty():
    peer = PeerSignature(scheme())
    assert peer.counter_bits == 0
    assert peer.memory_bits == 0


def test_merge_signature_sets_counters_and_width():
    s = scheme()
    peer = PeerSignature(s)
    member = s.make_filter()
    member.add_all([1, 2, 3])
    peer.merge_signature(member)
    assert peer.counter_bits == 1
    assert peer.covers(s.data_signature(2))


def test_width_expands_with_overlapping_members():
    s = scheme()
    peer = PeerSignature(s)
    member = s.make_filter()
    member.add_all([1, 2, 3])
    for _ in range(3):  # three identical members -> counters reach 3
        peer.merge_signature(member)
    assert peer.counter_bits == 2
    assert peer.expansions >= 2


def test_width_contracts_after_evictions():
    s = scheme()
    peer = PeerSignature(s)
    member = s.make_filter()
    member.add(1)
    peer.merge_signature(member)
    peer.merge_signature(member)
    assert peer.counter_bits == 2
    positions = list(s.positions(1))
    peer.apply_update([], positions)  # one eviction of item 1 somewhere
    assert peer.counter_bits == 1
    assert peer.contractions >= 1


def test_apply_update_insertions_and_floor_at_zero():
    s = scheme()
    peer = PeerSignature(s)
    positions = list(s.positions(9))
    peer.apply_update(positions, [])
    assert peer.matches_positions(positions)
    peer.apply_update([], positions)
    peer.apply_update([], positions)  # extra evictions must not underflow
    assert not peer.matches_positions(positions)
    assert peer.counters.min() == 0


def test_reset():
    s = scheme()
    peer = PeerSignature(s)
    member = s.make_filter()
    member.add_all(range(10))
    peer.merge_signature(member)
    peer.reset()
    assert peer.counter_bits == 0
    assert peer.counters.sum() == 0


def test_covers_and_bloom_view():
    s = scheme()
    peer = PeerSignature(s)
    member = s.make_filter()
    member.add_all([5, 6])
    peer.merge_signature(member)
    assert peer.covers(s.data_signature(5))
    collapsed = peer.bloom()
    assert collapsed.might_contain(6)


def test_cross_scheme_merge_rejected():
    peer = PeerSignature(scheme(seed=1))
    foreign = scheme(seed=2).make_filter()
    with pytest.raises(ValueError):
        peer.merge_signature(foreign)


@given(st.lists(st.integers(0, 30), max_size=40))
@settings(max_examples=40)
def test_peer_counters_never_negative_property(items):
    s = scheme(size=512, seed=5)
    peer = PeerSignature(s)
    for item in items:
        peer.apply_update(list(s.positions(item)), [])
    for item in items + items:  # evict more than inserted
        peer.apply_update([], list(s.positions(item)))
    assert peer.counters.min() >= 0
    assert peer.counter_bits == (
        int(peer.counters.max()).bit_length() if peer.counters.max() else 0
    )
