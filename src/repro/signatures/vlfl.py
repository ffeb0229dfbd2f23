"""Variable-length-to-fixed-length (VLFL) run-length coding (Section IV-D.2).

A sparse cache signature is mostly zeros.  VLFL decomposes the bit sequence
into run-lengths terminated either by ``R = 2^l − 1`` consecutive zeros or
by ``L < R`` zeros followed by a one, and assigns each run a fixed-length
codeword of ``l = log2(R + 1)`` bits.

With zero-probability ``φ = (1 − 1/σ)^(εk)`` the expected run length is
``η = (1 − φ^R) / (1 − φ)`` and the expected compressed size is
``σ' = σ · l / η`` bits.  :func:`find_optimal_r` is the paper's Algorithm 4:
it walks ``R = 1, 3, 7, ...`` while the expected size keeps shrinking.
A client compresses only when ``l < η`` at the optimum, i.e. when the
expected compressed signature is smaller than the raw one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CompressedSignature",
    "expected_compressed_bits",
    "find_optimal_r",
    "should_compress",
    "vlfl_decode",
    "vlfl_encode",
    "zero_probability",
]


def zero_probability(cache_items: int, size_bits: int, k: int) -> float:
    """φ: probability a given signature bit is zero (ε items hashed k times)."""
    if size_bits < 1 or k < 1 or cache_items < 0:
        raise ValueError("invalid bloom parameters")
    return (1.0 - 1.0 / size_bits) ** (cache_items * k)


def expected_run_length(phi: float, run_cap: int) -> float:
    """η: expected intermediate-symbol length for zero-probability φ."""
    if phi >= 1.0:
        return float(run_cap)
    return (1.0 - phi**run_cap) / (1.0 - phi)


def expected_compressed_bits(size_bits: int, phi: float, run_cap: int) -> float:
    """σ': expected compressed signature size in bits."""
    codeword = math.log2(run_cap + 1)
    return size_bits * codeword / expected_run_length(phi, run_cap)


def find_optimal_r(cache_items: int, size_bits: int, k: int) -> int:
    """Algorithm 4: the run cap ``R = 2^l − 1`` minimising expected size."""
    phi = zero_probability(cache_items, size_bits, k)
    best_size = float(size_bits) + 1.0
    best_r = 1
    for exponent in range(1, 63):
        run_cap = (1 << exponent) - 1
        size = expected_compressed_bits(size_bits, phi, run_cap)
        if size < best_size:
            best_size = size
            best_r = run_cap
        else:
            break
    return best_r


def should_compress(cache_items: int, size_bits: int, k: int) -> bool:
    """The client's local decision of Section IV-D.2.

    Compress iff at the optimal R the codeword length is below the expected
    run length (equivalently: the expected compressed size beats σ).
    """
    phi = zero_probability(cache_items, size_bits, k)
    run_cap = find_optimal_r(cache_items, size_bits, k)
    codeword = math.log2(run_cap + 1)
    return codeword < expected_run_length(phi, run_cap)


@dataclass(frozen=True)
class CompressedSignature:
    """A VLFL-encoded bit vector.

    ``payload`` is the packed codeword stream; ``original_bits`` is σ so the
    decoder can strip the phantom terminator of a trailing zero run.
    """

    run_cap: int
    original_bits: int
    symbol_count: int
    payload: bytes

    @property
    def codeword_bits(self) -> int:
        return max(1, (self.run_cap + 1).bit_length() - 1)

    @property
    def size_bytes(self) -> int:
        return len(self.payload)

    @property
    def size_bits(self) -> int:
        return self.symbol_count * self.codeword_bits


def vlfl_encode(bits: np.ndarray, run_cap: int) -> CompressedSignature:
    """Encode a 0/1 vector with run cap ``R`` (must be ``2^l − 1``).

    Each gap of ``g`` zeros before a one becomes ``g // R`` full-run
    symbols ``R`` and one terminated symbol ``g % R``; the trailing zero
    run is coded the same way, except that a zero remainder gets no
    symbol (the decoder truncates the phantom one).  The symbol stream is
    built with array operations over the positions of set bits, so apart
    from one scan for them the cost is linear in the number of ones
    rather than in σ (cache signatures are sparse).
    """
    if run_cap < 1 or (run_cap + 1) & run_cap:
        raise ValueError(f"run cap must be 2**l - 1, got {run_cap}")
    bits = np.asarray(bits)
    ones = bits.nonzero()[0]
    boundaries = np.concatenate(([-1], ones, [len(bits)]))
    # Zeros before each one, then the trailing zero run.
    gaps = boundaries[1:] - boundaries[:-1] - 1
    full_runs, remainders = np.divmod(gaps, run_cap)
    ends = (full_runs + 1).cumsum() - 1  # index of each gap's last symbol
    symbols = np.full(int(ends[-1]) + 1, run_cap, dtype=">u8")
    symbols[ends] = remainders
    if remainders[-1] == 0:
        symbols = symbols[:-1]  # an unterminated tail needs no empty symbol
    # Each symbol's low ``codeword`` bits, most significant first.
    codeword = max(1, (run_cap + 1).bit_length() - 1)
    stream = np.unpackbits(symbols.view(np.uint8)).reshape(-1, 64)
    payload = np.packbits(stream[:, 64 - codeword :]).tobytes()
    return CompressedSignature(
        run_cap=run_cap,
        original_bits=len(bits),
        symbol_count=len(symbols),
        payload=payload,
    )


def vlfl_decode(compressed: CompressedSignature) -> np.ndarray:
    """Invert :func:`vlfl_encode`; returns a bool vector of σ bits."""
    result = np.zeros(compressed.original_bits, dtype=bool)
    if compressed.symbol_count == 0:
        return result
    codeword = compressed.codeword_bits
    bitstream = np.unpackbits(np.frombuffer(compressed.payload, dtype=np.uint8))
    bitstream = bitstream[: compressed.symbol_count * codeword]
    weights = 1 << np.arange(codeword - 1, -1, -1, dtype=np.int64)
    values = bitstream.reshape(-1, codeword).astype(np.int64) @ weights
    # Each symbol contributes `value` zeros, plus a terminating one unless
    # it is a full run of R zeros.
    terminated = values != compressed.run_cap
    lengths = values + terminated
    positions = np.cumsum(lengths) - 1  # index of each terminating one
    one_positions = positions[terminated]
    one_positions = one_positions[one_positions < compressed.original_bits]
    result[one_positions] = True
    return result
