"""Signed lattice quantization and two's-complement bit-plane coding.

Each source value, on [-1, 1], is floored onto a signed integer lattice of
2^b points, expanded into its two's-complement bits (stored LSB first), and
every bit position travels on its own subcarrier.  The receiver only ever
needs the *across-device sum* of each bit position: because the
two's-complement weight vector is fixed, the decoder is a linear map from
per-position sums back to the sum of the quantized values, and adding
codewords element-wise recovers the exact integer sum with codeword length
equal to the bit depth.  Offset-binary variants of the same machinery back
the conventional-coding baseline's test oracle and its ``aircomp demo``
codewords; the simulator runs that baseline in two's complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_BIT_DEPTH = 48  # the finest bit depth whose lattice holds 1 in float64


@dataclass(frozen=True)
class QuantizerSpec:
    """Signed b-bit lattice quantizer of values on [-1, 1], with scale
    zeta = 2^(b-1) / (1 + 2^(-b-4)).

    The guard term 2^(-b-4), far below one lattice step, keeps zeta strictly
    below 2^(b-1), so every value on [-1, 1] lands on the lattice
    {-2^(b-1), ..., 2^(b-1)-1}.  From b = 49 on it is below half a float64
    ulp of 1, 1 + 2^(-b-4) rounds to 1 and zeta reaches 2^(b-1): a bit depth
    must lie in [1, MAX_BIT_DEPTH].
    """

    b: int
    zeta: float = field(init=False)

    def __post_init__(self):
        if not 1 <= self.b <= MAX_BIT_DEPTH:
            raise ValueError(f"bit depth must lie in [1, {MAX_BIT_DEPTH}], got {self.b}")
        object.__setattr__(self, "zeta", 2.0 ** (self.b - 1) / (1.0 + 2.0 ** (-self.b - 4)))


def quantize(s, spec: QuantizerSpec, clamp: bool = False):
    """Map source values to lattice integers floor(zeta * s).

    Inputs must satisfy |s| <= 1 unless clamp=True, in which case values are
    saturated to [-1, 1] first (out-of-range mass collapses onto the edge
    cells).  Returns a Python int for scalar input, else int64 array.
    """
    arr = np.asarray(s, dtype=np.float64)
    if clamp:
        arr = np.clip(arr, -1.0, 1.0)
    elif np.any(np.abs(arr) > 1.0):
        bad = float(np.max(np.abs(arr)))
        raise ValueError(f"|s| <= 1 required, got |s|={bad}")
    v = np.floor(spec.zeta * arr).astype(np.int64)
    if np.isscalar(s):
        return int(v)
    return v


def _planes(v, length: int, offset: int) -> np.ndarray:
    """Bits (LSB first) of (v + offset) mod 2^length, for lattice integer(s)
    v that fit the signed lattice of the given length."""
    arr = np.asarray(v, dtype=np.int64)
    if length < 1:
        raise ValueError(f"codeword length must be >= 1, got {length}")
    lo, hi = -(2 ** (length - 1)), 2 ** (length - 1) - 1
    if np.any(arr < lo) or np.any(arr > hi):
        raise ValueError(
            f"value outside signed {length}-bit lattice [{lo}, {hi}]; "
            f"{length} bit positions cannot represent it"
        )
    unsigned = (arr + offset) & ((1 << length) - 1)  # int64-safe
    bits = (unsigned[..., None] >> np.arange(length)) & 1
    return bits.astype(np.int64, copy=False)


def encode(v, length: int) -> np.ndarray:
    """Two's-complement bits of lattice integer(s) v, LSB first.

    Output shape is v.shape + (length,).  Values must fit the signed lattice
    of the given length; with fewer positions than the quantizer bit depth at
    least one lattice value is unrepresentable (2^b values, 2^(length) < 2^b
    codewords), so the range check is what enforces minimality.
    """
    return _planes(v, length, 0)


def encode_offset_binary(v, length: int) -> np.ndarray:
    """Offset-binary bits (LSB first): plain binary of v + 2^(length-1)."""
    return _planes(v, length, 2 ** (length - 1))


def _decode(r, zeta: float, signed: bool):
    """sum_l r_l w_l / zeta over the last axis, with w_l = 2^(l-1) and, when
    signed, a negative top weight; integer input is reduced in int64.

    Float input is summed by a NumPy reduction, row by row in one fixed
    order, not by a BLAS product, whose kernel and with it the order of the
    sum depend on the CPU and on the number of rows: the bits of a decoded
    row depend only on that row."""
    arr = np.asarray(r)
    length = arr.shape[-1]
    w = np.ones(length, dtype=np.int64) << np.arange(length, dtype=np.int64)
    if signed:
        w[-1] = -w[-1]
    if np.issubdtype(arr.dtype, np.integer):
        return arr.astype(np.int64) @ w / zeta
    return (arr * w.astype(np.float64)).sum(axis=-1) / zeta


def decode(r, zeta: float):
    """Linear decoder: (sum_{l<L} r_l 2^(l-1) - r_L 2^(L-1)) / zeta.

    Accepts real-valued per-position estimates (detector outputs) as well as
    exact integer bit-position sums; integer input is reduced in int64 so the
    exact-sum identity holds with no floating-point tolerance.  The last axis
    is the bit-position axis, and 1-D input gives a float.  The int64 total is
    exact up to 2^63, but the division by zeta returns float64, which holds
    every integer only up to 2^53 in magnitude: beyond that the decoded sum is
    rounded.
    """
    return _decode(r, zeta, signed=True)


def decode_offset_binary(r, zeta: float, num_devices: int):
    """Decoder for summed offset-binary codewords of num_devices senders:
    the unsigned weighted sum less each sender's offset 2^(L-1)."""
    length = np.shape(r)[-1]
    return _decode(r, zeta, signed=False) - num_devices * (2 ** (length - 1)) / zeta


def format_codeword(bits) -> str:
    """Render one codeword as an MSB-first bit string, e.g. '1101'."""
    arr = np.asarray(bits, dtype=np.int64)
    if arr.ndim != 1 or np.any((arr != 0) & (arr != 1)):
        raise ValueError("expected a 1-D array of 0/1 bits")
    return "".join(str(int(x)) for x in arr[::-1])
