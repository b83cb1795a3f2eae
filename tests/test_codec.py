"""Quantizer and two's-complement bit-plane codec."""

import numpy as np
import pytest

from aircomp.codec import (
    QuantizerSpec,
    decode,
    decode_offset_binary,
    encode,
    encode_offset_binary,
    format_codeword,
    quantize,
)

# zeta = 2^(b-1) / (s_max + eps) = 8 / 8 = 1: lattice value == floor(s)
UNIT = QuantizerSpec(4, 7.96875, eps=0.03125)


def test_default_eps_keeps_peak_in_range():
    spec = QuantizerSpec(8, 1.0)
    assert spec.eps == 2.0**-12
    assert spec.zeta == 128.0 / (1.0 + 2.0**-12)
    assert quantize(1.0, spec) == 127
    assert quantize(-1.0, spec) == -128


@pytest.mark.parametrize("s_max", [1.0, 0.1, 3.0, np.nextafter(2.0, 0.0), 1e300])
def test_peak_stays_on_the_lattice_at_48_bits(s_max):
    spec = QuantizerSpec(48, s_max)
    assert quantize(s_max, spec) == spec.lattice_max
    assert quantize(-s_max, spec) == spec.lattice_min


def test_bit_depth_where_the_guard_rounds_away_is_rejected():
    # 1 + 2^-53 rounds to 1, so zeta * s_max would be exactly 2^48
    with pytest.raises(ValueError, match="bit depth 49 is too fine"):
        QuantizerSpec(49, 1.0)


def test_quantize_floors_toward_minus_infinity():
    assert UNIT.zeta == 1.0
    assert quantize(0.0, UNIT) == 0
    assert quantize(2.7, UNIT) == 2
    assert quantize(-2.3, UNIT) == -3


def test_quantize_near_peak():
    spec = QuantizerSpec(8, 1.0)
    assert quantize(0.999, spec) == 127
    assert quantize(-0.999, spec) == -128


def test_quantize_rejects_out_of_range_unless_clamped():
    spec = QuantizerSpec(8, 1.0)
    with pytest.raises(ValueError):
        quantize(1.5, spec)
    assert quantize(1.5, spec, clamp=True) == 127
    assert quantize(-2.0, spec, clamp=True) == -128


def test_encode_known_words():
    assert encode(-3, 4).tolist() == [1, 0, 1, 1]  # LSB first: -3 = 1101b
    assert encode(5, 4).tolist() == [1, 0, 1, 0]  # 5 = 0101b
    assert encode(-8, 4).tolist() == [0, 0, 0, 1]
    assert encode(7, 4).tolist() == [1, 1, 1, 0]


def test_decode_weighted_sum():
    # weights (1, 2, 4, -8): 2*1 + 0*2 + 2*4 - 1*8 = 2
    assert decode(np.array([2, 0, 2, 1]), 1.0) == 2.0
    # 1-D input, integer or real, decodes to a float
    for r in (np.array([2, 0, 2, 1]), np.array([2.0, 0.0, 2.0, 1.0])):
        assert isinstance(decode(r, 1.0), float)
        assert isinstance(decode_offset_binary(r, 1.0, num_devices=2), float)


def test_round_trip_exhaustive_small_depths():
    for b in (1, 2, 3, 4, 5, 6):
        values = np.arange(-(2 ** (b - 1)), 2 ** (b - 1))
        bits = encode(values, b)
        assert np.array_equal(decode(bits, 1.0), values.astype(float))
        # distinct values map to distinct codewords
        assert len(np.unique(bits, axis=0)) == 2**b


def test_each_bit_position_is_balanced():
    for b in (3, 8):
        values = np.arange(-(2 ** (b - 1)), 2 ** (b - 1))
        bits = encode(values, b)
        assert bits.sum(axis=0).tolist() == [2 ** (b - 1)] * b


def test_decoder_is_linear_in_bit_sums():
    rng = np.random.default_rng(11)
    for _ in range(50):
        r1 = rng.integers(0, 21, size=8)
        r2 = rng.integers(0, 21, size=8)
        total = decode(r1 + r2, 2.0)
        assert total == decode(r1, 2.0) + decode(r2, 2.0)


def test_summed_codewords_decode_to_summed_values():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        values = rng.integers(-128, 128, size=20)
        bit_sums = encode(values, 8).sum(axis=0)
        assert decode(bit_sums, 1.0) == float(values.sum())


def test_decode_scales_by_quantizer_step():
    spec = QuantizerSpec(8, 1.0)
    values = np.array([-128, -1, 0, 1, 127])
    bits = encode(values, 8)
    out = decode(bits.sum(axis=0), spec.zeta)
    assert out == pytest.approx(values.sum() / spec.zeta, rel=1e-15)


def test_offset_binary_round_trip():
    values = np.arange(-8, 8)
    bits = encode_offset_binary(values, 4)
    assert bits.min() >= 0 and bits.max() <= 1
    # single device: decoding the raw codeword recovers the value
    for v, word in zip(values, bits):
        assert decode_offset_binary(word, 1.0, num_devices=1) == float(v)
    # summed codewords recover the summed values
    sums = bits.sum(axis=0)
    assert decode_offset_binary(sums, 1.0, num_devices=len(values)) == float(
        values.sum()
    )


def test_format_and_parse_codeword():
    word = encode(-3, 4)
    assert format_codeword(word) == "1101"
    assert format_codeword(encode(5, 4)) == "0101"
    # parsed as an MSB-first binary number, a 4-bit word is its value mod 2^4
    for v in range(-8, 8):
        assert int(format_codeword(encode(v, 4)), 2) == v % 16
    with pytest.raises(ValueError):
        format_codeword(np.array([0, 2, 1]))


def test_quantization_error_stays_below_one_step():
    spec = QuantizerSpec(8, 1.0)
    rng = np.random.default_rng(3)
    s = rng.uniform(-1.0, 1.0, size=10000)
    v = quantize(s, spec)
    err = v / spec.zeta - s
    assert np.all(err <= 0.0)
    assert np.all(err > -1.0 / spec.zeta)
