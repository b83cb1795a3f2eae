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

def test_default_eps_keeps_peak_in_range():
    spec = QuantizerSpec(8)
    assert spec.zeta == 128.0 / (1.0 + 2.0**-12)
    assert quantize(1.0, spec) == 127
    assert quantize(-1.0, spec) == -128


@pytest.mark.parametrize("s_max", [1.0, 0.1, 3.0, np.nextafter(2.0, 0.0), 1e300])
def test_peak_stays_on_the_lattice_at_48_bits(s_max):
    # a source of any peak s_max, divided by it, lies on [-1, 1]: its peaks
    # and the values one ulp inside them land on the lattice edges
    b = 48
    spec = QuantizerSpec(b)
    for s in (s_max, np.nextafter(s_max, 0.0)):
        assert quantize(s / s_max, spec) == 2 ** (b - 1) - 1
        assert quantize(-s / s_max, spec) == -(2 ** (b - 1))


def test_bit_depth_where_the_guard_rounds_away_is_rejected():
    # 1 + 2^-53 rounds to 1, so zeta would be exactly 2^48
    with pytest.raises(ValueError, match=r"bit depth must lie in \[1, 48\], got 49"):
        QuantizerSpec(49)
    with pytest.raises(ValueError, match=r"bit depth must lie in \[1, 48\], got 0"):
        QuantizerSpec(0)


def test_quantize_floors_toward_minus_infinity():
    spec = QuantizerSpec(4)  # zeta = 8 / (1 + 2^-8), just below 8
    assert quantize(0.0, spec) == 0
    assert quantize(2.7 / 8, spec) == 2
    assert quantize(-2.3 / 8, spec) == -3


def test_quantize_near_peak():
    spec = QuantizerSpec(8)
    assert quantize(0.999, spec) == 127
    assert quantize(-0.999, spec) == -128


def test_quantize_rejects_out_of_range_unless_clamped():
    spec = QuantizerSpec(8)
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


@pytest.mark.parametrize("chunk", [1, 3, 409])
def test_decoded_bits_do_not_depend_on_how_many_rows_are_decoded_together(chunk):
    # a sweep decodes its rows in chunks of any size: half-integer rows, as
    # the ML detector gives, and real ones, as LMMSE gives, must decode to
    # the same bits one chunk at a time as all at once.  A BLAS product picks
    # its kernel, and with it the order of the sum, by the row count
    rng = np.random.default_rng(28)
    half_integers = rng.integers(-40, 41, size=(4096, 8)) / 2
    lmmse = rng.normal(10.0, 6.0, size=(4096, 8))
    rows = rng.permutation(np.concatenate([half_integers, lmmse]))
    zeta = QuantizerSpec(8).zeta
    for decoder in (lambda r: decode(r, zeta), lambda r: decode_offset_binary(r, zeta, 20)):
        whole = decoder(rows)
        chunked = np.concatenate([decoder(rows[s : s + chunk]) for s in range(0, len(rows), chunk)])
        assert np.array_equal(whole.view(np.uint64), chunked.view(np.uint64))


def test_decode_scales_by_quantizer_step():
    spec = QuantizerSpec(8)
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


@pytest.mark.parametrize("encoder", [encode, encode_offset_binary])
@pytest.mark.parametrize("b", [1, 8, 48])
def test_a_value_just_outside_the_signed_lattice_is_rejected(encoder, b):
    # both edges of {-2^(b-1), ..., 2^(b-1) - 1}: the values one step beyond
    # each raise, the edges themselves encode
    for v in (2 ** (b - 1), -(2 ** (b - 1)) - 1):
        with pytest.raises(ValueError, match="outside signed"):
            encoder(v, b)
    for v in (2 ** (b - 1) - 1, -(2 ** (b - 1))):
        assert encoder(v, b).shape == (b,)


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5, 6, 48])
def test_offset_binary_is_twos_complement_with_the_top_bit_flipped(b):
    # (v + 2^(b-1)) mod 2^b = (v mod 2^b) XOR 2^(b-1): binary_ml sends the
    # proposed scheme's planes with the top one negated.  Every lattice value
    # up to b = 6; at b = 48 the edges and 0
    top = 2 ** (b - 1)
    values = np.arange(-top, top) if b <= 6 else np.array([-top, -top + 1, -1, 0, 1, top - 1])
    flipped = encode(values, b)
    flipped[:, -1] ^= 1
    assert np.array_equal(encode_offset_binary(values, b), flipped)


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
    spec = QuantizerSpec(8)
    rng = np.random.default_rng(3)
    s = rng.uniform(-1.0, 1.0, size=10000)
    v = quantize(s, spec)
    err = v / spec.zeta - s
    assert np.all(err <= 0.0)
    assert np.all(err > -1.0 / spec.zeta)
