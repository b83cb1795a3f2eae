"""Property tests: the receive beam's optimality, the two's-complement codec,
batch device selection against subset enumeration and over a noise grid, and
the config text round trip.

They need hypothesis, which is not a declared dependency; without it the
module is skipped.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from aircomp import channel  # noqa: E402
from aircomp.cli import parse_config  # noqa: E402
from aircomp.codec import QuantizerSpec, decode, encode, quantize  # noqa: E402
from aircomp.selection import brute_force_select, greedy_select_batch  # noqa: E402
from aircomp.simulator import (  # noqa: E402
    DETECTORS,
    POWER_MODES,
    SCHEMES,
    SOURCES,
    UNREAD_FIELDS,
    SimConfig,
)
from conftest import serialize_config  # noqa: E402

# zero or a magnitude in [1e-6, 1e6]: wide enough to produce ill-conditioned
# and rank-deficient matrices, narrow enough that |S|^2 neither under- nor
# overflows
_entries = st.one_of(
    st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6)
)


@st.composite
def _matrices(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    re = draw(hnp.arrays(np.float64, shape, elements=_entries))
    im = draw(hnp.arrays(np.float64, shape, elements=_entries))
    return re + 1j * im


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_receive_beam_attains_the_top_singular_value(S):
    w = channel._receive_beam(S)
    assert np.all(np.isfinite(w))
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    gain = np.linalg.norm(w.conj() @ S)
    sigma = np.linalg.svd(S, compute_uv=False)[0]
    assert gain == pytest.approx(sigma, rel=1e-12, abs=1e-300)


@st.composite
def _lattice_words(draw, max_bits, max_count):
    b = draw(st.integers(1, max_bits))
    lo, hi = -(2 ** (b - 1)), 2 ** (b - 1) - 1
    values = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=max_count))
    return b, np.array(values, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(_lattice_words(max_bits=53, max_count=8))
def test_encode_decode_round_trip(word):
    # float decode holds every integer up to 2^53, so 53-bit values come back exactly
    b, values = word
    bits = encode(values, b)
    assert bits.shape == values.shape + (b,)
    assert np.all((bits == 0) | (bits == 1))
    assert np.array_equal(decode(bits, 1.0), values.astype(np.float64))


@settings(max_examples=300, deadline=None)
@given(_lattice_words(max_bits=48, max_count=32))
def test_summed_codewords_decode_to_the_sum(word):
    # |sum| <= 32 * 2^47 = 2^52: exact in int64 and in the float64 result
    b, values = word
    bit_sums = encode(values, b).sum(axis=0)
    assert decode(bit_sums, 1.0) == float(values.sum())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 48))
def test_peak_lands_on_the_lattice_up_to_48_bits(b):
    spec = QuantizerSpec(b)
    assert quantize(1.0, spec) == 2 ** (b - 1) - 1
    assert quantize(-1.0, spec) == -(2 ** (b - 1))


@st.composite
def _gain_batches(draw):
    # gains on a grid of multiples of a power of two: ties are frequent, and
    # distinct (p, n) pairs differ in MSE by far more than rounding, so the
    # oracle's exact tie rule applies
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 8)), draw(st.integers(1, 3)))
    steps = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 6)))
    return steps * 2.0 ** draw(st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(_gain_batches(), st.integers(-4, 4), st.booleans())
def test_batch_selection_matches_subset_enumeration(gains, noise_exp, allow_empty):
    # the oracle keeps the smallest optimal set, then the lowest indices;
    # allow_empty silences a subcarrier whose best MSE is no better than K/4
    noise_power = 2.0**noise_exp
    n, p, active = greedy_select_batch(gains, noise_power, allow_empty)
    T, K, L = gains.shape
    for t in range(T):
        for l in range(L):
            best, best_p, best_mse = brute_force_select(gains[t, :, l], noise_power)
            if allow_empty and best_mse >= K / 4.0:
                assert (n[t, l], p[t, l]) == (0, 0.0)
                assert not active[t, :, l].any()
            else:
                assert np.flatnonzero(active[t, :, l]).tolist() == best.tolist()
                assert (n[t, l], p[t, l]) == (best.size, best_p)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 3), st.integers(1, 12), st.integers(1, 3)),
        elements=st.one_of(st.just(0.0), st.floats(2.0**-10, 2.0**10)),
    ),
    st.sets(st.integers(-10, 10), min_size=2, max_size=8),
)
def test_more_noise_never_selects_more_devices(gains, noise_exps):
    # the scan minimizes the line 1/n + x / (2 n^2 p), whose intercept falls
    # strictly with n: where prefix n beats a larger m at noise power x, it
    # beats m at every larger x.  Noise powers a factor 2 apart keep every
    # crossing far from rounding at these gains
    noise_powers = 2.0 ** np.array(sorted(noise_exps))
    n, _, _ = greedy_select_batch(gains, noise_powers)
    assert (np.diff(n, axis=0) <= 0).all()


_names = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)
_finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def _sim_configs(draw):
    # only valid configs: a field that the scheme or the source never reads
    # (UNREAD_FIELDS) keeps its default
    scheme = draw(st.sampled_from(SCHEMES))
    power_mode = draw(st.sampled_from(POWER_MODES))
    source = draw(st.sampled_from(SOURCES))
    fields = dict(
        num_devices=draw(st.integers(1, 64)),
        bit_depth=draw(st.integers(1, 16)),
        num_taps=draw(st.integers(1, 8)),
        source=source,
        source_std=draw(st.floats(1e-3, 1e3, **_finite)),
        scheme=scheme,
        power_mode=power_mode,
        varpi=1.0 if power_mode == "uniform" else draw(st.floats(1.0, 10.0, **_finite)),
        detector="ml" if scheme == "binary_ml" else draw(st.sampled_from(DETECTORS)),
        snr_db_grid=tuple(
            draw(st.lists(st.floats(-60.0, 90.0, **_finite), min_size=1, max_size=8))
        ),
        trials=draw(st.integers(1, 10**7)),
        csi_error_radius=draw(st.floats(0.0, 0.99, **_finite)),
        seed=draw(st.integers(0, 2**63)),
        n_tx=draw(st.integers(1, 4)),
        n_rx=draw(st.integers(1, 4)),
        analog_threshold=draw(st.floats(0.0, 10.0, **_finite)),
        reallocate=draw(st.booleans()),
        allow_empty=draw(st.booleans()),
    )
    for name in UNREAD_FIELDS[scheme] + UNREAD_FIELDS[source]:
        del fields[name]
    return SimConfig(**fields)


@settings(max_examples=200, deadline=None)
@given(
    experiments=st.dictionaries(_names, _sim_configs(), min_size=1, max_size=3),
)
@example(experiments={"global": SimConfig(trials=5)})  # an ordinary section name
def test_config_text_round_trips(experiments):
    assert parse_config(serialize_config(experiments)) == experiments
