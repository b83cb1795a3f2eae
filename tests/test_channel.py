"""Multipath channel model, CSI perturbation, and MIMO reduction."""

import numpy as np
import pytest

from aircomp import channel
from aircomp.channel import (
    ChannelParams,
    MimoParams,
    NetworkRealization,
    complex_noise,
    draw_channel,
    draw_channel_batch,
    exponential_tap_profile,
    mac_superpose,
    matched_beamformers,
    sample_disk,
    scalarize_mimo,
)


def _draw_channel_batch_per_subcarrier(params, n_trials, rng, mimo=None):
    """Reference draw: one tap sum and one beamformer SVD per subcarrier,
    with the CSI error applied unconditionally.  The chunked draw must leave
    the generator in the same state; it reproduces the SISO draw bit for bit
    and the MIMO gains to rounding (its receive beam is not an SVD)."""
    mimo = mimo or MimoParams()
    K, L, M = params.num_devices, params.num_subcarriers, params.num_taps
    n_rx, n_tx = mimo.n_rx, mimo.n_tx
    shape = (n_trials, K, M, n_rx, n_tx)
    scale = np.sqrt(params.tap_profile / 2.0)[None, :, None, None]
    taps = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    delays = rng.integers(0, L, size=(n_trials, K, M))
    delays[..., 0] = 0
    W = channel._phase_table(L)
    h = np.empty((n_trials, K, L), dtype=np.complex128)
    for l in range(L):
        H_l = np.einsum("tkmrc,tkm->tkrc", taps, W[delays, l])
        if n_rx == 1 and n_tx == 1:
            h[:, :, l] = H_l[:, :, 0, 0]
        else:
            u, _, _ = np.linalg.svd(H_l.sum(axis=1))
            w = u[:, :, 0]
            projected = np.einsum("tr,tkrc->tkc", w.conj(), H_l)
            h[:, :, l] = np.linalg.norm(projected, axis=2)
    delta = sample_disk(params.csi_error_radius, h.shape, rng)
    return h, h * (1.0 + delta)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_single_tap_channel_is_flat_across_subcarriers():
    params = ChannelParams(num_devices=5, num_subcarriers=8, num_taps=1)
    rng = np.random.default_rng(2)
    h, _ = draw_channel_batch(params, 100, rng)
    assert np.allclose(h, h[:, :, :1])


def _draw_with_oracle(mimo, radius):
    params = ChannelParams(num_devices=20, num_subcarriers=8, csi_error_radius=radius)
    chunk = channel._GATHER_BYTES // (20 * 4 * 8 * 16)
    n_trials = 2 * chunk + 5  # the last chunk is partial
    fast = np.random.default_rng(np.random.SeedSequence((3, 1, 4)))
    slow = np.random.default_rng(np.random.SeedSequence((3, 1, 4)))
    drawn = draw_channel_batch(params, n_trials, fast, mimo)
    oracle = _draw_channel_batch_per_subcarrier(params, n_trials, slow, mimo)
    # the stream after the draw is untouched, so noise drawn next is too
    assert _same_bits(fast.standard_normal(64), slow.standard_normal(64))
    return drawn, oracle


@pytest.mark.parametrize("radius", [0.0, 0.2])
@pytest.mark.parametrize("mimo", [MimoParams(1, 1)], ids=["siso"])
def test_chunked_draw_is_bit_identical_to_per_subcarrier_oracle(mimo, radius):
    (h, h_est), (h_ref, h_est_ref) = _draw_with_oracle(mimo, radius)
    assert _same_bits(h, h_ref)
    assert _same_bits(h_est, h_est_ref)


@pytest.mark.parametrize("radius", [0.0, 0.2])
@pytest.mark.parametrize(
    "mimo",
    [MimoParams(n_tx=2, n_rx=2), MimoParams(n_tx=3, n_rx=2), MimoParams(n_tx=2, n_rx=3)],
    ids=["2x2", "2x3", "3x2"],  # n_rx x n_tx: closed-form beam, closed form, eigh
)
def test_mimo_draw_matches_the_svd_oracle(mimo, radius):
    (h, h_est), (h_ref, h_est_ref) = _draw_with_oracle(mimo, radius)
    np.testing.assert_allclose(h, h_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(h_est, h_est_ref, rtol=1e-12, atol=0)


def _draw_and_next(params, n_trials, mimo):
    rng = np.random.default_rng(8)
    h, h_est = draw_channel_batch(params, n_trials, rng, mimo)
    return h, h_est, rng.integers(1 << 62)


@pytest.mark.parametrize("budget", [1, 3000])
def test_chunk_boundaries_do_not_change_the_draw(monkeypatch, budget):
    # budget 1 gives one trial per chunk, 3000 bytes two trials (1200 B each)
    # of the small network; the large one draws 700 trials in a single chunk
    # at the default budget, enough for the closed-form beam's (T, L, n_tx)
    # temporaries to cross NumPy's 256 KiB reuse threshold
    small = ChannelParams(num_devices=3, num_subcarriers=5, num_taps=5)
    large = ChannelParams(num_devices=20, num_subcarriers=8, csi_error_radius=0.2)
    eigh, closed_form = MimoParams(n_tx=2, n_rx=3), MimoParams(n_tx=3, n_rx=2)
    cases = [(small, 11, eigh), (small, 11, closed_form), (large, 700, closed_form)]
    whole = [_draw_and_next(p, n, mimo) for p, n, mimo in cases]
    monkeypatch.setattr(channel, "_GATHER_BYTES", budget)
    fast = np.random.default_rng(8)
    slow = np.random.default_rng(8)
    h, h_est = draw_channel_batch(small, 11, fast)
    h_ref, h_est_ref = _draw_channel_batch_per_subcarrier(small, 11, slow)
    assert _same_bits(h, h_ref)
    assert _same_bits(h_est, h_est_ref)
    assert fast.integers(1 << 62) == slow.integers(1 << 62)
    # MIMO against the same draw in one chunk: its beam is no SVD, so the
    # oracle above matches it only to rounding
    for (p, n, mimo), (h_ref, h_est_ref, next_ref) in zip(cases, whole):
        h, h_est, next_value = _draw_and_next(p, n, mimo)
        assert _same_bits(h, h_ref)
        assert _same_bits(h_est, h_est_ref)
        assert next_value == next_ref


@pytest.mark.parametrize("n_trials", [1, 50, 1000])
def test_csi_error_chunks_match_the_whole_batch_draw(n_trials):
    # 50 trials keep h below 256 KiB, one CSI chunk; 1000 trials give two
    # chunks, the second holding the remainder
    params = ChannelParams(num_devices=20, num_subcarriers=8, csi_error_radius=0.2)
    fast = np.random.default_rng(n_trials)
    slow = np.random.default_rng(n_trials)
    h, h_est = draw_channel_batch(params, n_trials, fast)
    h_ref, h_est_ref = _draw_channel_batch_per_subcarrier(params, n_trials, slow)
    assert _same_bits(h, h_ref)
    assert _same_bits(h_est, h_est_ref)
    assert _same_bits(fast.random(64), slow.random(64))


@pytest.mark.parametrize("n, size", [(0, 4), (3, 4), (4, 4), (7, 4), (8, 4), (11, 4), (5, 1)])
def test_spans_cover_every_item_in_chunks_of_at_least_size(n, size):
    spans = channel._spans(n, size)
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    if n >= size:
        assert all(size <= e - s < 2 * size for s, e in spans)
    else:
        assert len(spans) == 1


def test_perfect_csi_estimate_cannot_be_changed_through_the_channel():
    params = ChannelParams(num_devices=2, num_subcarriers=4)
    h, h_est = draw_channel_batch(params, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        h[0, 0, 0] += 1.0
    with pytest.raises(ValueError):
        h_est[0, 0, 0] += 1.0


def test_tap_profile_normalization_gives_unit_average_power():
    params = ChannelParams(num_devices=4, num_subcarriers=8, num_taps=4)
    rng = np.random.default_rng(7)
    h, _ = draw_channel_batch(params, 100_000 // 4, rng)
    power = np.mean(np.abs(h) ** 2)
    assert power == pytest.approx(1.0, rel=0.02)


def test_exponential_profile_sums_to_one_and_decays():
    profile = exponential_tap_profile(4, decay=0.5)
    assert profile.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(profile[:-1] > profile[1:])


def test_draw_channel_is_reproducible():
    params = ChannelParams(num_devices=3, num_subcarriers=4, csi_error_radius=0.1)
    a = draw_channel(params, seed=5)
    b = draw_channel(params, seed=5)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.h_est, b.h_est)
    c = draw_channel(params, seed=6)
    assert not np.array_equal(a.h, c.h)


def test_perfect_csi_estimate_is_bitwise_identical():
    params = ChannelParams(num_devices=6, num_subcarriers=8, csi_error_radius=0.0)
    real = draw_channel(params, seed=9)
    assert np.array_equal(real.h, real.h_est)


def test_csi_perturbation_stays_inside_radius():
    radius = 0.2
    params = ChannelParams(num_devices=10, num_subcarriers=8, csi_error_radius=radius)
    rng = np.random.default_rng(1)
    h, h_est = draw_channel_batch(params, 500, rng)
    rel = np.abs(h_est / h - 1.0)
    assert rel.max() <= radius
    assert rel.max() > 0.5 * radius  # the disk is actually being used


def test_sample_disk_radius_and_determinism():
    rng = np.random.default_rng(4)
    d = sample_disk(0.3, (2000,), rng)
    assert np.abs(d).max() <= 0.3
    z = sample_disk(0.0, (100,), np.random.default_rng(4))
    assert np.array_equal(z, np.zeros(100, dtype=complex))


def test_complex_noise_variance_split():
    rng = np.random.default_rng(12)
    n = complex_noise((200_000,), 2.0, rng)
    se = 3.0 * 1.0 / np.sqrt(200_000)
    assert np.var(n.real) == pytest.approx(1.0, abs=se)
    assert np.var(n.imag) == pytest.approx(1.0, abs=se)


def test_mimo_none_equals_explicit_single_antenna():
    params = ChannelParams(num_devices=4, num_subcarriers=8, csi_error_radius=0.1)
    a = draw_channel(params, seed=5)
    b = draw_channel(params, seed=5, mimo=MimoParams(1, 1))
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.h_est, b.h_est)


def test_multi_antenna_effective_gains_are_nonnegative_reals():
    params = ChannelParams(num_devices=4, num_subcarriers=8)
    rng = np.random.default_rng(3)
    h, _ = draw_channel_batch(params, 50, rng, mimo=MimoParams(2, 2))
    assert np.all(h.imag == 0.0)
    assert np.all(h.real >= 0.0)


def test_scalarize_single_antenna_returns_entry_itself():
    H = np.array([[0.3 - 0.4j]])
    w = np.ones(1)
    f = np.ones(1)
    assert scalarize_mimo(H, w, f) == complex(H[0, 0])


def test_scalarize_requires_unit_norm_beams():
    H = np.eye(2)
    with pytest.raises(ValueError):
        scalarize_mimo(H, np.array([2.0, 0.0]), np.array([1.0, 0.0]))


def test_matched_beamformers_beat_random_beams():
    rng = np.random.default_rng(8)
    stack = (rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))) / np.sqrt(2)
    w, F, h_eff = matched_beamformers(stack)
    assert np.all(np.abs(h_eff.imag) < 1e-12)
    for k in range(5):
        matched = abs(scalarize_mimo(stack[k], w, F[k]))
        for _ in range(100):
            f = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            f = f / np.linalg.norm(f)
            assert abs(scalarize_mimo(stack[k], w, f)) <= matched + 1e-12


def _top_singular_value(S):
    return np.linalg.svd(S, compute_uv=False)[..., 0]


def _beam_gain(w, S):
    return np.linalg.norm(np.einsum("...r,...rc->...c", w.conj(), S), axis=-1)


@pytest.mark.parametrize("n_tx", [1, 2, 3])
@pytest.mark.parametrize("n_rx", [1, 2, 3])
def test_receive_beam_is_the_principal_singular_vector(n_rx, n_tx):
    rng = np.random.default_rng(10 * n_rx + n_tx)
    S = rng.standard_normal((200, n_rx, n_tx)) + 1j * rng.standard_normal((200, n_rx, n_tx))
    w = channel._receive_beam(S)
    assert w.shape == (200, n_rx)
    np.testing.assert_allclose(np.linalg.norm(w, axis=-1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(_beam_gain(w, S), _top_singular_value(S), rtol=1e-12, atol=0)


class _FixedTaps:
    """Generator stand-in for draw_channel_batch: every tap matrix is S,
    every delay 0 and every uniform 0."""

    def __init__(self, S):
        self.parts = [S.real, S.imag]

    def standard_normal(self, shape):
        return np.broadcast_to(self.parts.pop(0), shape).copy()

    def integers(self, low, high, size):
        return np.zeros(size, dtype=np.int64)

    def random(self, shape):
        return np.zeros(shape)


@pytest.mark.parametrize(
    "S",
    [
        np.zeros((2, 2)),
        2.5 * np.eye(2),
        np.outer([1.0, 2.0 - 1j], [0.5j, 1.0]),  # rank one
        np.diag([1.0, 1j]),  # p = q, r = 0 without being c I
        np.array([[1.0, 1.0], [1j, -1j]]),  # p = q, r = 0, no zero entry
        np.zeros((3, 2)),
        2.5 * np.eye(3),
        np.outer([1.0, 0.0, 1j], [1.0, 1.0]),
    ],
    ids=["zero", "cI", "rank1", "diag", "orthogonal_rows", "zero_3x2", "cI_3x3", "rank1_3x2"],
)
def test_receive_beam_handles_degenerate_matrices(S):
    S = S.astype(np.complex128)
    w = channel._receive_beam(S)
    assert np.all(np.isfinite(w))
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    sigma = _top_singular_value(S)
    assert _beam_gain(w, S) == pytest.approx(sigma, rel=1e-12, abs=1e-12)
    # two devices with one tap each, both equal to S: every gain is sigma / sqrt(2)
    n_rx, n_tx = S.shape
    params = ChannelParams(num_devices=2, num_subcarriers=4, num_taps=1)
    h, _ = draw_channel_batch(params, 3, _FixedTaps(S), MimoParams(n_tx=n_tx, n_rx=n_rx))
    assert not np.any(np.isnan(h))
    np.testing.assert_allclose(h, sigma / np.sqrt(2), rtol=1e-12, atol=1e-12)


def test_mac_superposition_sums_scaled_symbols():
    symbols = np.array([1.0, -1.0, 1.0])
    weights = np.array([0.5 + 0j, 0.5 + 0j, 1.0 + 0j])
    # noiseless superposition is the weighted sum
    y = mac_superpose(symbols, weights, 0.0, np.random.default_rng(0))
    assert y == pytest.approx(1.0 + 0j)
    noisy = mac_superpose(symbols, weights, 0.3, np.random.default_rng(0))
    assert noisy != y
    with pytest.raises(ValueError):
        mac_superpose(symbols, weights[:2], 0.0, np.random.default_rng(0))


def test_network_realization_validates_shapes():
    with pytest.raises(ValueError):
        NetworkRealization(
            h=np.zeros((2, 3), dtype=complex),
            h_est=np.zeros((3, 2), dtype=complex),
            noise_power=1.0,
        )
    with pytest.raises(ValueError):
        NetworkRealization(
            h=np.zeros((2, 3), dtype=complex),
            h_est=np.zeros((2, 3), dtype=complex),
            noise_power=-1.0,
        )


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(num_devices=0, num_subcarriers=8)
    with pytest.raises(ValueError):
        ChannelParams(num_devices=2, num_subcarriers=8, csi_error_radius=1.0)
    with pytest.raises(ValueError):
        ChannelParams(num_devices=2, num_subcarriers=8, noise_power=0.0)
