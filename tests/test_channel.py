"""Multipath channel model, CSI perturbation, and MIMO reduction."""

import numpy as np
import pytest

from aircomp import channel, simulator
from aircomp.channel import (
    ChannelParams,
    MimoParams,
    NetworkRealization,
    draw_channel,
    draw_channel_batch,
)


def _phase_table(num_subcarriers):
    # W[d, l] = exp(j 2 pi d l / L); delays are integers mod L so this is exhaustive
    l = np.arange(num_subcarriers)
    return np.exp(2j * np.pi * np.outer(l, l) / num_subcarriers)


def _sample_disk(radius, shape, rng):
    """Uniform samples on the complex disk of the given radius (|z| < radius):
    all moduli uniforms, then all angle uniforms, as the draw consumes them."""
    u = rng.random((2,) + tuple(shape))
    return channel._disk(radius, u[0], u[1])


def _draw_channel_batch_per_subcarrier(params, n_trials, rng, mimo=None):
    """Reference draw: a direct sum over the taps and one beamformer SVD per
    subcarrier, with the CSI error applied unconditionally.  The draw must
    leave the generator in the same state and match the gains to rounding:
    it sums the taps by an FFT, and its receive beam is not an SVD."""
    mimo = mimo or MimoParams()
    K, L, M = params.num_devices, params.num_subcarriers, params.num_taps
    n_rx, n_tx = mimo.n_rx, mimo.n_tx
    shape = (n_trials, K, M, n_rx, n_tx)
    scale = np.sqrt(np.full(M, 1.0 / M) / 2.0)[None, :, None, None]
    taps = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    delays = rng.integers(0, L, size=(n_trials, K, M))
    delays[..., 0] = 0
    W = _phase_table(L)
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
    delta = _sample_disk(params.csi_error_radius, h.shape, rng)
    return h, h * (1.0 + delta)


def _assert_matches_oracle(drawn, oracle):
    # h has unit mean power; where the taps of a gain nearly cancel, the two
    # orders of summation have no relative error bound, hence the atol
    for a, b in zip(drawn, oracle):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_single_tap_channel_is_flat_across_subcarriers():
    params = ChannelParams(num_devices=5, num_subcarriers=8, num_taps=1)
    rng = np.random.default_rng(2)
    h, _ = draw_channel_batch(params, 100, rng)
    assert np.allclose(h, h[:, :, :1])


def _draw_with_oracle(mimo, radius):
    params = ChannelParams(num_devices=20, num_subcarriers=8, csi_error_radius=radius)
    chunk = channel._DRAW_BYTES // (mimo.n_rx * mimo.n_tx * 20 * 8 * 16)
    n_trials = 2 * chunk + 5  # the last chunk holds the remainder
    fast = np.random.default_rng(np.random.SeedSequence((3, 1, 4)))
    slow = np.random.default_rng(np.random.SeedSequence((3, 1, 4)))
    drawn = draw_channel_batch(params, n_trials, fast, mimo)
    oracle = _draw_channel_batch_per_subcarrier(params, n_trials, slow, mimo)
    # the stream after the draw is untouched, so noise drawn next is too
    assert _same_bits(fast.standard_normal(64), slow.standard_normal(64))
    return drawn, oracle


@pytest.mark.parametrize("radius", [0.0, 0.2])
@pytest.mark.parametrize("mimo", [MimoParams(1, 1)], ids=["siso"])
def test_siso_draw_matches_the_per_subcarrier_oracle(mimo, radius):
    _assert_matches_oracle(*_draw_with_oracle(mimo, radius))


@pytest.mark.parametrize("radius", [0.0, 0.2])
@pytest.mark.parametrize(
    "mimo",
    [MimoParams(n_tx=2, n_rx=2), MimoParams(n_tx=3, n_rx=2), MimoParams(n_tx=2, n_rx=3)],
    ids=["2x2", "2x3", "3x2"],  # n_rx x n_tx: closed-form beam, closed form, eigh
)
def test_mimo_draw_matches_the_svd_oracle(mimo, radius):
    _assert_matches_oracle(*_draw_with_oracle(mimo, radius))


@pytest.mark.parametrize("mimo", [MimoParams(1, 1), MimoParams(2, 2)], ids=["siso", "2x2"])
def test_taps_that_share_a_delay_add_together(mimo):
    # six taps on four subcarriers: every device has taps in a shared bin
    params = ChannelParams(num_devices=5, num_subcarriers=4, num_taps=6, csi_error_radius=0.1)
    fast = np.random.default_rng(21)
    slow = np.random.default_rng(21)
    drawn = draw_channel_batch(params, 300, fast, mimo)
    _assert_matches_oracle(drawn, _draw_channel_batch_per_subcarrier(params, 300, slow, mimo))
    assert _same_bits(fast.standard_normal(64), slow.standard_normal(64))


def _draw_and_next(params, n_trials, mimo):
    rng = np.random.default_rng(8)
    h, h_est = draw_channel_batch(params, n_trials, rng, mimo)
    return h, h_est, rng.integers(1 << 62)


@pytest.mark.parametrize("budget", [1, 3000])
def test_chunk_boundaries_do_not_change_the_draw(monkeypatch, budget):
    # budget 1 gives one trial per chunk; 3000 bytes give two trials (1440 B
    # each) of the small MIMO networks, 12 of the small SISO one (one chunk)
    # and one of the large ones.  The one-chunk draw of the large 3x2 network
    # holds 700 trials, enough for the closed-form beam's (n_tx, T, L)
    # temporaries to cross NumPy's 256 KiB reuse threshold
    small = ChannelParams(num_devices=3, num_subcarriers=5, num_taps=5)
    large = ChannelParams(num_devices=20, num_subcarriers=8, csi_error_radius=0.2)
    siso, eigh, closed_form = MimoParams(), MimoParams(n_tx=2, n_rx=3), MimoParams(n_tx=3, n_rx=2)
    cases = [(small, 11, siso), (small, 11, eigh), (small, 11, closed_form)]
    cases += [(large, 700, siso), (large, 700, closed_form)]
    monkeypatch.setattr(channel, "_DRAW_BYTES", 1 << 40)
    whole = [_draw_and_next(p, n, mimo) for p, n, mimo in cases]
    monkeypatch.setattr(channel, "_DRAW_BYTES", budget)
    for (p, n, mimo), (h_ref, h_est_ref, next_ref) in zip(cases, whole):
        h, h_est, next_value = _draw_and_next(p, n, mimo)
        assert _same_bits(h, h_ref)
        assert _same_bits(h_est, h_est_ref)
        assert next_value == next_ref


@pytest.mark.parametrize("n_trials", [1, 50, 1000])
def test_csi_error_chunks_match_the_whole_batch_draw(monkeypatch, n_trials):
    # against one CSI chunk, the whole-batch product: 50 trials keep h below
    # 256 KiB, one chunk; 1000 trials give two, the second holding the rest
    params = ChannelParams(num_devices=20, num_subcarriers=8, csi_error_radius=0.2)
    fast = np.random.default_rng(n_trials)
    h, h_est = draw_channel_batch(params, n_trials, fast)
    monkeypatch.setattr(channel, "_CSI_BYTES", 1 << 40)
    slow = np.random.default_rng(n_trials)
    h_ref, h_est_ref = draw_channel_batch(params, n_trials, slow)
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


def test_draw_channel_is_reproducible():
    params = ChannelParams(num_devices=3, num_subcarriers=4, csi_error_radius=0.1)
    a = draw_channel(params, seed=5, noise_power=0.25)
    b = draw_channel(params, seed=5, noise_power=0.0)
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.h_est, b.h_est)
    assert (a.noise_power, b.noise_power) == (0.25, 0.0)
    c = draw_channel(params, seed=6, noise_power=0.25)
    assert not np.array_equal(a.h, c.h)


def test_perfect_csi_estimate_is_bitwise_identical():
    params = ChannelParams(num_devices=6, num_subcarriers=8, csi_error_radius=0.0)
    real = draw_channel(params, seed=9, noise_power=1.0)
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
    d = _sample_disk(0.3, (2000,), rng)
    assert np.abs(d).max() <= 0.3
    assert np.abs(d).max() > 0.25
    assert _same_bits(d, _sample_disk(0.3, (2000,), np.random.default_rng(4)))
    z = _sample_disk(0.0, (100,), np.random.default_rng(4))
    assert np.array_equal(z, np.zeros(100, dtype=complex))


def test_mimo_none_equals_explicit_single_antenna():
    params = ChannelParams(num_devices=4, num_subcarriers=8, csi_error_radius=0.1)
    a = draw_channel(params, seed=5, noise_power=1.0)
    b = draw_channel(params, seed=5, noise_power=1.0, mimo=MimoParams(1, 1))
    assert np.array_equal(a.h, b.h)
    assert np.array_equal(a.h_est, b.h_est)


def test_multi_antenna_effective_gains_are_nonnegative_reals():
    params = ChannelParams(num_devices=4, num_subcarriers=8)
    rng = np.random.default_rng(3)
    h, _ = draw_channel_batch(params, 50, rng, mimo=MimoParams(2, 2))
    assert np.all(h.imag == 0.0)
    assert np.all(h.real >= 0.0)


def test_scalarize_single_antenna_returns_entry_itself():
    # at (1,1) no beam is applied: the gain is the complex tap itself, not
    # its modulus, on every subcarrier of a one-tap channel
    S = np.array([[0.3 - 0.4j]])
    params = ChannelParams(num_devices=2, num_subcarriers=4, num_taps=1)
    h, _ = draw_channel_batch(params, 3, _FixedTaps(S), MimoParams(1, 1))
    tap = (0.3 - 0.4j) * np.sqrt(0.5)
    np.testing.assert_allclose(h, tap, rtol=1e-15, atol=0)


def test_matched_beamformers_beat_random_beams():
    # one tap per device: every subcarrier sees the tap matrices H_k, which
    # a replay of the generator gives back
    K, shape = 5, (1, 5, 1, 2, 2)
    params = ChannelParams(num_devices=K, num_subcarriers=4, num_taps=1)
    h, _ = draw_channel_batch(params, 1, np.random.default_rng(8), MimoParams(2, 2))
    replay = np.random.default_rng(8)
    stack = (replay.standard_normal(shape) + 1j * replay.standard_normal(shape))[0, :, 0]
    stack *= np.sqrt(0.5)
    w = np.linalg.svd(stack.sum(axis=0))[0][:, 0]
    projected = w.conj() @ stack  # w^H H_k per device, (K, n_tx)
    matched = np.linalg.norm(projected, axis=1)
    np.testing.assert_allclose(h[0], np.repeat(matched[:, None], 4, axis=1), rtol=1e-12)
    for _ in range(100):
        f = replay.standard_normal(2) + 1j * replay.standard_normal(2)
        assert np.all(np.abs(projected @ (f / np.linalg.norm(f))) <= matched + 1e-12)


def _top_singular_value(S):
    return np.linalg.svd(S, compute_uv=False)[..., 0]


def _beam(S):
    # _receive_beam on (..., n_rx, n_tx) matrices, as a (..., n_rx) result
    planes = np.moveaxis(S, (-2, -1), (0, 1))
    return np.moveaxis(channel._receive_beam(planes), 0, -1)


def _beam_gain(w, S):
    return np.linalg.norm(np.einsum("...r,...rc->...c", w.conj(), S), axis=-1)


@pytest.mark.parametrize("n_tx", [1, 2, 3])
@pytest.mark.parametrize("n_rx", [1, 2, 3])
def test_receive_beam_is_the_principal_singular_vector(n_rx, n_tx):
    rng = np.random.default_rng(10 * n_rx + n_tx)
    S = rng.standard_normal((200, n_rx, n_tx)) + 1j * rng.standard_normal((200, n_rx, n_tx))
    w = _beam(S)
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
    w = _beam(S)
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
    # noiseless superposition is the weighted sum of the active devices'
    # symbols: each inverts its estimate, the air applies the true channel
    h = np.array([[[1.0 + 1.0j], [2.0 - 1.0j], [0.5j]]])  # (trials, K, L)
    h_est = h * np.array([[[1.0], [1.0], [1.0 + 0.1j]]])
    a2 = np.abs(h_est) ** 2
    symbols = np.array([[[1.0], [-1.0], [1.0]]])
    p = np.array([[4.0]])
    y = simulator._received_sum(h, h, np.abs(h) ** 2, np.ones_like(a2, bool), p, symbols)
    np.testing.assert_allclose(y, [[2.0]], rtol=1e-15)
    silent = np.array([[[True], [False], [True]]])
    y = simulator._received_sum(h, h_est, a2, silent, p, symbols)
    np.testing.assert_allclose(y, [[2.0 + 2.0 / 1.01]], rtol=1e-15)


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
        ChannelParams(num_devices=2, num_subcarriers=8, num_taps=0)
    with pytest.raises(ValueError):
        ChannelParams(num_devices=2, num_subcarriers=8, csi_error_radius=-0.1)
    with pytest.raises(ValueError):
        draw_channel(ChannelParams(num_devices=2, num_subcarriers=8), 1, noise_power=-1.0)
