"""Multipath channel model, CSI perturbation, and MIMO reduction."""

import math
import tracemalloc

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


def _disk(radius, u_abs, u_arg):
    # the point of the disk that the uniforms (u_abs, u_arg) in [0, 1) select
    return radius * np.sqrt(u_abs) * np.exp(2j * np.pi * u_arg)


def _sample_disk(radius, shape, rng):
    """Uniform samples on the complex disk of the given radius (|z| < radius):
    all moduli uniforms, then all angle uniforms, as the draw consumes them."""
    u = rng.random((2,) + tuple(shape))
    return _disk(radius, u[0], u[1])


def _abs2(z):
    return np.square(z.real) + np.square(z.imag)


def _draw_channel_batch_per_subcarrier(params, n_trials, rng, mimo=None):
    """Reference draw: a direct sum over the taps and one beamformer SVD per
    subcarrier, with the complex CSI error h_est = h (1 + delta) applied
    unconditionally.  Returns (|h_est|^2, Re{h / h_est}) = (|h (1 + delta)|^2,
    Re{1 / (1 + delta)}).  The draw must leave the generator in the same
    state and match both to rounding: it sums the taps by an FFT, its receive
    beam is not an SVD, and it forms the CSI error from real numbers."""
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
    return _abs2(h * (1.0 + delta)), (1.0 / (1.0 + delta)).real


def _assert_matches_oracle(drawn, oracle):
    # the power has unit mean; where the taps of a gain nearly cancel, the
    # two orders of summation have no relative error bound, hence the atol
    for a, b in zip(drawn, oracle):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-13)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_single_tap_channel_is_flat_across_subcarriers():
    params = ChannelParams(num_devices=5, num_subcarriers=8, num_taps=1)
    rng = np.random.default_rng(2)
    power, _ = draw_channel_batch(params, 100, rng)
    assert np.allclose(power, power[:, :, :1])


def _draw_with_oracle(mimo, radius):
    params = ChannelParams(num_devices=20, num_subcarriers=8, csi_error_radius=radius)
    chunk = channel._DRAW_BYTES // (mimo.n_rx * mimo.n_tx * 20 * 8 * 16)
    n_trials = 2 * chunk + 5  # the last chunk holds the remainder
    fast = np.random.default_rng(np.random.SeedSequence((3, 1, 4)))
    slow = np.random.default_rng(np.random.SeedSequence((3, 1, 4)))
    drawn = draw_channel_batch(params, n_trials, fast, mimo)
    oracle = _draw_channel_batch_per_subcarrier(params, n_trials, slow, mimo)
    for array in drawn:
        assert array.dtype == np.float64 and array.shape == (n_trials, 20, 8)
    if radius == 0:  # perfect CSI leaves no residual at all
        assert np.all(drawn[1] == 1.0)
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
    power_est, residual = draw_channel_batch(params, n_trials, rng, mimo)
    return power_est, residual, rng.integers(1 << 62)


@pytest.mark.parametrize("budget", [1, 3000])
def test_chunk_boundaries_do_not_change_the_draw(monkeypatch, budget):
    # budget 1 gives one trial per chunk; 3000 bytes give two trials (1440 B
    # each) of the small MIMO networks, 12 of the small SISO one (one chunk)
    # and one of the large ones, whose CSI error then runs trial by trial.
    # The one-chunk draw of the large 3x2 network holds 700 trials, enough
    # for the closed-form beam's (n_tx, T, L) temporaries to cross NumPy's
    # 256 KiB reuse threshold
    small = ChannelParams(num_devices=3, num_subcarriers=5, num_taps=5)
    large = ChannelParams(num_devices=20, num_subcarriers=8, csi_error_radius=0.2)
    siso, eigh, closed_form = MimoParams(), MimoParams(n_tx=2, n_rx=3), MimoParams(n_tx=3, n_rx=2)
    cases = [(small, 11, siso), (small, 11, eigh), (small, 11, closed_form)]
    cases += [(large, 700, siso), (large, 700, closed_form)]
    monkeypatch.setattr(channel, "_DRAW_BYTES", 1 << 40)
    whole = [_draw_and_next(p, n, mimo) for p, n, mimo in cases]
    monkeypatch.setattr(channel, "_DRAW_BYTES", budget)
    for (p, n, mimo), (power_ref, residual_ref, next_ref) in zip(cases, whole):
        power_est, residual, next_value = _draw_and_next(p, n, mimo)
        assert _same_bits(power_est, power_ref)
        assert _same_bits(residual, residual_ref)
        assert next_value == next_ref


@pytest.mark.parametrize("n_trials", [1, 50, 1000])
def test_csi_error_chunks_match_the_whole_batch_draw(monkeypatch, n_trials):
    # against one chunk, the whole-batch CSI error: 50 trials fit one chunk
    # of 409 trials; 1000 trials give two, the second holding the rest
    params = ChannelParams(num_devices=20, num_subcarriers=8, csi_error_radius=0.2)
    fast = np.random.default_rng(n_trials)
    power_est, residual = draw_channel_batch(params, n_trials, fast)
    monkeypatch.setattr(channel, "_DRAW_BYTES", 1 << 40)
    slow = np.random.default_rng(n_trials)
    power_ref, residual_ref = draw_channel_batch(params, n_trials, slow)
    assert _same_bits(power_est, power_ref)
    assert _same_bits(residual, residual_ref)
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


def test_perfect_csi_estimate_leaves_the_generator_as_a_draw_does():
    # an odd count of delays leaves half of a 64-bit word buffered for the
    # next 32-bit draw; drawing and discarding the CSI uniforms keeps it, as
    # drawing them for a nonzero radius does
    exact = ChannelParams(num_devices=5, num_subcarriers=6, num_taps=3)
    noisy = ChannelParams(num_devices=5, num_subcarriers=6, num_taps=3, csi_error_radius=0.2)
    buffered = set()
    for trials in (1, 2, 3):
        rngs = [np.random.default_rng(4) for _ in range(2)]
        draw_channel_batch(exact, trials, rngs[0])
        draw_channel_batch(noisy, trials, rngs[1])
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        buffered.add(rngs[0].bit_generator.state["has_uint32"])
        following = [rng.integers(0, 6, size=5) for rng in rngs]
        assert np.array_equal(following[0], following[1])
    assert buffered == {0, 1}
    # so does a generator of another bit generator
    rngs = [np.random.Generator(np.random.MT19937(4)) for _ in range(2)]
    draw_channel_batch(exact, 3, rngs[0])
    draw_channel_batch(noisy, 3, rngs[1])
    assert _same_bits(rngs[0].random(64), rngs[1].random(64))


def test_perfect_csi_estimate_cannot_be_changed_through_the_channel():
    # the residual of perfect CSI is one read-only value that every entry
    # shares: writing to it fails instead of changing them all
    params = ChannelParams(num_devices=2, num_subcarriers=4)
    power_est, residual = draw_channel_batch(params, 3, np.random.default_rng(0))
    assert residual.shape == power_est.shape and residual.strides == (0, 0, 0)
    with pytest.raises(ValueError):
        residual[0, 0, 0] += 1.0
    power_est[0, 0, 0] += 1.0  # the power is the caller's own array
    assert np.all(residual == 1.0)


def test_tap_profile_normalization_gives_unit_average_power():
    params = ChannelParams(num_devices=4, num_subcarriers=8, num_taps=4)
    rng = np.random.default_rng(7)
    power_est, _ = draw_channel_batch(params, 100_000 // 4, rng)
    assert np.mean(power_est) == pytest.approx(1.0, rel=0.02)


def test_draw_channel_is_reproducible():
    params = ChannelParams(num_devices=3, num_subcarriers=4, csi_error_radius=0.1)
    a = draw_channel(params, seed=5, noise_power=0.25)
    b = draw_channel(params, seed=5, noise_power=0.0)
    assert np.array_equal(a.power_est, b.power_est)
    assert np.array_equal(a.residual, b.residual)
    assert (a.noise_power, b.noise_power) == (0.25, 0.0)
    c = draw_channel(params, seed=6, noise_power=0.25)
    assert not np.array_equal(a.power_est, c.power_est)
    assert not np.array_equal(a.residual, c.residual)


def test_perfect_csi_estimate_is_bitwise_identical():
    # at radius 0 the residual is exactly 1, the power is that of the true
    # channel, and the uniforms a nonzero radius uses are still consumed
    exact = ChannelParams(num_devices=6, num_subcarriers=8, csi_error_radius=0.0)
    noisy = ChannelParams(num_devices=6, num_subcarriers=8, csi_error_radius=0.2)
    for mimo in (MimoParams(1, 1), MimoParams(2, 2)):
        rngs = [np.random.default_rng(9) for _ in range(3)]
        power_est, residual = draw_channel_batch(exact, 40, rngs[0], mimo)
        draw_channel_batch(noisy, 40, rngs[1], mimo)
        assert np.all(residual == 1.0)
        oracle = _draw_channel_batch_per_subcarrier(exact, 40, rngs[2], mimo)
        np.testing.assert_allclose(power_est, oracle[0], rtol=1e-12, atol=1e-13)
        assert _same_bits(oracle[1], np.ones_like(power_est))
        following = [rng.random(64) for rng in rngs]
        assert _same_bits(following[0], following[1])
        assert _same_bits(following[0], following[2])
    real = draw_channel(exact, seed=9, noise_power=1.0)
    assert np.all(real.residual == 1.0)


def test_csi_perturbation_stays_inside_radius():
    # the same taps at radius 0 give |h|^2, so power_est / |h|^2 = |1 + delta|^2
    # and residual |1 + delta|^2 = 1 + c recover c = Re{delta} and |delta|
    radius = 0.2
    params = ChannelParams(num_devices=10, num_subcarriers=8, csi_error_radius=radius)
    exact = ChannelParams(num_devices=10, num_subcarriers=8)
    power_est, residual = draw_channel_batch(params, 500, np.random.default_rng(1))
    power, _ = draw_channel_batch(exact, 500, np.random.default_rng(1))
    gain = power_est / power
    c = residual * gain - 1.0
    rel = np.sqrt(np.maximum(gain - 1.0 - 2.0 * c, 0.0))
    assert rel.max() <= radius + 1e-12
    assert rel.max() > 0.5 * radius  # the disk is actually being used
    assert np.abs(c).max() > 0.5 * radius
    assert residual.min() >= 1.0 / (1.0 + radius) and residual.max() <= 1.0 / (1.0 - radius)


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
    assert np.array_equal(a.power_est, b.power_est)
    assert np.array_equal(a.residual, b.residual)


def test_multi_antenna_effective_gains_are_nonnegative_reals():
    params = ChannelParams(num_devices=4, num_subcarriers=8)
    rng = np.random.default_rng(3)
    power_est, _ = draw_channel_batch(params, 50, rng, mimo=MimoParams(2, 2))
    assert power_est.dtype == np.float64
    assert np.all(power_est >= 0.0)


def test_scalarize_single_antenna_returns_entry_itself():
    # at (1,1) no beam is applied: the power is that of the complex tap
    # itself, re^2 + im^2, on every subcarrier of a one-tap channel
    S = np.array([[0.3 - 0.4j]])
    params = ChannelParams(num_devices=2, num_subcarriers=4, num_taps=1)
    power_est, _ = draw_channel_batch(params, 3, _FixedTaps(S), MimoParams(1, 1))
    tap = (0.3 - 0.4j) * np.sqrt(0.5)
    np.testing.assert_allclose(power_est, _abs2(tap), rtol=1e-15, atol=0)


def test_matched_beamformers_beat_random_beams():
    # one tap per device: every subcarrier sees the tap matrices H_k, which
    # a replay of the generator gives back
    K, shape = 5, (1, 5, 1, 2, 2)
    params = ChannelParams(num_devices=K, num_subcarriers=4, num_taps=1)
    power_est, _ = draw_channel_batch(params, 1, np.random.default_rng(8), MimoParams(2, 2))
    replay = np.random.default_rng(8)
    stack = (replay.standard_normal(shape) + 1j * replay.standard_normal(shape))[0, :, 0]
    stack *= np.sqrt(0.5)
    w = np.linalg.svd(stack.sum(axis=0))[0][:, 0]
    projected = w.conj() @ stack  # w^H H_k per device, (K, n_tx)
    matched = np.linalg.norm(projected, axis=1)
    expected = np.repeat(matched[:, None] ** 2, 4, axis=1)
    np.testing.assert_allclose(power_est[0], expected, rtol=1e-12)
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
    # two devices with one tap each, both equal to S: every power gain is
    # (sigma / sqrt(2))^2
    n_rx, n_tx = S.shape
    params = ChannelParams(num_devices=2, num_subcarriers=4, num_taps=1)
    mimo = MimoParams(n_tx=n_tx, n_rx=n_rx)
    power_est, _ = draw_channel_batch(params, 3, _FixedTaps(S), mimo)
    assert not np.any(np.isnan(power_est))
    np.testing.assert_allclose(power_est, sigma**2 / 2, rtol=1e-12, atol=1e-12)


def test_mac_superposition_sums_scaled_symbols():
    # noiseless superposition is the weighted sum of the active devices'
    # symbols: each inverts its estimate, the air applies the true channel
    h = np.array([[[1.0 + 1.0j], [2.0 - 1.0j], [0.5j]]])  # (trials, K, L)
    h_est = h * np.array([[[1.0], [1.0], [1.0 + 0.1j]]])
    residual = (h / h_est).real
    symbols = np.array([[[1.0], [-1.0], [1.0]]])
    p = np.array([[4.0]])
    perfect = np.ones(h.shape)
    y = simulator._received_sum(perfect, np.ones(h.shape, bool), p, symbols)
    np.testing.assert_allclose(y, [[2.0]], rtol=1e-15)
    silent = np.array([[[True], [False], [True]]])
    y = simulator._received_sum(residual, silent, p, symbols)
    np.testing.assert_allclose(y, [[2.0 + 2.0 / 1.01]], rtol=1e-15)


def test_network_realization_validates_shapes():
    with pytest.raises(ValueError):
        NetworkRealization(
            power_est=np.zeros((2, 3)), residual=np.ones((3, 2)), noise_power=1.0
        )
    with pytest.raises(ValueError):
        NetworkRealization(
            power_est=np.zeros((2, 3)), residual=np.ones((2, 3)), noise_power=-1.0
        )
    with pytest.raises(ValueError):
        NetworkRealization(
            power_est=np.zeros((1, 2, 3)), residual=np.ones((1, 2, 3)), noise_power=1.0
        )
    real = NetworkRealization(power_est=[[1, 2, 3]], residual=[[1, 1, 1]], noise_power=0.0)
    assert real.power_est.dtype == real.residual.dtype == np.float64
    assert real.power_est.shape == real.residual.shape == (1, 3)


@pytest.mark.parametrize("noise_power", [math.nan, math.inf])
def test_network_realization_rejects_a_noise_power_that_is_not_finite(noise_power):
    # both once passed and made run_trial return NaN estimates
    with pytest.raises(ValueError, match=r"^noise_power must be finite and >= 0, got"):
        NetworkRealization(
            power_est=np.ones((2, 3)), residual=np.ones((2, 3)), noise_power=noise_power
        )


def test_channel_params_validation():
    # one message per key: SimConfig.validate reports them as its own
    with pytest.raises(ValueError, match=r"^num_devices must be >= 1$"):
        ChannelParams(num_devices=0, num_subcarriers=8)
    with pytest.raises(ValueError, match=r"^num_subcarriers must be >= 1$"):
        ChannelParams(num_devices=2, num_subcarriers=0)
    with pytest.raises(ValueError):
        ChannelParams(num_devices=2, num_subcarriers=8, csi_error_radius=1.0)
    with pytest.raises(ValueError, match=r"^num_taps must be >= 1$"):
        ChannelParams(num_devices=2, num_subcarriers=8, num_taps=0)
    with pytest.raises(ValueError, match=r"^n_tx and n_rx must be >= 1$"):
        MimoParams(n_tx=1, n_rx=0)
    with pytest.raises(ValueError):
        ChannelParams(num_devices=2, num_subcarriers=8, csi_error_radius=-0.1)
    with pytest.raises(ValueError):
        draw_channel(ChannelParams(num_devices=2, num_subcarriers=8), 1, noise_power=-1.0)


@pytest.mark.memory
@pytest.mark.parametrize("mimo", [MimoParams(1, 1), MimoParams(2, 2)], ids=["siso", "2x2"])
def test_draw_memory_stays_within_its_real_arrays(monkeypatch, mimo):
    # the draw holds at most the taps, the delays, the CSI moduli and one
    # real output at a time, plus the arrays of one chunk (64 KiB of delay
    # bins here, so that they count for little): one whole-batch complex
    # channel, 16 bytes per trial, device and subcarrier, would not fit
    T, K, M, L = 2048, 50, 4, 8
    params = ChannelParams(num_devices=K, num_subcarriers=L, num_taps=M, csi_error_radius=0.2)
    monkeypatch.setattr(channel, "_DRAW_BYTES", 1 << 16)
    tracemalloc.start()
    try:
        draw_channel_batch(params, T, np.random.default_rng(1), mimo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    taps = 2 * T * K * M * mimo.n_rx * mimo.n_tx * 8
    delays = T * K * M * 8
    moduli = output = T * K * L * 8
    assert peak < taps + delays + moduli + output + 8 * channel._DRAW_BYTES
