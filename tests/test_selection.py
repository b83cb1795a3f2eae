"""Greedy device selection against exhaustive search."""

from fractions import Fraction

import numpy as np
import pytest

from aircomp.channel import ChannelParams, draw_channel_batch
from aircomp.selection import brute_force_select, greedy_select_batch
from aircomp.transceiver import mse_closed_form


def _greedy_one(gains, noise_power, allow_empty=False):
    """greedy_select_batch on one subcarrier's gains as a (1, K, 1) batch:
    (active device indices, p, closed-form MSE; K/4 for the empty set)."""
    gains = np.asarray(gains, dtype=np.float64)
    n, p, active = greedy_select_batch(gains[None, :, None], noise_power, allow_empty)
    n, p = int(n[0, 0]), float(p[0, 0])
    mse = mse_closed_form(p, n, gains.size, noise_power) if n else gains.size / 4.0
    return np.flatnonzero(active[0, :, 0]), p, mse


def _greedy_select_batch_argsort(effective_gains, noise_power, allow_empty=False):
    """Reference batch selection: a stable argsort on the device axis of the
    (T, K, L) layout, the first minimum of the line 1/n + x / (2 n^2 |p|)
    over the prefixes (+inf at p = +-0), and a rank scatter for the mask;
    allow_empty silences the slots whose gains are all +-0.  The sorted-value
    scan must return the same (n_active, p, active) bit for bit."""
    T, K, L = effective_gains.shape
    order = np.argsort(-effective_gains, axis=1, kind="stable")
    sorted_g = np.take_along_axis(effective_gains, order, axis=1)
    sizes = np.arange(1.0, K + 1.0).reshape(1, K, 1)
    if noise_power > 0:
        with np.errstate(divide="ignore", over="ignore"):
            h = 1.0 / (2.0 * sizes**2 * np.abs(sorted_g)) * noise_power + 1.0 / sizes
    else:
        h = np.where(sorted_g != 0, 1.0 / sizes, np.inf)
    i = np.argmin(h, axis=1)
    n = i + 1
    p = np.take_along_axis(sorted_g, i[:, None, :], axis=1)[:, 0, :]
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(K).reshape(1, K, 1), axis=1)
    active = ranks < n[:, None, :]
    if allow_empty:
        dead = ~effective_gains.any(axis=1)
        n = np.where(dead, 0, n)
        p = np.where(dead, 0.0, p)
        active &= ~dead[:, None, :]
    return n, p, active


def _exact_selection_gains(gains, noise_power):
    """Exact oracle on the same float gains, as Fractions: the selection gain
    K/4 - MSE = n c / (4 (c + x)), c = 2 n p, of every prefix, shaped
    (T, K, L) with prefix n at index n - 1.  Its first maximum over the
    prefixes is the exact optimum."""
    K = gains.shape[1]
    p = np.vectorize(Fraction, otypes=[object])(-np.sort(-gains, axis=1))
    n = np.arange(1, K + 1, dtype=object).reshape(1, K, 1)
    c = 2 * n * p
    return n * c / (4 * (c + Fraction(noise_power)))


def _gain_cases():
    rng = np.random.default_rng(2024)
    faded = rng.exponential(size=(300, 12, 8))
    return {
        "faded": faded,
        "tied": np.round(faded, 1),
        # the line 1/n + x / (2 n^2 p) falls strictly with n at a fixed p > 0,
        # so a device tied at p is left out only where every prefix scores
        # +inf: all gains of the slot zero, or x / (2 n^2 p) past the float
        # range (test_slots_whose_every_line_overflows_..., kept apart)
        "zero": np.zeros((5, 7, 3)),
        "dead": np.where(rng.random((300, 1, 8)) < 0.1, 0.0, np.round(faded, 1)),
        "tiny_tied": np.round(faded, 1) * 1e-20,
        "one_device": faded[:, :1, :],
    }


def test_known_instance_activates_everyone():
    # prefix MSEs: 39/76 (n=1), 19/68 (n=2), 3/28 (n=3)
    assert mse_closed_form(9.0, 1, 3, 1.0) == pytest.approx(39.0 / 76.0)
    assert mse_closed_form(4.0, 2, 3, 1.0) == pytest.approx(19.0 / 68.0)
    assert mse_closed_form(1.0, 3, 3, 1.0) == pytest.approx(3.0 / 28.0)
    active, p, mse = _greedy_one([9.0, 4.0, 1.0], noise_power=1.0)
    assert active.tolist() == [0, 1, 2]
    assert p == 1.0
    assert mse == pytest.approx(3.0 / 28.0)


def test_weak_straggler_is_dropped():
    active, p, _ = _greedy_one([100.0, 1e-4], noise_power=1.0)
    assert active.tolist() == [0]
    assert p == 100.0


def test_non_prefix_sets_are_never_better():
    gains = np.array([9.0, 4.0, 1.0])
    # the set {0, 2} is capped by the weakest member and loses to the prefix
    p = gains[[0, 2]].min()
    assert p == 1.0
    assert mse_closed_form(p, 2, 3, 1.0) == pytest.approx(7.0 / 20.0)
    assert _greedy_one(gains, noise_power=1.0)[2] < 7.0 / 20.0


def test_single_device_instance():
    active, p, mse = _greedy_one([0.7], noise_power=0.5)
    assert active.tolist() == [0]
    assert p == 0.7
    assert mse == pytest.approx(mse_closed_form(0.7, 1, 1, 0.5))


def test_greedy_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(300):
        num_devices = int(rng.integers(2, 11))
        gains = 10.0 ** rng.uniform(-2.0, 2.0, size=num_devices)
        noise_power = float(10.0 ** rng.uniform(-1, 1))
        active, _, mse = _greedy_one(gains, noise_power)
        brute_active, _, brute_mse = brute_force_select(gains, noise_power)
        assert mse == pytest.approx(brute_mse, rel=1e-12)
        assert np.array_equal(active, brute_active)


def test_stronger_gains_never_hurt():
    rng = np.random.default_rng(9)
    for _ in range(100):
        gains = 10.0 ** rng.uniform(-1.5, 1.5, size=8)
        boosted = _greedy_one(3.0 * gains, noise_power=1.0)[2]
        assert boosted <= _greedy_one(gains, noise_power=1.0)[2] + 1e-15


def test_batch_selection_matches_scalar_path():
    # every (trial, subcarrier) slice of the batch scan against exhaustive
    # subset search on that slice alone
    rng = np.random.default_rng(31)
    params = ChannelParams(num_devices=6, num_subcarriers=4)
    power_est, _ = draw_channel_batch(params, 50, rng)
    gains = power_est * 0.25
    sigma2 = 0.3
    n_act, p, active = greedy_select_batch(gains, sigma2)
    for t in range(50):
        for l in range(4):
            best, best_p, _ = brute_force_select(gains[t, :, l], sigma2)
            assert n_act[t, l] == len(best)
            assert p[t, l] == best_p
            assert np.array_equal(np.flatnonzero(active[t, :, l]), best)


@pytest.mark.parametrize("allow_empty", [False, True])
@pytest.mark.parametrize("noise_power", [0.02, 1.0, 30.0])
@pytest.mark.parametrize("case", list(_gain_cases()))
def test_batch_selection_is_bit_identical_to_argsort_oracle(case, noise_power, allow_empty):
    gains = _gain_cases()[case]
    n, p, active = greedy_select_batch(gains, noise_power, allow_empty)
    n_ref, p_ref, active_ref = _greedy_select_batch_argsort(gains, noise_power, allow_empty)
    assert n.dtype == n_ref.dtype and np.array_equal(n, n_ref)
    assert np.array_equal(p.view(np.uint64), p_ref.view(np.uint64))
    assert active.shape == active_ref.shape and np.array_equal(active, active_ref)


@pytest.mark.parametrize(
    "scale, noise_power", [(1e-320, 0.02), (1e-320, 1.0), (1e-320, 30.0), (1e-300, 1e12)]
)
def test_slots_whose_every_line_overflows_take_one_holder_of_the_largest_gain(scale, noise_power):
    # every x / (2 n^2 p) leaves the float range, at 1e-320 in the slope
    # 1 / (2 n^2 p) and at 1e-300 in its product with x, so every line is +inf
    # and the scan takes n = 1 at the largest gain, p > 0; where devices tie
    # at it, only the lowest-index one enters.  Not one of _gain_cases: the
    # first prefix's selection gain is not the exact best
    gains = np.round(_gain_cases()["faded"], 1) * scale
    n, p, active = greedy_select_batch(gains, noise_power)
    n_ref, p_ref, active_ref = _greedy_select_batch_argsort(gains, noise_power)
    assert np.array_equal(n, n_ref) and np.array_equal(p.view(np.uint64), p_ref.view(np.uint64))
    assert np.array_equal(active, active_ref)
    t, l = np.nonzero((gains >= p[:, None, :]).sum(axis=1) > n)  # ties beyond the prefix
    assert t.size == 105 and (p[t, l] > 0).all() and (n[t, l] == 1).all()
    K = gains.shape[1]
    assert np.array_equal(active[t, :, l], np.arange(K) == gains[t, :, l].argmax(axis=1)[:, None])


@pytest.mark.parametrize("noise_power", [0.02, 1.0, 30.0])
@pytest.mark.parametrize("case", list(_gain_cases()))
def test_each_slot_keeps_the_exact_best_selection_gain(case, noise_power):
    # the scan rounds its lines, so it may pick another prefix than the exact
    # optimum, but only one whose selection gain K/4 - MSE is within rounding
    # of the best.  A scan of the ratio-form MSE fails here: K/4 minus a gain
    # far below its last bit ties every prefix of tiny_tied at K/4, and the
    # first one keeps as little as 1.6 % of the best
    gains = _gain_cases()[case]
    n, _, _ = greedy_select_batch(gains, noise_power)
    gain = _exact_selection_gains(gains, noise_power)
    kept = np.take_along_axis(gain, (n - 1)[:, None, :], axis=1)[:, 0, :]
    assert (kept >= (1 - Fraction(1, 2**50)) * gain.max(axis=1)).all()


@pytest.mark.parametrize("allow_empty", [False, True])
def test_noiseless_selection_of_zero_and_tied_gains_matches_subset_enumeration(allow_empty):
    # at noise power 0 every prefix of a zero gain scores 0/0, which is the
    # prior variance K/4: the one case where the scan's divide is masked.
    # Whole-number gains tie often and include zeros; the first two trials
    # are all zero
    gains = np.concatenate([np.zeros((2, 6, 3)), np.round(_gain_cases()["faded"][:40, :6, :3])])
    n, p, active = greedy_select_batch(gains, 0.0, allow_empty)
    T, K, L = gains.shape
    for t in range(T):
        for l in range(L):
            if allow_empty and not gains[t, :, l].any():
                assert (n[t, l], p[t, l]) == (0, 0.0) and not active[t, :, l].any()
                assert _greedy_one(gains[t, :, l], 0.0, allow_empty)[2] == K / 4.0
                continue
            best, best_p, best_mse = brute_force_select(gains[t, :, l], 0.0)
            assert np.flatnonzero(active[t, :, l]).tolist() == best.tolist()
            assert (n[t, l], p[t, l]) == (best.size, best_p)
            assert mse_closed_form(p[t, l], n[t, l], K, 0.0) == best_mse
    assert (n[:2] == (0 if allow_empty else 1)).all()


@pytest.mark.parametrize("budget", [7 * 12 * 8 * 8, 1 << 20])
@pytest.mark.parametrize("allow_empty", [False, True])
def test_an_array_of_noise_powers_matches_the_scalar_calls(budget, allow_empty):
    # one sort serves every noise power: result[j] is the scalar call at
    # noise_powers[j] on the whole batch, bit for bit, also when the trials
    # are passed in chunks of at most `budget` bytes of gains per call, as a
    # caller bounding memory does.  At 12 devices and 8 subcarriers the
    # smaller budget gives 7 trials per call, so 300 trials end in a
    # partial chunk of 6; the larger one passes every case in one call.
    noise_powers = np.array([30.0, 0.02, 1.0, 0.02])
    for gains in _gain_cases().values():
        T, K, L = gains.shape
        per_call = max(1, budget // (K * L * gains.itemsize))
        parts = [
            greedy_select_batch(gains[t : t + per_call], noise_powers, allow_empty)
            for t in range(0, T, per_call)
        ]
        n, p, active = (np.concatenate(a, axis=1) for a in zip(*parts))
        assert n.shape == p.shape == (4, T, L) and active.shape == (4, T, K, L)
        for j, noise_power in enumerate(noise_powers):
            n_j, p_j, active_j = greedy_select_batch(gains, noise_power, allow_empty)
            assert n_j.shape == (T, L) and n.dtype == n_j.dtype
            assert np.array_equal(n[j], n_j)
            assert np.array_equal(p[j].view(np.uint64), p_j.view(np.uint64))
            assert np.array_equal(active[j], active_j)


def _gathered_p(gains, n):
    """p as the scan read it before its flat gathers: the (n-1)-th entry of
    the reversed ascending sort, gathered along the last axis.  The sort is
    the scan's own, so signed zeros land where they land there."""
    ascending = gains.transpose(0, 2, 1).copy()
    ascending.sort(axis=-1)
    return np.take_along_axis(ascending[..., ::-1], (n - 1)[..., None], axis=-1)[..., 0]


def test_signed_zero_and_tied_gains_read_the_same_p_bits_as_the_gather():
    # +0.0 and -0.0 compare equal, so the sort may put either last; p must be
    # the very element the gather read, sign bit included
    rng = np.random.default_rng(77)
    gains = rng.choice([-0.0, 0.0, 0.0, 0.5, 0.5, 1.0], size=(2_000, 6, 4))
    gains[:500] = rng.choice([-0.0, 0.0], size=(500, 6, 4))
    noise_powers = np.array([0.0, 0.02, 1.0, 30.0])
    n, p, active = greedy_select_batch(gains, noise_powers)
    for j, noise_power in enumerate(noise_powers):
        n_ref, _, active_ref = _greedy_select_batch_argsort(gains, noise_power)
        assert np.array_equal(n[j], n_ref) and np.array_equal(active[j], active_ref)
        assert np.array_equal(p[j].view(np.uint64), _gathered_p(gains, n[j]).view(np.uint64))
    assert np.signbit(p[p == 0.0]).any() and not np.signbit(p[p == 0.0]).all()


@pytest.mark.parametrize("case", ["zero", "dead"])
def test_oracle_cases_include_ties_beyond_the_prefix(case):
    # without such rows the bit-identity test would not reach the tie fix-up
    gains = _gain_cases()[case]
    n, p, _ = greedy_select_batch(gains, 1.0)
    assert ((gains >= p[:, None, :]).sum(axis=1) > n).any()


def test_allow_empty_silences_dead_subcarriers():
    # with zero gain every set scores the prior variance K/4 and the empty
    # set wins; any strictly positive gain beats it and keeps a transmitter
    gains = np.zeros((1, 4, 1))
    n_act, p, active = greedy_select_batch(gains, 1.0, allow_empty=True)
    assert n_act[0, 0] == 0
    assert p[0, 0] == 0.0
    assert not active.any()
    active, _, mse = _greedy_one(gains[0, :, 0], noise_power=1.0, allow_empty=True)
    assert len(active) == 0
    assert mse == pytest.approx(4.0 / 4.0)
    alive = _greedy_one(np.full(4, 1e-9), noise_power=1.0, allow_empty=True)[0]
    assert len(alive) >= 1


def test_without_allow_empty_someone_always_transmits():
    gains = np.zeros((1, 4, 1))
    n_act, p, _ = greedy_select_batch(gains, 1.0, allow_empty=False)
    assert n_act[0, 0] >= 1
    assert p[0, 0] == 0.0


def test_equal_gains_activate_everyone():
    # noise averaging makes the full set optimal when gains tie:
    # e(1) = 6/20, e(2) = 2/36 for gains (2, 2) at unit noise
    active, _, mse = _greedy_one([2.0, 2.0], noise_power=1.0)
    brute_mse = brute_force_select([2.0, 2.0], 1.0)[2]
    assert active.tolist() == [0, 1]
    assert mse == pytest.approx(2.0 / 36.0)
    assert mse == pytest.approx(brute_mse, rel=1e-15)


@pytest.mark.parametrize("num_devices", [0, 21])
def test_subset_enumeration_rejects_empty_and_oversized_instances(num_devices):
    with pytest.raises(ValueError, match=rf"limited to 1 <= K <= 20, got {num_devices}$"):
        brute_force_select(np.ones(num_devices), 1.0)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
def test_a_noise_power_that_is_not_finite_and_nonnegative_is_rejected(bad):
    # both once returned nonsense: n = 3 and p = 0.2 at -1, an MSE of -3.75
    message = r"^noise_power must be finite and >= 0, got "
    gains = np.array([1.0, 0.5, 0.2])
    with pytest.raises(ValueError, match=message):
        greedy_select_batch(gains[None, :, None], bad)
    with pytest.raises(ValueError, match=message):
        greedy_select_batch(gains[None, :, None], [0.1, bad, 0.0])
    with pytest.raises(ValueError, match=message):
        brute_force_select(gains, bad)
    # a noiseless receiver stays valid
    assert greedy_select_batch(gains[None, :, None], [0.0, 1.0])[0].shape == (2, 1, 1)
    assert brute_force_select(gains, 0.0)[2] == 0.0
