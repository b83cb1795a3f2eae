"""Greedy device selection against exhaustive search."""

import numpy as np
import pytest

from aircomp import selection
from aircomp.channel import ChannelParams, draw_channel_batch
from aircomp.selection import (
    SelectionInstance,
    brute_force_select,
    greedy_select,
    greedy_select_batch,
)
from aircomp.transceiver import mse_closed_form


def _greedy_select_batch_argsort(effective_gains, noise_power, allow_empty=False):
    """Reference batch selection: a stable argsort on the device axis of the
    (T, K, L) layout and a rank scatter for the mask.  The sorted-value scan
    must return the same (n_active, p, active) bit for bit."""
    T, K, L = effective_gains.shape
    order = np.argsort(-effective_gains, axis=1, kind="stable")
    sorted_g = np.take_along_axis(effective_gains, order, axis=1)
    sizes = np.arange(1, K + 1).reshape(1, K, 1)
    mse = mse_closed_form(sorted_g, sizes, K, noise_power)
    i = np.argmin(mse, axis=1)
    n = i + 1
    p = np.take_along_axis(sorted_g, i[:, None, :], axis=1)[:, 0, :]
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(K).reshape(1, K, 1), axis=1)
    active = ranks < n[:, None, :]
    if allow_empty:
        best = np.take_along_axis(mse, i[:, None, :], axis=1)[:, 0, :]
        fallback = best >= K / 4.0
        n = np.where(fallback, 0, n)
        p = np.where(fallback, 0.0, p)
        active &= ~fallback[:, None, :]
    return n, p, active


def _gain_cases():
    rng = np.random.default_rng(2024)
    faded = rng.exponential(size=(300, 12, 8))
    return {
        "faded": faded,
        "tied": np.round(faded, 1),
        # the prefix MSE falls strictly with n at a fixed p > 0, so a device
        # tied at p is left out only where every prefix rounds to the same
        # MSE: zero gains, or gains far below the noise
        "zero": np.zeros((5, 7, 3)),
        "tiny_tied": np.round(faded, 1) * 1e-20,
        "one_device": faded[:, :1, :],
    }


def test_known_instance_activates_everyone():
    inst = SelectionInstance(np.array([9.0, 4.0, 1.0]), noise_power=1.0)
    # prefix MSEs: 39/76 (n=1), 19/68 (n=2), 3/28 (n=3)
    assert mse_closed_form(9.0, 1, 3, 1.0) == pytest.approx(39.0 / 76.0)
    assert mse_closed_form(4.0, 2, 3, 1.0) == pytest.approx(19.0 / 68.0)
    assert mse_closed_form(1.0, 3, 3, 1.0) == pytest.approx(3.0 / 28.0)
    result = greedy_select(inst)
    assert result.active.tolist() == [0, 1, 2]
    assert result.p == 1.0
    assert result.mse == pytest.approx(3.0 / 28.0)


def test_weak_straggler_is_dropped():
    inst = SelectionInstance(np.array([100.0, 1e-4]), noise_power=1.0)
    result = greedy_select(inst)
    assert result.active.tolist() == [0]
    assert result.p == 100.0


def test_non_prefix_sets_are_never_better():
    gains = np.array([9.0, 4.0, 1.0])
    inst = SelectionInstance(gains, noise_power=1.0)
    # the set {0, 2} is capped by the weakest member and loses to the prefix
    p = gains[[0, 2]].min()
    assert p == 1.0
    assert mse_closed_form(p, 2, 3, 1.0) == pytest.approx(7.0 / 20.0)
    assert greedy_select(inst).mse < 7.0 / 20.0


def test_single_device_instance():
    inst = SelectionInstance(np.array([0.7]), noise_power=0.5)
    result = greedy_select(inst)
    assert result.active.tolist() == [0]
    assert result.p == 0.7
    assert result.mse == pytest.approx(mse_closed_form(0.7, 1, 1, 0.5))


def test_greedy_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(42)
    for _ in range(300):
        num_devices = int(rng.integers(2, 11))
        gains = 10.0 ** rng.uniform(-2.0, 2.0, size=num_devices)
        inst = SelectionInstance(gains, noise_power=float(10.0 ** rng.uniform(-1, 1)))
        greedy = greedy_select(inst)
        brute = brute_force_select(inst)
        assert greedy.mse == pytest.approx(brute.mse, rel=1e-12)
        assert np.array_equal(greedy.active, brute.active)


def test_stronger_gains_never_hurt():
    rng = np.random.default_rng(9)
    for _ in range(100):
        gains = 10.0 ** rng.uniform(-1.5, 1.5, size=8)
        inst = SelectionInstance(gains, noise_power=1.0)
        boosted = SelectionInstance(3.0 * gains, noise_power=1.0)
        assert greedy_select(boosted).mse <= greedy_select(inst).mse + 1e-15


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
            inst = SelectionInstance(gains[t, :, l], noise_power=sigma2)
            result = brute_force_select(inst)
            assert n_act[t, l] == len(result.active)
            assert p[t, l] == result.p
            assert np.array_equal(np.flatnonzero(active[t, :, l]), result.active)


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


@pytest.mark.parametrize("budget", [1, 7 * 12 * 8 * 8])
@pytest.mark.parametrize("allow_empty", [False, True])
def test_trial_chunks_do_not_change_the_selection(monkeypatch, budget, allow_empty):
    # budget 1 gives one trial per chunk; the other budget gives 7 trials per
    # chunk at 12 devices, so 300 trials end in a partial chunk of 6
    monkeypatch.setattr(selection, "_SELECT_BYTES", budget)
    for gains in _gain_cases().values():
        n, p, active = greedy_select_batch(gains, 1.0, allow_empty)
        n_ref, p_ref, active_ref = _greedy_select_batch_argsort(gains, 1.0, allow_empty)
        assert n.dtype == n_ref.dtype and np.array_equal(n, n_ref)
        assert np.array_equal(p.view(np.uint64), p_ref.view(np.uint64))
        assert np.array_equal(active, active_ref)


@pytest.mark.parametrize("case", ["zero", "tiny_tied"])
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
    inst = SelectionInstance(gains[0, :, 0], noise_power=1.0)
    result = greedy_select(inst, allow_empty=True)
    assert len(result.active) == 0
    assert result.mse == pytest.approx(4.0 / 4.0)
    alive = SelectionInstance(np.full(4, 1e-9), noise_power=1.0)
    assert len(greedy_select(alive, allow_empty=True).active) >= 1


def test_without_allow_empty_someone_always_transmits():
    gains = np.zeros((1, 4, 1))
    n_act, p, _ = greedy_select_batch(gains, 1.0, allow_empty=False)
    assert n_act[0, 0] >= 1
    assert p[0, 0] == 0.0


def test_equal_gains_activate_everyone():
    # noise averaging makes the full set optimal when gains tie:
    # e(1) = 6/20, e(2) = 2/36 for gains (2, 2) at unit noise
    inst = SelectionInstance(np.array([2.0, 2.0]), noise_power=1.0)
    greedy = greedy_select(inst)
    brute = brute_force_select(inst)
    assert greedy.active.tolist() == [0, 1]
    assert greedy.mse == pytest.approx(2.0 / 36.0)
    assert greedy.mse == pytest.approx(brute.mse, rel=1e-15)
