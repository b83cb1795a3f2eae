"""Power allocation, channel inversion, and per-subcarrier detection."""

import math

import numpy as np
import pytest

from aircomp.simulator import SimConfig, _back, _batches, _front, _received_sum, _select
from aircomp.transceiver import (
    allocate_power,
    lmmse_coefficients,
    ml_lattice_estimate,
    mse_closed_form,
    reallocate_power,
)


def test_uniform_allocation_splits_evenly():
    budgets = allocate_power(4)
    assert budgets.shape == (4,)
    assert np.allclose(budgets, 0.25)
    assert budgets.sum() == pytest.approx(1.0, rel=1e-15)


def test_geometric_allocation_known_values():
    # ratio 2 over 3 planes: 1/7, 2/7, 4/7
    assert allocate_power(3, varpi=2.0).tolist() == [1 / 7, 2 / 7, 4 / 7]
    # ratio 3 over 2 planes
    assert np.allclose(allocate_power(2, varpi=3.0), [0.25, 0.75])


def test_geometric_allocation_weights_grow_toward_msb():
    budgets = allocate_power(8, varpi=1.7)
    assert np.all(np.diff(budgets) > 0)
    assert budgets.sum() == pytest.approx(1.0, rel=1e-12)


def test_allocation_rejects_shrinking_ratio():
    with pytest.raises(ValueError):
        allocate_power(8, varpi=0.5)
    with pytest.raises(ValueError):
        allocate_power(0)


def test_reallocation_gives_silent_budget_to_active_planes():
    budgets = allocate_power(4)
    active = np.array(
        [
            [True, True, False, True],
            [True, False, False, True],
        ]
    )
    per_device = reallocate_power(budgets, active)
    # each device re-spreads its total budget over its own active planes
    assert per_device.shape == active.shape
    assert np.allclose(per_device[0, active[0]], 1.0 / 3.0)
    assert np.allclose(per_device[1, active[1]], 0.5)
    assert np.all(per_device[~active] == 0.0)
    # per-device totals conserved
    assert np.allclose((per_device * active).sum(axis=1), 1.0)


def _delivered(h, h_est, p, active=True):
    """Re{h rho} for one device per trial, with the truncated-inversion
    precoder rho = sqrt(p) conj(h_est) / |h_est|^2, as sweeps form it: from
    the residual Re{h / h_est}, taken as 1 for a zero channel, as the draw
    gives it under perfect CSI."""
    h = np.asarray(h, dtype=complex).reshape(1, -1, 1)  # device-major (K, T, L)
    h_est = np.asarray(h_est, dtype=complex).reshape(1, -1, 1)
    residual = np.divide(h, h_est, out=np.ones(h.shape, complex), where=h_est != 0).real
    active = np.broadcast_to(active, h.shape)
    p = np.full((h.shape[1], 1), p)
    return _received_sum(residual, active, p, np.ones(h.shape))[:, 0]


def test_preprocess_inverts_the_estimated_channel():
    assert _delivered(2.0, 2.0, 4.0).tolist() == [2.0]
    assert _delivered(1j, 1j, 1.0).tolist() == [1.0]
    assert _delivered(0.5, 0.5, 1.0, active=False).tolist() == [0.0]
    # the device inverts its estimate; the air applies the true channel
    assert _delivered(1.0, 2.0, 4.0).tolist() == [1.0]
    assert _delivered(1.0 + 1.0j, 2.0, 4.0).tolist() == [1.0]
    # a zero estimate cannot be inverted: it caps p at 0 (p <= |h_est|^2 P_k,
    # test_transmit_power_check_boundary), and its device adds nothing
    assert _delivered(0.0, 0.0, 0.0).tolist() == [0.0]


def test_preprocess_compensates_phase_exactly():
    rng = np.random.default_rng(6)
    h = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    assert np.allclose(_delivered(h, h, 2.0), math.sqrt(2.0), rtol=1e-12)


def test_transmit_power_check_boundary():
    # on the front end that sweeps run, every active device's inversion power
    # p / |h_est|^2 fits its budget P_k, checked in product form
    # p <= |h_est|^2 P_k, with equality at the weakest active device
    configs = [
        SimConfig(num_devices=6, trials=300),
        SimConfig(num_devices=6, trials=300, power_mode="geometric", varpi=2.0),
        SimConfig(num_devices=6, trials=300, reallocate=True, csi_error_radius=0.2),
        SimConfig(num_devices=6, trials=300, scheme="analog", analog_threshold=0.5),
    ]
    for config in configs:
        budgets = config.budgets()
        batch = next(_batches(config))
        power_est = batch[1]
        sigma2s = [config.sigma2(-10.0), config.sigma2(20.0)]
        fronts = _front(config, *batch[:3], sigma2s)  # analog: one front end
        for sigma2, front in zip(sigma2s, fronts):
            mask = _select(config, power_est.transpose(1, 0, 2), [sigma2])[2][0]
            active, p = mask.transpose(1, 0, 2), front["p"]
            if config.reallocate:
                caps = power_est * reallocate_power(budgets, active)
            else:
                caps = power_est * budgets
            assert np.all(~active | (p[:, None, :] <= caps)), config
            some = active.any(axis=1)
            weakest = np.where(active, caps, np.inf).min(axis=1)
            assert np.array_equal(p[some], weakest[some]), config
            assert np.all(p[~some] == 0.0), config
        if config.scheme == "analog":
            assert (~some).any() and some.any()  # the threshold silences some


def test_lmmse_coefficients_known_value():
    lam, mu = lmmse_coefficients(1.0, 4, 4, 1.0)
    assert lam == pytest.approx(4.0 / 9.0, rel=1e-15)
    assert mu == 2.0


def test_lmmse_falls_back_to_prior_mean_without_signal():
    lam, mu = lmmse_coefficients(0.0, 4, 10, 1.0)
    assert lam == 0.0
    assert mu == 5.0


def test_noiseless_lmmse_recovers_bit_sum_exactly():
    K = 8
    rng = np.random.default_rng(2)
    for _ in range(200):
        bits = rng.integers(0, 2, size=K)
        p = 0.25
        y = math.sqrt(p) * (2.0 * bits - 1.0).sum()
        lam, mu = lmmse_coefficients(p, K, K, 0.0)
        assert lam * y + mu == float(bits.sum())
        assert ml_lattice_estimate(y, p, K) == float(bits.sum())


def test_ml_lattice_estimate_rounds_and_clips():
    p = 1.0
    n = 4
    # y = sqrt(p) (2r - n): r=3 -> y=2
    assert ml_lattice_estimate(2.0, p, n) == 3.0
    # midpoint between r=2 and r=3 (y=1) resolves to the lower sum
    assert ml_lattice_estimate(1.0, p, n) == 2.0
    # far outside the lattice clips to the edges
    assert ml_lattice_estimate(50.0, p, n) == 4.0
    assert ml_lattice_estimate(-50.0, p, n) == 0.0
    # no signal -> 0
    assert ml_lattice_estimate(3.0, 0.0, n) == 0.0
    assert ml_lattice_estimate(3.0, p, 0) == 0.0


def test_mse_closed_form_known_values():
    assert mse_closed_form(4.0, 2, 3, 1.0) == pytest.approx(19.0 / 68.0, rel=1e-15)
    # no transmission leaves the prior variance K/4
    assert mse_closed_form(0.0, 5, 12, 1.0) == 12.0 / 4.0
    # noise-free full activation is error-free
    assert mse_closed_form(1.0, 6, 6, 0.0) == 0.0


def test_mse_closed_form_matches_empirical_lmmse():
    rng = np.random.default_rng(17)
    for _ in range(5):
        K = int(rng.integers(2, 15))
        n = int(rng.integers(1, K + 1))
        p = float(10.0 ** rng.uniform(-1, 1))
        sigma2 = float(10.0 ** rng.uniform(-1, 1))
        bits = rng.integers(0, 2, size=(40_000, K))
        y = math.sqrt(p) * (2.0 * bits[:, :n].sum(axis=1) - n) + (
            math.sqrt(sigma2 / 2.0) * rng.standard_normal(40_000)
        )
        lam, mu = lmmse_coefficients(p, n, K, sigma2)
        sq = (lam * y + mu - bits.sum(axis=1)) ** 2
        closed = mse_closed_form(p, n, K, sigma2)
        assert sq.mean() == pytest.approx(closed, abs=3.0 * sq.std(ddof=1) / 200.0)


def test_ml_loses_to_lmmse_in_deep_noise():
    K, n = 10, 10
    p, sigma2 = 0.01, 10.0
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2, size=(50_000, K))
    r = bits.sum(axis=1)
    y = math.sqrt(p) * (2.0 * r - n) + math.sqrt(sigma2 / 2.0) * rng.standard_normal(50_000)
    lam, mu = lmmse_coefficients(p, n, K, sigma2)
    lmmse_mse = ((lam * y + mu - r) ** 2).mean()
    ml_mse = ((ml_lattice_estimate(y, p, np.full(50_000, n)) - r) ** 2).mean()
    assert lmmse_mse < ml_mse


def test_plan_detector_coefficients_match_free_function():
    # the sweeps' LMMSE back end applies lmmse_coefficients to each
    # subcarrier's plan (p, n_active) with the config's K and noise power
    config = SimConfig(num_devices=5, trials=1)
    rng = np.random.default_rng(4)
    p = rng.uniform(0.0, 2.0, size=(3, 8))
    p[0, 0] = 0.0
    n_active = rng.integers(0, 6, size=(3, 8))
    received = rng.standard_normal((3, 8))
    front = {"p": p, "n_active": n_active, "noiseless": received}
    out = _back(config, front, np.zeros_like(received), 0.3)
    lam, mu = lmmse_coefficients(p, n_active, 5, 0.3)
    assert np.array_equal(out["estimates"], lam * received + mu)
