"""End-to-end simulator: exact recovery, baselines, floors, reproducibility."""

import json
import math
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from aircomp import codec, simulator
from aircomp.channel import (
    ChannelParams,
    NetworkRealization,
    draw_channel,
    draw_channel_batch,
)
from aircomp.simulator import (
    BATCH,
    SharedSweeps,
    SimConfig,
    _batches,
    _draw_key,
    _draw_sources,
    _front_key,
    quantization_nmse_floor,
    run_trial,
    sweep,
    sweep_to_csv,
)
from aircomp.selection import greedy_select_batch
from aircomp.transceiver import ml_lattice_estimate, reallocate_power

K, L = 20, 8


def unit_gain_realization(noise_power=0.0, num_devices=K, num_subcarriers=L):
    ones = np.ones((num_devices, num_subcarriers))
    return NetworkRealization(power_est=ones, residual=ones.copy(), noise_power=noise_power)


def random_noiseless_realization(seed):
    params = ChannelParams(num_devices=K, num_subcarriers=L)
    return draw_channel(params, seed=seed, noise_power=0.0)


def test_noiseless_unit_gain_trial_is_bit_exact():
    # p_max = 2 gives per-plane budgets of 1/4 and amplitudes of exactly 1/2,
    # so every float in the pipeline is a dyadic rational and the decoded sum
    # equals the quantized sum bit for bit
    config = SimConfig(p_max=2.0, trials=1)
    rng = np.random.default_rng(np.random.SeedSequence((1, 0, 0)))
    record = run_trial(config, unit_gain_realization(), rng)
    assert record.s_hat == record.s_quant
    assert record.squared_error_transmission == 0.0
    assert record.active_counts.tolist() == [K] * L


def test_noiseless_random_channel_recovers_quantized_sum():
    for seed in range(5):
        config = SimConfig(trials=1)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
        record = run_trial(config, random_noiseless_realization(seed + 10), rng)
        assert record.s_hat == pytest.approx(record.s_quant, rel=1e-9, abs=1e-12)


def test_noiseless_ml_detector_is_also_exact():
    config = SimConfig(trials=1, detector="ml")
    rng = np.random.default_rng(np.random.SeedSequence((3, 0, 0)))
    record = run_trial(config, random_noiseless_realization(4), rng)
    assert record.s_hat == pytest.approx(record.s_quant, rel=1e-9, abs=1e-12)
    assert np.array_equal(record.estimates, record.bit_sums)


def test_noiseless_offset_binary_is_exact():
    config = SimConfig(trials=1, scheme="binary_ml", detector="ml")
    rng = np.random.default_rng(np.random.SeedSequence((3, 0, 0)))
    record = run_trial(config, random_noiseless_realization(8), rng)
    assert record.s_hat == pytest.approx(record.s_quant, rel=1e-12)


def test_dead_channel_returns_prior_mean():
    # a dead channel is estimated as dead; perfect CSI leaves a residual of 1
    realization = NetworkRealization(
        power_est=np.zeros((K, L)), residual=np.ones((K, L)), noise_power=0.5
    )
    config = SimConfig(trials=1)
    record = run_trial(config, realization, np.random.default_rng(5))
    zeta = config.quantizer().zeta
    # every per-plane estimate falls back to K/2, which decodes to -K/(2 zeta)
    assert record.s_hat == -(K / 2.0) / zeta
    assert np.all(record.scalings == 0.0)


def test_run_trial_is_deterministic():
    config = SimConfig(trials=1)
    realization = random_noiseless_realization(2)
    a = run_trial(config, realization, np.random.default_rng(7))
    b = run_trial(config, realization, np.random.default_rng(7))
    assert a.s_hat == b.s_hat
    assert np.array_equal(a.sources, b.sources)
    assert np.array_equal(a.received, b.received)


def test_run_trial_validates_realization_shape():
    config = SimConfig(trials=1)
    with pytest.raises(ValueError):
        run_trial(config, unit_gain_realization(num_devices=3), np.random.default_rng(0))


def test_analog_noiseless_recovery_is_exact():
    config = SimConfig(scheme="analog", analog_threshold=0.0, trials=1)
    params = ChannelParams(num_devices=K, num_subcarriers=L)
    realization = draw_channel(params, seed=6, noise_power=0.0)
    record = run_trial(config, realization, np.random.default_rng(1))
    assert record.s_hat == pytest.approx(record.s_true, rel=1e-12)
    assert record.squared_error_quantization == 0.0
    assert record.lattice is None
    assert np.all(np.isnan(record.bit_sums))


def test_analog_with_everyone_silent_estimates_zero():
    config = SimConfig(scheme="analog", analog_threshold=1e12, trials=1)
    record = run_trial(
        config, unit_gain_realization(noise_power=0.1), np.random.default_rng(2)
    )
    assert record.s_hat == 0.0
    assert record.active_counts.tolist() == [0] * L
    # NMSE of the silent estimator is exactly 1
    records = [
        run_trial(
            config, unit_gain_realization(noise_power=0.1), np.random.default_rng(s)
        )
        for s in range(50)
    ]
    nmse = sum(r.squared_error_total for r in records) / sum(r.s_true**2 for r in records)
    assert nmse == 1.0


def test_analog_noise_variance_matches_closed_form():
    # flat unit channel: estimate = true sum + (s_max/L) sum_l Re(n_l)/sqrt(p_l)
    # with p_l = p_max / L, giving variance s_max^2 sigma^2 / (2 p_max) for
    # any number of repetition subcarriers
    sigma2 = 0.08
    for subcarriers in (2, 8):
        config = SimConfig(
            scheme="analog",
            analog_threshold=0.0,
            num_subcarriers=subcarriers,
            trials=1,
        )
        realization = unit_gain_realization(
            noise_power=sigma2, num_subcarriers=subcarriers
        )
        rng = np.random.default_rng(13)
        errs = []
        for _ in range(4000):
            record = run_trial(config, realization, rng)
            errs.append(record.s_hat - record.s_true)
        errs = np.array(errs)
        expected = sigma2 / 2.0
        assert errs.mean() == pytest.approx(
            0.0, abs=3.0 * math.sqrt(expected / 4000)
        )
        assert errs.var() == pytest.approx(
            expected, abs=3.0 * expected * math.sqrt(2.0 / 4000)
        )


def test_quantization_floor_uniform_matches_monte_carlo():
    config = SimConfig()
    floor = quantization_nmse_floor(config)
    zeta = config.quantizer().zeta
    rng = np.random.default_rng(1234)
    groups = 100_000
    s = rng.uniform(-1.0, 1.0, size=(groups, K))
    v = np.floor(zeta * s)
    err = (v.sum(axis=1) / zeta - s.sum(axis=1)) ** 2
    emp = err.sum() / (s.sum(axis=1) ** 2).sum()
    se = err.std(ddof=1) / math.sqrt(groups) / np.mean(s.sum(axis=1) ** 2)
    assert emp == pytest.approx(floor, abs=3.0 * se)
    # reference magnitude for the default setup
    assert floor == pytest.approx(9.31e-4, rel=0.01)


def test_quantization_floor_gaussian_matches_monte_carlo():
    config = SimConfig(source="gaussian", num_devices=5)
    floor = quantization_nmse_floor(config)
    zeta = config.quantizer().zeta
    std = config.effective_source_std
    rng = np.random.default_rng(99)
    groups = 100_000
    s = std * rng.standard_normal((groups, 5))
    v = np.floor(zeta * np.clip(s, -1.0, 1.0))
    err = (v.sum(axis=1) / zeta - s.sum(axis=1)) ** 2
    emp = err.sum() / (s.sum(axis=1) ** 2).sum()
    se = err.std(ddof=1) / math.sqrt(groups) / np.mean(s.sum(axis=1) ** 2)
    assert emp == pytest.approx(floor, abs=3.0 * se)


def test_quantization_floor_rejects_unclamped_gaussian():
    # no finite floor exists for an unclamped gaussian, so no such config does
    with pytest.raises(ValueError, match=r"^source = gaussian needs clamp = true"):
        SimConfig(source="gaussian", clamp=False)


def test_sweep_is_deterministic_across_runs():
    config = SimConfig(trials=10_000, snr_db_grid=(0.0,))
    a = sweep(config).points[0]
    b = sweep(config).points[0]
    assert a.nmse == b.nmse
    assert a.stderr == b.stderr
    assert a.mean_active == b.mean_active
    assert a.mean_p == b.mean_p


def test_sweep_point_fields_are_sane():
    config = SimConfig(trials=5_000, snr_db_grid=(5.0,))
    pt = sweep(config).points[0]
    assert pt.scheme == "proposed"
    assert pt.snr_db == 5.0
    assert 0.0 < pt.nmse < 1.0
    assert pt.stderr > 0.0
    assert 0.0 < pt.mean_active <= K
    assert pt.mean_p > 0.0
    assert pt.trials == 5_000
    assert pt.mse_total > pt.mse_quantization  # transmission noise dominates


def test_gaussian_source_sweep_runs():
    config = SimConfig(source="gaussian", trials=2_000, snr_db_grid=(10.0,))
    pt = sweep(config).points[0]
    assert 0.0 < pt.nmse < 1.0


def test_reallocation_never_reduces_received_power():
    params = ChannelParams(num_devices=K, num_subcarriers=L)
    for seed in range(10):
        realization = draw_channel(params, seed=seed, noise_power=0.01)
        base = run_trial(
            SimConfig(trials=1), realization, np.random.default_rng(seed)
        )
        realloc = run_trial(
            SimConfig(trials=1, reallocate=True),
            realization,
            np.random.default_rng(seed),
        )
        assert np.array_equal(base.active, realloc.active)
        assert np.all(realloc.scalings >= base.scalings - 1e-15)


@pytest.mark.parametrize(
    "config",
    [
        SimConfig(trials=1, reallocate=True, allow_empty=True),
        SimConfig(trials=1, scheme="analog", analog_threshold=0.5),
    ],
)
def test_a_trial_reports_the_active_set_its_front_end_used(config):
    # the record's mask counts the active devices and caps p at the weakest
    # of them, after reallocation where it is on
    params = ChannelParams(num_devices=K, num_subcarriers=L, csi_error_radius=0.2)
    budgets = config.budgets()
    for seed in range(5):
        realization = draw_channel(params, seed=seed, noise_power=config.sigma2(-10.0))
        record = run_trial(config, realization, np.random.default_rng(seed))
        active = record.active
        assert np.array_equal(active.sum(axis=0), record.active_counts)
        per_device = reallocate_power(budgets, active) if config.reallocate else budgets
        caps = np.where(active, realization.power_est * per_device, np.inf).min(axis=0)
        assert np.array_equal(record.scalings, np.where(active.any(axis=0), caps, 0.0))


def test_round_estimates_keeps_noiseless_exactness():
    config = SimConfig(p_max=2.0, trials=1, round_estimates=True)
    rng = np.random.default_rng(np.random.SeedSequence((1, 0, 0)))
    record = run_trial(config, unit_gain_realization(), rng)
    assert record.s_hat == record.s_quant


def test_sweep_csv_layout_and_reproducibility(tmp_path):
    config = SimConfig(trials=2_000, snr_db_grid=(0.0, 10.0))
    result = sweep(config)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    sweep_to_csv(result, path_a)
    sweep_to_csv(sweep(config), path_b)
    text = path_a.read_text()
    lines = text.strip().splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    assert meta["trials"] == 2_000
    assert meta["scheme"] == "proposed"
    assert lines[1] == "scheme,snr_db,nmse,stderr,mean_active,mean_p,trials,seed"
    assert len(lines) == 2 + 2
    first = lines[2].split(",")
    assert first[0] == "proposed"
    assert float(first[1]) == 0.0
    assert path_a.read_bytes() == path_b.read_bytes()


def _per_batch_draws(config):
    """The draws of a sweep as a loop over batches that seeds each batch's
    stream by (seed, 0, batch_index) itself and draws the complex receiver
    noise; every grid point reads these batches."""
    params, mimo, L = config.channel_params(), config.mimo(), config.num_subcarriers
    for batch_index, done in enumerate(range(0, config.trials, BATCH)):
        n = min(BATCH, config.trials - done)
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0, batch_index)))
        sources = _draw_sources(config, n, rng)
        power_est, residual = draw_channel_batch(params, n, rng, mimo=mimo)
        noise = rng.standard_normal((n, L)) + 1j * rng.standard_normal((n, L))
        yield sources, power_est, residual, noise


@pytest.mark.parametrize(
    "config",
    [
        SimConfig(trials=2_000, seed=4),
        SimConfig(num_devices=5, trials=BATCH + 8, csi_error_radius=0.2),
        SimConfig(num_devices=5, trials=300, source="gaussian", n_tx=2, n_rx=2),
    ],
)
def test_batches_follow_the_stream_contract(config):
    # the batch generator every sweep runs draws exactly what a per-batch
    # loop seeded by (seed, 0, batch_index) draws, bit for bit; its noise is
    # the real part of that loop's complex noise, drawn first
    drawn = list(_batches(config))
    expected = list(_per_batch_draws(config))
    assert len(drawn) == len(expected) == -(-config.trials // BATCH)
    for batch, ref in zip(drawn, expected):
        ref = ref[:3] + (ref[3].real,)
        for a, b in zip(batch, ref):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # the channel and the noise arrive as real arrays, never complex
        assert not any(np.iscomplexobj(a) for a in batch)


def _inversion_coefficients_oracle(residual, active, p):
    return np.sqrt(p)[:, None, :] * np.where(active, residual, 0.0)


def _coded_batch_oracle(config, sources, power_est, residual, noise, sigma2):
    K = config.num_devices
    L = config.num_subcarriers
    spec, budgets = config.quantizer(), config.budgets()
    v = codec.quantize(sources, spec, clamp=config.source == "gaussian")
    if config.scheme == "binary_ml":
        bits = codec.encode_offset_binary(v, L)
    else:
        bits = codec.encode(v, L)

    gains = power_est * budgets
    n_act, p, active = greedy_select_batch(gains, sigma2, config.allow_empty)
    if config.reallocate:
        per_device = reallocate_power(budgets, active)
        regained = np.where(active, power_est * per_device, np.inf).min(axis=1)
        p = np.where(n_act > 0, regained, 0.0)

    amp = _inversion_coefficients_oracle(residual, active, p)
    symbols = 2 * bits - 1
    y = (amp * symbols).sum(axis=1) + np.sqrt(sigma2 / 2.0) * noise

    n_f = n_act.astype(np.float64)
    if config.detector == "ml":
        r_hat = ml_lattice_estimate(y.real, p, n_act) + (K - n_f) / 2.0
    else:
        denom = 2.0 * p * n_f + sigma2
        lam = np.zeros_like(denom)
        np.divide(np.sqrt(p) * n_f, denom, out=lam, where=denom > 0)
        r_hat = lam * y.real + K / 2.0
    if config.round_estimates:
        r_hat = np.clip(np.rint(r_hat), 0.0, float(K))

    if config.scheme == "binary_ml":
        s_hat = codec.decode_offset_binary(r_hat, spec.zeta, K)
    else:
        s_hat = codec.decode(r_hat, spec.zeta)

    return {
        "s_true": sources.sum(axis=1),
        "s_quant": v.sum(axis=1) / spec.zeta,
        "s_hat": s_hat,
        "lattice": v,
        "n_active": n_act,
        "p": p,
        "bit_sums": bits.sum(axis=1).astype(np.float64),
        "estimates": r_hat,
        "received": y,
        "active": active,
    }


def _analog_batch_oracle(config, sources, power_est, residual, noise, sigma2):
    L = config.num_subcarriers
    budget = config.p_max / L
    active = power_est >= config.analog_threshold
    p = np.where(active, power_est * budget, np.inf).min(axis=1)
    p = np.where(np.isfinite(p), p, 0.0)

    amp = _inversion_coefficients_oracle(residual, active, p)
    u = sources / config.s_max
    y = (amp * u[:, :, None]).sum(axis=1) + np.sqrt(sigma2 / 2.0) * noise

    scaled = np.zeros_like(p)
    np.divide(y.real, np.sqrt(p), out=scaled, where=p > 0)
    estimates = config.s_max * scaled
    s_true = sources.sum(axis=1)
    return {
        "s_true": s_true,
        "s_quant": s_true.copy(),
        "s_hat": estimates.mean(axis=1),
        "lattice": None,
        "n_active": active.sum(axis=1),
        "p": p,
        "bit_sums": np.full(p.shape, np.nan),
        "estimates": estimates,
        "received": y,
        "active": active,
    }


def _simulate_oracle(config, sources, power_est, residual, noise, sigma2):
    """The whole-batch pipeline that _front's chunks replaced: it forms the
    superposition, with the complex noise, over (T, K, L) arrays in one
    piece.  _back on _front must return the same bits, with Re{y} as its
    received output."""
    args = (sources, power_est, residual, noise, sigma2)
    if config.scheme == "analog":
        return _analog_batch_oracle(config, *args)
    return _coded_batch_oracle(config, *args)


def _oracle_configs() -> list[SimConfig]:
    """Every scheme and receiver option; four draw keys."""
    return [
        SimConfig(),
        SimConfig(detector="ml"),
        SimConfig(scheme="binary_ml", detector="ml"),
        SimConfig(scheme="analog", analog_threshold=0.02),
        SimConfig(power_mode="geometric", varpi=2.0),
        SimConfig(reallocate=True, allow_empty=True),
        SimConfig(round_estimates=True),
        SimConfig(csi_error_radius=0.2),
        SimConfig(source="gaussian", reallocate=True),
        SimConfig(n_tx=2, n_rx=2),
    ]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


def _assert_matches_oracle(configs, trials):
    """_back on _front against the oracle on every batch of each draw key, at a
    low SNR (where allow_empty silences subcarriers), a high one and without
    noise."""
    groups: dict[tuple, list[SimConfig]] = {}
    for config in configs:
        groups.setdefault(_draw_key(replace(config, trials=trials)), []).append(config)
    for members in groups.values():
        for batch in _batches(replace(members[0], trials=trials)):
            for config in members:
                for sigma2 in (config.sigma2(-10.0), config.sigma2(20.0), 0.0):
                    (front,) = simulator._front(config, *batch, [sigma2])
                    out = simulator._back(config, front, sigma2)
                    ref = _simulate_oracle(config, *batch, sigma2)
                    where = (config, trials, sigma2)
                    for key in ("s_true", "s_quant", "s_hat", "estimates", "p"):
                        assert np.array_equal(_bits(out[key]), _bits(ref[key])), where
                    for key in ("n_active", "bit_sums"):
                        assert out[key].dtype == ref[key].dtype, where
                        assert np.array_equal(_bits(out[key]), _bits(ref[key])), where
                    active = simulator._select(config, batch[1], [sigma2])[2][0]
                    assert np.array_equal(active, ref["active"]), where
                    assert out["received"].dtype == np.float64, where
                    received = _bits(ref["received"].real)
                    assert np.array_equal(_bits(out["received"]), received), where
                    if ref["lattice"] is None:
                        assert out["lattice"] is None
                    else:
                        assert np.array_equal(out["lattice"], ref["lattice"]), where


# trials per chunk of _front at the default 20 devices and 8 subcarriers
CHUNK = simulator._CHUNK_BYTES // (K * L * 8)


@pytest.mark.parametrize(
    "trials", [1, 300, CHUNK, 2 * CHUNK - 1, 2 * CHUNK + 1, 3_000, BATCH + 1]
)
def test_simulate_is_bit_identical_to_the_whole_batch_oracle(trials):
    _assert_matches_oracle(_oracle_configs(), trials)


def test_simulate_matches_the_oracle_at_100_devices():
    configs = [
        SimConfig(num_devices=100, csi_error_radius=0.2, reallocate=True, allow_empty=True),
        SimConfig(num_devices=100, scheme="analog"),
    ]
    assert simulator._CHUNK_BYTES // (100 * L * 8) == 81
    _assert_matches_oracle(configs, 300)  # chunks of 81, 81 and 138 trials


@pytest.mark.parametrize("trials", [1, 2 * CHUNK + 1])
def test_a_block_of_noise_powers_matches_one_front_end_each(trials):
    # front j of a block is bit for bit the front end at its noise power
    # alone, for every scheme and receiver option of the oracle configs
    groups: dict[tuple, list[SimConfig]] = {}
    for config in _oracle_configs():
        groups.setdefault(_draw_key(replace(config, trials=trials)), []).append(config)
    for members in groups.values():
        batch = next(_batches(replace(members[0], trials=trials)))
        for config in members:
            sigma2s = [config.sigma2(-10.0), config.sigma2(20.0), config.sigma2(5.0)]
            fronts = simulator._front(config, *batch, sigma2s)
            assert len(fronts) == len(sigma2s)
            for sigma2, front in zip(sigma2s, fronts):
                (alone,) = simulator._front(config, *batch, [sigma2])
                assert front.keys() == alone.keys(), config
                for key, value in alone.items():
                    if value is None:
                        assert front[key] is None, (config, key)
                    else:
                        assert front[key].dtype == value.dtype, (config, key)
                        assert front[key].tobytes() == value.tobytes(), (config, key)


@pytest.mark.memory
def test_simulate_peak_memory_is_a_fraction_of_the_channel():
    config = SimConfig(
        num_devices=100, trials=BATCH, csi_error_radius=0.2, reallocate=True, allow_empty=True
    )
    sources, power_est, residual, noise = next(_batches(config))
    sigma2 = config.sigma2(0.0)
    tracemalloc.start()
    try:
        (front,) = simulator._front(config, sources, power_est, residual, noise, [sigma2])
        simulator._back(config, front, sigma2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # half the bytes of a complex channel of the batch: 8 per (trial, device,
    # subcarrier)
    assert peak < power_est.nbytes


def _sweep_peak(config: SimConfig) -> int:
    """tracemalloc's peak over a sweep of config, after an untraced sweep of
    it has made every one-time allocation of the process."""
    sweep(config)
    tracemalloc.start()
    try:
        sweep(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.memory
def test_a_sweep_holds_one_batch_at_a_time():
    # a sweep of four full batches over two grid points peaks no higher than
    # a sweep of one batch: each batch is freed before the next is drawn
    def peak(trials, grid):
        return _sweep_peak(
            SimConfig(num_devices=2, trials=trials, snr_db_grid=grid, csi_error_radius=0.2)
        )

    batch_bytes = 2 * BATCH * 2 * L * 8  # power_est and residual
    assert peak(2 * BATCH, (0.0, 10.0)) < peak(BATCH, (0.0,)) + batch_bytes / 4


@pytest.mark.memory
def test_a_sweep_peak_does_not_grow_with_the_grid():
    # at K = 20 an 18-point grid runs in three blocks of 6 noise powers, whose
    # whole-batch outputs take no more bytes than one batch's power_est; in
    # one block they would exceed it, beyond what the draw's own peak hides
    config = SimConfig(trials=BATCH, snr_db_grid=(0.0,))
    grid = tuple(np.linspace(-10.0, 75.0, 18))
    power_est_bytes = BATCH * K * L * 8
    assert _sweep_peak(replace(config, snr_db_grid=grid)) <= (
        _sweep_peak(config) + power_est_bytes
    )


def _mixed_configs() -> dict[str, SimConfig]:
    """Four draw keys: 1x1 uniform configs at 3000 trials (one partial
    batch, grids of unequal length), a 2x2 config and a CSI-error config
    that must not join them, and gaussian configs with CSI error at 8193
    trials (two batches).  "lmmse", "ml" and "rounded" share one front end
    at grid indices 0 and 1; every other config of a draw key differs from
    one of its front ends in exactly one field of the front key."""
    one = dict(seed=3, trials=3_000)
    two = dict(seed=3, trials=BATCH + 1, source="gaussian", csi_error_radius=0.2)
    pair = (-10.0, 10.0)
    shifted = (0.0, 20.0)  # with p_max = 10, the noise powers of pair
    analog = dict(scheme="analog", analog_threshold=0.02)
    return {
        "lmmse": SimConfig(**one, snr_db_grid=(-10.0, 10.0, 55.0, 60.0)),
        "ml": SimConfig(**one, snr_db_grid=pair, detector="ml"),
        "rounded": SimConfig(**one, snr_db_grid=pair, round_estimates=True),
        "binary_ml": SimConfig(
            **one, snr_db_grid=(-10.0,), scheme="binary_ml", detector="ml"
        ),
        "empty": SimConfig(**one, snr_db_grid=pair, allow_empty=True),
        "reallocate": SimConfig(**one, snr_db_grid=pair, reallocate=True),
        "p_max": SimConfig(**one, snr_db_grid=shifted, p_max=10.0),
        "snr": SimConfig(**one, snr_db_grid=(-5.0, 0.0)),
        "analog": SimConfig(**one, **analog, snr_db_grid=pair),
        "analog_p_max": SimConfig(**one, **analog, snr_db_grid=shifted, p_max=10.0),
        "analog_snr": SimConfig(**one, **analog, snr_db_grid=(-5.0, 0.0)),
        "threshold": SimConfig(
            **one, snr_db_grid=pair, scheme="analog", analog_threshold=0.05
        ),
        "mimo": SimConfig(**one, snr_db_grid=(-5.0, 10.0), n_tx=2, n_rx=2),
        "csi": SimConfig(**one, snr_db_grid=(0.0,), csi_error_radius=0.2),
        "gauss": SimConfig(**two, snr_db_grid=(0.0, 20.0), reallocate=True),
        "gauss_geometric": SimConfig(
            **two, snr_db_grid=(0.0, 20.0, 40.0), power_mode="geometric", varpi=2.0
        ),
        "gauss_varpi": SimConfig(
            **two, snr_db_grid=(0.0, 20.0), power_mode="geometric", varpi=3.0
        ),
    }


def test_shared_sweeps_match_separate_sweeps_byte_for_byte(tmp_path, monkeypatch):
    configs = _mixed_configs()
    for name, config in configs.items():
        sweep_to_csv(sweep(config), tmp_path / f"{name}-alone.csv")

    draws = Counter()
    fronts = Counter()  # front ends run per drawn batch
    front_keys = Counter()
    drawn = [None]  # the stream and shape of the latest draw

    def counted(params, n, rng, mimo=None):
        stream = rng.bit_generator.seed_seq.entropy
        drawn[0] = (stream, n, mimo.n_tx, mimo.n_rx, params.csi_error_radius)
        draws[drawn[0]] += 1
        return draw_channel_batch(params, n, rng, mimo=mimo)

    def counted_front(config, sources, power_est, residual, noise, sigma2s):
        fronts[drawn[0]] += 1
        for sigma2 in sigma2s:
            front_keys[drawn[0], _front_key(config), sigma2] += 1
        return front(config, sources, power_est, residual, noise, sigma2s)

    front = simulator._front
    monkeypatch.setattr(simulator, "draw_channel_batch", counted)
    monkeypatch.setattr(simulator, "_front", counted_front)
    shared = SharedSweeps(configs.values())
    points = {}
    # reversed, so a group's first call is not always for its first member
    for name in reversed(configs):
        result = sweep(configs[name], shared=shared)
        points[name] = result.points
        sweep_to_csv(result, tmp_path / f"{name}-shared.csv")

    for name, config in configs.items():
        alone = (tmp_path / f"{name}-alone.csv").read_bytes()
        assert (tmp_path / f"{name}-shared.csv").read_bytes() == alone, name
        assert [pt.snr_db for pt in points[name]] == list(config.snr_db_grid)
        assert all(pt.runtime > 0.0 for pt in points[name])

    # every draw key draws each batch exactly once, for all its grid points
    one = ((3, 0, 0), 3_000, 1, 1, 0.0)
    mimo = ((3, 0, 0), 3_000, 2, 2, 0.0)
    csi = ((3, 0, 0), 3_000, 1, 1, 0.2)
    two = [((3, 0, 0), BATCH, 1, 1, 0.2), ((3, 0, 1), 1, 1, 1, 0.2)]
    assert draws == Counter([one, mimo, csi] + two)
    # and evaluates each distinct (front key, noise power) once on it: of the
    # first key's 25 points, lmmse/ml/rounded share -10 dB and 10 dB, and the
    # other 19 are their own, 21 in all; the gaussian key's 7 points are 7
    assert front_keys and set(front_keys.values()) == {1}
    per_draw = Counter(key[0] for key in front_keys)
    assert per_draw == Counter({one: 21, mimo: 2, csi: 1, two[0]: 7, two[1]: 7})
    # with at most K // 3 = 6 noise powers per block, one _front call per
    # front key serves all its noise powers: 8 front keys on the first draw
    # key, and 3 on the gaussian one
    assert fronts == Counter({one: 8, mimo: 1, csi: 1, two[0]: 3, two[1]: 3})


def test_uniform_configs_that_differ_only_in_clamp_share_one_front_end(monkeypatch):
    # a uniform source never leaves [-s_max, s_max], so clamping it changes
    # no front end: both configs ride one _front call per batch, and their
    # points are equal
    config = SimConfig(trials=2_000, snr_db_grid=(0.0, 10.0))
    configs = [config, replace(config, clamp=True)]
    calls = Counter()
    front = simulator._front

    def counted_front(*args):
        calls[len(args[1]), len(args[5])] += 1
        return front(*args)

    monkeypatch.setattr(simulator, "_front", counted_front)
    shared = SharedSweeps(configs)
    results = [sweep(c, shared=shared) for c in configs]
    assert calls == Counter({(2_000, 2): 1})
    unclamped, clamped = ([replace(pt, runtime=0.0) for pt in r.points] for r in results)
    assert unclamped == clamped


def test_an_unclamped_member_fails_in_a_group_as_it_does_alone():
    # unclamped gaussian values can leave the quantizer's range, so such a
    # member is rejected as a config, before it can join a group or sweep
    clamped = SimConfig(source="gaussian", trials=2_000, snr_db_grid=(0.0,))
    with pytest.raises(ValueError, match=r"^source = gaussian needs clamp = true"):
        replace(clamped, clamp=False)


def test_shared_runtimes_add_up_to_the_group_wall_time(monkeypatch):
    configs = [_mixed_configs()[name] for name in ("lmmse", "ml", "analog")]
    front = simulator._front
    pause = 0.1

    def slow_front(*args):
        time.sleep(pause)
        return front(*args)

    monkeypatch.setattr(simulator, "_front", slow_front)
    shared = SharedSweeps(configs)
    t0 = time.perf_counter()
    results = [sweep(c, shared=shared) for c in configs]
    wall = time.perf_counter() - t0
    runtimes = [pt.runtime for r in results for pt in r.points]
    assert all(t > 0.0 for t in runtimes)
    # the first call ran the whole group; the others only returned results
    assert 0.8 * wall < sum(runtimes) <= wall
    # lmmse and ml share one block of four noise powers over their six
    # points and split its time; analog's block serves its two points
    lmmse, ml, analog = (r.points for r in results)
    for i in range(2):
        assert lmmse[i].runtime >= pause / 6 and ml[i].runtime >= pause / 6
        assert analog[i].runtime >= pause / 2
    assert lmmse[2].runtime >= pause / 6 and lmmse[3].runtime >= pause / 6


def _csv_rows(config, path):
    sweep_to_csv(sweep(config), path)
    return path.read_text().splitlines()[2:]


@pytest.mark.parametrize(
    "config",
    [
        SimConfig(num_devices=6, trials=BATCH + 5, seed=2, snr_db_grid=(-10.0, 0.0, 20.0)),
        SimConfig(
            num_devices=6,
            trials=1_500,
            seed=2,
            csi_error_radius=0.2,
            reallocate=True,
            snr_db_grid=(-5.0, 5.0, 15.0),
        ),
    ],
)
def test_a_grid_point_does_not_depend_on_the_rest_of_the_grid(config, tmp_path, monkeypatch):
    # row i of a sweep is byte for byte a one-point sweep at its SNR, with
    # the grid in either order
    grid = config.snr_db_grid
    forward = _csv_rows(config, tmp_path / "forward.csv")
    backward = _csv_rows(replace(config, snr_db_grid=grid[::-1]), tmp_path / "backward.csv")
    for i, snr_db in enumerate(grid):
        alone = _csv_rows(replace(config, snr_db_grid=(snr_db,)), tmp_path / "alone.csv")
        assert forward[i] == backward[-1 - i] == alone[0], snr_db

    # the two orders share each SNR's front end across grid indices: at
    # K = 6, blocks of at most 2 noise powers, split evenly, 1 + 2
    fronts = Counter()
    front = simulator._front

    def counted_front(*args):
        fronts[len(args[1]), len(args[5])] += 1
        return front(*args)

    monkeypatch.setattr(simulator, "_front", counted_front)
    configs = [config, replace(config, snr_db_grid=grid[::-1])]
    shared = SharedSweeps(configs)
    results = [sweep(c, shared=shared) for c in configs]
    untimed = [[replace(pt, runtime=0.0) for pt in r.points] for r in results]
    assert untimed[1][::-1] == untimed[0]
    batches = [len(sources) for sources, *_ in _batches(config)]
    assert fronts == Counter({(n, size): 1 for n in batches for size in (1, 2)})


def test_runtimes_share_the_draw_over_every_point_of_the_group(monkeypatch):
    draw = simulator.draw_channel_batch
    pause = 0.05

    def slow_draw(*args, **kwargs):
        time.sleep(pause)
        return draw(*args, **kwargs)

    monkeypatch.setattr(simulator, "draw_channel_batch", slow_draw)
    one = dict(num_devices=4, trials=BATCH + 3)
    configs = [
        SimConfig(**one, snr_db_grid=(0.0, 10.0)),
        SimConfig(**one, snr_db_grid=(-5.0, 5.0, 15.0), detector="ml"),
    ]
    shared = SharedSweeps(configs)
    t0 = time.perf_counter()
    results = [sweep(c, shared=shared) for c in configs]
    wall = time.perf_counter() - t0
    runtimes = [pt.runtime for r in results for pt in r.points]
    # the group's runtimes add up to its wall time, and each of the five
    # points carries an equal share of the two draws
    assert 0.8 * wall < sum(runtimes) <= wall
    assert min(runtimes) >= 2 * pause / 5


def test_shared_batches_are_read_only():
    for radius in (0.0, 0.2):
        config = SimConfig(trials=BATCH + 3, snr_db_grid=(0.0,), csi_error_radius=radius)
        sizes = []
        for batch in _batches(config):
            for array in batch:
                assert not array.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
            sizes.append(len(batch[0]))
        assert sizes == [BATCH, 3]


def test_shared_sweeps_reject_a_config_they_were_not_given():
    shared = SharedSweeps([SimConfig(trials=10, snr_db_grid=(0.0,))])
    with pytest.raises(ValueError, match="not one of the configs"):
        sweep(SimConfig(trials=10, snr_db_grid=(5.0,)), shared=shared)


def test_sigma2_follows_snr_definition():
    config = SimConfig()
    assert config.sigma2(0.0) == pytest.approx(1.0 / L)
    assert config.sigma2(10.0) == pytest.approx(1.0 / (10.0 * L))
    stronger = SimConfig(p_max=4.0)
    assert stronger.sigma2(0.0) == pytest.approx(4.0 / L)


def test_budget_helpers():
    config = SimConfig(power_mode="geometric", varpi=2.0)
    budgets = config.budgets()
    assert budgets.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(np.diff(budgets) > 0)
    assert np.allclose(SimConfig().budgets(), 1.0 / L)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"scheme": "carrier-pigeon"},
        {"source": "cauchy"},
        {"detector": "map"},
        {"power_mode": "random"},
        {"varpi": 0.5},
        {"power_mode": "uniform", "varpi": 2.0},
        {"scheme": "binary_ml"},  # needs detector=ml
        {"scheme": "analog", "power_mode": "geometric", "varpi": 2.0},
        {"bit_depth": 8, "num_subcarriers": 4},
        {"snr_db_grid": ()},
        {"snr_db_grid": (0.0, float("nan"))},
        {"snr_db_grid": (float("inf"),)},
        {"snr_db_grid": (float("-inf"),)},
        {"snr_db_grid": (1e6,)},  # 10^(snr/10) overflows
        {"snr_db_grid": (-1e6,)},  # ... or underflows to zero
        {"bit_depth": 64, "num_subcarriers": 64},
        {"bit_depth": 10**9, "num_subcarriers": 10**9},
        {"bit_depth": 60, "num_subcarriers": 60, "num_devices": 20},
        {"trials": 0},
        {"csi_error_radius": 1.0},
        {"csi_error_radius": -0.1},
        {"p_max": 0.0},
        {"s_max": 0.0},
        {"num_devices": 0},
        {"n_tx": 0},
        {"analog_threshold": -1.0},
        {"source_std": 0.0},
        {"seed": -1},
        {"bit_depth": 49, "num_subcarriers": 49},  # s_max + eps rounds to s_max
    ],
)
def test_config_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_config_accepts_the_largest_exact_bit_depth():
    # from 49 bits on the quantizer's guard term rounds away (QuantizerSpec);
    # 2^15 * 2^48 = 2^63: every int64 decoder sum still fits
    SimConfig(num_devices=2**15, bit_depth=48, num_subcarriers=48)
    SimConfig(num_devices=1, bit_depth=48, num_subcarriers=48, s_max=1e-3)


def test_config_normalizes_grid_to_floats():
    config = SimConfig(snr_db_grid=[0, 5, 10])
    assert config.snr_db_grid == (0.0, 5.0, 10.0)
    assert all(isinstance(x, float) for x in config.snr_db_grid)


def _rows(config: SimConfig) -> np.ndarray:
    """(nmse, stderr, mean_active, mean_p / p_max) per grid point."""
    return np.array(
        [(p.nmse, p.stderr, p.mean_active, p.mean_p / config.p_max) for p in sweep(config).points]
    )


@pytest.mark.parametrize(
    "base",
    [
        SimConfig(trials=2000, snr_db_grid=(-10.0, 0.0, 20.0)),
        SimConfig(trials=2000, snr_db_grid=(-10.0, 0.0, 20.0), detector="ml"),
        SimConfig(trials=2000, snr_db_grid=(-10.0, 0.0, 20.0), scheme="analog"),
    ],
    ids=["lmmse", "ml", "analog"],
)
def test_rows_at_the_accepted_scale_extremes_match_unit_scale(base):
    # NMSE does not depend on the scale of the sources or of the power: at
    # the smallest and largest s_max and p_max that validation accepts, every
    # row matches s_max = 1 and p_max = 1, and one float further is rejected
    K, b, L = base.num_devices, base.bit_depth, base.num_subcarriers
    tiny, top = np.finfo(np.float64).tiny, np.finfo(np.float64).max / 2.0**16 / K**2
    edges = {
        "s_max": (2.0 ** (b - 248), 2.0**231 / K),
        # the noise powers span p_max / (100 L) at 20 dB to p_max / (0.1 L) at -10 dB
        "p_max": (tiny * 100.0 * L, top * 0.1 * L),
    }
    expected = _rows(base)
    for key, (lo, hi) in edges.items():
        for edge, beyond in ((lo, 0.0), (hi, np.inf)):
            config = replace(base, **{key: edge})
            np.testing.assert_allclose(_rows(config), expected, rtol=1e-12, err_msg=key)
            with pytest.raises(ValueError, match=rf"^{key} = "):
                replace(base, **{key: float(np.nextafter(edge, beyond))})
