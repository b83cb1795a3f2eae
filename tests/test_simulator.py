"""End-to-end simulator: exact recovery, baselines, floors, reproducibility."""

import dataclasses
import json
import math
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import reference_configs
from aircomp import channel, codec, simulator
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


def unit_gain_realization(noise_power=0.0, num_devices=K, num_subcarriers=L, power_est=1.0):
    ones = np.ones((num_devices, num_subcarriers))
    return NetworkRealization(power_est=power_est * ones, residual=ones, noise_power=noise_power)


def random_noiseless_realization(seed):
    params = ChannelParams(num_devices=K, num_subcarriers=L)
    return draw_channel(params, seed=seed, noise_power=0.0)


def test_noiseless_unit_gain_trial_is_bit_exact():
    # estimated powers of 2 and per-plane budgets of 1/8 give amplitudes of
    # exactly 1/2, so every float in the pipeline is a dyadic rational and the
    # decoded sum equals the quantized sum bit for bit
    config = SimConfig(trials=1)
    rng = np.random.default_rng(np.random.SeedSequence((1, 0, 0)))
    record = run_trial(config, unit_gain_realization(power_est=2.0), rng)
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


@pytest.mark.parametrize("scheme", ["proposed", "binary_ml", "analog"])
def test_a_trial_records_the_bit_sums_of_its_own_codewords(scheme):
    # the true per-plane sums of the codewords the devices sent, which the
    # detector estimates; analog sends no bit-planes
    detector = "ml" if scheme == "binary_ml" else "lmmse"
    config = SimConfig(trials=1, scheme=scheme, detector=detector)
    params = ChannelParams(num_devices=K, num_subcarriers=L, csi_error_radius=0.2)
    for seed in range(3):
        realization = draw_channel(params, seed=seed, noise_power=config.sigma2(0.0))
        record = run_trial(config, realization, np.random.default_rng(seed))
        assert record.bit_sums.shape == (L,) and record.bit_sums.dtype == np.float64
        if scheme == "analog":
            assert np.all(np.isnan(record.bit_sums))
            continue
        encode = codec.encode_offset_binary if scheme == "binary_ml" else codec.encode
        assert np.array_equal(record.bit_sums, encode(record.lattice, L).sum(axis=0))


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
    # flat unit channel: estimate = true sum + (1/L) sum_l Re(n_l)/sqrt(p_l)
    # with p_l = 1 / L, giving variance sigma^2 / 2 for any number of
    # repetition subcarriers
    sigma2 = 0.08
    for subcarriers in (2, 8):
        config = SimConfig(
            scheme="analog",
            analog_threshold=0.0,
            bit_depth=subcarriers,
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


@pytest.mark.parametrize("b", [1, 2, 3])
def test_quantization_floor_uniform_matches_the_per_cell_integrals(b):
    # a slip in the partial edge cells' terms moves the default b = 8 floor by
    # under 1e-4 of it, inside the Monte Carlo bound above, and a b <= 3 floor
    # by 1e-3 or more; so each cell [m/zeta, (m+1)/zeta), clipped to [-1, 1],
    # is integrated exactly here
    config = SimConfig(num_devices=3, bit_depth=b)
    zeta = config.quantizer().zeta
    mean_e = second_e = 0.0
    for m in range(-(2 ** (b - 1)), 2 ** (b - 1)):
        lo, hi = max(m / zeta, -1.0), min((m + 1) / zeta, 1.0)
        if lo < hi:  # e = q - s over s ~ U[-1, 1], density 1/2
            q = m / zeta
            mean_e += (hi - lo) * (q - (lo + hi) / 2) / 2
            second_e += ((q - lo) ** 3 - (q - hi) ** 3) / 6
    expected = (3 * second_e + 3 * 2 * mean_e**2) / (3 * (1.0 / 3.0))
    assert quantization_nmse_floor(config) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "changes, got",
    [
        pytest.param({"source": "gaussian"}, "proposed on gaussian", id="gaussian"),
        pytest.param({"scheme": "analog"}, "analog on uniform", id="analog"),
    ],
)
def test_the_floor_refuses_what_has_no_uniform_quantizer_floor(changes, got):
    # a gaussian source clips, and analog has no quantizer: neither has this floor
    with pytest.raises(ValueError) as info:
        quantization_nmse_floor(SimConfig(**changes))
    assert str(info.value) == f"the floor is for coded schemes on uniform sources, got {got}"


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


def test_the_csv_records_the_source_std_it_used(tmp_path):
    config = SimConfig(source="gaussian", trials=200, snr_db_grid=(10.0,))
    result = sweep(config)
    sweep_to_csv(result, tmp_path / "g.csv")
    line = (tmp_path / "g.csv").read_text().splitlines()[0]
    assert '"source_std": 0.3333333333333333' in line
    assert SimConfig(**json.loads(line[2:])) == result.config


def _per_batch_draws(config):
    """The draws of a sweep as a loop over batches that seeds each batch's
    stream by (seed, 0, batch_index) itself and draws the complex receiver
    noise; every grid point reads these batches."""
    params, mimo, L = config.channel_params(), config.mimo(), config.bit_depth
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
    L = config.bit_depth
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

    if config.csi_error_radius == 0.0:  # every active term is +-sqrt(p): count
        n_ones = (active & (bits == 1)).sum(axis=1)
        y = np.sqrt(p) * (2 * n_ones - n_act) + np.sqrt(sigma2 / 2.0) * noise
    else:
        amp = _inversion_coefficients_oracle(residual, active, p)
        y = (amp * (2 * bits - 1)).sum(axis=1) + np.sqrt(sigma2 / 2.0) * noise

    n_f = n_act.astype(np.float64)
    if config.detector == "ml":
        r_hat = ml_lattice_estimate(y.real, p, n_act) + (K - n_f) / 2.0
    else:
        denom = 2.0 * p * n_f + sigma2
        lam = np.zeros_like(denom)
        np.divide(np.sqrt(p) * n_f, denom, out=lam, where=denom > 0)
        r_hat = lam * y.real + K / 2.0
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
        "estimates": r_hat,
        "received": y,
        "active": active,
    }


def _analog_batch_oracle(config, sources, power_est, residual, noise, sigma2):
    L = config.bit_depth
    budget = 1.0 / L
    active = power_est >= config.analog_threshold
    p = np.where(active, power_est * budget, np.inf).min(axis=1)
    p = np.where(np.isfinite(p), p, 0.0)

    amp = _inversion_coefficients_oracle(residual, active, p)
    y = (amp * sources[:, :, None]).sum(axis=1) + np.sqrt(sigma2 / 2.0) * noise

    scaled = np.zeros_like(p)
    np.divide(y.real, np.sqrt(p), out=scaled, where=p > 0)
    s_true = sources.sum(axis=1)
    return {
        "s_true": s_true,
        "s_quant": s_true.copy(),
        "s_hat": scaled.mean(axis=1),
        "lattice": None,
        "n_active": active.sum(axis=1),
        "p": p,
        "estimates": scaled,
        "received": y,
        "active": active,
    }


def _simulate_oracle(config, sources, power_est, residual, noise, sigma2):
    """The whole-batch pipeline that _front's chunks replaced: it forms the
    superposition, with the complex noise, over (T, K, L) arrays in one
    piece.  The pass, _front with _back inside, must return the same bits,
    with Re{y} as its received output."""
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
        SimConfig(scheme="binary_ml", detector="ml", csi_error_radius=0.2),
        SimConfig(scheme="analog", analog_threshold=0.02),
        SimConfig(power_mode="geometric", varpi=2.0),
        SimConfig(reallocate=True, allow_empty=True),
        SimConfig(csi_error_radius=0.2),
        SimConfig(source="gaussian", reallocate=True),
        SimConfig(n_tx=2, n_rx=2),
    ]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


FRONT_KEYS = ("lattice", "n_active", "p", "noiseless")
ALL_KEYS = FRONT_KEYS + ("received", "estimates", "s_hat")


def _pass_outputs(config, batch, sigma2s, keep=ALL_KEYS) -> list[dict]:
    """One pass of config over batch with a point at each noise power, each
    config's own back end, as a sweep forms it: coded schemes select per
    noise power, analog once for all.  Per point, a dict of the batch's
    shared values and the point's whole-batch outputs named in keep."""
    if config.scheme == "analog":
        selections = [(None, [(config, sigma2) for sigma2 in sigma2s])]
    else:
        selections = [(sigma2, [(config, sigma2)]) for sigma2 in sigma2s]
    shared, fronts = simulator._front(config, batch, selections, keep)
    outs = [out for front in fronts for out in front["points"]]
    return [shared | {key: out[key] for key in keep if key in out} for out in outs]


def _assert_matches_oracle(configs, trials):
    """The pass against the oracle on every batch of each draw key, at a low
    SNR (where allow_empty silences subcarriers), a high one and without
    noise."""
    groups: dict[tuple, list[SimConfig]] = {}
    for config in configs:
        groups.setdefault(_draw_key(replace(config, trials=trials)), []).append(config)
    for members in groups.values():
        for batch in _batches(replace(members[0], trials=trials)):
            for config in members:
                for sigma2 in (config.sigma2(-10.0), config.sigma2(20.0), 0.0):
                    (out,) = _pass_outputs(config, batch, [sigma2])
                    ref = _simulate_oracle(config, *batch, sigma2)
                    if config.scheme == "binary_ml":  # the pass's top plane: two's complement
                        ref["received"] = ref["received"].real.copy()
                        ref["received"][:, -1] = 0.0 - ref["received"][:, -1]
                        ref["estimates"][:, -1] = config.num_devices - ref["estimates"][:, -1]
                    where = (config, trials, sigma2)
                    for key in ("s_true", "s_quant", "s_hat", "estimates", "p"):
                        assert np.array_equal(_bits(out[key]), _bits(ref[key])), where
                    assert out["n_active"].dtype == ref["n_active"].dtype, where
                    assert np.array_equal(out["n_active"], ref["n_active"]), where
                    gains = batch[1].transpose(1, 0, 2)  # device-major
                    active = simulator._select(config, gains, [sigma2])[2][0]
                    assert np.array_equal(active.transpose(1, 0, 2), ref["active"]), where
                    assert out["received"].dtype == np.float64, where
                    received = _bits(ref["received"].real)
                    assert np.array_equal(_bits(out["received"]), received), where
                    if ref["lattice"] is None:
                        assert out["lattice"] is None
                    else:
                        assert np.array_equal(out["lattice"], ref["lattice"]), where


# trials per chunk of _front at the default 20 devices and 8 subcarriers
CHUNK = channel._CHUNK_ELEMENTS // (K * L)


@pytest.mark.parametrize("trials", [1, 300, CHUNK, 2 * CHUNK - 1, 2 * CHUNK + 1, 3_000])
def test_simulate_is_bit_identical_to_the_whole_batch_oracle(trials):
    _assert_matches_oracle(_oracle_configs(), trials)


def test_simulate_is_bit_identical_to_the_oracle_across_a_batch_boundary(monkeypatch):
    # a batch of two chunks, then a 1-trial batch on the stream (seed, 0, 1)
    monkeypatch.setattr(simulator, "BATCH", 2 * CHUNK + 1)
    config = SimConfig(trials=simulator.BATCH + 1)
    assert [len(batch[0]) for batch in _batches(config)] == [2 * CHUNK + 1, 1]
    _assert_matches_oracle(_oracle_configs(), simulator.BATCH + 1)


def test_simulate_matches_the_oracle_at_100_devices():
    configs = [
        SimConfig(num_devices=100, csi_error_radius=0.2, reallocate=True, allow_empty=True),
        SimConfig(num_devices=100, scheme="analog"),
    ]
    assert channel._CHUNK_ELEMENTS // (100 * L) == 81
    _assert_matches_oracle(configs, 300)  # chunks of 81, 81 and 138 trials


@pytest.mark.parametrize("trials", [1, 2 * CHUNK + 1])
def test_a_block_of_noise_powers_matches_one_front_end_each(trials):
    # point j of a pass over several noise powers is bit for bit the pass at
    # its noise power alone, front end and back end, for every scheme and
    # receiver option of the oracle configs; analog's one front end is that
    # of each noise power alone
    groups: dict[tuple, list[SimConfig]] = {}
    for config in _oracle_configs():
        groups.setdefault(_draw_key(replace(config, trials=trials)), []).append(config)
    for members in groups.values():
        batch = next(_batches(replace(members[0], trials=trials)))
        for config in members:
            sigma2s = [config.sigma2(-10.0), config.sigma2(20.0), config.sigma2(5.0)]
            fronts = _pass_outputs(config, batch, sigma2s)
            assert len(fronts) == len(sigma2s)
            for sigma2, front in zip(sigma2s, fronts):
                (alone,) = _pass_outputs(config, batch, [sigma2])
                assert front.keys() == alone.keys(), config
                for key, value in alone.items():
                    if value is None:
                        assert front[key] is None, (config, key)
                    else:
                        assert front[key].dtype == value.dtype, (config, key)
                        assert front[key].tobytes() == value.tobytes(), (config, key)


def test_the_counted_superposition_is_the_device_order_sum_up_to_rounding():
    # at radius 0 every active term is +-sqrt(p), so _front counts: the
    # noiseless Re{y} is sqrt(p) (2r - n), one rounding of an exact integer.
    # The device-order float sum it replaced adds K terms, each rounding by
    # at most eps times the sum so far, which is at most sqrt(p) n
    eps = np.finfo(np.float64).eps
    differ = 0
    for config in _oracle_configs():
        if config.scheme == "analog" or config.csi_error_radius:
            continue
        batch = next(_batches(replace(config, trials=3_000)))
        sources, power_est, residual, _ = batch
        sigma2s = [config.sigma2(-10.0), config.sigma2(20.0), 0.0]
        fronts = _pass_outputs(config, batch, sigma2s, FRONT_KEYS)
        a2 = np.ascontiguousarray(power_est.transpose(1, 0, 2))
        active = simulator._select(config, a2, sigma2s)[2]
        symbols = 2.0 * codec.encode(fronts[0]["lattice"].T, config.bit_depth) - 1.0
        ratio = residual.transpose(1, 0, 2)
        assert not ratio.strides[0], config  # the radius-0 broadcast
        for front, act in zip(fronts, active):
            summed = simulator._received_sum(ratio, act, front["p"], symbols)
            bound = K * eps * np.sqrt(front["p"]) * front["n_active"]
            assert (np.abs(summed - front["noiseless"]) <= bound).all(), config
            differ += int((summed != front["noiseless"]).sum())
    assert differ  # the two forms do part in the last bits


@pytest.mark.parametrize("reallocate", [False, True])
@pytest.mark.parametrize("source", ["uniform", "gaussian"])
@pytest.mark.parametrize("radius", [0.0, 0.2])
def test_binary_ml_is_proposed_ml_with_the_top_plane_noise_negated(radius, source, reallocate):
    # offset binary flips the top bit, which negates the top plane's noiseless
    # Re{y}, and ML and the decoder are symmetric under the flip: on one batch,
    # the offset-binary oracle's s_hat, binary_ml's pass and proposed + ML's
    # pass with the top plane's noise negated agree bit for bit.  Proposed +
    # ML on the unnegated noise parts from them, so the sign is pinned
    base = SimConfig(
        detector="ml", csi_error_radius=radius, source=source, reallocate=reallocate,
        trials=BATCH,
    )
    binary = replace(base, scheme="binary_ml")
    batch = next(_batches(base))
    flipped = batch[3].copy()
    flipped[:, -1] = -flipped[:, -1]
    sigma2s = [base.sigma2(snr_db) for snr_db in (-10.0, 0.0, 20.0)]
    ours = _pass_outputs(binary, batch, sigma2s, ("s_hat",))
    negated = _pass_outputs(base, batch[:3] + (flipped,), sigma2s, ("s_hat",))
    unnegated = _pass_outputs(base, batch, sigma2s, ("s_hat",))
    differ = 0
    for sigma2, a, b, c in zip(sigma2s, ours, negated, unnegated):
        ref = _coded_batch_oracle(binary, *batch, sigma2)["s_hat"]
        assert a["s_hat"].tobytes() == b["s_hat"].tobytes() == ref.tobytes()
        differ += int((a["s_hat"] != c["s_hat"]).sum())
    assert differ


def test_exact_cancellations_stay_positive_zeros_without_noise():
    # sqrt(p) * 0 is +0.0, and binary_ml's top plane y - 0 * noise keeps it
    # so whatever the noise's sign
    config = SimConfig(scheme="binary_ml", detector="ml")
    batch = next(_batches(replace(config, trials=3_000)))
    (out,) = _pass_outputs(config, batch, [0.0])
    for y in (out["noiseless"], out["received"]):
        zero = y == 0.0
        assert zero[:, -1].any() and not np.signbit(y[zero]).any()


@pytest.mark.memory
def test_simulate_peak_memory_is_a_fraction_of_the_channel():
    config = SimConfig(
        num_devices=100, trials=BATCH, csi_error_radius=0.2, reallocate=True, allow_empty=True
    )
    batch = next(_batches(config))
    power_est = batch[1]
    sigma2 = config.sigma2(0.0)
    tracemalloc.start()
    try:
        _pass_outputs(config, batch, [sigma2])
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
    # at K = 20 a pass holds 8 L + 8 bytes per trial for each noise power
    # within the 8 K L of power_est, so a 36-point grid runs in passes of 17,
    # 17 and 2, whose whole-batch outputs take no more bytes than one batch's
    # power_est; in one pass they would exceed it by about 12 MiB, beyond
    # what the draw's own peak hides
    config = SimConfig(trials=BATCH, snr_db_grid=(0.0,))
    grid = tuple(np.linspace(-10.0, 75.0, 36))
    power_est_bytes = BATCH * K * L * 8
    assert _sweep_peak(replace(config, snr_db_grid=grid)) <= (
        _sweep_peak(config) + power_est_bytes
    )


@pytest.mark.memory
@pytest.mark.parametrize(
    "grid", [(0.0,) * 96, tuple(np.linspace(-10.0, 75.0, 48))], ids=["points", "selections"]
)
def test_the_pass_budget_bounds_a_sweep_peak(grid):
    # at K = 2 a pass holds 8 L bytes per trial for each selection's p and 8
    # for each point's s_hat, within the 8 K L of the batch's power_est: so
    # 96 points at 0 dB run in 12 passes of 8, and 48 noise powers in 48
    # passes.  In one pass their s_hat would take 6 times, and their p 24
    # times, the power_est bytes, beyond what the draw's own peak hides
    config = SimConfig(num_devices=2, trials=BATCH, snr_db_grid=(0.0,))
    power_est_bytes = BATCH * 2 * L * 8
    assert _sweep_peak(replace(config, snr_db_grid=grid)) <= (
        _sweep_peak(config) + power_est_bytes
    )


def _mixed_configs() -> dict[str, SimConfig]:
    """Four draw keys: 1x1 uniform configs at 3000 trials (one partial
    batch, grids of unequal length), a 2x2 config and a CSI-error config
    that must not join them, and gaussian configs with CSI error at 8193
    trials (two batches).  "lmmse" and "ml" share one front end at grid
    indices 0 and 1; every other config of a draw key differs from one of
    its front ends in exactly one field of the front key."""
    one = dict(seed=3, trials=3_000)
    two = dict(seed=3, trials=BATCH + 1, source="gaussian", csi_error_radius=0.2)
    pair = (-10.0, 10.0)
    analog = dict(scheme="analog", analog_threshold=0.02)
    return {
        "lmmse": SimConfig(**one, snr_db_grid=(-10.0, 10.0, 55.0, 60.0)),
        "ml": SimConfig(**one, snr_db_grid=pair, detector="ml"),
        "binary_ml": SimConfig(
            **one, snr_db_grid=(-10.0,), scheme="binary_ml", detector="ml"
        ),
        "empty": SimConfig(**one, snr_db_grid=pair, allow_empty=True),
        "reallocate": SimConfig(**one, snr_db_grid=pair, reallocate=True),
        "varpi": SimConfig(**one, snr_db_grid=pair, power_mode="geometric", varpi=2.0),
        "snr": SimConfig(**one, snr_db_grid=(-5.0, 0.0)),
        "analog": SimConfig(**one, **analog, snr_db_grid=pair),
        "analog_default": SimConfig(**one, scheme="analog", snr_db_grid=pair),
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

    def counted_front(config, batch, selections, *keep):
        fronts[drawn[0]] += 1
        for sigma2, _ in selections:  # one None for an analog key: no noise power
            front_keys[drawn[0], _front_key(config), sigma2] += 1
        return front(config, batch, selections, *keep)

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
    # and evaluates each distinct selection once on it: a coded (front key,
    # noise power), or an analog front key at all its noise powers.  Of the
    # first draw key's 15 coded points, lmmse and ml share -10 dB and 10 dB,
    # binary_ml shares lmmse's -10 dB (both coded schemes have one front
    # end), and the other 10 are their own, 12 in all; its 8 analog points
    # have 3 front keys, "analog" and "analog_snr" sharing one, so 15 in all.
    # The gaussian key's 7 points are 7
    assert front_keys and set(front_keys.values()) == {1}
    per_draw = Counter(key[0] for key in front_keys)
    assert per_draw == Counter({one: 15, mimo: 2, csi: 1, two[0]: 7, two[1]: 7})
    # a pass holds a front key's G selections and P points while L G + P <=
    # K L = 160, so one pass (_front call) per front key serves all its
    # noise powers: 7 front keys on the first draw key, and 3 on the
    # gaussian one
    assert fronts == Counter({one: 7, mimo: 1, csi: 1, two[0]: 3, two[1]: 3})


@pytest.mark.parametrize("elements", [1 << 11, 1 << 40])
def test_the_chunk_size_does_not_change_a_csv(elements, tmp_path, monkeypatch):
    # the chunks of the draw and of each pass, on which the pass's back ends
    # run, follow channel._CHUNK_ELEMENTS; every tally sum runs over whole
    # batches, so no CSV depends on it: 1 << 11 gives chunks of 12 trials at
    # K = 20, 1 << 40 one chunk per batch
    def shared_csvs(tag):
        configs = _mixed_configs()
        shared = SharedSweeps(configs.values())
        for name, config in configs.items():
            sweep_to_csv(sweep(config, shared=shared), tmp_path / f"{name}-{tag}.csv")

    shared_csvs("default")
    monkeypatch.setattr(channel, "_CHUNK_ELEMENTS", elements)
    shared_csvs("resized")
    for name in _mixed_configs():
        resized = (tmp_path / f"{name}-resized.csv").read_bytes()
        assert resized == (tmp_path / f"{name}-default.csv").read_bytes(), name


def test_the_reference_sweeps_run_one_coded_front_end_for_both_schemes(monkeypatch):
    # per batch, the criterion-5 configs select at 17 (front key, noise power)
    # pairs in 3 passes (_front calls), one per front key: proposed LMMSE and
    # ML and binary_ml share one front key over 9 noise powers and 23 points
    # (L G + P = 95 <= K L = 160), geometric has 7 and analog one front end.
    # A binary_ml key of its own would add a pass over its 7 noise powers
    calls = []
    front = simulator._front

    def counted_front(config, batch, selections, *keep):
        calls.append(len(selections))
        return front(config, batch, selections, *keep)

    monkeypatch.setattr(simulator, "_front", counted_front)
    configs = reference_configs(3_000)  # one batch
    shared = SharedSweeps(configs.values())
    for config in configs.values():
        sweep(config, shared=shared)
    assert (len(calls), sum(calls)) == (3, 17)


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
    # every point carries an equal share of the group's wall time, which
    # holds both passes' pauses
    assert len(set(runtimes)) == 1
    assert min(runtimes) >= 2 * pause / len(runtimes)


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
    # K = 6, one pass per batch serves the 3 noise powers and 6 points
    # (L G + P = 30 <= K L = 48)
    fronts = Counter()
    front = simulator._front

    def counted_front(*args):
        fronts[len(args[1][0]), len(args[2])] += 1
        return front(*args)

    monkeypatch.setattr(simulator, "_front", counted_front)
    configs = [config, replace(config, snr_db_grid=grid[::-1])]
    shared = SharedSweeps(configs)
    results = [sweep(c, shared=shared) for c in configs]
    untimed = [[replace(pt, runtime=0.0) for pt in r.points] for r in results]
    assert untimed[1][::-1] == untimed[0]
    batches = [len(sources) for sources, *_ in _batches(config)]
    assert fronts == Counter({(n, 3): 1 for n in batches})


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


# A second valid value of every SimConfig field, for the sharing-key tests
# below: each replaces one field of each base config that accepts it.
SECOND_VALUES = {
    "num_devices": 7,
    "bit_depth": 5,
    "num_taps": 2,
    "source": "gaussian",
    "source_std": 0.5,
    "scheme": "analog",
    "power_mode": "geometric",
    "varpi": 2.0,
    "detector": "ml",
    "snr_db_grid": (3.0,),
    "trials": 301,
    "csi_error_radius": 0.1,
    "seed": 9,
    "n_tx": 2,
    "n_rx": 2,
    "analog_threshold": 0.3,
    "reallocate": True,
    "allow_empty": True,
}

_KEY_BASE = SimConfig(
    num_devices=6, bit_depth=4, trials=300, snr_db_grid=(0.0, 10.0), seed=3
)
KEY_BASES = {
    "proposed": _KEY_BASE,
    "analog": replace(_KEY_BASE, scheme="analog", analog_threshold=0.05),
    "binary_ml": replace(
        _KEY_BASE,
        scheme="binary_ml",
        detector="ml",
        source="gaussian",
        csi_error_radius=0.2,
        power_mode="geometric",
        varpi=1.5,
        reallocate=True,
        allow_empty=True,
    ),
}


def _one_field_changes():
    """(field, base, changed) for every base and field whose second value
    differs from the base's and gives a valid config."""
    pairs = []
    for field, value in SECOND_VALUES.items():
        for base in KEY_BASES.values():
            if getattr(base, field) == value:
                continue
            try:
                pairs.append((field, base, replace(base, **{field: value})))
            except ValueError:
                continue  # not valid with the base's other fields
    return pairs


def _same_fronts(a: list, b: list) -> bool:
    return len(a) == len(b) and all(
        x.keys() == y.keys()
        and all(
            (u is None and v is None) or (u.dtype == v.dtype and u.tobytes() == v.tobytes())
            for u, v in ((x[key], y[key]) for key in x)
        )
        for x, y in zip(a, b)
    )


def test_every_config_field_has_a_second_value_that_some_base_accepts():
    assert set(SECOND_VALUES) == {f.name for f in dataclasses.fields(SimConfig)}
    assert {field for field, _, _ in _one_field_changes()} == set(SECOND_VALUES)


def test_a_field_outside_the_draw_key_leaves_every_batch_bit_identical():
    checked = 0
    for _, base, changed in _one_field_changes():
        if _draw_key(changed) != _draw_key(base):
            continue
        for ours, theirs in zip(_batches(base), _batches(changed), strict=True):
            for a, b in zip(ours, theirs, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), changed
        checked += 1
    assert checked >= len(SECOND_VALUES) // 2


def test_a_field_outside_the_front_key_leaves_every_front_end_bit_identical():
    # within a draw group, on one draw and at the same noise powers
    checked = set()
    for field, base, changed in _one_field_changes():
        if (_draw_key(changed), _front_key(changed)) != (_draw_key(base), _front_key(base)):
            continue
        batch = next(_batches(base))
        sigma2s = [base.sigma2(-10.0), base.sigma2(20.0), 0.0]
        ours = _pass_outputs(base, batch, sigma2s, FRONT_KEYS)
        assert _same_fronts(ours, _pass_outputs(changed, batch, sigma2s, FRONT_KEYS)), changed
        checked.add((base.scheme, field))
    assert checked == {
        ("proposed", "detector"),
        ("proposed", "power_mode"),
        *((scheme, "snr_db_grid") for scheme in KEY_BASES),
    }


def test_unread_fields_lists_every_field_whose_change_leaves_the_csv_rows(tmp_path):
    # the other direction of UNREAD_FIELDS: a field that some scheme accepts
    # but whose change moves no CSV data row is read by nothing; only
    # power_mode and allow_empty remain
    unread = set()
    for field, base, changed in _one_field_changes():
        if _csv_rows(base, tmp_path / "a.csv") == _csv_rows(changed, tmp_path / "b.csv"):
            unread.add((base.scheme, field))
    assert unread == {("proposed", "power_mode"), ("proposed", "allow_empty")}


def _batch_with_a_dead_subcarrier(config):
    """The first batch of config, with every estimated gain on subcarrier 0
    set to 0: only there does allow_empty change a selection."""
    sources, power_est, residual, noise = next(_batches(config))
    power_est = power_est.copy()
    power_est[:, :, 0] = 0.0
    return sources, power_est, residual, noise


def test_a_field_inside_a_key_changes_that_stage_for_some_base():
    # the other direction: a key field whose change leaves the stage's output
    # bit-identical on every base would only split what could be shared
    in_draw, drawn, in_front, fronted = set(), set(), set(), set()
    for field, base, changed in _one_field_changes():
        if _draw_key(changed) != _draw_key(base):
            in_draw.add(field)
            pairs = zip(next(_batches(base)), next(_batches(changed)), strict=True)
            if any(a.shape != b.shape or a.tobytes() != b.tobytes() for a, b in pairs):
                drawn.add(field)
        elif _front_key(changed) != _front_key(base):
            in_front.add(field)
            sigma2s = [base.sigma2(-10.0), base.sigma2(20.0)]
            for batch in (next(_batches(base)), _batch_with_a_dead_subcarrier(base)):
                ours = _pass_outputs(base, batch, sigma2s, FRONT_KEYS)
                if not _same_fronts(ours, _pass_outputs(changed, batch, sigma2s, FRONT_KEYS)):
                    fronted.add(field)
    assert drawn == in_draw == {
        "seed", "trials", "source", "source_std", "num_devices",
        "bit_depth", "num_taps", "csi_error_radius", "n_tx", "n_rx",
    }
    assert fronted == in_front == {
        "scheme", "varpi", "allow_empty", "reallocate", "analog_threshold"
    }


def test_an_analog_front_end_does_not_depend_on_the_noise_power():
    # one selection serves both points of a pass, with the front end of
    # either noise power alone
    config = KEY_BASES["analog"]
    batch = next(_batches(config))
    noisy, quiet = config.sigma2(-10.0), config.sigma2(20.0)
    fronts = [
        _pass_outputs(config, batch, sigma2s, FRONT_KEYS)
        for sigma2s in ([noisy], [quiet], [noisy, quiet])
    ]
    assert _same_fronts(fronts[0], fronts[1]) and _same_fronts(fronts[0] * 2, fronts[2])


def test_sigma2_follows_snr_definition():
    config = SimConfig()
    assert config.sigma2(0.0) == pytest.approx(1.0 / L)
    assert config.sigma2(10.0) == pytest.approx(1.0 / (10.0 * L))


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
        {"scheme": "analog", "bit_depth": 49},  # analog L has the same bound
        {"snr_db_grid": ()},
        {"snr_db_grid": (0.0, float("nan"))},
        {"snr_db_grid": (float("inf"),)},
        {"snr_db_grid": (float("-inf"),)},
        {"snr_db_grid": (1e6,)},  # 10^(snr/10) overflows
        {"snr_db_grid": (-1e6,)},  # ... or underflows to zero
        {"bit_depth": 64},
        {"bit_depth": 10**9},
        {"bit_depth": 60, "num_devices": 20},
        {"trials": 0},
        {"csi_error_radius": 1.0},
        {"csi_error_radius": -0.1},
        {"snr_db_grid": (3070.0,)},  # a noise power below float64's normal range
        {"snr_db_grid": (-3020.0,)},  # ... or above what the MSE's products leave
        {"num_devices": 0},
        {"n_tx": 0},
        {"analog_threshold": -1.0},
        {"source_std": 0.0},
        {"seed": -1},
        {"bit_depth": 49},  # 1 + 2^-53 rounds to 1
        {"trials": 1.5},  # a value of the wrong type fails at construction
        {"num_devices": 2.5},
        {"seed": 1.5},
        {"n_tx": 1.5},
        {"num_taps": 2.5},
        {"bit_depth": 8.0},
        {"reallocate": "no"},
        {"snr_db_grid": "10"},  # not the grid (1.0, 0.0)
        {"snr_db_grid": b"10"},  # not the grid (49.0, 48.0)
        {"snr_db_grid": 10},  # a number, not a sequence of them
        {"snr_db_grid": [None]},
        {"snr_db_grid": (None,)},  # a tuple that validate itself must reject
        {"snr_db_grid": [[1, 2]]},
        {"snr_db_grid": [1 + 0j]},
        {"snr_db_grid": (True,)},  # not (1.0,)
        {"snr_db_grid": ["5"]},  # not (5.0,)
        {"trials": np.int64(10)},  # which the CSV's JSON metadata cannot hold
    ],
)
def test_config_validation_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_config_accepts_the_largest_exact_bit_depth():
    # from 49 bits on the quantizer's guard term rounds away (QuantizerSpec);
    # 2^15 * 2^48 = 2^63: every int64 decoder sum still fits
    SimConfig(num_devices=2**15, bit_depth=48)


def test_config_normalizes_grid_to_floats():
    config = SimConfig(snr_db_grid=[0, 5, 10])
    assert config.snr_db_grid == (0.0, 5.0, 10.0)
    assert all(isinstance(x, float) for x in config.snr_db_grid)
