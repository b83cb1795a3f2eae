"""Acceptance criteria for the over-the-air aggregation package.

Each test prints one PASS/FAIL line (collected again in the terminal
summary).  Monte Carlo checks run at seed 1 with margins of three standard
errors unless a check is exact by construction.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import conftest
from aircomp.channel import ChannelParams, MimoParams, draw_channel
from aircomp.cli import (
    oracle_exact_sum,
    oracle_greedy_optimality,
    oracle_lmmse,
    parse_config,
)
from aircomp.codec import QuantizerSpec, encode, quantize
from aircomp.simulator import (
    SharedSweeps,
    SimConfig,
    quantization_nmse_floor,
    sweep,
    sweep_to_csv,
)

GRID = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
EXTENDED_GRID = GRID + (55.0, 60.0)  # diagnostic points for the noise floor
TRIALS = 100_000


def record(criterion: str, passed: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, line


@pytest.fixture(scope="session")
def reference_sweeps():
    """The four reference sweeps shared by criterion 5 (seed 1, 100k trials
    per grid point), evaluated on one shared draw per batch."""
    t0 = time.perf_counter()
    configs = {
        "uniform_lmmse": SimConfig(trials=TRIALS, snr_db_grid=EXTENDED_GRID),
        "uniform_ml": SimConfig(trials=TRIALS, snr_db_grid=GRID, detector="ml"),
        "geometric": SimConfig(
            trials=TRIALS, snr_db_grid=GRID, power_mode="geometric", varpi=2.0
        ),
        "analog": SimConfig(
            trials=TRIALS,
            snr_db_grid=GRID,
            scheme="analog",
            analog_threshold=0.02,
        ),
    }
    shared = SharedSweeps(configs.values())
    results = {name: sweep(c, shared=shared) for name, c in configs.items()}
    return results, time.perf_counter() - t0


def test_criterion_1_noiseless_sums_are_exact():
    t0 = time.perf_counter()
    ok, detail = oracle_exact_sum(seed=1, quick=False)
    elapsed = time.perf_counter() - t0
    record("1 (exact noiseless sums)", ok and elapsed < 5.0, f"{detail}; {elapsed:.2f}s (limit 5s)")


def test_criterion_2_greedy_selection_is_optimal():
    t0 = time.perf_counter()
    ok, detail = oracle_greedy_optimality(seed=1, quick=False)
    elapsed = time.perf_counter() - t0
    record("2 (greedy = exhaustive)", ok and elapsed < 30.0, f"{detail}; {elapsed:.2f}s (limit 30s)")


def test_criterion_3_detector_matches_closed_form():
    t0 = time.perf_counter()
    ok, detail = oracle_lmmse(seed=1, quick=False)
    elapsed = time.perf_counter() - t0
    record("3 (detector MSE closed form)", ok and elapsed < 60.0, f"{detail}; {elapsed:.2f}s (limit 60s)")


def test_criterion_4_bit_positions_are_balanced():
    spec = QuantizerSpec(8, 1.0)
    values = np.arange(-128, 128, dtype=np.int64)
    counts = encode(values, 8).sum(axis=0)
    exhaustive_ok = counts.tolist() == [128] * 8

    rng = np.random.default_rng(np.random.SeedSequence((1, 4)))
    n_sources = 125_000  # one million bits
    s = rng.uniform(-1.0, 1.0, size=n_sources)
    fractions = encode(quantize(s, spec), 8).mean(axis=0)
    sigma = math.sqrt(0.25 / n_sources)
    worst = float(np.abs(fractions - 0.5).max())
    mc_ok = worst <= 3.0 * sigma
    record(
        "4 (bit-plane balance)",
        exhaustive_ok and mc_ok,
        f"exhaustive count 128/256 per position; Monte Carlo worst "
        f"|freq-0.5| = {worst:.2e} (limit {3.0 * sigma:.2e})",
    )


def _se_pair(pa, pb) -> float:
    return 3.0 * (pa.stderr + pb.stderr)


def test_criterion_5a_nmse_decreases_with_snr(reference_sweeps):
    results, elapsed = reference_sweeps
    assert elapsed < 600.0, f"reference sweeps took {elapsed:.0f}s (limit 600s)"
    violations = []
    for name in ("uniform_lmmse", "geometric"):
        pts = results[name].points
        for a, b in zip(pts, pts[1:]):
            if b.nmse > a.nmse + _se_pair(a, b):
                violations.append(f"{name}@{b.snr_db:g}dB")
    extra = []
    for name in ("uniform_ml", "analog"):
        pts = results[name].points
        drops = all(b.nmse <= a.nmse + _se_pair(a, b) for a, b in zip(pts, pts[1:]))
        extra.append(f"{name} monotone: {drops}")
    record(
        "5a (NMSE monotone in SNR)",
        not violations,
        f"uniform+geometric strictly within 3 SE ({len(results['uniform_lmmse'].points)}"
        f"+{len(results['geometric'].points)} points); {'; '.join(extra)}; "
        f"sweeps took {elapsed:.0f}s",
    )


def test_criterion_5b_high_snr_plateau_is_quantization_floor(reference_sweeps):
    results, _ = reference_sweeps
    pts = results["uniform_lmmse"].points
    by_snr = {pt.snr_db: pt for pt in pts}
    floor = quantization_nmse_floor(results["uniform_lmmse"].config)
    ratio60 = by_snr[60.0].nmse / floor
    flatness = by_snr[55.0].nmse / by_snr[60.0].nmse
    ratio20 = by_snr[20.0].nmse / floor
    ok = 0.95 <= ratio60 <= 1.05 and flatness <= 1.05
    record(
        "5b (plateau at quantization floor)",
        ok,
        f"NMSE(60dB)/floor = {ratio60:.4f} (need 0.95..1.05), "
        f"NMSE(55dB)/NMSE(60dB) = {flatness:.4f} (need <= 1.05); "
        f"floor = {floor:.3e}; at the grid edge NMSE(20dB)/floor = {ratio20:.1f}, "
        f"still channel-limited",
    )


def test_criterion_5c_geometric_power_beats_uniform_at_low_snr(reference_sweeps):
    results, _ = reference_sweeps
    uni = {pt.snr_db: pt for pt in results["uniform_lmmse"].points}
    geo = {pt.snr_db: pt for pt in results["geometric"].points}
    margins = []
    ok = True
    for snr in (-10.0, -5.0, 0.0):
        gain = uni[snr].nmse - geo[snr].nmse
        ok = ok and gain >= _se_pair(uni[snr], geo[snr])
        margins.append(f"{snr:g}dB: {uni[snr].nmse:.4f} vs {geo[snr].nmse:.4f}")
    record(
        "5c (geometric allocation wins at low SNR)",
        ok,
        "uniform vs geometric NMSE " + "; ".join(margins),
    )


def test_criterion_5d_lmmse_beats_ml_at_low_snr(reference_sweeps):
    results, _ = reference_sweeps
    lmmse = {pt.snr_db: pt for pt in results["uniform_lmmse"].points}
    ml = {pt.snr_db: pt for pt in results["uniform_ml"].points}
    margins = []
    ok = True
    for snr in (-10.0, -5.0):
        gain = ml[snr].nmse - lmmse[snr].nmse
        ok = ok and gain >= _se_pair(ml[snr], lmmse[snr])
        margins.append(f"{snr:g}dB: {lmmse[snr].nmse:.4f} vs {ml[snr].nmse:.4f}")
    record(
        "5d (affine detector wins in deep noise)",
        ok,
        "lmmse vs ml NMSE " + "; ".join(margins),
    )


def test_criterion_5e_analog_crossover(reference_sweeps):
    results, _ = reference_sweeps
    coded = {pt.snr_db: pt for pt in results["uniform_lmmse"].points}
    analog = {pt.snr_db: pt for pt in results["analog"].points}
    low_gap = analog[-10.0].nmse - coded[-10.0].nmse
    high_gap = coded[20.0].nmse - analog[20.0].nmse
    ok = low_gap >= _se_pair(analog[-10.0], coded[-10.0]) and high_gap >= _se_pair(
        coded[20.0], analog[20.0]
    )
    record(
        "5e (analog baseline crossover)",
        ok,
        f"-10dB: analog {analog[-10.0].nmse:.3f} > coded {coded[-10.0].nmse:.3f}; "
        f"+20dB: analog {analog[20.0].nmse:.5f} < coded {coded[20.0].nmse:.5f}",
    )


def test_criterion_6_csi_error_degrades_gracefully():
    base = sweep(SimConfig(trials=TRIALS, snr_db_grid=(-5.0,))).points[0]
    perturbed = sweep(
        SimConfig(trials=TRIALS, snr_db_grid=(-5.0,), csi_error_radius=0.2)
    ).points[0]
    ratio = perturbed.nmse / base.nmse
    record(
        "6 (CSI-error robustness)",
        ratio <= 1.10,
        f"NMSE ratio at -5 dB with 20% channel-estimate error: {ratio:.4f} "
        f"(limit 1.10; perfect {base.nmse:.4f}, perturbed {perturbed.nmse:.4f})",
    )


def test_criterion_7a_single_antenna_reduction_is_bit_identical(tmp_path):
    params = ChannelParams(num_devices=8, num_subcarriers=8, csi_error_radius=0.1)
    a = draw_channel(params, seed=3, noise_power=1.0)
    b = draw_channel(params, seed=3, noise_power=1.0, mimo=MimoParams(1, 1))
    channel_ok = np.array_equal(a.power_est, b.power_est)
    channel_ok = channel_ok and np.array_equal(a.residual, b.residual)

    base = "trials = 2000\nsnr_db_grid = 0 10\n"
    cfg_plain = parse_config("[x]\n" + base).experiments["x"]
    cfg_mimo = parse_config("[x]\n" + base + "n_tx = 1\nn_rx = 1\n").experiments["x"]
    path_plain = tmp_path / "plain.csv"
    path_mimo = tmp_path / "mimo11.csv"
    sweep_to_csv(sweep(cfg_plain), path_plain)
    sweep_to_csv(sweep(cfg_mimo), path_mimo)
    csv_ok = path_plain.read_bytes() == path_mimo.read_bytes()
    record(
        "7a (1x1 reduces to scalar model exactly)",
        channel_ok and csv_ok,
        f"channel draws identical: {channel_ok}; sweep CSVs byte-identical: {csv_ok}",
    )


def test_criterion_7b_antenna_diversity_never_hurts():
    siso = sweep(SimConfig(trials=20_000, snr_db_grid=GRID)).points
    mimo = sweep(SimConfig(trials=20_000, snr_db_grid=GRID, n_tx=2, n_rx=2)).points
    worst = max(pm.nmse / ps.nmse for ps, pm in zip(siso, mimo))
    ok = all(pm.nmse <= ps.nmse for ps, pm in zip(siso, mimo))
    record(
        "7b (2x2 no worse than 1x1)",
        ok,
        f"2x2 NMSE below 1x1 at all {len(GRID)} grid points "
        f"(worst ratio {worst:.3f}, e.g. +20dB: "
        f"{mimo[-1].nmse:.2e} vs {siso[-1].nmse:.2e})",
    )


def test_criterion_8_cli_runs_are_reproducible(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[quick]\ntrials = 2000\nsnr_db_grid = -5 5 15\nseed = 4\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("AIRCOMP_")}
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "aircomp", "sweep", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1]
    record(
        "8 (CLI reproducibility)",
        identical,
        f"two `aircomp sweep` subprocess runs produced byte-identical CSVs "
        f"({len(outputs[0])} bytes)",
    )
