"""Command-line front end: experiment configs, sweeps, self-checks, demo.

Config files are flat INI-style text, one ``[section]`` per experiment with
``key = value`` lines (``#`` starts a comment).  An empty file describes one
default experiment.  Parse errors carry the offending line number.  The
config file sets the experiments; the command-line flags set everything
else, and ``--seed``, ``--trials`` and ``--quick`` override every section.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import re
import sys
import typing
from pathlib import Path

import numpy as np

from . import codec
from .channel import ChannelParams, draw_channel, draw_channel_batch
from .selection import brute_force_select, greedy_select_batch
from .simulator import (
    _FIELD_TYPES,
    _TYPE_NAMES,
    SCHEMES,
    SharedSweeps,
    SimConfig,
    default_detector,
    run_trial,
    sweep,
    sweep_to_csv,
)
from .transceiver import lmmse_coefficients, mse_closed_form


class ConfigError(ValueError):
    """Configuration text rejected; the message carries the line number."""


def _parse_value(kind, value: str, lineno: int):
    """Parse the config value on line lineno as a value of type kind: int,
    float or bool, a tuple of floats (separated by commas or spaces), or a
    Literal's text as it is.  Ranges and choices are left to SimConfig.validate."""
    if typing.get_origin(kind) is typing.Literal:
        return value
    if typing.get_origin(kind) is tuple:
        try:
            return tuple(float(p) for p in value.replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"line {lineno}: expected numbers, got {value!r}") from None
    if kind is bool:
        lowered = value.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ConfigError(f"line {lineno}: expected true or false, got {value!r}")
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"line {lineno}: expected {_TYPE_NAMES[kind]}, got {value!r}") from None


def parse_config(text: str) -> dict[str, SimConfig]:
    """Parse config text into one SimConfig per section, by section name.

    Each key is parsed by its SimConfig field's type.  Raises ConfigError
    (with a line number) on unknown keys, malformed values, duplicates, and
    experiments that SimConfig.validate rejects: such an error carries the
    line of the section's last key that the message names, or the section
    header's line if it names none.  Input without sections yields one
    default experiment.
    """
    raw: dict[str, dict[str, tuple]] = {}  # section -> key -> (value, line)
    section_lines: dict[str, int] = {}
    current: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty section name")
            if name in raw:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            raw[name] = {}
            section_lines[name] = lineno
            current = name
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"line {lineno}: expected 'key = value' or '[section]', got {stripped!r}"
            )
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if current is None:
            raise ConfigError(
                f"line {lineno}: key {key!r} appears before any [section] header"
            )
        if key not in _FIELD_TYPES:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r} in [{current}] "
                f"(valid keys: {', '.join(sorted(_FIELD_TYPES))})"
            )
        if key in raw[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        raw[current][key] = (_parse_value(_FIELD_TYPES[key], value, lineno), lineno)

    if not raw:
        raw = {"default": {}}
        section_lines["default"] = 0

    experiments: dict[str, SimConfig] = {}
    for name, entries in raw.items():
        kwargs = {key: value for key, (value, _) in entries.items()}
        if "scheme" in kwargs:
            kwargs.setdefault("detector", default_detector(kwargs["scheme"]))
        try:
            experiments[name] = SimConfig(**kwargs)
        except ValueError as exc:
            named = [
                line
                for key, (_, line) in entries.items()
                if re.search(rf"\b{key}\b", str(exc))
            ]
            line = max(named, default=section_lines[name])
            raise ConfigError(f"experiment [{name}] (line {line}): {exc}") from exc
    return experiments


# ---------------------------------------------------------------------------
# verification oracles


def oracle_exact_sum(seed: int = 1, quick: bool = False) -> tuple[bool, str]:
    """Noiseless coded aggregation is exact: the decoder applied to the true
    per-position bit sums returns the integer sum of quantized values with
    zero error.  Exhaustive over all device-value tuples for small (b, K),
    randomized for the reference size."""
    cases = []  # (bit depth, one device-value tuple per row, description)
    for b, num in ((3, 3), (5, 3)):
        lattice = np.arange(-(2 ** (b - 1)), 2 ** (b - 1), dtype=np.int64)
        grids = np.meshgrid(*([lattice] * num), indexing="ij")
        values = np.stack([g.ravel() for g in grids], axis=-1)
        if quick:
            values = values[:: max(1, len(values) // 1000)]
        cases.append((b, values, f"b={b} K={num}: {len(values)} tuples"))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 811)))
    n_random = 10_000 if quick else 100_000
    values = rng.integers(-128, 128, size=(n_random, 20), dtype=np.int64)
    cases.append((8, values, f"b=8 K=20: {n_random} random tuples"))
    failures = 0
    for b, values, _ in cases:
        decoded = codec.decode(codec.encode(values, b).sum(axis=1), 1.0)
        failures += not np.array_equal(decoded, values.sum(axis=1).astype(np.float64))
    return failures == 0, "; ".join(case[2] for case in cases) + (
        "; all exact" if failures == 0 else f"; {failures} case groups FAILED"
    )


def oracle_greedy_optimality(seed: int = 1, quick: bool = False) -> tuple[bool, str]:
    """Greedy device selection matches exhaustive subset search on random
    multipath-faded instances of up to 12 devices."""
    total = 1_000 if quick else 10_000
    rng = np.random.default_rng(np.random.SeedSequence((seed, 977)))
    sizes = range(2, 13)
    per = [total // len(sizes)] * len(sizes)
    for i in range(total - sum(per)):
        per[i] += 1
    worst = 0.0
    checked = 0
    for num_devices, group in zip(sizes, per):
        params = ChannelParams(num_devices=num_devices, num_subcarriers=8)
        power, _ = draw_channel_batch(params, group, rng)
        gains = power[:, :, 0] / 8.0
        noise = 10.0 ** rng.uniform(-2.0, 2.0, size=group)
        for t in range(group):
            sigma2 = float(noise[t])
            n, p, _ = greedy_select_batch(gains[t, None, :, None], sigma2)
            greedy = mse_closed_form(float(p[0, 0]), int(n[0, 0]), num_devices, sigma2)
            brute = brute_force_select(gains[t], sigma2)[2]
            rel = abs(greedy - brute) / max(brute, 1e-300)
            worst = max(worst, rel)
            checked += 1
    ok = worst <= 1e-12
    return ok, f"{checked} instances (K=2..12), max relative MSE gap {worst:.1e}"


def oracle_lmmse(seed: int = 1, quick: bool = False) -> tuple[bool, str]:
    """The affine detector's empirical MSE matches the closed form within
    3 standard errors, and no detector perturbed away from the derived
    coefficients does better on the same samples."""
    n_tuples = 5 if quick else 20
    n_samples = 20_000 if quick else 100_000
    rng = np.random.default_rng(np.random.SeedSequence((seed, 953)))
    worst_z = 0.0
    perturbed_wins = 0
    for _ in range(n_tuples):
        num_devices = int(rng.integers(2, 25))
        n_active = int(rng.integers(1, num_devices + 1))
        sigma2 = float(10.0 ** rng.uniform(-1.0, 1.0))
        p = float(sigma2 * 10.0 ** rng.uniform(-1.3, 1.3))
        bits = rng.integers(0, 2, size=(n_samples, num_devices))
        r = bits.sum(axis=1)
        r_active = bits[:, :n_active].sum(axis=1)
        noise = math.sqrt(sigma2 / 2.0) * rng.standard_normal(n_samples)
        re_y = math.sqrt(p) * (2.0 * r_active - n_active) + noise

        lam, mu = lmmse_coefficients(p, n_active, num_devices, sigma2)
        sq = (lam * re_y + mu - r) ** 2
        empirical = float(sq.mean())
        se = float(sq.std(ddof=1)) / math.sqrt(n_samples)
        closed = mse_closed_form(p, n_active, num_devices, sigma2)
        worst_z = max(worst_z, abs(empirical - closed) / se)
        for lam2 in (0.9 * lam, 1.1 * lam):
            for mu2 in (mu - 0.5, mu + 0.5):
                if float(((lam2 * re_y + mu2 - r) ** 2).mean()) < empirical:
                    perturbed_wins += 1
    ok = worst_z <= 3.0 and perturbed_wins == 0
    return ok, (
        f"{n_tuples} parameter tuples x {n_samples} samples, worst |z| = "
        f"{worst_z:.2f} (limit 3), perturbed-detector wins: {perturbed_wins}"
    )


ORACLES = (
    ("exact-sum", oracle_exact_sum),
    ("greedy-optimality", oracle_greedy_optimality),
    ("lmmse-detector", oracle_lmmse),
)


# ---------------------------------------------------------------------------
# commands


def _output_path(out: str, name: str, multiple: bool) -> Path:
    if out.endswith(".csv"):
        path = Path(out)
        if multiple:
            path = path.with_name(f"{path.stem}-{name}.csv")
        return path
    return Path(out) / f"{name}.csv"


def _stdout_closed() -> int:
    """Exit status 1 once the reader has closed stdout (as `| head` does), with
    stdout pointed at devnull (the Python docs' pattern): no later write raises."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1


def _print_lines(lines: list[str]) -> int:
    """Print lines: 0, or 1 if the reader has closed stdout."""
    try:
        print("\n".join(lines))
    except BrokenPipeError:
        return _stdout_closed()
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8 text (byte {exc.start})") from None
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        experiments = parse_config(text)
    else:
        experiments = {"default": SimConfig()}

    # apply and validate every section's overrides before the first sweep,
    # so a bad override ends the command before any CSV is written
    flags = {"seed": args.seed, "trials": args.trials}
    configs: dict[str, SimConfig] = {}
    for name, config in experiments.items():
        updates = {k: v for k, v in flags.items() if v is not None}
        if args.quick:
            updates["trials"] = min(updates.get("trials", config.trials), 2000)
        if updates:
            try:
                config = dataclasses.replace(config, **updates)
            except ValueError as exc:
                raise ConfigError(f"[{name}] {exc}") from None
        configs[name] = config

    # create and check every output directory before the first sweep, so a
    # bad output path, too, ends the command before any sweep runs
    for name in configs:  # a separator would lead the name's CSV out of --out
        if {"/", os.sep, os.altsep} & set(name):
            raise ConfigError(f"section name [{name}] holds a path separator")
    targets = {name: _output_path(args.out, name, len(configs) > 1) for name in configs}
    for target in targets.values():
        if "\0" in str(target):
            raise ConfigError(f"output file {str(target)!r} holds a NUL byte")
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            message = f"cannot create output directory {target.parent}: {exc.strerror}"
            raise ConfigError(message) from None
        try:
            is_dir = target.is_dir()
        except OSError as exc:
            raise ConfigError(f"cannot write output file {target}: {exc.strerror}") from None
        if is_dir:
            raise ConfigError(f"output file {target} is a directory")

    # a reader that closes stdout early stops the printing, not the sweeps:
    # each CSV is written before its rows are printed
    shared = SharedSweeps(configs.values())
    status = 0
    for name, config in configs.items():
        status |= _print_lines([
            f"[{name}] scheme={config.scheme} detector={config.detector} "
            f"power_mode={config.power_mode} trials={config.trials} "
            f"seed={config.seed}"
        ])
        result = sweep(config, shared=shared)
        sweep_to_csv(result, targets[name])
        runtime = sum(pt.runtime for pt in result.points)
        lines = [f"    grid of {len(result.points)} done in {runtime:.1f}s"] if args.verbose else []
        lines += [
            f"  snr {pt.snr_db:+7.1f} dB   nmse {pt.nmse:.6e}   "
            f"stderr {pt.stderr:.2e}   active {pt.mean_active:6.2f}   "
            f"p {pt.mean_p:.4g}"
            for pt in result.points
        ]
        status |= _print_lines(lines + [f"  wrote {targets[name]}"])
    return status


def cmd_verify(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    all_ok = True
    for label, fn in ORACLES:
        ok, detail = fn(seed=args.seed, quick=args.quick)
        print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def cmd_demo(args: argparse.Namespace) -> int:
    try:
        config = SimConfig(
            num_devices=args.k,
            bit_depth=args.b,
            scheme=args.scheme,
            detector=default_detector(args.scheme),
            snr_db_grid=(args.snr_db,),
            trials=1,
            seed=args.seed,
            csi_error_radius=args.csi_error,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    sigma2 = config.sigma2(args.snr_db)
    realization = draw_channel(config.channel_params(), args.seed, sigma2, mimo=config.mimo())
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0, 0)))
    record = run_trial(config, realization, rng)

    print(
        f"demo: {args.k} devices, {args.b}-bit quantization, "
        f"snr {args.snr_db:g} dB, scheme {args.scheme}, seed {args.seed}"
    )
    print(f"device values:    {np.array2string(record.sources, precision=4)}")
    if record.lattice is not None:
        print(f"lattice integers: {record.lattice}")
        encode = codec.encode_offset_binary if args.scheme == "binary_ml" else codec.encode
        rendered = " ".join(codec.format_codeword(w) for w in encode(record.lattice, args.b))
        print(f"codewords (MSB first): {rendered}")
        print("subcarrier   budget     active   p          r_true   re_y      r_hat")
        budgets = config.budgets()
        for l in range(args.b):
            print(
                f"{l + 1:<12d} {budgets[l]:<10.4g} {int(record.active_counts[l]):<8d} "
                f"{record.scalings[l]:<10.4g} {record.bit_sums[l]:<8.0f} "
                f"{record.received[l]:<9.4f} {record.estimates[l]:.4f}"
            )
    else:
        print("subcarrier   active   p          re_y      estimate")
        for l in range(args.b):
            print(
                f"{l + 1:<12d} {int(record.active_counts[l]):<8d} "
                f"{record.scalings[l]:<10.4g} {record.received[l]:<9.4f} "
                f"{record.estimates[l]:.4f}"
            )
    print(f"decoded sum:   {record.s_hat:.6f}")
    print(f"quantized sum: {record.s_quant:.6f}")
    print(f"true sum:      {record.s_true:.6f}")
    print(
        f"squared error: total {record.squared_error_total:.3e}, "
        f"quantization {record.squared_error_quantization:.3e}, "
        f"transmission {record.squared_error_transmission:.3e}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aircomp",
        description="Simulate over-the-air aggregation of quantized values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run NMSE-versus-SNR experiments")
    p_sweep.add_argument("config", nargs="?", help="experiment config file")
    p_sweep.add_argument("--out", default=".", help="output CSV file or directory")
    p_sweep.add_argument("--seed", type=int, default=None, help="override seed")
    p_sweep.add_argument("--trials", type=int, default=None, help="override trial count")
    p_sweep.add_argument(
        "--quick", action="store_true", help="cap trials at 2000 for a fast pass"
    )
    p_sweep.add_argument("-v", "--verbose", action="store_true", help="per-section timing")

    p_verify = sub.add_parser("verify", help="run the built-in correctness oracles")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--quick", action="store_true", help="smaller oracle sizes")

    p_demo = sub.add_parser("demo", help="trace one aggregation trial end to end")
    p_demo.add_argument("--seed", type=int, default=1)
    p_demo.add_argument("--k", type=int, default=3, help="number of devices")
    p_demo.add_argument("--b", type=int, default=4, help="quantizer bit depth")
    p_demo.add_argument("--snr-db", type=float, default=10.0)
    p_demo.add_argument("--scheme", choices=SCHEMES, default="proposed")
    p_demo.add_argument("--csi-error", type=float, default=0.0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        command = {"sweep": cmd_sweep, "verify": cmd_verify, "demo": cmd_demo}[args.command]
        status = command(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return _stdout_closed()


def entrypoint() -> None:
    sys.exit(main())
