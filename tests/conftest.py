"""Shared test plumbing: collect acceptance-criterion verdicts and echo them
in the terminal summary so they stay visible under output capture, render
parsed experiments back to config text for the round-trip tests, and build
the criterion-5 reference configs at any trial count."""

import dataclasses

from aircomp.simulator import SimConfig

ACCEPTANCE_LINES: list[str] = []
GRID = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
EXTENDED_GRID = GRID + (55.0, 60.0)  # diagnostic points for the noise floor


def reference_configs(trials: int) -> dict[str, SimConfig]:
    """The five criterion-5 reference sweeps (seed 1) at trials per grid point."""
    return {
        "uniform_lmmse": SimConfig(trials=trials, snr_db_grid=EXTENDED_GRID),
        "uniform_ml": SimConfig(trials=trials, snr_db_grid=GRID, detector="ml"),
        "geometric": SimConfig(
            trials=trials, snr_db_grid=GRID, power_mode="geometric", varpi=2.0
        ),
        "analog": SimConfig(
            trials=trials,
            snr_db_grid=GRID,
            scheme="analog",
            analog_threshold=0.02,
        ),
        "binary_ml": SimConfig(
            trials=trials, snr_db_grid=GRID, scheme="binary_ml", detector="ml"
        ),
    }


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(repr(float(x)) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(experiments: dict[str, SimConfig]) -> str:
    """Render parsed experiments back to config text.

    Every field is written explicitly, so parse(serialize(experiments)) ==
    experiments.
    """
    lines: list[str] = []
    for name, config in experiments.items():
        lines.append(f"[{name}]")
        for f in dataclasses.fields(SimConfig):
            lines.append(f"{f.name} = {_format_value(getattr(config, f.name))}")
        lines.append("")
    return "\n".join(lines)
