"""Shared test plumbing: collect acceptance-criterion verdicts and echo them
in the terminal summary so they stay visible under output capture, and render
an ExperimentSpec back to config text for the round-trip tests."""

import dataclasses

from aircomp.cli import ExperimentSpec
from aircomp.simulator import SimConfig

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(repr(float(x)) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(spec: ExperimentSpec) -> str:
    """Render an ExperimentSpec back to config text.

    Every field is written explicitly, so parse(serialize(spec)) == spec.
    """
    lines: list[str] = []
    if spec.out is not None or spec.verbose:
        lines.append("[global]")
        if spec.out is not None:
            lines.append(f"out = {spec.out}")
        if spec.verbose:
            lines.append("verbose = true")
        lines.append("")
    for name, config in spec.experiments.items():
        lines.append(f"[{name}]")
        for f in dataclasses.fields(SimConfig):
            lines.append(f"{f.name} = {_format_value(getattr(config, f.name))}")
        lines.append("")
    return "\n".join(lines)
