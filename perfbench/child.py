"""One measured process of the benchmark: runs ``aircomp sweep`` on a workload.

run.py starts this file in a fresh interpreter for every sample, so imports,
config parsing, every sweep and CSV writing are paid exactly as a user of
``aircomp sweep`` pays them.  It writes one JSON record to ``--result``:

* ``setup_s``: time from the parent's spawn until the first sweep starts.
* ``sweeps``: wall time, trial count and per-point times of every sweep.
* ``peak_rss_mb``: the process's peak resident memory.
* ``spans`` and ``counts`` (``--trace 1`` only): every timed call into the
  package's layers, kept in memory and written out once, at the end.

Tracing replaces public names in the modules that call them (for example
``aircomp.simulator.draw_channel_batch``), so the package's own code is
unchanged.  A name that no longer exists stops the run with one line on
stderr rather than reporting a layer that took no time.

Usage (normally only from run.py)::

    python3 perfbench/child.py CONFIG --out DIR --seed N --result FILE
        --spawned-at T [--trials N] [--trace 0|1] [--setup-only]
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, name the package calls, span name).  The module is where the call
# is made, so wrapping there times exactly the calls the sweep makes.
TRACED = (
    ("aircomp.cli", "parse_config", "cli.parse"),
    ("aircomp.cli", "sweep", "simulator.sweep"),
    ("aircomp.cli", "sweep_to_csv", "cli.csv_write"),
    ("aircomp.simulator", "draw_channel_batch", "channel.draw"),
    ("aircomp.simulator", "greedy_select_batch", "selection.greedy"),
    ("aircomp.simulator", "allocate_power", "transceiver.allocate"),
    ("aircomp.simulator", "reallocate_power", "transceiver.reallocate"),
    ("aircomp.simulator", "ml_lattice_estimate", "transceiver.ml"),
    ("aircomp.codec", "quantize", "codec.quantize"),
    ("aircomp.codec", "encode", "codec.encode"),
    ("aircomp.codec", "encode_offset_binary", "codec.encode"),
    ("aircomp.codec", "decode", "codec.decode"),
    ("aircomp.codec", "decode_offset_binary", "codec.decode"),
)


class BenchError(Exception):
    """A condition that makes the measurement meaningless; one line."""


class SetupDone(Exception):
    """Raised at the first sweep in --setup-only mode."""


class Tracer:
    """In-memory span recorder.  Each span is (name, start_ns, end_ns,
    parent index or -1); the parent is the innermost traced call still open."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.draw_keys: dict[str, int] = {}  # distinct draw -> trials in it
        self.counts = {
            "draw_trials": 0,
            "draw_bytes": 0,
            "draw_calls": 0,
            "active_sum": 0,
            "active_slots": 0,
        }

    def wrap(self, module, attr: str, span: str, observe=None) -> None:
        if not hasattr(module, attr):
            raise BenchError(
                f"cannot trace {module.__name__}.{attr}: the name no longer exists"
            )
        fn = getattr(module, attr)
        signature = inspect.signature(fn) if observe is not None else None
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[index] = (span, t0, t1, parent)
            if observe is not None:
                observe(signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(module, attr, traced)

    def observe_draw(self, arguments, result) -> None:
        """Trials drawn, the RNG stream they came from, and the bytes of the
        tap tensor and the two channel outputs (computed from shapes)."""
        h, _ = result
        n, K, L = h.shape
        mimo = arguments.get("mimo")
        antennas = 1 if mimo is None else mimo.n_tx * mimo.n_rx
        taps = n * K * arguments["params"].num_taps * antennas
        c = self.counts
        c["draw_calls"] += 1
        c["draw_trials"] += n
        c["draw_bytes"] += 16 * (taps + 2 * n * K * L)
        # The same RNG stream drawn at the same shape yields the same trials;
        # an unseeded generator counts as a stream of its own.
        seed_seq = getattr(arguments["rng"].bit_generator, "seed_seq", None)
        stream = (
            (seed_seq.entropy, seed_seq.spawn_key)
            if seed_seq is not None
            else id(arguments["rng"])
        )
        key = repr((stream, taps, h.shape, arguments["params"].csi_error_radius))
        self.draw_keys[key] = n

    def observe_selection(self, arguments, result) -> None:
        n_active = result[0]
        K = arguments["effective_gains"].shape[1]
        self.counts["active_sum"] += int(n_active.sum())
        self.counts["active_slots"] += n_active.size * K

    def install(self) -> None:
        observers = {
            "channel.draw": self.observe_draw,
            "selection.greedy": self.observe_selection,
        }
        for module_name, attr, span in TRACED:
            module = importlib.import_module(module_name)
            self.wrap(module, attr, span, observers.get(span))

    def record(self) -> dict:
        counts = dict(self.counts, distinct_draw_trials=sum(self.draw_keys.values()))
        return {"spans": self.spans, "counts": counts}


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("config")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import aircomp.cli as cli

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    sweeps: list[dict] = []
    first_sweep_at: list[float] = []
    timed_sweep = cli.sweep

    def probe(config, *a, **kw):
        if not first_sweep_at:
            first_sweep_at.append(time.monotonic())
            if args.setup_only:
                raise SetupDone
        t0 = time.perf_counter()
        result = timed_sweep(config, *a, **kw)
        wall = time.perf_counter() - t0
        sweeps.append(
            {
                "wall_s": wall,
                "trials": config.trials * len(result.points),
                "point_s": [pt.runtime for pt in result.points],
            }
        )
        return result

    cli.sweep = probe
    argv_sweep = ["sweep", args.config, "--out", args.out, "--seed", str(args.seed)]
    if args.trials is not None:
        argv_sweep += ["--trials", str(args.trials)]
    try:
        status = cli.main(argv_sweep)
    except SetupDone:
        status = 0
    if status != 0:
        raise BenchError(f"aircomp sweep exited with status {status}")
    if not first_sweep_at:
        raise BenchError("aircomp sweep ran no sweep")

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    record = {
        "setup_s": first_sweep_at[0] - args.spawned_at,
        "sweeps": sweeps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }
    if tracer is not None:
        record.update(tracer.record())
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
