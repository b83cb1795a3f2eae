"""Benchmark of ``aircomp sweep``: end-to-end throughput, memory and set-up
time, and a traced run that splits sweep time over the package's layers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reference_set --seed 1 --seconds 20 --trace 0

Each sample is a fresh interpreter (perfbench/child.py) that runs
``aircomp.cli.main(["sweep", <workload config>, "--out", <dir>, "--seed", N])``.
Samples repeat for about ``--seconds``.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced samples and
reports the per-layer metrics.  Every run checks the CSVs: each grid point
must be finite, have the configured trial count and lie within the
standard-error bound of the golden value (perfbench/golden), and traced and
untraced CSVs must agree byte for byte.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reference_set", "mimo_2x2", "large_k")
GOLDEN_TRIALS = 8192  # trials per grid point in the workload configs
BATCH_TRIALS = 8192  # per-layer times are reported per batch of this size
SETUP_PROBES = 10  # extra set-up-only samples per untraced run
STDERR_BOUND = 6.0  # allowed |nmse - golden| in combined standard errors
DEADLINE_S = 170.0  # hard cap on one run, so it ends within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"


class BenchError(Exception):
    """Reported as one line on stderr with exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise BenchError(message)


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _pos_int(text: str) -> int:
    value = _nonneg_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def parse_args(argv):
    parser = _Parser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_nonneg_int, default=1)
    parser.add_argument(
        "--seconds", type=_pos_int, default=20, help="measure for this long (<= 120)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trials",
        type=_pos_int,
        default=None,
        help="trials per grid point (default: the workload's; no golden check otherwise)",
    )
    args = parser.parse_args(argv)
    if args.seconds > 120:
        raise BenchError(f"--seconds must be <= 120, got {args.seconds}")
    return args


# ---------------------------------------------------------------------------
# samples


def child_env() -> dict:
    """The caller's environment minus AIRCOMP_* and with BLAS/OpenMP pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("AIRCOMP_")}
    for var in THREAD_VARS:
        env[var] = THREADS
    return env


def run_child(args, out: Path, result: Path, deadline: float, trace: int, setup_only=False) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        str(HERE / "workloads" / f"{args.workload}.ini"),
        "--out", str(out),
        "--seed", str(args.seed),
        "--result", str(result),
        "--trace", str(trace),
    ]
    if args.trials is not None:
        cmd += ["--trials", str(args.trials)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run deadline passed before a sample could start")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a sample did not finish within the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["(no message)"]
        raise BenchError(f"sample exited with status {proc.returncode}: {lines[-1]}")
    return json.loads(result.read_text(encoding="utf-8"))


def collect(args, work: Path, start: float) -> tuple[list, list, list]:
    """(setup probes, untraced samples, traced samples); each sample is
    (record, output directory)."""
    deadline = start + DEADLINE_S
    probes, plain, traced = [], [], []
    if not args.trace:
        for i in range(SETUP_PROBES):
            d = work / f"probe{i}"
            d.mkdir()
            probes.append(run_child(args, d, d / "r.json", deadline, 0, setup_only=True))
    # Start another sample (a pair when tracing) only while at least half of
    # it fits in --seconds, so a run lasts about --seconds.
    measure_from = time.monotonic()
    n = 0
    unit_s = 0.0
    while n == 0 or time.monotonic() - measure_from + unit_s / 2 < args.seconds:
        unit_start = time.monotonic()
        for trace in (0, 1) if args.trace else (0,):
            d = work / f"sample{n}"
            d.mkdir()
            record = run_child(args, d, d / "r.json", deadline, trace)
            (traced if trace else plain).append((record, d))
            n += 1
        unit_s = time.monotonic() - unit_start
    return probes, plain, traced


# ---------------------------------------------------------------------------
# correctness


def read_csvs(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


def parse_points(csv: bytes) -> list[dict]:
    lines = csv.decode("utf-8").splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def load_golden(workload: str) -> dict:
    path = HERE / "golden" / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"golden reference {path} is missing")
    golden = json.loads(path.read_text(encoding="utf-8"))
    if golden["trials_per_point"] != GOLDEN_TRIALS:
        raise BenchError(f"{path} was captured at {golden['trials_per_point']} trials per point")
    return golden["seeds"]


def nmse_se(nmse: float, stderr: float, trials: int) -> float:
    """Standard error of an NMSE point.  The CSV's stderr covers the mean
    squared error only; the mean squared true sum in the denominator adds a
    relative error of sqrt(2 / trials) (a near-Gaussian sum of sources), which
    dominates at the quantization floor."""
    return math.hypot(stderr, nmse * math.sqrt(2.0 / trials))


def check_points(csvs: dict, golden: dict | None, trials: int, expected: dict) -> tuple[int, int, list]:
    """(attempted, failed, messages) for one sample's CSVs.  expected maps
    CSV name to its grid size; golden maps CSV name to the reference text."""
    attempted = failed = 0
    messages = []
    for name, n_points in expected.items():
        points = parse_points(csvs[name]) if name in csvs else []
        ref = parse_points(golden[name].encode()) if golden and name in golden else None
        for i in range(n_points):
            attempted += 1
            why = None
            if i >= len(points):
                why = "missing"
            else:
                pt = points[i]
                nmse, se = float(pt["nmse"]), float(pt["stderr"])
                if not (math.isfinite(nmse) and math.isfinite(se)):
                    why = f"nmse {nmse} is not finite"
                elif int(pt["trials"]) != trials:
                    why = f"{pt['trials']} trials, expected {trials}"
                elif ref is not None:
                    g_nmse = float(ref[i]["nmse"])
                    bound = STDERR_BOUND * math.hypot(
                        nmse_se(nmse, se, trials), nmse_se(g_nmse, float(ref[i]["stderr"]), trials)
                    )
                    if abs(nmse - g_nmse) > bound:
                        why = f"nmse {nmse:.6g} vs golden {g_nmse:.6g} (bound {bound:.2g})"
            if why is not None:
                failed += 1
                messages.append(f"{name} point {i}: {why}")
    return attempted, failed, messages


def read_workload(workload: str) -> dict[str, dict[str, str]]:
    """Sections of a workload config as raw key/value text, read without the
    package so that the check does not trust the code under test."""
    sections: dict[str, dict[str, str]] = {}
    for line in (HERE / "workloads" / f"{workload}.ini").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]").strip(), {})
        elif "=" in line:
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
    return sections


# ---------------------------------------------------------------------------
# metrics


def sample_sweep(record: dict) -> tuple[int, float]:
    return (
        sum(s["trials"] for s in record["sweeps"]),
        sum(s["wall_s"] for s in record["sweeps"]),
    )


def percentile_with_tail(values: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p95/p90/p80 with at least ten samples beyond it."""
    ordered = sorted(values)
    for q in (99, 95, 90, 80):
        beyond = len(ordered) - math.ceil(q / 100 * len(ordered))
        if beyond >= 10:
            return f"p{q}", ordered[math.ceil(q / 100 * len(ordered)) - 1]
    return None


def end_to_end(probes, plain) -> tuple[dict, list[str]]:
    records = [r for r, _ in plain]
    throughput = [t / w for t, w in map(sample_sweep, records)]
    point_s = [p for r in records for s in r["sweeps"] for p in s["point_s"]]
    setups = [r["setup_s"] for r in probes + records]
    rss = [r["peak_rss_mb"] for r in records]
    metrics = {
        "trials_per_s": (statistics.median(throughput), "1/s"),
        "point_s_p50": (statistics.median(point_s), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    tail = percentile_with_tail(point_s)
    notes = [
        f"samples: {len(records)} sweep processes, {len(point_s)} grid points, "
        f"{len(setups)} set-ups",
        f"trials_per_s per sample: {', '.join(f'{x:.0f}' for x in throughput)}",
        f"peak_rss_mb max: {max(rss):.1f}",
    ]
    if tail is not None:
        notes.append(f"point_s {tail[0]}: {tail[1]:.4f} s (n={len(point_s)})")
    return metrics, notes


def layer_self_ns(spans: list) -> dict[str, int]:
    """Self time per span name: duration minus direct traced children."""
    child_ns = [0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    totals: dict[str, int] = {}
    for i, (name, t0, t1, _) in enumerate(spans):
        totals[name] = totals.get(name, 0) + (t1 - t0) - child_ns[i]
    return totals


def per_layer(plain, traced, csv_identical: int, workload_uses: set) -> tuple[dict, list[str]]:
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    sweep_ns = 0
    trials = 0
    for record, _ in traced:
        for name, ns in layer_self_ns(record["spans"]).items():
            self_ns[name] = self_ns.get(name, 0) + ns
        for name, t0, t1, _ in record["spans"]:
            calls[name] = calls.get(name, 0) + 1
            if name == "simulator.sweep":
                sweep_ns += t1 - t0
        for key, value in record["counts"].items():
            counts[key] = counts.get(key, 0) + value
        trials += sample_sweep(record)[0]
    required = {"channel.draw", "selection.greedy", "codec.quantize", "codec.encode",
                "codec.decode", "transceiver.allocate", "simulator.sweep",
                "cli.parse", "cli.csv_write"} | workload_uses
    missing = sorted(name for name in required if not calls.get(name))
    if missing:
        raise BenchError(
            f"traced run saw no call to {', '.join(missing)}; the package no longer "
            "calls the traced names, so the layer times would be wrong"
        )

    batches = trials / BATCH_TRIALS
    n_traced = len(traced)

    def ms(*names):
        return sum(self_ns.get(n, 0) for n in names) / 1e6

    layers = {
        "channel": ms("channel.draw"),
        "selection": ms("selection.greedy"),
        "codec": ms("codec.quantize", "codec.encode", "codec.decode"),
        "transceiver": ms("transceiver.allocate", "transceiver.reallocate", "transceiver.ml"),
        "simulator.self": ms("simulator.sweep"),
    }
    sweep_ms = sweep_ns / 1e6
    untraced_wall = statistics.median(sample_sweep(r)[1] for r, _ in plain)
    traced_wall = statistics.median(sample_sweep(r)[1] for r, _ in traced)
    metrics = {
        "channel.draw_ms_per_batch": (layers["channel"] / batches, "ms"),
        "channel.share": (layers["channel"] / sweep_ms, "fraction"),
        "channel.draws_per_trial": (counts["draw_trials"] / counts["distinct_draw_trials"], "count"),
        "channel.taps_mb_per_batch": (counts["draw_bytes"] / counts["draw_calls"] / 2**20, "MB"),
        "selection.greedy_ms_per_batch": (layers["selection"] / batches, "ms"),
        "selection.share": (layers["selection"] / sweep_ms, "fraction"),
        "selection.active_fraction": (counts["active_sum"] / counts["active_slots"], "fraction"),
        "codec.quantize_ms_per_batch": (ms("codec.quantize") / batches, "ms"),
        "codec.encode_ms_per_batch": (ms("codec.encode") / batches, "ms"),
        "codec.decode_ms_per_batch": (ms("codec.decode") / batches, "ms"),
        "transceiver.ms_per_batch": (layers["transceiver"] / batches, "ms"),
        "simulator.self_ms_per_batch": (layers["simulator.self"] / batches, "ms"),
        "simulator.batches": (batches / n_traced, "count"),
        "simulator.csv_identical": (csv_identical, "count"),
        "cli.parse_ms": (ms("cli.parse") / n_traced, "ms"),
        "cli.csv_write_ms": (ms("cli.csv_write") / n_traced, "ms"),
        "trace.overhead": (traced_wall / untraced_wall - 1.0, "fraction"),
    }
    shares = ", ".join(f"{k} {v / sweep_ms:.1%}" for k, v in layers.items())
    notes = [
        f"samples: {len(plain)} untraced, {n_traced} traced; {batches:g} batches of "
        f"{BATCH_TRIALS} trials traced",
        f"traced sweep time {sweep_ms:.0f} ms: {shares}; "
        f"accounted {sum(layers.values()) / sweep_ms:.1%}",
    ]
    for span in ("transceiver.ml", "transceiver.reallocate"):
        if calls.get(span):
            notes.append(f"{span}_ms_per_batch: {ms(span) / batches:.4f} ms")
    return metrics, notes


def workload_uses(sections: dict) -> set[str]:
    """Traced spans that only some configs call."""
    uses = set()
    for keys in sections.values():
        if keys.get("detector") == "ml" or keys.get("scheme") == "binary_ml":
            uses.add("transceiver.ml")
        if keys.get("reallocate") == "true":
            uses.add("transceiver.reallocate")
    return uses


# ---------------------------------------------------------------------------


def machine_record() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "threads": {var: THREADS for var in THREAD_VARS},
        "src_lines": src_lines,
    }


def run(args) -> dict:
    start = time.monotonic()
    if not (ROOT / "src" / "aircomp" / "__init__.py").is_file():
        raise BenchError(f"no aircomp package under {ROOT / 'src'}; run from a full checkout")
    sections = read_workload(args.workload)
    expected = {f"{name}.csv": len(keys["snr_db_grid"].split()) for name, keys in sections.items()}
    trials = args.trials or GOLDEN_TRIALS
    golden_seeds = load_golden(args.workload) if args.trials is None else {}
    golden = golden_seeds.get(str(args.seed))
    reference = golden if golden is not None else golden_seeds.get("1")

    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        probes, plain, traced = collect(args, work, start)
        attempted = failed = 0
        messages = []
        outputs = [(d, read_csvs(d)) for _, d in plain + traced]
        base = outputs[0][1]
        mismatched = [d.name for d, csvs in outputs if csvs != base]
        if mismatched:
            messages.append(f"{', '.join(mismatched)}: CSVs differ from {outputs[0][0].name}")
        for d, csvs in outputs:
            a, f, m = check_points(csvs, reference, trials, expected)
            attempted, failed = attempted + a, failed + f
            messages += m
        csv_identical = 0
        if golden is not None:
            csv_identical = sum(
                base.get(name) == text.encode() for name, text in golden.items()
            )
        if args.trace:
            metrics, notes = per_layer(plain, traced, csv_identical, workload_uses(sections))
        else:
            metrics, notes = end_to_end(probes, plain)
        machine = machine_record()
        first = plain[0][0]
        machine["numpy"] = first["numpy"]
        machine["blas"] = first["blas"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trials/point {trials}  "
          f"trace {args.trace}  measured {args.seconds} s")
    print("machine " + json.dumps(machine, sort_keys=True))
    if golden is not None:
        print(f"golden: seed {args.seed}, {csv_identical}/{len(golden)} CSVs byte-identical")
    elif reference is not None:
        print(f"golden: none stored for seed {args.seed}; points compared with seed 1 "
              "within the standard-error bound")
    else:
        print("golden: none at this trial count; points checked for finiteness and size")
    for line in messages[:20]:
        print("FAILED " + line)
    print(f"points_failed_ratio = {failed / attempted:g}  ({failed}/{attempted} count)")
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {unit}")
    return {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
