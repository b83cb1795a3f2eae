"""Regenerate tests/golden/: the byte-exact outputs that test_golden.py checks.

The set is every CSV of perfbench/workloads/*.ini and of gaussian.ini, which
pins the clamped gaussian sources, at seeds 5 and 77 with 2000 trials
(metadata lines included), the stdout of five ``aircomp demo``
runs and of ``aircomp verify --quick``, and manifest.json, which names the
NumPy version the files were made under and lists them.  Run it from the
repository root on a commit whose outputs are the accepted reference:

    PYTHONPATH=src python tests/golden/capture.py

A declared change of the outputs reruns it, so the diff shows the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from aircomp import cli

HERE = Path(__file__).resolve().parent
WORKLOADS = HERE.parent.parent / "perfbench" / "workloads"
SEEDS = (5, 77)
TRIALS = 2000
COMMANDS = {  # golden file -> aircomp arguments whose stdout it holds
    "demo-default.txt": ["demo"],
    "demo-analog.txt": ["demo", "--scheme", "analog"],
    "demo-binary_ml.txt": ["demo", "--scheme", "binary_ml"],
    "demo-binary_ml-csi.txt": [
        "demo", "--scheme", "binary_ml", "--k", "5", "--b", "6", "--snr-db", "-3",
        "--csi-error", "0.3", "--seed", "4",
    ],
    "demo-k5-b6.txt": [
        "demo", "--k", "5", "--b", "6", "--snr-db", "-3", "--csi-error", "0.3", "--seed", "4"
    ],
    "verify-quick.txt": ["verify", "--quick"],
}


def _run(argv: list[str]) -> bytes:
    """The stdout of ``aircomp argv``, run in this process; it must succeed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli.main(argv)
    if status != 0:
        raise RuntimeError(f"aircomp {' '.join(argv)} exited with status {status}")
    return stdout.getvalue().encode("utf-8")


def outputs() -> dict[str, bytes]:
    """Every golden file's path relative to tests/golden/ and its bytes, as
    this checkout's code produces them."""
    files = {}
    for ini in sorted(WORKLOADS.glob("*.ini")) + [HERE / "gaussian.ini"]:
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as out:
                argv = ["sweep", str(ini), "--seed", str(seed), "--trials", str(TRIALS)]
                _run(argv + ["--out", out])
                for csv in sorted(Path(out).glob("*.csv")):
                    files[f"{ini.stem}/seed{seed}/{csv.name}"] = csv.read_bytes()
    for name, argv in COMMANDS.items():
        files[name] = _run(argv)
    return files


def main() -> int:
    files = outputs()
    for name, data in files.items():
        path = HERE / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    manifest = {"numpy": np.__version__, "files": sorted(files)}
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    (HERE / "manifest.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(files)} golden files under NumPy {np.__version__} to {HERE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
