"""Every golden output of tests/golden/ is reproduced byte for byte.

The set (see tests/golden/capture.py) covers the three benchmark workloads'
CSVs and two gaussian-source sweeps at two seeds, five demos and
``verify --quick``.  Rounding can differ
between NumPy versions, so the comparison holds only under the version the
manifest names; under another one the test fails and names both, and never
falls back to a tolerance.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _capture():
    spec = importlib.util.spec_from_file_location("golden_capture", GOLDEN / "capture.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_golden_output_is_reproduced_byte_for_byte():
    manifest = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
    if np.__version__ != manifest["numpy"]:
        pytest.fail(
            f"the golden outputs were captured under NumPy {manifest['numpy']}, "
            f"but this is NumPy {np.__version__}; compare under "
            f"NumPy {manifest['numpy']}, or recapture them with tests/golden/capture.py"
        )
    files = _capture().outputs()
    assert sorted(files) == manifest["files"]
    changed = [name for name, data in files.items() if (GOLDEN / name).read_bytes() != data]
    assert not changed, f"outputs differ from tests/golden/: {changed}"
