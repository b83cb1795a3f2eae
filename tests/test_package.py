"""The package's top-level names are the API that README documents."""

import re
from pathlib import Path

import aircomp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_appears_in_the_readme():
    text = README.read_text(encoding="utf-8")
    for name in aircomp.__all__:
        assert hasattr(aircomp, name), name
        assert re.search(rf"\b{re.escape(name)}\b", text), name
