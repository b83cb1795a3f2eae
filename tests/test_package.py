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


def _python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)


def test_the_readme_single_trial_example_runs_verbatim(capsys):
    # the documented draw_channel / run_trial API cannot drift from the code
    blocks = [b for b in _python_blocks(README.read_text(encoding="utf-8")) if "run_trial(" in b]
    assert len(blocks) == 1
    assert "SimConfig(trials=1)" in blocks[0]  # one trial: fast enough for every run
    exec(compile(blocks[0], "README.md", "exec"), {})
    shapes, sums = capsys.readouterr().out.splitlines()
    assert shapes == "(20, 8) (20, 8)"
    assert len(sums.split()) == 3
