"""The names and arguments the benchmark's tracer hooks into still exist.

perfbench/child.py replaces the package's functions by name and reads some
of their arguments by name; a rename would stop every traced benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def _arguments_read(method) -> set[str]:
    """The keys an observer reads from its `arguments` mapping, as
    arguments["name"] or arguments.get("name")."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr != "get" or not node.args:
                continue
            target, key = node.func.value, node.args[0]
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "arguments":
            assert isinstance(key, ast.Constant), ast.dump(node)
            names.add(key.value)
    return names


def test_every_traced_name_still_exists():
    child = _load_child()
    assert child.TRACED
    for module_name, attr, _ in child.TRACED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


@pytest.mark.parametrize(
    "observer, function",
    [("observe_draw", "draw_channel_batch"), ("observe_selection", "greedy_select_batch")],
)
def test_observed_functions_keep_the_argument_names_read(observer, function):
    child = _load_child()
    read = _arguments_read(getattr(child.Tracer, observer))
    assert read  # the observer reads at least one argument
    module = importlib.import_module("aircomp.simulator")
    parameters = inspect.signature(getattr(module, function)).parameters
    assert read <= set(parameters), sorted(read - set(parameters))
