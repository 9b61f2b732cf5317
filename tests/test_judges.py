"""The verdict rules (``endspec.judges``): where verdicts are decided, what
the module imports, and the rules that the experiments' own tests do not
reach one branch at a time."""

import ast
import math
from pathlib import Path

import pytest

import endspec
from endspec.judges import gamma_uniformity, hoelder_verdict, sommerfeld_verdict

SRC = Path(endspec.__file__).parent
_VERDICTS = {"pass", "fail", "inconclusive"}


def _verdict_literals(source: str):
    """(line, value) of every string constant of ``source`` that is a
    verdict, docstrings left out."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                docstrings.add(id(first.value))
    return [(node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in _VERDICTS
            and id(node) not in docstrings]


@pytest.mark.parametrize("name", ["experiments", "phase", "solver"])
def test_no_verdict_is_decided_outside_judges(name):
    # a verdict string in these modules would be a rule written inline
    assert _verdict_literals((SRC / f"{name}.py").read_text()) == []


def test_verdict_literal_check_flags_a_planted_literal():
    source = ('"""pass"""\n\ndef rule(x):\n    """fail or inconclusive."""\n'
              '    return "pass" if x else ("fail", "ok")\n')
    assert _verdict_literals(source) == [(5, "pass"), (5, "fail")]


def test_judges_imports_no_endspec_module():
    # every module of the package may import the rules, so they import none
    tree = ast.parse((SRC / "judges.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(node in tree.body for node in imports)
    assert not any(isinstance(node, ast.ImportFrom) and node.level for node in imports)
    names = {alias.name.split(".")[0] for node in imports if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module.split(".")[0] for node in imports if isinstance(node, ast.ImportFrom)}
    assert names <= {"math", "numpy"}


def test_gamma_uniformity_floor_empty_series_and_one_distinct_gamma():
    gammas = [0.1, 0.01]
    # under the floor a quantity passes with ratio 1; an empty one is left out
    verdict, ratios = gamma_uniformity(gammas, {"a": [1e-9, 1e-12], "b": []}, floor=1e-8)
    assert (verdict, ratios) == ("pass", {"a": 1.0})
    verdict, ratios = gamma_uniformity(gammas, {"a": [1.0, 2.5], "b": [1.0, 1.5]})
    assert (verdict, ratios) == ("fail", {"a": 2.5, "b": 1.5})
    # one distinct Gamma decides nothing, whatever the values
    verdict, ratios = gamma_uniformity([0.1, 0.1], {"a": [1.0, 2.5]})
    assert (verdict, ratios) == ("inconclusive", {"a": 2.5})
    verdict, ratios = gamma_uniformity([0.1], {"a": [float("nan")]})
    assert verdict == "inconclusive" and math.isnan(ratios["a"])


@pytest.mark.parametrize("args, verdict", [
    ((0.3, 0.95, 1 / 3), "pass"),
    ((0.2, 0.95, 1 / 3), "fail"),
    ((0.6, 0.5, 1 / 3), "inconclusive"),
], ids=["above", "below", "unreliable"])
def test_hoelder_verdict_branches(args, verdict):
    assert hoelder_verdict(*args) == verdict


@pytest.mark.parametrize("gaps, tail, verdict", [
    ([(1e-3, 2e-4)], (1.0, 0.1, -0.5), "pass"),       # decays by its slope
    ([(1e-3, 2e-4)], (0.05, 0.1, None), "pass"),      # under the floor
    ([(1e-3, 2e-4)], (1.0, 0.1, None), "fail"),       # no decay
    ([(1e-3, 2e-3)], (1.0, 0.1, -0.5), "inconclusive"),  # gaps grow
], ids=["slope", "floor", "flat", "gaps-grow"])
def test_sommerfeld_verdict_branches(gaps, tail, verdict):
    assert sommerfeld_verdict(1e-5, 1e-4, gaps, *tail) == verdict
