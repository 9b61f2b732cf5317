"""The frozen-tail closure (``endspec.closure``): its calls, its imports,
its tail Gram sums, and the Hoelder values it produces, bit for bit.

The far field's and the Lerch sums' own checks against whole Dirichlet
solves and node-by-node sums are in ``test_experiments.py``.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import endspec
from endspec import closure
from endspec.closure import _frozen_products, far_field, frozen_from, tail_gram
from endspec.experiments import (_mode_operators, _probe_sources, hoelder_estimate,
                                 probe_set)
from endspec.models import euclidean_model, free_model, hyperbolic_model, multiend_model
from endspec.radial import norm_weights
from endspec.solver import resolve

SRC = Path(endspec.__file__).parent


def _relative_imports(name):
    """The endspec modules that module ``name`` imports, and every other
    module it imports, by top-level name; each import must be at module
    level."""
    tree = ast.parse((SRC / f"{name}.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert all(node in tree.body for node in imports), name
    internal = {node.module for node in imports if isinstance(node, ast.ImportFrom) and node.level}
    external = {alias.name.split(".")[0] for node in imports if isinstance(node, ast.Import)
                for alias in node.names}
    external |= {node.module.split(".")[0] for node in imports
                 if isinstance(node, ast.ImportFrom) and not node.level}
    return internal, external


def test_closure_imports_only_errors_radial_and_solver():
    # the closure sits below every experiment: it reads operators and solves
    # them, so a later caller in any module above solver imports it freely
    internal, external = _relative_imports("closure")
    assert internal == {"errors", "radial", "solver"}
    assert external <= {"__future__", "cmath", "dataclasses", "math", "numpy"}
    # and nothing it imports reaches back to it
    seen, todo = set(), set(internal)
    while todo:
        name = todo.pop()
        seen.add(name)
        todo |= _relative_imports(name)[0] - seen
    assert "closure" not in seen and "experiments" not in seen


def test_closure_has_three_public_calls_each_called_from_src():
    public = {name for name, obj in vars(closure).items()
              if inspect.isfunction(obj) and obj.__module__ == closure.__name__
              and not name.startswith("_")}
    assert public == {"frozen_from", "far_field", "tail_gram"}
    callers = {}
    for path in SRC.glob("*.py"):
        if path.name != "closure.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in public:
                    callers.setdefault(node.func.id, set()).add(path.name)
    assert callers == {name: {"experiments.py"} for name in public}


def test_tail_gram_matches_the_dirichlet_sums():
    # the H_-s Gram sums of two far fields over every node from J, node by
    # node over J .. F - 1 and closed in form past F, against sums of the
    # whole Dirichlet solutions, on a hyperbolic end whose diagonal freezes
    # well past J; negative control: the closed form alone misses
    model, lam = hyperbolic_model(3), 1.5
    grid = model.make_grid(256.0, 0.05)
    weights = norm_weights(grid, -1.0)
    junction = int(np.searchsorted(grid.nodes, 10.0))
    for op in _mode_operators(model, grid, model.modes(6.5), complex(lam, 0.064)).values():
        far = frozen_from(op, junction)
        assert junction + 100 < far < grid.n - 2
        shifted = [op.shifted(complex(lam, g)) for g in (0.064, 0.032)]
        field1, field2 = (far_field(o, junction, far) for o in shifted)
        g1, g2 = (resolve(o, (junction, np.ones(1)), allow_unabsorbed=True).phi[junction:]
                  for o in shifted)
        g1, g2 = g1 / g1[0], g2 / g2[0]
        w, d = weights[junction:], g1 - g2
        ref = [np.sum(w * np.abs(g1) ** 2), np.sum(w * np.abs(d) ** 2),
               np.sum(w * g1 * d.conj())]
        got = tail_gram(field1, field2, weights, 1.0)
        assert np.all(np.abs(np.array(got) - ref) <= 1e-12 * np.abs(ref))
        p_11 = _frozen_products(field1, field2, 1.0)[0]
        assert abs(p_11.real / ref[0] - 1.0) > 1e-3


# the ladder of the pins: the shared domain is R = 4096 at h = 0.05
_LADDER = dict(s=1.0, gamma_top=0.256, n_pairs=4, n_probes=4, h=0.05)

# float.hex of diff_norm per pair and of epsilon_emp, recorded before the
# closure left experiments.py.  Where each mode's tail freezes on the
# shared grid: at J (free); at the last unknown (euclidean d=3, mu = 0, 2,
# 6); between them (hyperbolic d=3 at probe seed 31, mu = 0, 2, 6); at J on
# a line grid, through the r' rule (multiend)
_HOELDER_PINS = {
    "free": (free_model, 1.0, 0.5, 0, "at J",
             ["0x1.24a695f5227a8p-5", "0x1.48e60e4967903p-6",
              "0x1.3c78a94dcd403p-7", "0x1.36630c0168dc8p-8"], "0x1.f5ce6b6f118ecp-2"),
    "euclidean3": (lambda: euclidean_model(3), 1.0, 6.5, 0, "last",
                   ["0x1.2de2ac5959bfcp-3", "0x1.5708206e49131p-4",
                    "0x1.5bb0946d4aa02p-5", "0x1.5c66747a2d8b1p-6"], "0x1.df3f6f91c0ccep-2"),
    "hyperbolic3": (lambda: hyperbolic_model(3), 1.5, 6.5, 31, "between",
                    ["0x1.48aaf61861eb4p-3", "0x1.8351e026191e2p-4",
                     "0x1.9cd9b1b940366p-5", "0x1.a811dd4903793p-6"], "0x1.c2cf7aa2a3111p-2"),
    "multiend": (multiend_model, 1.0, 0.5, 0, "line",
                 ["0x1.7bed44b06d126p-4", "0x1.6bcc39d3259e9p-5",
                  "0x1.3ade76451d39cp-6", "0x1.25c7ebcedb390p-7"], "0x1.21d373619013fp-1"),
}


@pytest.mark.parametrize("case", list(_HOELDER_PINS))
def test_hoelder_values_are_pinned_bit_for_bit(case):
    make, lam, cap, seed, kind, diffs, eps = _HOELDER_PINS[case]
    model = make()
    table = hoelder_estimate(model, lam, mode_cap=cap, seed=seed, **_LADDER)
    assert [float(row[2]).hex() for row in table.rows] == diffs
    assert float(table.meta["epsilon_emp"]).hex() == eps
    grid = model.make_grid(table.meta["r_max"], _LADDER["h"])
    sources = _probe_sources(probe_set(grid, _LADDER["n_probes"], seed), grid, 1.0)
    junction = max(start + vals.size for start, vals, _ in sources)
    ops = _mode_operators(model, grid, model.modes(cap), complex(lam, 0.256))
    fars, last = [frozen_from(op, junction) for op in ops.values()], grid.n - 2
    assert len(fars) == (3 if cap == 6.5 else 1)
    assert (grid.radii is not grid.nodes) == (kind == "line")
    if kind == "last":
        assert fars == [last] * 3
    elif kind == "between":
        assert all(junction < far < last for far in fars)
    else:
        assert fars == [junction]
