"""Tests of the benchmark itself: its correctness check, self time,
unwrapping and the metric names it declares.

    python3 -m pytest perfbench/tests -q
"""

import copy
import sys
import time

import pytest

import run
import spans
import workloads
from workloads import Hoelder, Sommerfeld, Survey

REFS = workloads.load_references()
ROOT = workloads.HERE.parent


# -- correctness check and its negative controls -----------------------------

def test_sommerfeld_check_accepts_reference_and_rejects_perturbation():
    wl = Sommerfeld(ROOT, 0, REFS)
    got = copy.deepcopy(REFS["sommerfeld"])
    assert wl.check(got) == (2, [])
    got["1"]["disc_weighted"] *= 1.0 + 1e-12        # inside the 1e-9 tolerance
    assert wl.check(got) == (2, [])
    perturbed = copy.deepcopy(REFS)
    perturbed["sommerfeld"]["-1"]["disc_weighted"] *= 1.0 + 1e-8
    n, bad = Sommerfeld(ROOT, 0, perturbed).check(
        copy.deepcopy(REFS["sommerfeld"]))
    assert n == 2 and bad == ["sommerfeld sign -1: disc_weighted differ"]


def test_hoelder_check_rejects_perturbed_reference_verdict_and_error():
    got = copy.deepcopy(REFS["hoelder"]["0"])
    assert Hoelder(ROOT, 0, REFS).check(got) == (1, [])
    perturbed = copy.deepcopy(REFS)
    perturbed["hoelder"]["0"]["epsilon_emp"] *= 1.0 + 1e-8
    perturbed["hoelder"]["0"]["verdict"] = "fail"
    n, bad = Hoelder(ROOT, 0, perturbed).check(got)
    assert n == 1 and bad == ["hoelder seed 0: epsilon_emp, verdict differ"]
    n, bad = Hoelder(ROOT, 0, REFS).check({"error": "boom"})
    assert n == 1 and len(bad) == 1


def test_hoelder_seed_without_reference_must_still_pass():
    seed = 10**6
    assert str(seed) not in REFS["hoelder"]
    wl = Hoelder(ROOT, seed, REFS)
    got = dict(copy.deepcopy(REFS["hoelder"]["0"]), epsilon_emp=0.5)
    assert wl.check(got) == (1, [])
    got["verdict"] = "inconclusive"
    assert wl.check(got)[1]


def test_survey_check_on_real_outputs(monkeypatch):
    # one cheap survey entry, run for real, checked against the recorded
    # reference and against references perturbed in one byte / one verdict
    monkeypatch.setattr(workloads, "SURVEY",
                        (("perfbench/configs/escape_sawtooth.cfg", ("check",)),))
    wl = Survey(ROOT, 0, REFS)
    try:
        results = wl.run()
        assert wl.check(results) == (1, [])
        key = next(iter(wl.outputs_of(results)))
        sha = copy.deepcopy(REFS)
        csv = sha["survey"][key]["csv_sha256"]
        name = next(iter(csv))
        csv[name] = ("0" if csv[name][0] != "0" else "1") + csv[name][1:]
        wl.references = sha["survey"]
        assert wl.check(results)[1] == [f"{key}: {name} bytes differ"]
        verdict = copy.deepcopy(REFS)
        exp = next(iter(verdict["survey"][key]["verdicts"]))
        verdict["survey"][key]["verdicts"][exp] = "fail"
        wl.references = verdict["survey"]
        assert len(wl.check(results)[1]) == 1
    finally:
        wl.close()


# -- self time ---------------------------------------------------------------

def test_self_time_on_synthetic_span_tree():
    tree = [
        ["a", 0.0, 10.0, -1, 0.0],
        ["b", 1.0, 4.0, 0, 0.0],
        ["c", 2.0, 3.0, 1, 0.0],
        ["d", 5.0, 7.0, 0, 0.0],
        ["e", 6.0, 9.0, 0, 0.0],     # overlaps d: the union 5..9 is covered once
        ["b", 9.5, 12.0, 0, 0.0],    # runs past its parent: clipped at 10
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 2.0, 1.0, 2.0, 3.0, 2.5])


def test_hook_time_is_taken_out_of_every_enclosing_span():
    # c's hook ran 0.25 s inside b, and b's hook 0.5 s inside a
    tree = [["a", 0.0, 10.0, -1, 0.5],
            ["b", 1.0, 4.0, 0, 0.25],
            ["c", 2.0, 3.0, 1, 0.0]]
    assert spans.self_times(tree) == pytest.approx([6.5, 1.75, 1.0])
    assert spans.inclusive_times(tree) == pytest.approx([9.25, 2.75, 1.0])


def test_hook_time_is_recorded_on_the_caller_span():
    tr = spans.Tracer()
    inner = tr.wrap("inner", lambda: 1, hook=lambda *a: time.sleep(0.05))
    outer = tr.wrap("outer", lambda: inner())
    outer()
    (_, o0, o1, _, o_hook), (_, i0, i1, parent, i_hook) = tr.spans
    assert parent == 0 and i_hook == 0.0
    assert o_hook == tr.hook_s >= 0.05
    assert spans.self_times(tr.spans)[0] == pytest.approx(
        (o1 - o0) - (i1 - i0) - o_hook)


def test_inclusive_time_counts_nested_same_name_once():
    tr = spans.Tracer()
    tr.spans[:] = [["solver.resolve", 0.0, 4.0, -1, 0.0],
                   ["solver.resolve", 1.0, 2.0, 0, 0.0],
                   ["solver.solve_banded", 2.5, 3.0, 0, 0.0]]
    m = spans.layer_metrics(tr, iterations=2)
    assert m["solver.resolve.calls"] == 1.0
    assert m["solver.resolve.s"] == pytest.approx(2.0)
    assert m["solver.resolve.self_s"] == pytest.approx((2.5 + 1.0) / 2)
    assert m["solver.solve_banded.s"] == pytest.approx(0.25)


# -- wrapping and restoring ----------------------------------------------------

def _endspec_bindings():
    import endspec  # noqa: F401
    mods = {k: m for k, m in sys.modules.items()
            if k == "endspec" or k.startswith("endspec.")}
    out = {(k, a): v for k, m in mods.items() for a, v in vars(m).items()
           if callable(v)}
    out[("endspec.models.Model", "conditions")] = vars(
        sys.modules["endspec.models"].Model)["conditions"]
    return out


def test_traced_calls_are_seen_and_every_wrapper_is_restored():
    import endspec
    before = _endspec_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert endspec.radial.geometry_at is not before[
            ("endspec.radial", "geometry_at")]
        grid = endspec.uniform_grid(8.0, 0.05)
        model = endspec.free_model()
        model.operator(0.0, grid, 1.0 + 0.5j)
        model.operator(0.0, grid, 1.0 + 0.25j)
        with pytest.raises(endspec.errors.ContractError):
            model.operator(-1.0, grid, 1.0 + 0.25j)   # mu < 0 is refused
    finally:
        tracer.restore()
    after = _endspec_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    names = [s[0] for s in tracer.spans]
    assert names.count("radial.assemble") == 3
    assert names.count("geometry.geometry_at") == 2
    parent = tracer.spans[names.index("geometry.geometry_at")][3]
    assert tracer.spans[parent][0] == "radial.assemble"
    m = spans.layer_metrics(tracer, iterations=1)
    assert m["geometry.geometry_at.redundant_frac"] == pytest.approx(0.5)
    assert not tracer.missing


# -- declared metrics ----------------------------------------------------------

def test_emitted_metrics_are_exactly_those_declared():
    tr = spans.Tracer()
    tr.spans[:] = [["solver.solve_banded", 0.0, 1.0, -1, 0.0]]
    rows = [(False, 2.0, 1.5, 10), (True, 2.5, 2.0, 12)]
    layers = run.per_layer(tr, rows)
    metrics = run.with_units(layers, run.declared_units(trace=True))
    assert metrics["trace.overhead_s"] == {"value": 0.5, "unit": "s"}
    with pytest.raises(RuntimeError, match="not declared"):
        run.with_units(dict(layers, extra=1.0), run.declared_units(trace=True))
    with pytest.raises(RuntimeError, match="not declared"):
        run.with_units({"wall_s": 1.0}, run.declared_units(trace=False))
