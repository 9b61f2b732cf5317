"""The benchmark's Hoelder and Sommerfeld calls against their recorded outputs.

Besides the survey (``test_survey_bytes.py``), ``perfbench/references.json``
records criterion 7 (the hoelder workload, probe seeds 0-31) and criterion 8
(the sommerfeld workload, per sign).  Each is run here through the
benchmark's own workload and checked by its own comparison, at its relative
tolerance ``REL_TOL`` (1e-9), so a change that must keep these outputs is
checked by the suite itself.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "benchmark_workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)
REFS = workloads.load_references()


@pytest.mark.parametrize("seed", range(32))
def test_hoelder_seed_matches_its_reference(seed):
    # every recorded probe seed, since Hoelder's diff_norm moves by roundoff
    # whenever its sums are reordered
    wl = workloads.Hoelder(ROOT, seed, REFS)
    assert sorted(map(int, wl.references)) == list(range(32))
    assert wl.check(wl.run()) == (1, [])


def test_sommerfeld_both_signs_match_their_references():
    wl = workloads.Sommerfeld(ROOT, 0, REFS)
    outputs = wl.run()
    assert sorted(outputs) == sorted(wl.references) == ["-1", "1"]
    assert wl.check(outputs) == (2, [])
