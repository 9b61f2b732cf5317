#!/usr/bin/env python3
"""Record perfbench/references.json from the sources of this checkout.

    python3 perfbench/record.py

References are the outputs the benchmark checks every run against: the
verdicts and fitted numbers of ``hoelder`` (probe seeds 0-31) and
``sommerfeld`` (both signs), and the exit status, verdicts and CSV SHA-256
of every ``survey`` command.  Record them only at a commit whose outputs
are known good; a change that must keep its outputs identical is checked
against the file as committed, never against a fresh recording.
"""

from __future__ import annotations

import json

import run as bench  # sets the BLAS thread count before numpy is imported
from workloads import REFERENCES, Hoelder, Sommerfeld, Survey

HOELDER_SEEDS = range(32)


def main() -> int:
    bench._import_endspec()
    survey = Survey(bench.ROOT, 0, {})
    try:
        refs = {"sommerfeld": Sommerfeld(bench.ROOT, 0, {}).run(),
                "survey": survey.outputs_of(survey.run())}
    finally:
        survey.close()
    refs["hoelder"] = {}
    for seed in HOELDER_SEEDS:
        refs["hoelder"][str(seed)] = Hoelder(bench.ROOT, seed, {}).run()
        print(f"hoelder seed {seed}: {refs['hoelder'][str(seed)]}", flush=True)
    text = json.dumps(refs, indent=1, sort_keys=True)
    if '"error"' in text:
        raise SystemExit("an experiment raised; references not written")
    REFERENCES.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
