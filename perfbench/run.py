#!/usr/bin/env python3
"""endspec benchmark: one workload in this fresh process, checked and timed.

    python3 perfbench/run.py --workload {hoelder,sommerfeld,survey}
                             [--seed N] [--seconds S] [--trace {0,1}]

Run from the root of a source checkout; endspec is imported from ``src/``
of that checkout and nowhere else.  The run sets up the workload, then
repeats it (closed loop, one caller) while another iteration still fits in
``--seconds``, checks every iteration's outputs against
``perfbench/references.json`` and prints, as its last stdout line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics:
  wall_s       median time of one iteration, first call into endspec to
               the last verdict
  setup_s      median over 7 set-ups (this process and 6 child processes) of
               importing endspec, parsing the workload's configs and
               building its models
  peak_rss_mb  peak resident memory of this process
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics of ``spans.layer_metrics`` per traced iteration, plus the
process CPU time and minor faults of an untraced iteration and the tracing
overhead (traced minus untraced median wall time).

Metric names and units come from ``BENCHMARK.json`` at the checkout root; a
run that would emit a metric not declared there, or miss one, fails.

BLAS runs single-threaded (set below, before numpy is imported): on a
shared two-core machine OpenBLAS threads spin and make wall time depend on
the neighbours, and the setting is recorded with every result.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import WORKLOADS, load_references

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print it as JSON and exit")
    return p.parse_args(argv)


def _import_endspec():
    src = ROOT / "src"
    if not (src / "endspec" / "__init__.py").is_file():
        raise RuntimeError(f"no endspec sources under {src}")
    sys.path.insert(0, str(src))
    import endspec
    if Path(endspec.__file__).resolve().parent != (src / "endspec").resolve():
        raise RuntimeError(f"endspec imported from {endspec.__file__}, not {src}")
    return endspec


def setup(name: str, seed: int, references: dict):
    """Import endspec, parse configs, build models; returns (workload, s)."""
    t0 = time.perf_counter()
    _import_endspec()
    workload = WORKLOADS[name](ROOT, seed, references)
    return workload, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """One set-up in a fresh interpreter (the import is only cold once)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _blas_threads() -> str:
    """Thread count OpenBLAS reports, or 'unknown' if it cannot be asked."""
    import ctypes
    import numpy
    import scipy
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = []
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            try:
                handle = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for sym in names:
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    found.append(f"{pkg.__name__}={fn()}")
                    break
    return ",".join(found) or "unknown"


def environment(seed: int, load_at_start) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": _blas_threads(),
        "loadavg_at_start": load_at_start,
        "seed": seed,
    }


def _usage():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_minflt


def declared_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    """The result's ``metrics`` object; names must match the declared ones."""
    if values.keys() != units.keys():
        raise RuntimeError(
            f"metrics not declared in {BENCHMARK.name}: "
            f"{sorted(values.keys() - units.keys())}; declared but not "
            f"emitted: {sorted(units.keys() - values.keys())}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def per_layer(tracer: Tracer, rows) -> dict[str, float]:
    """Layer metrics per traced iteration plus process and tracing figures."""
    plain = [r for r in rows if not r[0]]
    traced = [r for r in rows if r[0]]
    layers = layer_metrics(tracer, len(traced))
    traced_wall = statistics.median(r[1] for r in traced)
    layers["process.cpu_s"] = statistics.median(r[2] for r in plain)
    layers["process.minor_faults"] = statistics.median(r[3] for r in plain)
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - statistics.median(r[1] for r in plain)
    return layers


def measure(workload, seconds: float, trace: bool):
    """Closed loop of iterations; alternates untraced/traced when tracing.

    Another iteration starts only while the longest one so far still fits
    in ``seconds``; at least one untraced (and, if tracing, one traced)
    iteration always runs.
    """
    tracer = Tracer() if trace else None
    rows = []  # (traced, wall_s, cpu_s, minor_faults)
    attempted, failures = 0, []
    start = time.perf_counter()
    while True:
        traced = trace and len(rows) % 2 == 1
        if traced:
            tracer.install()
        cpu0, flt0 = _usage()
        t0 = time.perf_counter()
        try:
            outputs = workload.run()
        finally:
            wall = time.perf_counter() - t0
            cpu1, flt1 = _usage()
            if traced:
                tracer.restore()
        n, bad = workload.check(outputs)
        attempted += n
        failures += bad
        rows.append((traced, wall, cpu1 - cpu0, flt1 - flt0))
        print(f"iteration {len(rows)}: wall {wall:.4f} s"
              f"{' (traced)' if traced else ''}, {n} checked, {len(bad)} failed",
              flush=True)
        for msg in bad:
            print(f"  mismatch: {msg}", flush=True)
        need_more = trace and len(rows) < 2
        longest = max(r[1] for r in rows)
        if not need_more and time.perf_counter() - start + longest > seconds:
            break
    return rows, tracer, attempted, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    references = load_references()
    if args.setup_only:
        workload, setup_s = setup(args.workload, args.seed, references)
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    load_at_start = os.getloadavg()
    workload, first_setup = setup(args.workload, args.seed, references)
    try:
        setups = [first_setup] + [probe_setup(args.workload, args.seed)
                                  for _ in range(SETUP_SAMPLES - 1)]
        rows, tracer, attempted, failures = measure(
            workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    env = environment(args.seed, load_at_start)
    print("env " + json.dumps(env), flush=True)

    e2e_units = declared_units(trace=False)
    summary = {"wall_s": statistics.median(r[1] for r in rows if not r[0]),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024.0}
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    for name, value in summary.items():
        print(f"{name} = {value:.6g} {e2e_units[name]}")
    print(f"failed_frac = {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted})")

    if args.trace:
        layers = per_layer(tracer, rows)
        units = declared_units(trace=True)
        metrics = with_units(layers, units)
        for name in sorted(layers):
            print(f"{name} = {layers[name]:.6g} {units[name]}")
        if tracer.missing:
            print(f"warning: not traced (absent): {', '.join(tracer.missing)}",
                  file=sys.stderr)
        for msg in sorted(set(tracer.hook_errors)):
            print(f"warning: counter not taken: {msg}", file=sys.stderr)
        out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"env": env, "metrics": layers,
                                   "missing": tracer.missing,
                                   "hook_errors": sorted(set(tracer.hook_errors)),
                                   "spans": tracer.spans}), encoding="utf-8")
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        metrics = with_units(summary, e2e_units)

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # report and fail without printing a result
        traceback.print_exc()
        sys.exit(2)
