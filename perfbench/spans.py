"""Span tracing around the calls into endspec's public functions.

The tracer wraps each target at every attribute a caller resolves it from:
for a target such as ``endspec.geometry.geometry_at`` it replaces every
global of every loaded ``endspec`` module that *is* that function object
(``endspec.radial.geometry_at``, ``endspec.experiments.geometry_at`` and
the defining module itself), so calls are seen whichever module makes them.
Nothing inside ``src/`` is edited; ``restore`` puts every original back.

Each call records a span ``[name, start, end, parent, hook_s]`` in memory
plus the layer counters of its hook.  A hook runs after its own span has
closed, inside its parent's span; its time is added to the parent's
``hook_s`` and taken out of every enclosing span's inclusive and self time,
and the hooks' total is reported as tracer overhead.  Self time is a span's
duration minus the part of it covered by its child spans and minus its
children's hook time.
"""

from __future__ import annotations

import os
import sys
import time
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


# ---------------------------------------------------------------------------
# layer counters, one hook per target: hook(tracer, args, kwargs, result)
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs.get(key)


def _count_geometry(tr, args, kwargs, result):
    profile = _arg(args, kwargs, 0, "profile")
    cutoffs = _arg(args, kwargs, 1, "cutoffs")
    r = result.r
    # CRC-32 plus shape and end points identifies the grid at ~3 ms per
    # 819k nodes; a cryptographic digest takes ~15 ms, 64 times an iteration
    flat = np.ascontiguousarray(r).ravel()
    digest = (zlib.crc32(memoryview(flat)), float(flat[0]), float(flat[-1]))
    try:
        key = (profile, cutoffs, r.shape, digest)
        hash(key)
    except TypeError:
        key = (id(profile), id(cutoffs), r.shape, digest)
    nodes = int(r.size)
    tr.add("geometry.geometry_at.nodes", nodes)
    if key in tr.seen:
        tr.add("geometry.geometry_at.redundant_nodes", nodes)
    tr.seen.add(key)


def _count_assemble(tr, args, kwargs, result):
    tr.add("radial.assemble.unknowns", result.n_unknowns)


def _count_solve_banded(tr, args, kwargs, result):
    b = _arg(args, kwargs, 2, "b")
    tr.add("solver.solve_banded.rhs_cols", 1 if b.ndim == 1 else b.shape[1])


def _count_resolve(tr, args, kwargs, result):
    tr.add("solver.resolve.unknowns", _arg(args, kwargs, 0, "op").n_unknowns)


def _count_eigh(tr, args, kwargs, result):
    tr.add("solver.eigh_tridiagonal.n", len(_arg(args, kwargs, 0, "d")))
    vals = result[0] if isinstance(result, tuple) else result
    tr.add("solver.eigh_tridiagonal.eigenpairs", len(vals))


def _count_besov(tr, args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid")
    funcs = _arg(args, kwargs, 0, "mode_functions")
    tr.add("radial.besov_from_modes.nodes", grid.n * len(funcs))


def _count_write_csv(tr, args, kwargs, result):
    tr.add("tableio.write_csv.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


@dataclass(frozen=True)
class Target:
    """One traced name: ``owner`` is a module (or ``module:Class``) path."""

    name: str
    owner: str
    attr: str
    hook: Callable | None = None


TARGETS = (
    Target("geometry.geometry_at", "endspec.geometry", "geometry_at", _count_geometry),
    Target("radial.assemble", "endspec.radial", "assemble_radial_operator",
           _count_assemble),
    Target("radial.assemble", "endspec.radial", "assemble_line_operator",
           _count_assemble),
    Target("solver.solve_banded", "endspec.solver", "solve_banded",
           _count_solve_banded),
    Target("solver.resolve", "endspec.solver", "resolve", _count_resolve),
    Target("solver.eigh_tridiagonal", "endspec.solver", "eigh_tridiagonal",
           _count_eigh),
    Target("solver.eigen_scan", "endspec.solver", "eigen_scan"),
    Target("solver.eigen_scan", "endspec.solver", "eigen_scan_tridiag"),
    Target("radial.besov_from_modes", "endspec.radial", "besov_from_modes",
           _count_besov),
    Target("radial.weighted_norm", "endspec.radial", "weighted_norm"),
    Target("phase.phase_a", "endspec.phase", "phase_a"),
    Target("phase.riccati_residual", "endspec.phase", "riccati_residual"),
    Target("conditions.check_conditions", "endspec.conditions", "check_conditions"),
    Target("conditions.check_escape_2d", "endspec.conditions", "check_escape_2d"),
    Target("models.conditions", "endspec.models:Model", "conditions"),
    Target("experiments.lap_sweep", "endspec.experiments", "lap_sweep"),
    Target("experiments.radiation_sweep", "endspec.experiments", "radiation_sweep"),
    Target("experiments.hoelder_estimate", "endspec.experiments", "hoelder_estimate"),
    Target("experiments.sommerfeld_compare", "endspec.experiments",
           "sommerfeld_compare"),
    Target("experiments.besov_energy_check", "endspec.experiments",
           "besov_energy_check"),
    Target("tableio.write_csv", "endspec.tableio", "write_csv", _count_write_csv),
    Target("svgplot.write_loglog_svg", "endspec.svgplot", "write_loglog_svg"),
    Target("config.parse_config", "endspec.config", "parse_config"),
    Target("cli.run", "endspec.cli", "run"),
)

SPAN_NAMES = tuple(dict.fromkeys(t.name for t in TARGETS))

# counters a hook adds, reported per iteration next to calls / s / self_s
COUNTERS = (
    "geometry.geometry_at.nodes", "radial.assemble.unknowns",
    "solver.solve_banded.rhs_cols", "solver.resolve.unknowns",
    "solver.eigh_tridiagonal.n", "solver.eigh_tridiagonal.eigenpairs",
    "radial.besov_from_modes.nodes", "tableio.write_csv.bytes",
)


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans and counters; install() wraps, restore() unwraps.

    Parents come from one call stack, so callers must be single-threaded
    (the workloads are; the CLI runs with ``--jobs 1``).
    """

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, hook_s]
        self.counts: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.seen: set = set()           # geometry_at evaluations so far
        self.missing: list[str] = []     # targets absent from this endspec
        self.hook_errors: list[str] = []  # counters that could not be taken
        self.hook_s = 0.0                # total time spent in hooks
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner object, attr, original)

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, clock(), None, parent, 0.0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None:
                h0 = clock()
                try:
                    hook(self, args, kwargs, result)
                except Exception as exc:  # a counter must never fail the call
                    self.hook_errors.append(f"{name}: {type(exc).__name__}: {exc}")
                spent = clock() - h0
                self.hook_s += spent
                if parent >= 0:
                    spans[parent][4] += spent
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target; redundancy is counted afresh per install."""
        self.seen.clear()
        self.missing.clear()
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "endspec" or k.startswith("endspec."))]
        for t in TARGETS:
            mod_name, _, cls_name = t.owner.partition(":")
            owner = sys.modules.get(mod_name)
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, t.attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{t.owner}.{t.attr}")
                continue
            wrapper = self.wrap(t.name, original, t.hook)
            if cls_name:
                self._patch(owner, t.attr, original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    and minus the time its children's hooks ran inside it."""
    children: dict[int, list] = defaultdict(list)
    for name, start, end, parent, hook_s in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, hook_s) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered - hook_s)
    return out


def inclusive_times(spans) -> list[float]:
    """Duration of each span minus the hook time of its whole subtree.

    A child is appended after its parent, so one backward pass sums it.
    """
    hooks = [s[4] for s in spans]
    for idx in range(len(spans) - 1, -1, -1):
        parent = spans[idx][3]
        if parent >= 0:
            hooks[parent] += hooks[idx]
    return [(s[2] - s[1]) - h for s, h in zip(spans, hooks)]


def layer_metrics(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Per-iteration layer metrics: calls, inclusive s, self_s, counters.

    Inclusive time skips a span nested inside a span of the same name, so
    recursion is not counted twice.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    incl = inclusive_times(spans)

    def inside(idx, name):
        p = spans[idx][3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        return p >= 0

    totals: dict[str, float] = defaultdict(float)
    certified = 0
    for idx, (name, start, end, parent, hook_s) in enumerate(spans):
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += selfs[idx]
        if not inside(idx, name):
            totals[f"{name}.s"] += incl[idx]
        if name == "conditions.check_conditions" and inside(idx, "models.conditions"):
            certified += 1
    out = {}
    for name in SPAN_NAMES:
        for what in ("calls", "s", "self_s"):
            out[f"{name}.{what}"] = totals.get(f"{name}.{what}", 0.0) / iterations
    for key in COUNTERS:
        out[key] = tracer.counts.get(key, 0.0) / iterations
    nodes = tracer.counts.get("geometry.geometry_at.nodes", 0.0)
    out["geometry.geometry_at.redundant_frac"] = (
        tracer.counts.get("geometry.geometry_at.redundant_nodes", 0.0) / nodes
        if nodes else 0.0)
    calls = totals.get("solver.solve_banded.calls", 0.0)
    out["solver.solve_banded.rhs_per_call"] = (
        tracer.counts.get("solver.solve_banded.rhs_cols", 0.0) / calls
        if calls else 0.0)
    out["solver.errors"] = sum(v for k, v in tracer.errors.items()
                               if k.startswith("solver.")) / iterations
    asked = totals.get("models.conditions.calls", 0.0)
    out["models.conditions.hit_ratio"] = 1.0 - certified / asked if asked else 0.0
    out["trace.hook_s"] = tracer.hook_s / iterations
    return out
