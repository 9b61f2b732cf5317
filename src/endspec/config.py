"""Plain-text sectioned run configuration.

Format: `[section]` headers followed by `key = value` lines; `#` starts a
comment; blank lines are ignored.  Sections are `[model]`, `[grid]`,
`[output]` and any number of `[experiment NAME]` blocks (`experiment`,
whitespace, then the name).  Values are typed by the schema below; lists
are comma-separated, and a float is finite.

    [model]
    kind = free | power | euclidean | exponential | stretchedexp
           | tabulated | hyperbolic | well | multiend
           | escape_disk | escape_hyperbola | escape_sawtooth
    d = 3            # every warped kind but free
    theta = 2.0      # power; stretchedexp exponent, 0 < theta < 1
    kappa = 1.0      # exponential: f = amp exp(kappa r + lower_c r^lower_theta)
    amp = 1.0
    lower_c = 0.0
    lower_theta = 0.5
    delta = 1.0      # stretchedexp: f = exp(delta r^theta)
    csv = warp.csv   # tabulated: columns r,f
    r0 = 2.0
    depth = 5.0      # well: V = -depth on [well_a, well_b]
    well_a = 1.0
    well_b = 2.0
    lambda0 = 0.0    # multiend: right/left end levels
    lambda1 = 4.0
    x_min = -24.0
    obstacle_k = 3.0 # escape_hyperbola K > 2 (default 3.0);
                     # escape_sawtooth K (default 1.0)

    [grid]
    r_max = 64.0     # > 1
    h = 0.02         # > 0
    mode_cap = 6.5   # >= 0

    [output]
    directory = out
    svg = false

    [experiment NAME]
    kind = check | solve | lap | radiation | hoelder | rellich
           | sommerfeld | riccati | besov_energy
    lambda = 1.0
    gammas = 0.1, 0.01, 0.001  # each in (0, 1)
    betas = 0, 0.5, 0.9      # each >= 0
    s = 1.0                  # > 1/2
    psi_a = 2.0              # source bump support and amplitude
    psi_b = 3.0
    psi_amp = 1.0
    sign = 1                 # +1 or -1
    interval_lo = -5.0       # rellich scan window
    interval_hi = 10.0
    delta = 0.25             # besov_energy
    nus = 0,1,2,3,4,5,6      # each in [0, 12]
    tol = 1e-4               # sommerfeld agreement tolerance, > 0
    gamma_top = 0.002        # > 0
    window_r_max = 64.0
    seed = 0                 # hoelder probe seed, >= 0
    n_pairs = 4              # hoelder ladder length, >= 2
    n_probes = 8             # hoelder probe count, >= 1

Validation collects every violation (unknown keys and sections, a [model]
key its kind does not take, an [experiment] key its kind never reads, type
mismatches, non-finite floats, out-of-range values, empty lists, a missing
or empty kind, duplicate experiment names, blocks other than check on an
escape_* model) and raises a single ConfigError carrying the full list;
range checks see only the keys a block's kind reads.

The key table (``_MODEL_KEYS``, ``_GRID_KEYS``, ``_OUTPUT_KEYS``,
``_EXPERIMENT_KEYS``) gives each key's type.  The range rules of the
[grid] keys are ``_GRID_RULES``; those of the experiment keys live in
``experiments.INPUT_RULES``, beside the functions that take them, and each
experiment refuses its arguments by that table at entry, so a block and a
library call are refused with the same text.  The block table
``_EXPERIMENT_NEEDS`` (``_MODELS`` for models) gives each kind's required
and optional keys, and the CLI forwards the optional ones from it.  A new
block kind is a row in each table plus one runner in ``cli._RUNNERS``.

``build_model`` builds the model a [model] section declares; an unset model
key takes its builder's default.  Experiment options hold only the keys a
block sets: an unset key takes the library's default.  Two settings are
read narrower than the schema suggests.  A besov_energy block runs the
decade [g, g/sqrt(10), g/10] below its first gamma g, whatever else the
list holds.  Sommerfeld blocks ignore [grid] mode_cap and run at the
library's cap of 0.5.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .conditions import disk_complement_field, hyperbola_field, sawtooth_field
from .errors import ConfigError, ContractError
from .experiments import input_violations
from .models import (euclidean_model, exp_model, free_model, hyperbolic_model,
                     multiend_model, power_model, square_well_model,
                     stretched_exp_model, tabulated_model)
from .tableio import text_hash


# section -> key -> the type its value parses as (a ``_PARSERS`` name)
_MODEL_KEYS = {
    "kind": "str", "d": "int", "theta": "float", "kappa": "float", "r0": "float",
    "depth": "float", "well_a": "float", "well_b": "float",
    "lambda0": "float", "lambda1": "float", "x_min": "float", "obstacle_k": "float",
    "delta": "float", "amp": "float", "lower_c": "float", "lower_theta": "float",
    "csv": "str",
}
_GRID_KEYS = {"h": "float", "r_max": "float", "mode_cap": "float"}
_OUTPUT_KEYS = {"directory": "str", "svg": "bool"}
_EXPERIMENT_KEYS = {
    "kind": "str", "lambda": "float", "gammas": "float_list", "betas": "float_list",
    "gamma_top": "float", "s": "float", "sign": "int", "n_pairs": "int",
    "n_probes": "int", "seed": "int", "psi_a": "float", "psi_b": "float",
    "psi_amp": "float", "interval_lo": "float", "interval_hi": "float",
    "delta": "float", "nus": "int_list", "tol": "float", "window_r_max": "float",
}
# the [grid] range rules, in the form of ``experiments.INPUT_RULES``, which
# holds the experiment keys' rules; each table's rules run in its order
_GRID_RULES = {
    "h": (lambda v: v > 0, "h must be positive"),
    "r_max": (lambda v: v > 1, "r_max must exceed 1"),
    "mode_cap": (lambda v: v >= 0, "mode_cap must be >= 0"),
}


def _list(parse):
    return lambda raw: [parse(p) for p in raw.split(",") if p.strip()]


def _finite(value) -> bool:
    """Whether every float in a parsed value (one value or a list) is
    finite; a non-finite float is refused here, by key name, for every
    float and float-list key, before any range rule sees it."""
    return all(math.isfinite(v) for v in (value if isinstance(value, list) else [value])
               if isinstance(v, float))


# an experiment header: `experiment`, whitespace and the block's name
_EXPERIMENT_HEADER = re.compile(r"experiment(?:\s+(.*))?")
_BOOLS = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}
# type name -> parser; a parser refuses a value by KeyError or ValueError
_PARSERS = {"str": str, "bool": lambda raw: _BOOLS[raw.lower()], "int": int,
            "float": float, "float_list": _list(float), "int_list": _list(int)}


def _tabulated(csv, d, **optional):
    table = np.loadtxt(csv, delimiter=",", comments="#", ndmin=2)
    if table.shape[1] < 2:
        raise ContractError(f"{csv}: a tabulated warp needs the columns r,f")
    return tabulated_model(table[:, 0], table[:, 1], d, **optional)


# model kind -> (builder, required keys in the builder's positional order,
# optional keys); ``build_model`` passes a set optional key under the
# builder's parameter name and leaves an unset one to the builder's default
_MODELS = {
    "free": (free_model, (), ("r0",)),
    "power": (power_model, ("theta", "d"), ("r0",)),
    "euclidean": (euclidean_model, ("d",), ("r0",)),
    "exponential": (exp_model, ("kappa", "d"),
                    ("r0", "amp", "lower_c", "lower_theta")),
    "stretchedexp": (stretched_exp_model, ("delta", "theta", "d"), ("r0",)),
    "tabulated": (_tabulated, ("csv", "d"), ("r0",)),
    "hyperbolic": (hyperbolic_model, ("d",), ("r0",)),
    "well": (square_well_model, (), ("r0", "depth", "well_a", "well_b")),
    "multiend": (multiend_model, (), ("r0", "lambda0", "lambda1", "x_min")),
    "escape_disk": (disk_complement_field, (), ()),
    "escape_hyperbola": (hyperbola_field, (), ("obstacle_k",)),
    "escape_sawtooth": (sawtooth_field, (), ("obstacle_k",)),
}
_PSI_KEYS = ("psi_a", "psi_b", "psi_amp")
# experiment kind -> (keys a block of that kind must set, keys it may set);
# a key its kind never reads is refused
_EXPERIMENT_NEEDS = {
    "check": ((), ()),
    "solve": (("lambda",), ("gammas", *_PSI_KEYS)),
    "lap": (("lambda",), ("gammas", *_PSI_KEYS)),
    "radiation": (("lambda",), ("gammas", "betas", "sign", *_PSI_KEYS)),
    "hoelder": (("lambda",), ("s", "gamma_top", "n_pairs", "n_probes", "seed")),
    "rellich": (("interval_lo", "interval_hi"), ()),
    "sommerfeld": (("lambda",), ("sign", "window_r_max", "gamma_top", "tol",
                                 *_PSI_KEYS)),
    "riccati": (("lambda",), ("gammas", "sign")),
    "besov_energy": (("lambda",), ("gammas", "delta", "nus", *_PSI_KEYS)),
}
# Config keys whose callee parameter has another name.
_PARAM_OF = {"well_a": "a", "well_b": "b", "obstacle_k": "K",
             "psi_a": "a", "psi_b": "b", "psi_amp": "amplitude"}

_GRID_DEFAULTS = {"r_max": 64.0, "h": 0.02, "mode_cap": 6.5}
_OUTPUT_DEFAULTS = {"directory": "out", "svg": False}


@dataclass
class ExperimentConfig:
    name: str
    kind: str
    options: dict


@dataclass
class RunConfig:
    model: dict
    grid: dict
    output: dict
    experiments: list
    config_hash: str = ""


def _check_kind(where, kind, kinds, given, verb, errors):
    """Report a missing or empty ``kind`` as missing, or one not in
    ``kinds`` (kind -> (..., required keys, optional keys)) as unknown, and
    give None; else give the violations (required keys ``given`` leaves
    unset, keys of ``given`` the kind does not ``verb``), the refused keys
    taken out of ``given``."""
    if not kind:
        errors.append(f"{where}: missing required key 'kind'")
        return None
    if kind not in kinds:
        errors.append(f"{where}: unknown kind {kind!r}; expected one of "
                      + ", ".join(sorted(kinds)))
        return None
    needs, optional = kinds[kind][-2:]
    refused = [key for key in given if key not in ("kind", *needs, *optional)]
    for key in refused:
        del given[key]
    return ([f"{where}: kind {kind!r} requires key {key!r}"
             for key in needs if key not in given],
            [f"{where}: kind {kind!r} does not {verb} key {key!r}" for key in refused])


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration.

    Returns a RunConfig with the [grid] and [output] defaults filled, or
    raises ConfigError listing every violation found.
    """
    errors: list[str] = []
    model: dict = {}
    grid: dict = dict(_GRID_DEFAULTS)
    output: dict = dict(_OUTPUT_DEFAULTS)
    sections = {"model": (_MODEL_KEYS, model), "grid": (_GRID_KEYS, grid),
                "output": (_OUTPUT_KEYS, output)}
    experiments: list[ExperimentConfig] = []
    exp_lines: dict[str, int] = {}
    section = None        # (label, schema, the dict its keys fill)

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            block = _EXPERIMENT_HEADER.fullmatch(header)
            name = block and block[1]
            section = None
            if header in sections:
                section = (header, *sections[header])
            elif block is None:
                errors.append(f"line {line_no}: unknown section [{header}]")
            elif not name:
                errors.append(f"line {line_no}: experiment section needs a name")
            elif name in exp_lines:
                errors.append(
                    f"line {line_no}: duplicate experiment name {name!r} "
                    f"(first defined at line {exp_lines[name]})")
            else:
                exp_lines[name] = line_no
                experiments.append(ExperimentConfig(name, "", {}))
                section = (f"experiment {name}", _EXPERIMENT_KEYS,
                           experiments[-1].options)
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected 'key = value', got {line!r}")
            continue
        if section is None:
            errors.append(f"line {line_no}: key outside any section")
            continue
        key, raw = (p.strip() for p in line.split("=", 1))
        label, schema, values = section
        if key not in schema:
            errors.append(f"line {line_no}: unknown key {key!r} in section [{label}]")
            continue
        try:
            value = _PARSERS[schema[key]](raw)
        except (KeyError, ValueError):
            errors.append(f"line {line_no} ({key}): cannot parse {raw!r} "
                          f"as {schema[key]}")
            continue
        if not _finite(value):
            errors.append(f"line {line_no} ({key}): {key} must be finite, got {raw!r}")
            continue
        values[key] = value

    # semantic validation -----------------------------------------------------
    missing, refused = _check_kind("[model]", model.get("kind"), _MODELS, model,
                                   "take", errors) or ((), ())
    errors += [*missing, *refused]
    errors += [f"[grid]: {v}" for v in input_violations(grid, _GRID_RULES)]
    escape = model.get("kind", "").startswith("escape_")
    for exp in experiments:
        where = f"[experiment {exp.name}]"
        exp.kind = exp.options.pop("kind", "")
        checked = _check_kind(where, exp.kind, _EXPERIMENT_NEEDS,
                              exp.options, "read", errors)
        if checked is None:
            continue
        if escape and exp.kind != "check":
            errors.append(f"{where}: a {model['kind']} model runs only check "
                          f"blocks, not {exp.kind!r}")
        errors += checked[1]
        errors += [f"{where}: {v}" for v in input_violations(exp.options)]
        errors += checked[0]

    if errors:
        raise ConfigError(errors)
    return RunConfig(model=model, grid=grid, output=output,
                     experiments=experiments, config_hash=text_hash(text))


def _given(opt, *keys, **fallback):
    """Keyword arguments for those of ``keys`` that ``opt`` sets, under the
    callee's parameter names, over the caller's own ``fallback`` values; an
    absent key keeps the callee's default."""
    return {**fallback, **{_PARAM_OF.get(k, k): opt[k] for k in keys if k in opt}}


def build_model(cfg: RunConfig):
    """The model of the [model] section: a ``Model``, or the ``EscapeField2D``
    of an escape_* kind; either reports its hypotheses by ``conditions()``."""
    builder, needs, optional = _MODELS[cfg.model["kind"]]
    return builder(*(cfg.model[k] for k in needs), **_given(cfg.model, *optional))
