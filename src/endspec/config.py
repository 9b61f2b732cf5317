"""Plain-text sectioned run configuration.

Format: `[section]` headers followed by `key = value` lines; `#` starts a
comment; blank lines are ignored.  Sections are `[model]`, `[grid]`,
`[output]` and any number of `[experiment NAME]` blocks.  Values are typed
by the schema below; lists are comma-separated.

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
    gammas = 0.1, 0.01, 0.001
    betas = 0, 0.5, 0.9
    s = 1.0
    psi_a = 2.0              # source bump support and amplitude
    psi_b = 3.0
    psi_amp = 1.0
    sign = 1
    interval_lo = -5.0       # rellich scan window
    interval_hi = 10.0
    delta = 0.25             # besov_energy
    nus = 0,1,2,3,4,5,6
    tol = 1e-4               # sommerfeld agreement tolerance
    gamma_top = 0.002
    window_r_max = 64.0
    seed = 0                 # hoelder probe seed, >= 0
    n_pairs = 4              # hoelder ladder length, >= 2
    n_probes = 8             # hoelder probe count, >= 1

Validation collects every violation (unknown keys and sections, a [model]
key its kind does not take, an [experiment] key its kind never reads, type
mismatches, out-of-range values, empty lists, duplicate experiment names,
blocks other than check on an escape_* model) and raises a single
ConfigError carrying the full list; range checks see only the keys a
block's kind reads.

The key table (``_MODEL_KEYS``, ``_GRID_KEYS``, ``_OUTPUT_KEYS``,
``_EXPERIMENT_KEYS``) gives each key's type and range; the block table
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

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .conditions import disk_complement_field, hyperbola_field, sawtooth_field
from .errors import ConfigError, ContractError
from .models import (euclidean_model, exp_model, free_model, hyperbolic_model,
                     multiend_model, power_model, square_well_model,
                     stretched_exp_model, tabulated_model)
from .tableio import text_hash


class _Key(NamedTuple):
    """A key's row: the type its value parses as (a ``_PARSERS`` name) and,
    for a key with a range, the test refusing a value and the violation it
    reports, ``{v}`` the value; a list is tested value by value."""
    type: str
    refuses: Callable | None = None
    violation: str = ""


_STR, _INT, _FLOAT = _Key("str"), _Key("int"), _Key("float")

# section -> key -> row.  Range tests run in table order: [grid] h, r_max,
# mode_cap; a block's gammas, betas, gamma_top, s, sign, n_pairs, n_probes,
# seed
_MODEL_KEYS = {
    "kind": _STR, "d": _INT, "theta": _FLOAT, "kappa": _FLOAT, "r0": _FLOAT,
    "depth": _FLOAT, "well_a": _FLOAT, "well_b": _FLOAT,
    "lambda0": _FLOAT, "lambda1": _FLOAT, "x_min": _FLOAT, "obstacle_k": _FLOAT,
    "delta": _FLOAT, "amp": _FLOAT, "lower_c": _FLOAT, "lower_theta": _FLOAT,
    "csv": _STR,
}
_GRID_KEYS = {
    "h": _Key("float", lambda v: v <= 0, "h must be positive"),
    "r_max": _Key("float", lambda v: v <= 1, "r_max must exceed 1"),
    "mode_cap": _Key("float", lambda v: v < 0, "mode_cap must be >= 0"),
}
_OUTPUT_KEYS = {"directory": _STR, "svg": _Key("bool")}
_EXPERIMENT_KEYS = {
    "kind": _STR, "lambda": _FLOAT,
    "gammas": _Key("float_list", lambda g: not 0.0 < g < 1.0,
                   "gamma values must lie in (0, 1), got {v}"),
    "betas": _Key("float_list", lambda b: b < 0.0, "beta values must be >= 0, got {v}"),
    "gamma_top": _Key("float", lambda v: v <= 0.0, "gamma_top must be positive, got {v}"),
    "s": _Key("float", lambda v: v <= 0.5, "s must exceed 1/2, got {v}"),
    "sign": _Key("int", lambda v: v not in (1, -1), "sign must be +1 or -1"),
    "n_pairs": _Key("int", lambda v: v < 2, "n_pairs must be >= 2, got {v}"),
    "n_probes": _Key("int", lambda v: v < 1, "n_probes must be >= 1, got {v}"),
    "seed": _Key("int", lambda v: v < 0, "seed must be >= 0, got {v}"),
    "psi_a": _FLOAT, "psi_b": _FLOAT, "psi_amp": _FLOAT,
    "interval_lo": _FLOAT, "interval_hi": _FLOAT, "delta": _FLOAT,
    "nus": _Key("int_list"), "tol": _FLOAT, "window_r_max": _FLOAT,
}


def _list(parse):
    return lambda raw: [parse(p) for p in raw.split(",") if p.strip()]


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
    """Report a missing or unknown ``kind`` of ``kinds`` (kind -> (...,
    required keys, optional keys)) and give None; else give the violations
    (required keys ``given`` leaves unset, keys of ``given`` the kind does
    not ``verb``), the refused keys taken out of ``given``."""
    if kind is None:
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


def _check_ranges(where, values, schema, errors):
    """Report each list in ``values`` that is empty, then each value that
    its key's row in ``schema`` refuses, both in ``schema``'s order."""
    errors += [f"{where}: {key} needs at least one value"
               for key in schema if values.get(key) == []]
    for key, row in schema.items():
        value = values.get(key, [])
        for v in value if isinstance(value, list) else [value]:
            if row.refuses and row.refuses(v):
                errors.append(f"{where}: " + row.violation.format(v=v))


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
            name = header[len("experiment"):].strip()
            section = None
            if header in sections:
                section = (header, *sections[header])
            elif not header.startswith("experiment"):
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
            values[key] = _PARSERS[schema[key].type](raw)
        except (KeyError, ValueError):
            errors.append(f"line {line_no} ({key}): cannot parse {raw!r} "
                          f"as {schema[key].type}")

    # semantic validation -----------------------------------------------------
    missing, refused = _check_kind("[model]", model.get("kind"), _MODELS, model,
                                   "take", errors) or ((), ())
    errors += [*missing, *refused]
    _check_ranges("[grid]", grid, _GRID_KEYS, errors)
    escape = model.get("kind", "").startswith("escape_")
    for exp in experiments:
        where = f"[experiment {exp.name}]"
        exp.kind = exp.options.pop("kind", "")
        checked = _check_kind(where, exp.kind or None, _EXPERIMENT_NEEDS,
                              exp.options, "read", errors)
        if checked is None:
            continue
        if escape and exp.kind != "check":
            errors.append(f"{where}: a {model['kind']} model runs only check "
                          f"blocks, not {exp.kind!r}")
        errors += checked[1]
        _check_ranges(where, exp.options, _EXPERIMENT_KEYS, errors)
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
