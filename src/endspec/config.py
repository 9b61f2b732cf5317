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

import numpy as np

from .conditions import disk_complement_field, hyperbola_field, sawtooth_field
from .errors import ConfigError, ContractError
from .models import (euclidean_model, exp_model, free_model, hyperbolic_model,
                     multiend_model, power_model, square_well_model,
                     stretched_exp_model, tabulated_model)
from .tableio import text_hash

_MODEL_KEYS = {
    "kind": str, "d": int, "theta": float, "kappa": float, "r0": float,
    "depth": float, "well_a": float, "well_b": float,
    "lambda0": float, "lambda1": float, "x_min": float, "obstacle_k": float,
    "delta": float, "amp": float, "lower_c": float, "lower_theta": float,
    "csv": str,
}
_GRID_KEYS = {"r_max": float, "h": float, "mode_cap": float}
_OUTPUT_KEYS = {"directory": str, "svg": bool}
_EXPERIMENT_KEYS = {
    "kind": str, "lambda": float, "gammas": "float_list", "betas": "float_list",
    "s": float, "psi_a": float, "psi_b": float, "psi_amp": float, "sign": int,
    "interval_lo": float, "interval_hi": float, "delta": float,
    "nus": "int_list", "tol": float, "gamma_top": float,
    "window_r_max": float, "seed": int,
    "n_pairs": int, "n_probes": int,
}


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


def _parse_value(raw: str, kind, where: str, errors: list):
    raw = raw.strip()
    try:
        if kind is str:
            return raw
        if kind is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind == "float_list":
            return [float(p) for p in raw.split(",") if p.strip()]
        if kind == "int_list":
            return [int(p) for p in raw.split(",") if p.strip()]
    except ValueError:
        errors.append(f"{where}: cannot parse {raw!r} as {kind if isinstance(kind, str) else kind.__name__}")
        return None
    raise AssertionError(f"unhandled schema type {kind}")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a run configuration.

    Returns a RunConfig with the [grid] and [output] defaults filled, or
    raises ConfigError listing every violation found.
    """
    errors: list[str] = []
    section = None        # (kind, name, line_no)
    model: dict = {}
    grid: dict = dict(_GRID_DEFAULTS)
    output: dict = dict(_OUTPUT_DEFAULTS)
    experiments: list[ExperimentConfig] = []
    exp_lines: dict[str, int] = {}

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            if header in ("model", "grid", "output"):
                section = (header, header, line_no)
            elif header.startswith("experiment"):
                name = header[len("experiment"):].strip()
                if not name:
                    errors.append(f"line {line_no}: experiment section needs a name")
                    section = None
                    continue
                if name in exp_lines:
                    errors.append(
                        f"line {line_no}: duplicate experiment name {name!r} "
                        f"(first defined at line {exp_lines[name]})")
                    section = None
                    continue
                exp_lines[name] = line_no
                experiments.append(ExperimentConfig(name=name, kind="",
                                                    options={}))
                section = ("experiment", name, line_no)
            else:
                errors.append(f"line {line_no}: unknown section [{header}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"line {line_no}: expected 'key = value', got {line!r}")
            continue
        if section is None:
            errors.append(f"line {line_no}: key outside any section")
            continue
        key, raw_val = (p.strip() for p in line.split("=", 1))
        kind_name, name, _ = section
        if kind_name == "model":
            schema, target = _MODEL_KEYS, model
        elif kind_name == "grid":
            schema, target = _GRID_KEYS, grid
        elif kind_name == "output":
            schema, target = _OUTPUT_KEYS, output
        else:
            schema, target = _EXPERIMENT_KEYS, experiments[-1].options
        if key not in schema:
            errors.append(f"line {line_no}: unknown key {key!r} in section [{kind_name}"
                          + (f" {name}" if kind_name == "experiment" else "") + "]")
            continue
        val = _parse_value(raw_val, schema[key], f"line {line_no} ({key})", errors)
        if val is not None:
            target[key] = val

    # semantic validation -----------------------------------------------------
    kind = model.get("kind")
    if kind is None:
        errors.append("[model]: missing required key 'kind'")
    elif kind not in _MODELS:
        errors.append(f"[model]: unknown kind {kind!r}; expected one of "
                      + ", ".join(sorted(_MODELS)))
    else:
        _, needs, optional = _MODELS[kind]
        for req in needs:
            if req not in model:
                errors.append(f"[model]: kind {kind!r} requires key {req!r}")
        for key in model:
            if key not in ("kind", *needs, *optional):
                errors.append(f"[model]: kind {kind!r} does not take key {key!r}")
    if grid["h"] <= 0:
        errors.append("[grid]: h must be positive")
    if grid["r_max"] <= 1:
        errors.append("[grid]: r_max must exceed 1")
    if grid["mode_cap"] < 0:
        errors.append("[grid]: mode_cap must be >= 0")

    for exp in experiments:
        where = f"[experiment {exp.name}]"
        exp.kind = exp.options.pop("kind", "")
        if not exp.kind:
            errors.append(f"{where}: missing required key 'kind'")
            continue
        if exp.kind not in _EXPERIMENT_NEEDS:
            errors.append(f"{where}: unknown kind {exp.kind!r}; expected one of "
                          + ", ".join(sorted(_EXPERIMENT_NEEDS)))
            continue
        if kind is not None and kind.startswith("escape_") and exp.kind != "check":
            errors.append(f"{where}: a {kind} model runs only check blocks, "
                          f"not {exp.kind!r}")
        needs, optional = _EXPERIMENT_NEEDS[exp.kind]
        for key in [k for k in exp.options if k not in (*needs, *optional)]:
            errors.append(f"{where}: kind {exp.kind!r} does not read key {key!r}")
            del exp.options[key]
        for key, typ in _EXPERIMENT_KEYS.items():
            if typ in ("float_list", "int_list") and exp.options.get(key) == []:
                errors.append(f"{where}: {key} needs at least one value")
        for g in exp.options.get("gammas", []):
            if not 0.0 < g < 1.0:
                errors.append(f"{where}: gamma values must lie in (0, 1), got {g}")
        for b in exp.options.get("betas", []):
            if b < 0.0:
                errors.append(f"{where}: beta values must be >= 0, got {b}")
        if exp.options.get("gamma_top", 1.0) <= 0.0:
            errors.append(f"{where}: gamma_top must be positive, "
                          f"got {exp.options['gamma_top']}")
        if "s" in exp.options and exp.options["s"] <= 0.5:
            errors.append(f"{where}: s must exceed 1/2, got {exp.options['s']}")
        if "sign" in exp.options and exp.options["sign"] not in (1, -1):
            errors.append(f"{where}: sign must be +1 or -1")
        for key, least in (("n_pairs", 2), ("n_probes", 1), ("seed", 0)):
            if exp.options.get(key, least) < least:
                errors.append(f"{where}: {key} must be >= {least}, got {exp.options[key]}")
        for req in needs:
            if req not in exp.options:
                errors.append(f"{where}: kind {exp.kind!r} requires key {req!r}")

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
