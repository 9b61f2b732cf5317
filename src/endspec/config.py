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
    obstacle_k = 3.0 # escape_* parameter K

    [grid]
    r_max = 64.0
    h = 0.02
    mode_cap = 6.5

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
    bound_factor = 2.0
    seed = 0                 # hoelder probe seed
    n_pairs = 4              # hoelder ladder length, >= 2
    n_probes = 8             # hoelder probe count, >= 1

Validation collects every violation (unknown keys and sections, type
mismatches, out-of-range values, empty lists, duplicate experiment names,
blocks other than check on an escape_* model) and raises a single
ConfigError carrying the full list.

Two settings are read narrower than the schema suggests.  A besov_energy
block takes only its first gamma, as the imaginary part of z (0.1 when
unset), and runs the decade [g, g/sqrt(10), g/10] below it whatever else
the list holds.  Hoelder and sommerfeld blocks ignore [grid] mode_cap and
run at the library's cap of 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
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
    "window_r_max": float, "bound_factor": float, "seed": int,
    "n_pairs": int, "n_probes": int,
}
_MODEL_KINDS = {"free", "power", "euclidean", "exponential", "hyperbolic",
                "stretchedexp", "tabulated", "well", "multiend",
                "escape_disk", "escape_hyperbola", "escape_sawtooth"}
_EXPERIMENT_KINDS = {"check", "solve", "lap", "radiation", "hoelder",
                     "rellich", "sommerfeld", "riccati", "besov_energy"}
# the positional keys of each warped kind's builder, in call order
MODEL_NEEDS = {"power": ("theta", "d"), "euclidean": ("d",),
               "exponential": ("kappa", "d"), "hyperbolic": ("d",),
               "stretchedexp": ("delta", "theta", "d"),
               "tabulated": ("csv", "d")}

_GRID_DEFAULTS = {"r_max": 64.0, "h": 0.02, "mode_cap": 6.5}
_OUTPUT_DEFAULTS = {"directory": "out", "svg": False}


@dataclass
class ExperimentConfig:
    name: str
    kind: str
    options: dict
    line_no: int


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

    Returns a RunConfig with defaults filled, or raises ConfigError listing
    every violation found.
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
                                                    options={}, line_no=line_no))
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
    elif kind not in _MODEL_KINDS:
        errors.append(f"[model]: unknown kind {kind!r}; expected one of "
                      + ", ".join(sorted(_MODEL_KINDS)))
    else:
        for req in MODEL_NEEDS.get(kind, ()):
            if req not in model:
                errors.append(f"[model]: kind {kind!r} requires key {req!r}")
    if grid["h"] <= 0:
        errors.append("[grid]: h must be positive")
    if grid["r_max"] <= 1:
        errors.append("[grid]: r_max must exceed 1")

    for exp in experiments:
        where = f"[experiment {exp.name}]"
        exp.kind = exp.options.pop("kind", "")
        if not exp.kind:
            errors.append(f"{where}: missing required key 'kind'")
            continue
        if exp.kind not in _EXPERIMENT_KINDS:
            errors.append(f"{where}: unknown kind {exp.kind!r}; expected one of "
                          + ", ".join(sorted(_EXPERIMENT_KINDS)))
            continue
        if kind is not None and kind.startswith("escape_") and exp.kind != "check":
            errors.append(f"{where}: a {kind} model runs only check blocks, "
                          f"not {exp.kind!r}")
        for key, typ in _EXPERIMENT_KEYS.items():
            if typ in ("float_list", "int_list") and exp.options.get(key) == []:
                errors.append(f"{where}: {key} needs at least one value")
        for g in exp.options.get("gammas", []):
            if not 0.0 < g < 1.0:
                errors.append(f"{where}: gamma values must lie in (0, 1), got {g}")
        for b in exp.options.get("betas", []):
            if b < 0.0:
                errors.append(f"{where}: beta values must be >= 0, got {b}")
        if "s" in exp.options and exp.options["s"] <= 0.5:
            errors.append(f"{where}: s must exceed 1/2, got {exp.options['s']}")
        if "sign" in exp.options and exp.options["sign"] not in (1, -1):
            errors.append(f"{where}: sign must be +1 or -1")
        if exp.options.get("n_pairs", 2) < 2:
            errors.append(f"{where}: n_pairs must be >= 2, got {exp.options['n_pairs']}")
        if exp.options.get("n_probes", 1) < 1:
            errors.append(f"{where}: n_probes must be >= 1, got {exp.options['n_probes']}")
        if exp.kind in ("lap", "radiation") and "gammas" not in exp.options:
            exp.options["gammas"] = [0.1, 0.01, 0.001]
        if exp.kind == "radiation" and "betas" not in exp.options:
            exp.options["betas"] = [0.0, 0.5]
        if exp.kind in ("lap", "radiation", "hoelder", "sommerfeld", "riccati",
                        "solve", "besov_energy") and "lambda" not in exp.options:
            errors.append(f"{where}: kind {exp.kind!r} requires key 'lambda'")
        if exp.kind == "rellich":
            if "interval_lo" not in exp.options or "interval_hi" not in exp.options:
                errors.append(f"{where}: rellich needs interval_lo and interval_hi")

    if errors:
        raise ConfigError(errors)
    return RunConfig(model=model, grid=grid, output=output,
                     experiments=experiments, config_hash=text_hash(text))
