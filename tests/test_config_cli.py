import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import endspec
import endspec.cli as cli
import endspec.config as config
from endspec.cli import build_model, run
from endspec.conditions import EscapeField2D
from endspec.config import parse_config
from endspec.errors import ConfigError, EndspecError
from endspec.experiments import Bump
from endspec.models import Model

MINIMAL = """
[model]
kind = free

[experiment sweep]
kind = lap
lambda = 1.0
gammas = 0.1, 0.01
"""


def test_minimal_config_defaults_filled():
    cfg = parse_config(MINIMAL)
    assert cfg.model["kind"] == "free"
    assert cfg.grid["r_max"] == 64.0 and cfg.grid["h"] == 0.02
    assert cfg.output["directory"] == "out"
    assert [e.name for e in cfg.experiments] == ["sweep"]
    assert cfg.experiments[0].kind == "lap"
    assert len(cfg.config_hash) == 16


def test_parser_fills_in_no_experiment_default():
    # an unset key is left to the default of the library function that runs
    cfg = parse_config("[model]\nkind = free\n[experiment r]\nkind = radiation\n"
                       "lambda = 1.0\n[experiment h]\nkind = hoelder\nlambda = 1.0\n")
    assert [e.options for e in cfg.experiments] == [{"lambda": 1.0}] * 2


def test_gamma_range_validated():
    text = MINIMAL.replace("0.1, 0.01", "1.5, 0.01")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("(0, 1)" in v for v in err.value.violations)


def test_duplicate_experiment_names_both_located():
    text = MINIMAL + "\n[experiment sweep]\nkind = lap\nlambda = 1.0\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = [v for v in err.value.violations if "duplicate" in v][0]
    assert "sweep" in msg and "first defined at line" in msg


def test_unknown_key_names_key_and_section():
    text = MINIMAL.replace("kind = free", "kind = free\nwibble = 3")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("'wibble'" in v and "[model]" in v for v in err.value.violations)
    # the Gamma-uniformity factor is a fixed policy, not a setting
    text = MINIMAL.replace("kind = lap", "kind = lap\nbound_factor = 1e9")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("'bound_factor'" in v and "[experiment sweep]" in v
               for v in err.value.violations)


def test_all_violations_collected():
    text = """
[model]
kind = nosuch

[grid]
h = -0.5

[experiment a]
kind = lap
gammas = 2.0
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert len(err.value.violations) >= 4  # kind, h, gamma, missing lambda


@pytest.mark.parametrize("kind, key", [
    ("solve", "gammas"), ("lap", "gammas"), ("radiation", "gammas"),
    ("radiation", "betas"), ("besov_energy", "gammas"), ("besov_energy", "nus")])
def test_empty_list_refused_by_cli(tmp_path, capsys, kind, key):
    # an empty list used to reach the runner and die there with an IndexError
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(f"[model]\nkind = free\n\n[experiment blank]\nkind = {kind}\n"
                   f"lambda = 1.0\n{key} =\n")
    command = {"besov_energy": "lap"}.get(kind, kind)
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert (f"config error: [experiment blank]: {key} needs at least one value"
            in captured.err)
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("key, value", [("n_pairs", 1), ("n_pairs", 0),
                                        ("n_probes", 0)])
def test_hoelder_ladder_limits_validated(key, value):
    text = ("[model]\nkind = free\n\n[experiment h]\nkind = hoelder\n"
            f"lambda = 1.0\n{key} = {value}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == [
        f"[experiment h]: {key} must be >= {2 if key == 'n_pairs' else 1}, got {value}"]


_HOELDER_BLOCK = "[model]\nkind = free\n\n[experiment h]\nkind = hoelder\nlambda = 1.0\n"


def test_negative_seed_validated():
    # numpy's default_rng refuses a negative seed with a ValueError, which
    # used to escape the CLI as a traceback
    with pytest.raises(ConfigError) as err:
        parse_config(_HOELDER_BLOCK + "seed = -1\n")
    assert err.value.violations == ["[experiment h]: seed must be >= 0, got -1"]


def test_negative_command_line_seed_is_an_error_verdict(tmp_path, capsys):
    cfg = tmp_path / "h.cfg"
    cfg.write_text(_HOELDER_BLOCK)
    assert cli.main(["hoelder", "--config", str(cfg), "--out", str(tmp_path),
                     "--seed", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "h: ERROR (the probe seed must be >= 0, got -3)\n"
    assert "Traceback" not in captured.err


def test_negative_mode_cap_validated():
    # on d = 1 models a negative cap used to run at mu = 0, on warped ends
    # every block errored
    with pytest.raises(ConfigError) as err:
        parse_config(_HOELDER_BLOCK + "\n[grid]\nmode_cap = -1\n")
    assert err.value.violations == ["[grid]: mode_cap must be >= 0"]


@pytest.mark.parametrize("kind", ["hoelder", "sommerfeld"])
@pytest.mark.parametrize("value", ["0", "-0.002"])
def test_non_positive_gamma_top_validated(kind, value):
    # the runners used to die in a ZeroDivisionError or a math domain error,
    # or solve incoming shifts and report a failed comparison
    text = ("[model]\nkind = free\n\n[experiment g]\n"
            f"kind = {kind}\nlambda = 1.0\ngamma_top = {value}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == [
        f"[experiment g]: gamma_top must be positive, got {float(value)}"]


@pytest.mark.parametrize("model", [
    "kind = multiend\nlambda0 = 4.0\nlambda1 = 0.0",     # window upside down
    "kind = power\ntheta = 2.0\nd = 0",                  # no dimension
    "kind = tabulated\nd = 3\ncsv = {two_rows}",         # too short a table
    "kind = tabulated\nd = 3\ncsv = {one_row}",          # read as a 1-D array
    "kind = tabulated\nd = 3\ncsv = {one_column}",       # r without f
    "kind = tabulated\nd = 3\ncsv = {missing}",          # no table at all
], ids=["multiend_window", "power_d0", "tabulated_two_rows", "tabulated_one_row",
        "tabulated_one_column", "tabulated_missing"])
def test_model_the_library_refuses_is_an_error_line(tmp_path, capsys, model):
    # the model used to be built outside any error handling: a traceback
    tables = {"two_rows": "1.0,1.0\n2.0,4.0\n", "one_row": "1.0,1.0\n",
              "one_column": "1.0\n2.0\n3.0\n4.0\n5.0\n"}
    for name, rows in tables.items():
        (tmp_path / f"{name}.csv").write_text(rows)
    paths = {name: tmp_path / f"{name}.csv" for name in (*tables, "missing")}
    text = "[model]\n" + model.format(**paths) + "\n"
    assert run(parse_config(text), "check", out_dir=tmp_path) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot build the model: ")
    assert captured.out == ""


@pytest.mark.parametrize("kind", ["escape_disk", "escape_hyperbola",
                                  "escape_sawtooth"])
def test_escape_model_refuses_blocks_other_than_check(kind):
    # a lap block on an escape field used to reach the runner with no model
    text = (f"[model]\nkind = {kind}\n\n[experiment c]\nkind = check\n\n"
            "[experiment x]\nkind = lap\nlambda = 1.0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == [
        f"[experiment x]: a {kind} model runs only check blocks, not 'lap'"]


@pytest.mark.parametrize("kind, extra", [
    ("power", "theta = 2.0\nd = 3\ndepth = 5.0\nx_min = -12.0"),
    ("escape_disk", "obstacle_k = 4.0\nr0 = 3.0"),
])
def test_model_key_its_kind_does_not_take_is_refused(kind, extra):
    # a stray key used to parse and build silently, with no effect
    with pytest.raises(ConfigError) as err:
        parse_config(f"[model]\nkind = {kind}\n{extra}\n")
    stray = [line.split(" = ")[0] for line in extra.splitlines()
             if line.split(" = ")[0] not in ("theta", "d")]
    assert err.value.violations == [
        f"[model]: kind {kind!r} does not take key {key!r}" for key in stray]


def test_experiment_key_its_kind_never_reads_is_refused():
    # a lap block with Hoelder and Sommerfeld keys used to parse, and the
    # runner dropped all four; each is refused by name, and a range check
    # (seed >= 0) fires only on a kind that reads the key
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[experiment s]\nkind = lap\nlambda = 1.0\n"
                     "betas = 0.5\nseed = -4\nn_probes = 3\ntol = 1e-3\n")
    assert err.value.violations == [
        f"[experiment s]: kind 'lap' does not read key {key!r}"
        for key in ("betas", "seed", "n_probes", "tol")]
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + "\n[experiment s]\nkind = hoelder\nlambda = 1.0\nseed = -4\n")
    assert err.value.violations == ["[experiment s]: seed must be >= 0, got -4"]



def test_bool_words_parse():
    cfg = parse_config("[model]\nkind = free\n[output]\nsvg = no\n")
    assert cfg.output["svg"] is False


_BLOCK = "[model]\nkind = free\n\n[experiment x]\n"


@pytest.mark.parametrize("text, violations", [
    ("[model]\nkind = free\n[output]\nsvg = maybe\n",
     ["line 4 (svg): cannot parse 'maybe' as bool"]),
    ("[model]\nkind = free\n[somewhere]\nx = 1\n",
     ["line 3: unknown section [somewhere]", "line 4: key outside any section"]),
    ("[model]\nkind = free\n[experiment]\nkind = lap\n",
     ["line 3: experiment section needs a name", "line 4: key outside any section"]),
    ("[model]\nkind = free\nd 3\n", ["line 3: expected 'key = value', got 'd 3'"]),
    ("[model]\nd = 3\n", ["[model]: missing required key 'kind'"]),
    ("[model]\nkind = power\nd = 3\n", ["[model]: kind 'power' requires key 'theta'"]),
    ("[model]\nkind = power\nd = 3\ndepth = 1.0\n",
     ["[model]: kind 'power' requires key 'theta'",
      "[model]: kind 'power' does not take key 'depth'"]),
    ("[model]\nkind = free\n[grid]\nr_max = 1\n", ["[grid]: r_max must exceed 1"]),
    ("[model]\nkind = free\n[grid]\nmode_cap = -1\nr_max = 0.5\nh = 0\n",
     ["[grid]: h must be positive", "[grid]: r_max must exceed 1",
      "[grid]: mode_cap must be >= 0"]),
    (_BLOCK + "lambda = 1.0\n", ["[experiment x]: missing required key 'kind'"]),
    (_BLOCK + "kind = nosuch\n",
     ["[experiment x]: unknown kind 'nosuch'; expected one of besov_energy, check, "
      "hoelder, lap, radiation, rellich, riccati, solve, sommerfeld"]),
    (_BLOCK + "kind = radiation\nlambda = 1.0\nbetas = 0.5, -0.5\n",
     ["[experiment x]: beta values must be >= 0, got -0.5"]),
    (_BLOCK + "kind = hoelder\nlambda = 1.0\ns = 0.5\n",
     ["[experiment x]: s must exceed 1/2, got 0.5"]),
    (_BLOCK + "kind = radiation\nlambda = 1.0\nsign = 2\n",
     ["[experiment x]: sign must be +1 or -1"]),
], ids=["bool", "unknown_section", "nameless_block", "no_equals", "model_no_kind",
        "model_unset_key", "model_unset_and_refused_key", "r_max", "grid_order",
        "block_no_kind", "block_unknown_kind", "betas", "s", "sign"])
def test_violation_texts(text, violations):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == violations


def test_violation_order_within_a_block():
    # a block's violations come as: refused keys, empty lists, range rules
    # (gammas, betas, gamma_top, s, sign, n_pairs, n_probes, seed), unset
    # required keys
    text = ("[model]\nkind = free\n\n"
            "[experiment e]\nkind = besov_energy\nnus =\nsign = 1\ngammas =\n\n"
            "[experiment r]\nkind = radiation\nsign = 0\ngammas = 1.5, 0.1\n"
            "betas =\ntol = 1\n\n"
            "[experiment h]\nkind = hoelder\nlambda = 1.0\nseed = -1\nn_probes = 0\n"
            "n_pairs = 1\ns = 0.5\ngamma_top = 0\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.violations == [
        "[experiment e]: kind 'besov_energy' does not read key 'sign'",
        "[experiment e]: gammas needs at least one value",
        "[experiment e]: nus needs at least one value",
        "[experiment e]: kind 'besov_energy' requires key 'lambda'",
        "[experiment r]: kind 'radiation' does not read key 'tol'",
        "[experiment r]: betas needs at least one value",
        "[experiment r]: gamma values must lie in (0, 1), got 1.5",
        "[experiment r]: sign must be +1 or -1",
        "[experiment r]: kind 'radiation' requires key 'lambda'",
        "[experiment h]: gamma_top must be positive, got 0.0",
        "[experiment h]: s must exceed 1/2, got 0.5",
        "[experiment h]: n_pairs must be >= 2, got 1",
        "[experiment h]: n_probes must be >= 1, got 0",
        "[experiment h]: seed must be >= 0, got -1",
    ]


def test_command_line_seed_reaches_only_blocks_that_read_it(monkeypatch, tmp_path,
                                                            capsys):
    seen = {}

    def recorder(cfg, model, exp, out_dir):
        seen[exp.kind] = dict(exp.options)
        return "pass", ""

    for kind in ("lap", "hoelder"):
        monkeypatch.setitem(cli._RUNNERS, kind, (kind, recorder))
    cfg = parse_config(MINIMAL + "\n[experiment h]\nkind = hoelder\nlambda = 1.0\n")
    assert run(cfg, "lap", out_dir=tmp_path, seed=5) == 0
    assert run(cfg, "hoelder", out_dir=tmp_path, seed=5) == 0
    assert seen == {"lap": {"lambda": 1.0, "gammas": [0.1, 0.01]},
                    "hoelder": {"lambda": 1.0, "seed": 5}}


def test_unreadable_config_is_an_error_line(tmp_path, capsys):
    assert cli.main(["check", "--config", str(tmp_path / "missing.cfg")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read config: ")
    assert captured.out == ""

def test_type_mismatch_reported():
    text = MINIMAL.replace("lambda = 1.0", "lambda = one")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert any("cannot parse" in v for v in err.value.violations)


def test_build_models():
    for kind, extra in (("free", ""), ("euclidean", "d = 3"),
                        ("power", "theta = 1.5\nd = 2"),
                        ("exponential", "kappa = 1.0\nd = 2"),
                        ("stretchedexp", "delta = 1.0\ntheta = 0.5\nd = 3"),
                        ("hyperbolic", "d = 2"), ("well", "depth = 5.0"),
                        ("multiend", "lambda1 = 4.0")):
        cfg = parse_config(f"[model]\nkind = {kind}\n{extra}\n")
        model = build_model(cfg)
        assert model is not None


@pytest.mark.parametrize("kind", ["escape_disk", "escape_hyperbola",
                                  "escape_sawtooth"])
def test_escape_kinds_build_no_model(monkeypatch, kind):
    # an escape kind builds its planar escape field, not a warped Model, and
    # the field answers the check block's conditions() with check_escape_2d
    field = build_model(parse_config(f"[model]\nkind = {kind}\n"))
    assert isinstance(field, EscapeField2D) and not isinstance(field, Model)
    monkeypatch.setattr(endspec.conditions, "check_escape_2d", lambda f: ("report", f))
    assert field.conditions() == ("report", field)


def test_escape_field_obstacle_k():
    # r(0, 0) is sqrt(K ln 2) on the hyperbola field and sqrt(1 + K^2) on the
    # saw-tooth; an unset obstacle_k keeps each field's own default K (3 and 1)
    def r00(extra):
        return build_model(parse_config(f"[model]\n{extra}\n")).r_fn(0.0, 0.0)

    assert r00("kind = escape_hyperbola") == pytest.approx(math.sqrt(3.0 * math.log(2.0)))
    assert r00("kind = escape_hyperbola\nobstacle_k = 4.0") == pytest.approx(
        math.sqrt(4.0 * math.log(2.0)))
    assert r00("kind = escape_sawtooth") == pytest.approx(math.sqrt(2.0))
    assert r00("kind = escape_sawtooth\nobstacle_k = 0.5") == pytest.approx(math.sqrt(1.25))
    assert r00("kind = escape_sawtooth\nobstacle_k = 2.0") == pytest.approx(math.sqrt(5.0))
    assert r00("kind = escape_disk") == 0.0


def test_kind_tables_agree():
    assert set(config._EXPERIMENT_NEEDS) == set(cli._RUNNERS)


def test_kind_tables_name_only_schema_keys():
    # every model key but kind belongs to some model kind, every experiment
    # key but kind to some block kind, and the tables name no key the parser
    # would refuse
    named = {k for _, needs, optional in config._MODELS.values()
             for k in needs + optional}
    assert named == set(config._MODEL_KEYS) - {"kind"}
    read = {k for needs, optional in config._EXPERIMENT_NEEDS.values()
            for k in needs + optional}
    assert read == set(config._EXPERIMENT_KEYS) - {"kind"}


@pytest.mark.parametrize("kind, extra, expected", [
    ("well", "", dict(depth=5.0, a=1.0, b=2.0, r0=2.0)),
    ("well", "depth = 3.0\nwell_a = 1.5\nwell_b = 2.5\nr0 = 3.0",
     dict(depth=3.0, a=1.5, b=2.5, r0=3.0)),
    ("multiend", "lambda0 = 1.0\nlambda1 = 5.0\nx_min = -12.0",
     dict(lambda0=1.0, lambda1=5.0, x_min=-12.0, r0=2.0)),
    ("exponential", "kappa = 1.5\nd = 2\namp = 2.0\nlower_c = 0.5\nlower_theta = 0.25",
     dict(kappa=1.5, d=2, r0=2.0, amp=2.0, lower_c=0.5, lower_theta=0.25)),
    ("stretchedexp", "delta = 1.0\ntheta = 0.5\nd = 3",
     dict(delta=1.0, theta=0.5, d=3, r0=2.0)),
    ("power", "theta = 1.5\nd = 2\nr0 = 4.0", dict(theta=1.5, d=2, r0=4.0)),
])
def test_build_model_forwards_model_keys(monkeypatch, kind, extra, expected):
    builder, needs, keys = config._MODELS[kind]
    seen = {}

    def recorder(*args, **kwargs):
        bound = inspect.signature(builder).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.update(bound.arguments)

    monkeypatch.setitem(config._MODELS, kind, (recorder, needs, keys))
    build_model(parse_config(f"[model]\nkind = {kind}\n{extra}\n"))
    assert seen == expected


# Every experiment key the schema has, each set away from its default
_KEY_VALUES = {
    "lambda": "2.0", "interval_lo": "0.5", "interval_hi": "3.0",
    "gammas": "0.2, 0.02", "betas": "0.3", "s": "0.8", "psi_a": "1.5",
    "psi_b": "2.5", "psi_amp": "2.0", "sign": "-1", "delta": "0.3",
    "nus": "0, 1, 2", "tol": "1e-3", "gamma_top": "0.032",
    "window_r_max": "16.0", "seed": "5", "n_pairs": "3", "n_probes": "2",
}


def _block(kind, every):
    """An [experiment x] block of ``kind`` that sets the keys its kind
    requires and, if ``every``, every key it reads, with [grid] moved too."""
    needs, optional = config._EXPERIMENT_NEEDS[kind]
    keys = needs + optional if every else needs
    grid = "[grid]\nr_max = 32.0\nh = 0.05\nmode_cap = 2.5\n\n" if every else ""
    return grid + f"[experiment x]\nkind = {kind}\n" + "".join(
        f"{key} = {_KEY_VALUES[key]}\n" for key in keys)


_PSI = Bump(a=1.5, b=2.5, amplitude=2.0)

# (block kind, command, callee in endspec.cli (or ``module.name`` in another
# endspec module), its effective arguments for a block that sets no optional
# key, and for one that sets every key).  The check kind reads no block key.
# besov_energy runs the decade below the first gamma and sommerfeld ignores
# [grid] mode_cap: both are documented drops.  An unset key keeps the
# library's default, a tuple.
_FORWARDS = [
    ("solve", "solve", "resolve",
     dict(z=2 + 0.01j, psi=Bump()), dict(z=2 + 0.2j, psi=_PSI)),
    ("lap", "lap", "lap_sweep",
     dict(lam=2.0, gammas=(0.1, 0.01, 0.001), psi=Bump(), h=0.02,
          base_r_max=64.0, mode_cap=6.5),
     dict(lam=2.0, gammas=[0.2, 0.02], psi=_PSI, h=0.05, base_r_max=32.0,
          mode_cap=2.5)),
    ("besov_energy", "lap", "besov_energy_check",
     dict(lam=2.0, psi=Bump(), delta=None, nus=[0, 1, 2, 3, 4, 5, 6],
          gammas=(0.1, 0.1 / math.sqrt(10.0), 0.01), h=0.02, mode_cap=6.5),
     dict(lam=2.0, psi=_PSI, delta=0.3, nus=[0, 1, 2],
          gammas=[0.2, 0.2 / math.sqrt(10.0), 0.02], h=0.05, mode_cap=2.5)),
    ("radiation", "radiation", "radiation_sweep",
     dict(lam=2.0, gammas=(0.1, 0.01, 0.001), betas=(0.0, 0.5), psi=Bump(),
          h=0.02, base_r_max=64.0, mode_cap=6.5, sign=1),
     dict(lam=2.0, gammas=[0.2, 0.02], betas=[0.3], psi=_PSI, h=0.05,
          base_r_max=32.0, mode_cap=2.5, sign=-1)),
    ("hoelder", "hoelder", "hoelder_estimate",
     dict(lam=2.0, s=1.0, gamma_top=0.064, n_pairs=4, n_probes=8, seed=7,
          h=0.02, mode_cap=6.5),
     dict(lam=2.0, s=0.8, gamma_top=0.032, n_pairs=3, n_probes=2, seed=5,
          h=0.05, mode_cap=2.5)),
    ("sommerfeld", "sommerfeld", "sommerfeld_compare",
     dict(lam=2.0, psi=Bump(), beta=0.0, sign=1, h=0.02, window_r_max=64.0,
          gamma_top=2e-3, tol=1e-4, mode_cap=0.5),
     dict(lam=2.0, psi=_PSI, beta=0.0, sign=-1, h=0.05, window_r_max=16.0,
          gamma_top=0.032, tol=1e-3, mode_cap=0.5)),
    ("riccati", "riccati", "phase_a",
     dict(z=2 + 0j, sign=1), dict(z=2 + 0.2j, sign=-1)),
    ("rellich", "rellich", "models.eigen_scan",
     dict(mu=0.0, interval=(0.5, 3.0)), dict(mu=0.0, interval=(0.5, 3.0))),
]


@pytest.mark.parametrize("kind, command, callee, unset, every", _FORWARDS,
                         ids=[f[0] for f in _FORWARDS])
@pytest.mark.parametrize("block", ["unset", "every"])
def test_cli_forwards_effective_arguments(monkeypatch, tmp_path, capsys, kind,
                                          command, callee, unset, every, block):
    # the callee records its arguments, defaults applied, and stops the run
    module, _, name = callee.rpartition(".")
    owner = importlib.import_module(f"endspec.{module or 'cli'}")
    signature = inspect.signature(getattr(owner, name))
    seen = []

    def recorder(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments)
        raise EndspecError("recorded")

    monkeypatch.setattr(owner, name, recorder)
    text = "[model]\nkind = free\n" + _block(kind, every=block == "every")
    assert run(parse_config(text), command, out_dir=tmp_path, seed=7) == 1
    assert "x: ERROR (recorded)" in capsys.readouterr().out
    args = dict(seen[0])
    if callee == "resolve":
        # the solve's z and source live on the operator and right-hand side
        op = args.pop("op")
        args["z"] = op.z
        expected_psi = (unset if block == "unset" else every)["psi"]
        assert np.array_equal(args.pop("psi"), expected_psi.normalized(op.grid))
        args["psi"] = expected_psi
    if "nus" in args:
        args["nus"] = list(args["nus"])  # a tuple and a list run the same scales
    expected = unset if block == "unset" else every
    assert {k: args[k] for k in expected} == expected


def test_run_check_power_model(tmp_path, capsys):
    cfg = parse_config("[model]\nkind = power\ntheta = 1.0\nd = 3\n")
    status = run(cfg, "check", out_dir=tmp_path)
    out = capsys.readouterr().out
    assert status == 0
    assert "PASS" in out and "sigma=1" in out and "lambda0=" in out
    assert (tmp_path / "check.csv").exists()


def test_run_lap_below_critical_energy_fails(tmp_path, capsys):
    cfg = parse_config("""
[model]
kind = well

[grid]
h = 0.05

[experiment bad]
kind = lap
lambda = -2.3
gammas = 0.1
""")
    status = run(cfg, "lap", out_dir=tmp_path)
    assert status == 1
    assert "ERROR" in capsys.readouterr().out


def test_run_riccati_and_svg(tmp_path, capsys):
    cfg = parse_config("""
[model]
kind = euclidean
d = 2

[grid]
r_max = 256.0
h = 0.05

[output]
svg = true

[experiment phase]
kind = riccati
lambda = 2.0
""")
    status = run(cfg, "riccati", out_dir=tmp_path)
    assert status == 0
    assert (tmp_path / "phase.csv").exists()
    svg = (tmp_path / "phase.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_unknown_command(tmp_path, capsys):
    cfg = parse_config(MINIMAL)
    assert run(cfg, "explode", out_dir=tmp_path) == 1


def test_no_matching_blocks(tmp_path, capsys):
    cfg = parse_config(MINIMAL)
    assert run(cfg, "sommerfeld", out_dir=tmp_path) == 1


def test_deterministic_outputs(tmp_path, capsys):
    cfg = parse_config("""
[model]
kind = free

[grid]
h = 0.05

[experiment sweep]
kind = lap
lambda = 1.0
gammas = 0.1, 0.01
""")
    run(cfg, "lap", out_dir=tmp_path / "a", seed=3)
    run(cfg, "lap", out_dir=tmp_path / "b", seed=3)
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == \
        (tmp_path / "b" / "sweep.csv").read_bytes()


def test_blocks_run_in_config_order_without_a_jobs_option(tmp_path, capsys):
    path = tmp_path / "two.cfg"
    path.write_text("""
[model]
kind = free

[grid]
h = 0.05

[experiment one]
kind = lap
lambda = 1.0
gammas = 0.1, 0.01

[experiment two]
kind = lap
lambda = 2.0
gammas = 0.1, 0.01
""")
    assert cli.main(["lap", "--config", str(path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in out] == ["one", "two"]
    assert "jobs" not in inspect.signature(run).parameters
    with pytest.raises(SystemExit) as exc:
        cli.main(["lap", "--config", str(path), "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("a, b", [(3.0, 3.0), (3.0, 2.0)])
def test_empty_bump_support_is_an_error_line(tmp_path, capsys, recwarn, a, b):
    cfg = parse_config(MINIMAL + f"psi_a = {a}\npsi_b = {b}\n")
    assert run(cfg, "lap", out_dir=tmp_path) == 1
    out = capsys.readouterr().out
    assert out.startswith("sweep: ERROR (") and "a < b" in out
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_config_hash_in_outputs(tmp_path, capsys):
    cfg = parse_config(MINIMAL.replace("0.1, 0.01", "0.1"))
    run(cfg, "lap", out_dir=tmp_path)
    text = (tmp_path / "sweep.csv").read_text()
    assert f"# config_hash: {cfg.config_hash}" in text
    assert "# version: " in text


def test_strict_turns_inconclusive_into_failure(tmp_path, capsys):
    # an unreliable riccati fit on the free model would be inconclusive, but
    # the free model hits the residual floor and passes; force inconclusive
    # through a non-certified window instead: use hoelder with an absurd top
    cfg = parse_config("""
[model]
kind = free

[grid]
h = 0.05

[experiment sweep]
kind = lap
lambda = 1.0
gammas = 0.1, 0.01
""")
    # strict with all-pass stays 0
    assert run(cfg, "lap", out_dir=tmp_path, strict=True) == 0


def test_run_solve_exports_solution(tmp_path, capsys):
    cfg = parse_config("""
[model]
kind = free

[grid]
r_max = 32.0
h = 0.02

[experiment sol]
kind = solve
lambda = 1.0
gammas = 0.05
""")
    assert run(cfg, "solve", out_dir=tmp_path) == 0
    text = (tmp_path / "sol.csv").read_text()
    assert text.splitlines()[-1].count(",") == 2  # r, re, im


def test_run_rellich_well(tmp_path, capsys):
    cfg = parse_config("""
[model]
kind = well
depth = 5.0

[grid]
r_max = 32.0
h = 0.02

[experiment scan]
kind = rellich
interval_lo = -5.0
interval_hi = 5.0
""")
    assert run(cfg, "rellich", out_dir=tmp_path) == 0
    out = capsys.readouterr().out
    assert "artifacts" in out and "0 unexplained" in out


def test_run_rellich_multiend(tmp_path, capsys):
    cfg = parse_config("""
[model]
kind = multiend
lambda0 = 0.0
lambda1 = 4.0

[grid]
r_max = 48.0
h = 0.02

[experiment scan]
kind = rellich
interval_lo = 0.05
interval_hi = 6.0
""")
    assert run(cfg, "rellich", out_dir=tmp_path) == 0


@pytest.mark.parametrize("kind", ["free", "multiend"])
def test_run_rellich_refuses_an_empty_interval(tmp_path, capfd, kind):
    # the line scan shares the interval check of the warped one: the block
    # errors with the library's message, and LAPACK's bisection is never
    # handed the empty interval
    cfg = parse_config(f"""
[model]
kind = {kind}

[experiment scan]
kind = rellich
interval_lo = 1.0
interval_hi = 1.0
""")
    assert run(cfg, "rellich", out_dir=tmp_path) == 1
    out, err = capfd.readouterr()
    assert "scan: ERROR (scan interval must be non-degenerate)" in out
    assert "DSTEBZ" not in out + err and "Traceback" not in err


def test_run_sommerfeld(tmp_path, capsys):
    cfg = parse_config("""
[model]
kind = free

[grid]
h = 0.02

[experiment uniq]
kind = sommerfeld
lambda = 2.0
gamma_top = 0.008
window_r_max = 32.0
tol = 1e-3
""")
    assert run(cfg, "sommerfeld", out_dir=tmp_path) == 0
    assert (tmp_path / "uniq.csv").exists()


def test_run_hoelder_cheap(tmp_path, capsys):
    cfg = parse_config("""
[model]
kind = free

[grid]
h = 0.05

[experiment hc]
kind = hoelder
lambda = 1.0
s = 1.0
gamma_top = 0.064
n_pairs = 3
n_probes = 2
""")
    assert run(cfg, "hoelder", out_dir=tmp_path) == 0
    out = capsys.readouterr().out
    assert "eps_emp" in out


def test_tabulated_model_from_csv(tmp_path, capsys):
    import numpy as np
    rt = np.linspace(1.0, 20000.0, 60000)
    table = tmp_path / "warp.csv"
    np.savetxt(table, np.column_stack([rt, rt**2]), delimiter=",",
               header="r,f")
    cfg = parse_config(f"""
[model]
kind = tabulated
csv = {table}
d = 3
""")
    status = run(cfg, "check", out_dir=tmp_path)
    out = capsys.readouterr().out
    assert status in (0, 2)
    assert "sigma=" in out


def test_run_sommerfeld_zero_source(tmp_path, capsys):
    cfg = parse_config("""
[model]
kind = free

[grid]
h = 0.02

[experiment null]
kind = sommerfeld
lambda = 2.0
gamma_top = 0.008
window_r_max = 32.0
psi_amp = 0.0
""")
    assert run(cfg, "sommerfeld", out_dir=tmp_path) == 0
    assert "disc=0.0" in capsys.readouterr().out


def _run_python(*args):
    src = str(Path(endspec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_module_entry_point_runs_without_runpy_warning():
    proc = _run_python("-m", "endspec.cli", "--help")
    assert proc.returncode == 0
    assert "RuntimeWarning" not in proc.stderr
    # the package loads the CLI on first use, and both names still resolve
    proc = _run_python("-c", "import sys, endspec; "
                             "assert 'endspec.cli' not in sys.modules; "
                             "assert endspec.run is endspec.cli.run; "
                             "assert callable(endspec.cli.main)")
    assert proc.returncode == 0, proc.stderr


def test_package_import_leaves_scipy_integrate_unloaded():
    # the exact Riccati reference is a numpy Magnus propagator, so importing
    # the package pulls in no ODE solver
    proc = _run_python("-c", "import sys, endspec; "
                             "assert 'scipy.integrate' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_package_import_leaves_scipy_special_unloaded():
    # weighted_norm's log-space branch sums in numpy, so importing the
    # package loads no special functions (they cost every process ~0.05 s)
    proc = _run_python("-c", "import sys, endspec; "
                             "assert not [m for m in sys.modules "
                             "if m.startswith('scipy.special')]")
    assert proc.returncode == 0, proc.stderr


def test_module_docstring_lists_every_key_and_kind():
    # the schema in the config module's docstring is the format's reference:
    # it names exactly the keys and kinds the parser accepts
    import re
    keys, kinds, section = {}, {}, None
    for line in config.__doc__.splitlines():
        header = re.match(r"    \[(\w+)", line)
        if header:
            section = header.group(1)
            keys[section], kinds[section] = set(), set()
            continue
        entry = re.match(r"    (\w+) = ", line)
        if entry and section:
            keys[section].add(entry.group(1))
        if section and (entry and entry.group(1) == "kind" or line.strip().startswith("|")):
            kinds[section] |= set(re.findall(r"\b[a-z_]+\b", line.split("#")[0])) - {"kind"}
    assert keys["model"] == set(config._MODEL_KEYS)
    assert keys["grid"] == set(config._GRID_KEYS)
    assert keys["output"] == set(config._OUTPUT_KEYS)
    assert keys["experiment"] == set(config._EXPERIMENT_KEYS)
    assert kinds["model"] == set(config._MODELS)
    assert kinds["experiment"] == set(config._EXPERIMENT_NEEDS)
    # so does the key paragraph of README's configuration section
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Model keys:"))
    model_part, experiment_part = paragraph.split("Experiment keys")
    assert set(re.findall(r"`(\w+)`", model_part)) == set(config._MODEL_KEYS) - {"kind"}
    assert (set(re.findall(r"`(\w+)`", experiment_part))
            == set(config._EXPERIMENT_KEYS) - {"kind"})


def test_package_docstring_names_existing_policy_constants():
    # the package docstring lists the fixed policies every verdict rests on;
    # each ``module.NAME`` it names is a constant of that module
    import re
    named = re.findall(r"``(\w+)\.([A-Z_][A-Z0-9_]*)``", endspec.__doc__)
    assert ("conditions", "EXPONENT_CAP") in named
    for module, name in named:
        assert isinstance(getattr(importlib.import_module(f"endspec.{module}"), name),
                          (int, float, tuple))


def test_every_module_level_import_is_used():
    # no linter runs on the package: a module-level import that nothing in its
    # module reads fails here, unless its lines carry ``# noqa: F401``
    import ast
    unused = []
    for path in sorted(Path(endspec.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__" \
                    or any("noqa: F401" in line
                           for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_every_function_parameter_is_read():
    # a parameter its function (or a function nested in it) never reads is
    # a value a caller sets for nothing; a method's ``self`` is exempt
    import ast
    unread = []
    for path in sorted(Path(endspec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [p for p in (a.vararg, a.kwarg) if p]]
            name = getattr(node, "name", "lambda")
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name)}
            unread += [f"{path.name}: {name}.{p}" for p in params
                       if p != "self" and p not in read]
    assert unread == []


def test_every_assigned_local_is_read():
    # a name a function binds and never reads (in it or in a function nested
    # in it) is dead work or a lost result; names starting with _ are exempt
    import ast
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def own_nodes(node):
        # the nodes of a function's body outside the functions nested in it
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, scopes):
                yield child
                yield from own_nodes(child)

    dead = []
    for path in sorted(Path(endspec.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored = {n.id for n in own_nodes(node)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            read = {n.id for n in ast.walk(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            dead += [f"{path.stem}.{node.name}.{name}" for name in sorted(stored - read)
                     if not name.startswith("_")]
    assert dead == []


def test_every_private_default_is_passed_somewhere():
    # a defaulted parameter of a private function that no call in the
    # package passes is a knob nothing turns; a call with *args or **kwargs
    # counts as passing all of them
    import ast
    trees = [(path.name, ast.parse(path.read_text()))
             for path in sorted(Path(endspec.__file__).parent.glob("*.py"))]
    calls = {}       # callee name -> [(positional count, keywords, spread)]
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                spread = any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, spread))
    methods = {id(f) for _, tree in trees for c in ast.walk(tree)
               if isinstance(c, ast.ClassDef) for f in c.body}
    unpassed = []
    for module, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or not node.name.startswith("_") or node.name.startswith("__"):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            offset = 1 if id(node) in methods else 0     # self is bound
            defaulted = [(j - offset, p.arg) for j, p in enumerate(positional)
                         if j >= len(positional) - len(a.defaults)]
            defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            for j, param in defaulted:
                if not any(spread or param in kws or (j is not None and j < n_pos)
                           for n_pos, kws, spread in calls.get(node.name, [])):
                    unpassed.append(f"{module}: {node.name}.{param}")
    assert unpassed == []


def test_every_import_is_read():
    # a name a module imports but never reads is left behind by an edit.
    # __init__.py re-exports what it imports, and a line marked
    # "# noqa: F401" keeps its names bound on purpose (solver.solve_banded,
    # which the benchmark tracer wraps)
    import ast
    unread = []
    for path in sorted(Path(endspec.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                    or getattr(node, "module", None) == "__future__" \
                    or "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unread.append(f"{path.name}: {name}")
    assert unread == []
