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
from endspec.config import parse_config
from endspec.errors import ConfigError, EndspecError
from endspec.experiments import Bump

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
def test_escape_kinds_build_no_model(kind):
    assert build_model(parse_config(f"[model]\nkind = {kind}\n")) is None


def test_escape_field_obstacle_k():
    # r(0, 0) is sqrt(K ln 2) on the hyperbola field, sqrt(1 + K^2) on the
    # saw-tooth, whose K is raised to at least 1
    def r00(extra):
        return cli._escape_field(parse_config(f"[model]\n{extra}\n")).r_fn(0.0, 0.0)

    assert r00("kind = escape_hyperbola") == pytest.approx(math.sqrt(3.0 * math.log(2.0)))
    assert r00("kind = escape_hyperbola\nobstacle_k = 4.0") == pytest.approx(
        math.sqrt(4.0 * math.log(2.0)))
    assert r00("kind = escape_sawtooth\nobstacle_k = 0.5") == pytest.approx(math.sqrt(2.0))
    assert r00("kind = escape_sawtooth\nobstacle_k = 2.0") == pytest.approx(math.sqrt(5.0))
    assert r00("kind = escape_disk") == 0.0


def test_kind_tables_agree():
    assert (config._EXPERIMENT_KINDS == set(cli._RUNNERS)
            == set().union(*cli._COMMAND_KINDS.values()))
    warped = {k for k in config._MODEL_KINDS if not k.startswith("escape_")}
    assert set(cli._BUILDERS) | {"tabulated"} == warped
    assert set(config.MODEL_NEEDS) <= warped


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
    builder, keys = cli._BUILDERS[kind]
    seen = {}

    def recorder(*args, **kwargs):
        bound = inspect.signature(builder).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.update(bound.arguments)

    monkeypatch.setitem(cli._BUILDERS, kind, (recorder, keys))
    build_model(parse_config(f"[model]\nkind = {kind}\n{extra}\n"))
    assert seen == expected


# Every experiment key the schema has, set away from its default; the
# validator accepts any of them in a block of any kind.
_EVERY_KEY = """
[grid]
r_max = 32.0
h = 0.05
mode_cap = 2.5

[experiment x]
kind = {kind}
lambda = 2.0
interval_lo = 0.5
interval_hi = 3.0
gammas = 0.2, 0.02
betas = 0.3
s = 0.8
psi_a = 1.5
psi_b = 2.5
psi_amp = 2.0
sign = -1
delta = 0.3
nus = 0, 1, 2
tol = 1e-3
gamma_top = 0.032
window_r_max = 16.0
bound_factor = 3.0
seed = 5
n_pairs = 3
n_probes = 2
"""
_NO_OPTION = """
[experiment x]
kind = {kind}
lambda = 2.0
interval_lo = 0.5
interval_hi = 3.0
"""
_PSI = Bump(a=1.5, b=2.5, amplitude=2.0)

# (block kind, command, callee in endspec.cli, its effective arguments for a
# block that sets no optional key, and for one that sets every key).  The
# check kind reads no block key.  besov_energy takes z from the first gamma
# and hoelder/sommerfeld ignore [grid] mode_cap: both are documented drops.
_FORWARDS = [
    ("solve", "solve", "resolve",
     dict(z=2 + 0.01j, psi=Bump()), dict(z=2 + 0.2j, psi=_PSI)),
    ("lap", "lap", "lap_sweep",
     dict(lam=2.0, gammas=[0.1, 0.01, 0.001], psi=Bump(), h=0.02,
          base_r_max=64.0, mode_cap=6.5, bound_factor=2.0),
     dict(lam=2.0, gammas=[0.2, 0.02], psi=_PSI, h=0.05, base_r_max=32.0,
          mode_cap=2.5, bound_factor=3.0)),
    ("besov_energy", "lap", "besov_energy_check",
     dict(z=2 + 0.1j, psi=Bump(), delta=None, nus=[0, 1, 2, 3, 4, 5, 6],
          gammas=None, h=0.02, mode_cap=6.5, bound_factor=2.0),
     dict(z=2 + 0.2j, psi=_PSI, delta=0.3, nus=[0, 1, 2], gammas=None,
          h=0.05, mode_cap=2.5, bound_factor=3.0)),
    ("radiation", "radiation", "radiation_sweep",
     dict(lam=2.0, gammas=[0.1, 0.01, 0.001], betas=[0.0, 0.5], psi=Bump(),
          h=0.02, base_r_max=64.0, mode_cap=6.5, bound_factor=2.0, sign=1),
     dict(lam=2.0, gammas=[0.2, 0.02], betas=[0.3], psi=_PSI, h=0.05,
          base_r_max=32.0, mode_cap=2.5, bound_factor=3.0, sign=-1)),
    ("hoelder", "hoelder", "hoelder_estimate",
     dict(lam=2.0, s=1.0, gamma_top=0.064, n_pairs=4, n_probes=8, seed=7,
          h=0.02, mode_cap=0.5, slack=0.1),
     dict(lam=2.0, s=0.8, gamma_top=0.032, n_pairs=3, n_probes=2, seed=5,
          h=0.05, mode_cap=0.5, slack=0.1)),
    ("sommerfeld", "sommerfeld", "sommerfeld_compare",
     dict(lam=2.0, psi=Bump(), beta=0.0, sign=1, h=0.02, window_r_max=64.0,
          gamma_top=2e-3, tol=1e-4, mode_cap=0.5),
     dict(lam=2.0, psi=_PSI, beta=0.0, sign=-1, h=0.05, window_r_max=16.0,
          gamma_top=0.032, tol=1e-3, mode_cap=0.5)),
    ("riccati", "riccati", "phase_a",
     dict(z=2 + 0j, sign=1), dict(z=2 + 0.2j, sign=-1)),
    ("rellich", "rellich", "eigen_scan",
     dict(mu=0.0, interval=(0.5, 3.0)), dict(mu=0.0, interval=(0.5, 3.0))),
]


@pytest.mark.parametrize("kind, command, callee, unset, every", _FORWARDS,
                         ids=[f[0] for f in _FORWARDS])
@pytest.mark.parametrize("block", ["unset", "every"])
def test_cli_forwards_effective_arguments(monkeypatch, tmp_path, capsys, kind,
                                          command, callee, unset, every, block):
    # the callee records its arguments, defaults applied, and stops the run
    signature = inspect.signature(getattr(cli, callee))
    seen = []

    def recorder(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments)
        raise EndspecError("recorded")

    monkeypatch.setattr(cli, callee, recorder)
    text = "[model]\nkind = free\n" + (_NO_OPTION if block == "unset" else _EVERY_KEY)
    assert run(parse_config(text.format(kind=kind)), command, out_dir=tmp_path,
               seed=7) == 1
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


def test_parallel_jobs_match_serial(tmp_path, capsys):
    text = """
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
"""
    cfg = parse_config(text)
    assert run(cfg, "lap", out_dir=tmp_path / "serial", jobs=1) == 0
    assert run(cfg, "lap", out_dir=tmp_path / "par", jobs=2) == 0
    for name in ("one.csv", "two.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == \
            (tmp_path / "par" / name).read_bytes()


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
    assert kinds["model"] == config._MODEL_KINDS
    assert kinds["experiment"] == config._EXPERIMENT_KINDS
    # so does the key paragraph of README's configuration section
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Model keys:"))
    model_part, experiment_part = paragraph.split("Experiment keys")
    assert set(re.findall(r"`(\w+)`", model_part)) == set(config._MODEL_KEYS) - {"kind"}
    assert (set(re.findall(r"`(\w+)`", experiment_part))
            == set(config._EXPERIMENT_KEYS) - {"kind"})
