import argparse
import ast
import dataclasses
import filecmp
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import stcmc.cli as cli
from stcmc.cli import main, parse_grid
from stcmc.errors import ConfigError


def test_parse_grid_list():
    assert parse_grid("1,2,3") == [1.0, 2.0, 3.0]


def test_parse_grid_log():
    g = parse_grid("log:100:10000:3")
    assert len(g) == 3
    assert abs(g[0] - 100.0) < 1e-12
    assert abs(g[1] - 1000.0) < 1e-9
    assert abs(g[2] - 10000.0) < 1e-8


def test_parse_grid_errors():
    for text in ("log:10:5:4", "log:1:2", "a,b", "log:100:1000:2.5", "log:a:1000:3", "log:100:1000:nan", "log:nan:1000:3"):
        with pytest.raises(ConfigError):
            parse_grid(text)


def test_solve_flat(capsys):
    rc = main(["solve", "--data", "euclidean", "--sigma", "10", "--lmax", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "area radius 10" in out


def test_charges_table(capsys):
    rc = main(["charges", "--data", "schwarzschild", "--mass", "1", "--radii", "50,100,200,400", "--lmax", "12"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "E = 1.000" in out


def test_charges_csv_reruns_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        rc = main([
            "charges", "--data", "schwarzschild_graphical", "--mass", "1", "--u", "1,0,0",
            "--radii", "100,200,400", "--lmax", "12", "--out", str(p),
        ])
        assert rc == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_charges_at_zero_energy_reports_nan_centers(tmp_path, capsys):
    argv = ["charges", "--data", "euclidean", "--radii", "10,20,30", "--lmax", "8"]
    assert main(argv) == 0
    table = capsys.readouterr().out
    out = tmp_path / "flat.csv"
    assert main(argv + ["--out", str(out)]) == 0
    # the same table and E/P line, with the CSV written between them
    assert capsys.readouterr().out == table.replace("E = ", f"wrote {out}\nE = ")
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        row = [float(v) for v in line.split(",")]
        assert all(abs(v) < 1e-12 for v in row[1:5])  # E and P
        assert all(v != v for v in row[5:])  # center and velocity columns are NaN


def test_foliate_csv(tmp_path, capsys):
    out = tmp_path / "fol.csv"
    rc = main([
        "foliate", "--data", "schwarzschild", "--mass", "1",
        "--sigma-list", "20,40", "--lmax", "8", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sigma,r_area,z1,z2,z3,m_hawking,lambda1,lambda2,lambda3,sigma_min_L,residual"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert abs(float(row[5]) - 1.0) < 1e-9  # hawking mass


def test_spectrum_command(capsys):
    rc = main(["spectrum", "--data", "schwarzschild", "--mass", "1", "--sigma", "20", "--lmax", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "eigenvalues" in out and "sigma_min" in out


@pytest.mark.parametrize("k", ["-1", "0", "2", "81"])
def test_spectrum_command_rejects_k_below_three(monkeypatch, capsys, k):
    """k below 3, or k + 1 above the 81 basis functions at lmax 8, exits 2 before the solve."""
    import stcmc.cli as cli

    def no_solve(*args, **kwargs):
        raise AssertionError("the leaf was solved")

    monkeypatch.setattr(cli, "newton_solve", no_solve)
    rc = main(["spectrum", "--data", "schwarzschild", "--mass", "1", "--sigma", "40", "--lmax", "8", "--k", k])
    assert rc == 2
    assert "ConfigError" in capsys.readouterr().err


def test_example_s9(tmp_path, capsys):
    out = tmp_path / "s9.csv"
    rc = main([
        "example-s9", "--mass", "1", "--u", "1,0,0",
        "--s-grid", "log:100:10000:8", "--lmax", "12", "--out", str(out),
    ])
    assert rc == 0
    text = capsys.readouterr().out
    assert "metric-term divergent: True" in text
    assert "sum divergent: False" in text
    lines = out.read_text().splitlines()
    assert len(lines) == 9


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "prov.json"
    cfg.write_text(json.dumps({"kind": "schwarzschild_canonical", "mass": 1.0}))
    rc = main(["charges", "--config", str(cfg), "--radii", "50,100,200", "--lmax", "8"])
    assert rc == 0


def test_exit_code_config_error(capsys):
    rc = main(["charges", "--data", "nonsense", "--radii", "10,20,30"])
    assert rc == 2


def test_exit_code_numerical_error(tmp_path, capsys):
    # spheres of radius 1 and 2 lie inside the horizon r = 2m
    out = tmp_path / "horizon.csv"
    rc = main(["charges", "--data", "schwarzschild", "--mass", "1", "--radii", "1,2,3", "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "HorizonReached" in err


RADII_MESSAGE = "sphere radii must be finite and positive"
NONFINITE_OR_NONPOSITIVE = {
    "negative-radius": (
        ["charges", "--data", "schwarzschild", "--mass", "1", "--radii=-50,100,200,400"], RADII_MESSAGE
    ),
    "negative-s": (["example-s9", "--s-grid", "100,200,400,-800"], RADII_MESSAGE),
    "infinite-radius": (
        ["charges", "--data", "schwarzschild", "--mass", "1", "--radii", "100,200,inf"], RADII_MESSAGE
    ),
    "nan-sigma": (["solve", "--data", "schwarzschild", "--mass", "1", "--sigma", "nan"], "sigma must be finite"),
    "spectrum-nan-sigma": (
        ["spectrum", "--data", "schwarzschild", "--mass", "1", "--sigma", "nan"], "sigma must be finite"
    ),
    "nan-in-sigma-list": (
        ["foliate", "--data", "schwarzschild", "--mass", "1", "--sigma-list", "20,nan"],
        "sigma list must hold finite positive values",
    ),
    "nan-tol": (
        ["solve", "--data", "schwarzschild", "--mass", "1", "--sigma", "20", "--tol", "nan"],
        "tolerance must be finite and positive",
    ),
}


@pytest.mark.parametrize(
    ("argv", "message"), NONFINITE_OR_NONPOSITIVE.values(), ids=NONFINITE_OR_NONPOSITIVE.keys()
)
def test_nonfinite_or_nonpositive_input_is_a_config_error(capsys, argv, message):
    """Each bad value exits 2 with a message that names it."""
    rc = main(argv + ["--lmax", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and message in err


def test_exit_code_unresolved_radii(capsys):
    rc = main(["charges", "--data", "schwarzschild", "--mass", "1", "--radii", "100,101,102,103,104,105,106,107", "--lmax", "8"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "ConfigError: radii do not resolve the log-periodic pair" in captured.err
    assert "E = " not in captured.out


@pytest.fixture
def jet_calls(monkeypatch):
    """The jet calls made on every provider that the CLI builds, in order."""
    calls = []
    build_provider = cli.build_provider

    def counted(config):
        prov = build_provider(config)
        for name in ("metric_jet", "extrinsic_jet"):
            method = getattr(prov, name)
            setattr(prov, name, lambda x, name=name, method=method: calls.append(name) or method(x))
        return prov

    monkeypatch.setattr(cli, "build_provider", counted)
    return calls


def test_exit_code_repeated_radii(jet_calls, capsys):
    """Repeated radii exit 2 before the sweep evaluates any sphere."""
    for radii in ("100,100,100", "100,100,200"):
        rc = main(["charges", "--data", "schwarzschild", "--mass", "1", "--radii", radii, "--lmax", "8"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "radii must be distinct" in captured.err
        assert "E = " not in captured.out
    assert jet_calls == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["charges", "--data", "schwarzschild", "--mass", "1", "--radii", "100,200"], "need at least three radii"),
        (
            ["charges", "--data", "schwarzschild", "--mass", "1", "--radii", "100,101,102,103,104,105,106,107"],
            "radii do not resolve the log-periodic pair",
        ),
        (["example-s9", "--s-grid", "100,200"], "need at least three radii"),
    ],
)
def test_radii_the_fit_cannot_use_exit_2_before_any_sphere(jet_calls, capsys, argv, message):
    assert main(argv + ["--lmax", "8"]) == 2
    assert f"ConfigError: {message}" in capsys.readouterr().err
    assert jet_calls == []


def test_exit_code_band_limit_too_small(capsys):
    rc = main(["charges", "--data", "schwarzschild", "--mass", "1", "--radii", "50,100,200", "--lmax", "3"])
    assert rc == 2
    assert "band limit 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["foliate", "--data", "schwarzschild", "--mass", "1", "--sigma-list", "20,40"],
        ["solve", "--data", "schwarzschild_graphical", "--mass", "1", "--u", "1,0,0", "--sigma", "60"],
        ["spectrum", "--data", "schwarzschild", "--mass", "1", "--sigma", "20"],
    ],
)
def test_surface_band_below_four_exits_2_before_any_residual(monkeypatch, capsys, argv):
    import stcmc.solver as sv

    def no_residual(*args, **kwargs):
        raise AssertionError("a residual was evaluated")

    monkeypatch.setattr(sv, "curvature_residual", no_residual)
    rc = main(argv + ["--lmax", "3"])
    assert rc == 2
    assert "surface band limit 3 < 4" in capsys.readouterr().err


def test_center_flag_translates(capsys):
    rc = main([
        "charges", "--data", "schwarzschild", "--mass", "1", "--center", "1,0,0",
        "--radii", "50,100,200,400", "--lmax", "12",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "E = 1.000" in out


def _config_file(tmp_path, text):
    path = tmp_path / "prov.json"
    path.write_text(text)
    return ["--config", str(path)]


PROVIDER_COMMANDS = {
    "charges": ["charges", "--radii", "50,100,200,400"],
    "solve": ["solve", "--sigma", "20"],
    "foliate": ["foliate", "--sigma-list", "20,40"],
    "spectrum": ["spectrum", "--sigma", "20"],
}


@pytest.mark.parametrize("flag", [["--data", "euclidean"], ["--mass", "5"], ["--u", "1,0,0"]], ids=lambda f: f[0])
@pytest.mark.parametrize("command", PROVIDER_COMMANDS.values(), ids=PROVIDER_COMMANDS.keys())
def test_config_excludes_the_data_flags(tmp_path, jet_calls, capsys, command, flag):
    """--config with --data, --mass or --u exits 2 before any provider is evaluated."""
    argv = command + _config_file(tmp_path, '{"kind": "schwarzschild_canonical", "mass": 1}') + flag
    assert main(argv + ["--lmax", "8"]) == 2
    assert f"ConfigError: --config excludes {flag[0]}" in capsys.readouterr().err
    assert jet_calls == []


SOLVE = ["solve", "--sigma", "20", "--lmax", "8"]
MALFORMED_PROVIDER_ARGS = {
    "u-2": lambda tmp: ["--data", "schwarzschild_graphical", "--mass", "1", "--u", "1,0"],
    "mass-unread": lambda tmp: ["--data", "euclidean", "--mass", "5"],
    "center-2": lambda tmp: ["--data", "schwarzschild", "--mass", "1", "--center", "1,2"],
    "config-mass-string": lambda tmp: _config_file(tmp, '{"kind": "schwarzschild_canonical", "mass": "abc"}'),
    "config-rotation-2x2": lambda tmp: _config_file(
        tmp, '{"kind": "rotated", "rotation": [[1, 0], [0, 1]], "inner": {"kind": "euclidean"}}'
    ),
    "config-term-coeff-nan": lambda tmp: _config_file(
        tmp, '{"kind": "custom_perturbation", "perturbation_terms": [{"i": 0, "j": 0, "coeff": NaN, "decay": 1}]}'
    ),
    "config-missing": lambda tmp: ["--config", str(tmp / "missing.json")],
    "config-not-json": lambda tmp: _config_file(tmp, "{kind: euclidean"),
}


@pytest.mark.parametrize("provider_args", MALFORMED_PROVIDER_ARGS.values(), ids=MALFORMED_PROVIDER_ARGS.keys())
def test_malformed_provider_input_is_a_config_error(tmp_path, capsys, provider_args):
    rc = main(SOLVE + provider_args(tmp_path))
    assert rc == 2
    assert "ConfigError" in capsys.readouterr().err


def test_foliate_rejects_an_empty_sigma_list(capsys):
    rc = main(["foliate", "--data", "euclidean", "--sigma-list", ",", "--lmax", "8"])
    assert rc == 2
    assert "ConfigError" in capsys.readouterr().err


@pytest.mark.parametrize("u", ["0,0,0", "1,0"])
def test_example_s9_rejects_a_degenerate_direction(monkeypatch, capsys, u):
    import stcmc.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "sphere_fluxes", no_sweep)
    rc = main(["example-s9", "--u", u, "--s-grid", "log:100:10000:4", "--lmax", "8"])
    assert rc == 2
    assert "ConfigError" in capsys.readouterr().err


def _readme_commands():
    """The stcmc invocations of the README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("stcmc ")]


def test_readme_examples_run(tmp_path, capsys):
    commands = [argv for argv in _readme_commands() if argv[0] != "check"]
    assert len(commands) >= 5
    for argv in commands:
        argv = [str(tmp_path / Path(a).name) if i and argv[i - 1] == "--out" else a for i, a in enumerate(argv)]
        rc = main(argv + ["--lmax", "8"])
        assert rc == 0, argv


def _subcommands():
    """(name, subparser) for each subcommand of build_parser()."""
    (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices.items())


def test_every_declared_flag_is_read():
    provider_reader = inspect.getsource(cli._provider_from_args)
    assert len(_subcommands()) == len(cli.COMMANDS)
    for name, parser in _subcommands():
        source = inspect.getsource(cli.COMMANDS[name])
        if "_provider_from_args(args)" in source:
            source += provider_reader
        for action in parser._actions:
            if action.dest != "help":
                assert re.search(rf"\bargs\.{action.dest}\b", source), f"{name} declares {action.dest} but never reads it"


def test_every_exported_name_has_a_program_reader():
    """Each name of stcmc.__all__ is read by the library, the CLI, the criteria or the benchmark."""
    import stcmc

    root = Path(__file__).resolve().parents[1]
    sources = [p for p in (root / "src" / "stcmc").glob("*.py") if p.name != "__init__.py"]
    read = set()
    for path in sources + sorted((root / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(set(stcmc.__all__) - read) == []


def test_every_frame_field_has_a_program_reader():
    """Each field of CurvatureField is read as an attribute by the library, the CLI, the criteria or the benchmark."""
    from stcmc.surfaces import CurvatureField

    root = Path(__file__).resolve().parents[1]
    read = set()
    for path in sorted((root / "src" / "stcmc").glob("*.py")) + sorted((root / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert sorted({f.name for f in dataclasses.fields(CurvatureField)} - read) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--data", "schwarzschild", "--mass", "1", "--sigma", "20", "--out", "x.csv"],
        ["charges", "--data", "schwarzschild", "--mass", "1", "--radii", "50,100,200", "--tol", "1"],
    ],
)
def test_undeclared_flag_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_ci_gates_pass(tmp_path):
    """Each gate run of the tier-1 workflow, by ci/gates.sh with this interpreter as `python`, exits 0."""
    root = Path(__file__).resolve().parents[1]
    gates = re.findall(r"run: bash ci/gates\.sh (\w+)$", (root / ".github" / "workflows" / "tier1.yml").read_text(), re.M)
    assert len(gates) == 7
    path = os.pathsep.join([str(Path(sys.executable).parent), os.environ.get("PATH", "")])
    env = {**os.environ, "PATH": path, "RUNNER_TEMP": str(tmp_path), "OPENBLAS_NUM_THREADS": "1"}
    for gate in gates:
        run = subprocess.run(["bash", str(root / "ci" / "gates.sh"), gate], env=env, capture_output=True, text=True)
        assert run.returncode == 0, f"{gate}:\n{run.stdout}\n{run.stderr}"
