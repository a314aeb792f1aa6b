import filecmp
import json

import pytest

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
    with pytest.raises(ConfigError):
        parse_grid("log:10:5:4")
    with pytest.raises(ConfigError):
        parse_grid("log:1:2")
    with pytest.raises(ConfigError):
        parse_grid("a,b")


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


@pytest.mark.parametrize("k", ["-1", "0", "2"])
def test_spectrum_command_rejects_k_below_three(capsys, k):
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


def test_exit_code_numerical_error(capsys):
    # flat data has zero energy: the center/velocity sweep fails numerically
    rc = main(["charges", "--data", "euclidean", "--radii", "10,20,30", "--lmax", "8", "--out", "/tmp/zz.csv"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "ZeroEnergy" in err


def test_exit_code_band_limit_too_small(capsys):
    rc = main(["charges", "--data", "schwarzschild", "--mass", "1", "--radii", "50,100,200", "--lmax", "3"])
    assert rc == 2
    assert "band limit 3" in capsys.readouterr().err


def test_center_flag_translates(capsys):
    rc = main([
        "charges", "--data", "schwarzschild", "--mass", "1", "--center", "1,0,0",
        "--radii", "50,100,200,400", "--lmax", "12",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "E = 1.000" in out
