"""Acceptance gate: every criterion must pass at its stated tolerance.

Each test prints the one-line pass/fail summary of its criterion so the
numbers appear in the pytest output (-s or on failure).  Each criterion's
numbers are also compared with the record in data/numbers.json: a "digits"
entry must print as recorded, a "roundoff" entry must meet its pinned bound.
The record changes only with a stated reason for each entry that moves.
"""

import csv
import json
from pathlib import Path

import numpy as np

from stcmc import acceptance, cli, solver, surfaces
from stcmc.chart import SchwarzschildProvider

NUMBERS = json.loads((Path(__file__).parent / "data" / "numbers.json").read_text())


def _run(fn):
    res = fn()
    print(res.line())
    assert res.passed, res.line()
    record = NUMBERS["criteria"][str(res.index)]
    details = {key: value for key, value in res.details.items() if key != "runtime_s"}
    assert list(details) == list(record)
    for key, entry in record.items():
        if entry["class"] == "roundoff":
            assert details[key] <= entry["bound"], key
        else:
            assert acceptance._fmt(details[key]) == entry["printed"], key
    return res


def test_criterion_1_adm_energy():
    _run(acceptance.criterion_1_adm_energy)


def test_criterion_2_vacuum_constraints():
    res = _run(acceptance.criterion_2_vacuum_constraints)
    assert res.details["max_mu"] <= 1e-8
    assert res.details["max_J"] <= 1e-8


def test_criterion_3_schwarzschild_solve():
    res = _run(acceptance.criterion_3_schwarzschild_solve)
    assert res.details["radius_err"] <= 1e-8
    assert res.details["residual"] <= 1e-10
    assert res.details["iterations"] <= 8


def test_criterion_4_cancellation():
    res = _run(acceptance.criterion_4_cancellation)
    assert abs(res.details["bom_amplitude"] - 1.0 / 3.0) <= 0.05 / 3.0
    assert abs(res.details["z_amplitude"] + 1.0 / 3.0) <= 0.05 / 3.0
    assert res.details["sum_at_200"] <= 0.05
    assert res.details["decay_exponent"] <= -0.8


def test_criterion_5_eigenvalue_law():
    res = _run(acceptance.criterion_5_eigenvalue_law)
    assert res.details["rel_errors"][-1] <= 0.10
    assert res.details["monotone"]


def test_criterion_5_reads_the_foliations_spectra(monkeypatch):
    fol = acceptance._schwarzschild_foliation()
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as m:
        frames = counted(surfaces.surface_frames)
        for mod in (surfaces, solver, acceptance):
            m.setattr(mod, "surface_frames", frames)
        m.setattr(solver, "laplace_spectrum", counted(solver.laplace_spectrum))
        acceptance.criterion_5_eigenvalue_law()
    assert calls == []
    # the kept spectra are those of the leaves' frames formed afresh
    prov = SchwarzschildProvider(1.0)
    for leaf in fol:
        fresh = solver.laplace_spectrum(surfaces.surface_frames(prov, leaf.surface), k=8)
        for name in ("eigenvalues", "ricci_integrals", "hawking_mass", "sigma", "sigma_min_L"):
            assert np.array_equal(getattr(leaf.spectrum, name), getattr(fresh, name)), name


def test_criterion_6_linearization_suite():
    res = _run(acceptance.criterion_6_linearization_suite)
    assert res.details["max_rel_err"] <= 1e-5


def test_criterion_7_operator_floor():
    res = _run(acceptance.criterion_7_operator_floor)
    assert all(r >= 0.9 for r in res.details["sigma_min_over_bound"])


def test_criterion_8_uniqueness_equivariance():
    res = _run(acceptance.criterion_8_uniqueness_equivariance)
    assert res.details["leaf_equivariance"] <= 1e-9
    assert res.details["charge_equivariance"] <= 1e-9


def test_criterion_9_evolution_law():
    res = _run(acceptance.criterion_9_evolution_law)
    assert res.details["max_discrepancy"] <= 1e-2
    assert res.details["sum_identity_exact"]


def test_criterion_10_graph_equation_oracle():
    res = _run(acceptance.criterion_10_graph_equation_oracle)
    assert res.details["max_curvature_defect"] <= 1e-10


def test_all_criteria_registered_in_order():
    names = [fn.__name__ for fn in acceptance.ALL_CRITERIA]
    assert [int(name.split("_")[1]) for name in names] == list(range(1, 11))
    assert all(getattr(acceptance, name) is fn for name, fn in zip(names, acceptance.ALL_CRITERIA))


def test_runtime_budget_overrun_fails_the_criterion(monkeypatch):
    clock = iter([0.0])  # the start, then 11 s for every later reading
    monkeypatch.setattr(acceptance.time, "time", lambda: next(clock, 11.0))
    res = acceptance.criterion_1_adm_energy()
    assert not res.passed
    assert list(res.details)[-1] == "runtime_s"
    assert res.details["runtime_s"] == res.elapsed == 11.0
    assert res.details["err_canonical"] <= 1e-3 and res.details["err_graphical"] <= 1e-2


def test_array_entries_print_at_four_significant_digits():
    assert acceptance._fmt(np.full(3, 2.5159e-4)) == "[0.0002516 0.0002516 0.0002516]"
    assert acceptance._fmt(np.array([2.165, 2.078])) == "[2.165 2.078]"


def test_record_classes_the_pinned_roundoff_entries():
    roundoff = {(int(i), key) for i, rec in NUMBERS["criteria"].items() for key, e in rec.items() if e["class"] == "roundoff"}
    assert roundoff == {
        (2, "max_mu"), (2, "max_J"), (3, "residual"), (8, "seed_distance_flat"), (8, "seed_distance_schw"),
        (8, "seed_distance_graphical"), (8, "leaf_equivariance"), (8, "charge_equivariance"),
        (10, "max_curvature_defect"),
    }
    assert sorted(NUMBERS["criteria"], key=int) == [str(i) for i in range(1, 11)]


def test_foliate_csv_matches_the_numbers_record(tmp_path, capsys, monkeypatch):
    record = NUMBERS["foliate"]
    out = tmp_path / "fol.csv"
    certified, half_band = [], solver._certified_sigma_min

    def recorded(*args):
        smin = half_band(*args)
        certified.append(smin is not None)
        return smin

    monkeypatch.setattr(solver, "_certified_sigma_min", recorded)
    assert cli.main(record["argv"] + ["--out", str(out)]) == 0
    assert certified == [True] * len(record["columns"]["sigma"])  # every leaf's sigma_min from the half band
    with open(out) as fh:
        header, *rows = list(csv.reader(fh))
    assert header == list(record["columns"])
    columns = np.array(rows, dtype=float).T
    for name, got in zip(header, columns):
        if name == "residual":
            assert np.all(got <= record["residual_bound"])
        else:
            assert np.max(np.abs(got - record["columns"][name])) <= record["abs_tolerance"][name], name
