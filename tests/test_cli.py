import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import groupwalk
from groupwalk import cli, harmonic, operators, verify
from groupwalk.cli import (
    AnalysisConfig,
    ConfigError,
    build_parser,
    main,
    parse_config,
    run_analysis,
)
from groupwalk.groups import CyclicGroup, DihedralGroup, SymmetricGroup
from groupwalk.harmonic import Character
from groupwalk.measures import delta
from groupwalk.operators import GroupFunction
from groupwalk.verify import CorpusSpec, run_theorem_suite

Z4_CONFIG = {
    "group": {"kind": "cyclic", "n": 4},
    "measure": [{"g": "1", "w": "1/2"}, {"g": "3", "w": "1/2"}],
    "tasks": ["spectrum", "character", "biharmonic", "boundary", "foguel", "verify"],
}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- analyze

def test_analyze_full_z4_report(tmp_path, capsys):
    code, out, err = run_main(capsys, ["analyze", write_config(tmp_path, Z4_CONFIG)])
    assert code == 0, err
    report = json.loads(out)
    results = report["results"]

    peripheral = sorted(results["spectrum"]["peripheral"])
    assert len(peripheral) == 2
    assert peripheral[0] == pytest.approx([-1.0, 0.0])
    assert peripheral[1] == pytest.approx([1.0, 0.0])
    mults = sorted(r["multiplicity"] for r in results["spectrum"]["eigenvalues"])
    assert mults == [1, 1, 2]
    flat = [r for r in results["spectrum"]["eigenvalues"] if r["multiplicity"] == 2]
    assert not flat[0]["peripheral"]

    assert results["character"]["character"]["values"] == [1, -1, 1, -1]
    assert results["character"]["har_dim"] == 1
    assert results["character"]["anti_dim"] == 1

    assert results["biharmonic"]["dimension"] == 2
    # echelon basis is the constants plus the odd-coset indicator [0,1,0,1]
    constants = sorted(d["constant"] for d in results["biharmonic"]["decompositions"])
    assert constants == ["1", "1/2"]

    assert results["boundary"]["dimension"] == 2
    assert sorted(results["boundary"]["tags"]) == [-1, 1]

    assert results["foguel"]["identity_in_support"] is False
    assert results["foguel"]["first_below"] is None
    assert results["foguel"]["distances"][0] == 1.0

    assert results["verify"]["passed"] is True


def test_analyze_results_follow_fixed_task_order():
    config = parse_config(
        {
            "group": {"kind": "cyclic", "n": 4},
            "measure": [{"g": "1", "w": "1/2"}, {"g": "3", "w": "1/2"}],
            "tasks": ["foguel", "spectrum"],  # listed out of order on purpose
        }
    )
    report = run_analysis(config)
    assert list(report["results"].keys()) == ["spectrum", "foguel"]
    assert report["config"]["options"]["tol"] == 1e-9


def test_analyze_report_is_byte_deterministic(tmp_path, capsys):
    config_path = write_config(tmp_path, Z4_CONFIG)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["analyze", config_path, "--out", str(out_a)]) == 0
    assert main(["analyze", config_path, "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_analyze_csv_tables(tmp_path, capsys):
    config_path = write_config(tmp_path, Z4_CONFIG)
    csv_dir = tmp_path / "tables"
    code, _, _ = run_main(
        capsys, ["analyze", config_path, "--csv", str(csv_dir), "--out", str(tmp_path / "r.json")]
    )
    assert code == 0
    eigen_lines = (csv_dir / "eigenvalues.csv").read_text().strip().splitlines()
    assert eigen_lines[0] == "re,im,multiplicity,peripheral"
    assert len(eigen_lines) == 4  # header + three clusters
    decay_lines = (csv_dir / "decay.csv").read_text().strip().splitlines()
    assert decay_lines[0] == "n,tv_gap"
    assert len(decay_lines) == 501
    assert decay_lines[1] == "1,1.0"


def test_run_path_reaches_no_fraction_elimination(tmp_path, capsys, monkeypatch):
    """The Fraction elimination routines and the Fraction operator matrix
    are test oracles only: with each of them raising, wherever a module of
    the package holds it, analyze runs all six tasks on S4 and Q8 x Z4
    (uniform on the odd elements, so both boundary blocks exist), diamond
    projects on Z4 with mu = delta_2 (two classes) for exact and float
    values, and the theorem suite runs on a tiny corpus."""
    def refuse(*args, **kwargs):
        raise AssertionError("a run path reached the Fraction elimination")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "groupwalk"]:
        for name in ("rational_rref", "rational_solve", "rational_nullspace", "rational_matmul"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(operators.ConvolutionOperator, "exact_matrix", refuse)
    s4 = SymmetricGroup(4)
    odd = [g for g, p in enumerate(s4.perms) if sum(a > b for a, b in itertools.combinations(p, 2)) % 2]
    configs = [
        ({"kind": "symmetric", "n": 4}, odd),
        ({"kind": "product", "factors": [{"kind": "quaternion8"}, {"kind": "cyclic", "n": 4}]},
         [g for g in range(32) if g % 4 % 2]),
    ]
    for group, support in configs:
        config = {
            "group": group,
            "measure": [{"g": str(g), "w": f"1/{len(support)}"} for g in support],
            "tasks": Z4_CONFIG["tasks"],
        }
        code, out, err = run_main(capsys, ["analyze", write_config(tmp_path, config)])
        assert code == 0, err
        results = json.loads(out)["results"]
        assert results["boundary"]["tags"] == [1, -1] and results["verify"]["passed"]
    z4 = CyclicGroup(4)
    f1 = GroupFunction(z4, [Fraction(1), Fraction(2), Fraction(1), Fraction(2)])  # +1
    f2 = GroupFunction(z4, [Fraction(1), Fraction(3), Fraction(-1), Fraction(-3)])  # -1
    for mu in (delta(z4, 2), delta(z4, 2).as_float()):
        got = harmonic.diamond(mu, f1, 1, f2, -1)
        assert got.is_exact == mu.exact and got.values == [1, 6, -1, -6]
    assert run_theorem_suite(CorpusSpec([CyclicGroup(4), DihedralGroup(3)], 3)).passed


def test_analyze_no_exact_flag(tmp_path, capsys):
    config = {
        "group": {"kind": "cyclic", "n": 4},
        "measure": [{"g": "1", "w": "1/2"}, {"g": "3", "w": "1/2"}],
        "tasks": ["character"],
    }
    code, out, _ = run_main(capsys, ["analyze", write_config(tmp_path, config), "--no-exact"])
    assert code == 0
    result = json.loads(out)["results"]["character"]
    assert result["character"]["values"] == [1, -1, 1, -1]
    assert result["har_dim"] is None  # dimension counts need exact weights


def test_analyze_ball_character_and_verify(tmp_path, capsys):
    config = {
        "group": {"kind": "lattice", "dim": 1, "radius": 6},
        "measure": [{"g": "[1]", "w": "1/2"}, {"g": "[-1]", "w": "1/2"}],
        "tasks": ["character", "verify"],
    }
    code, out, _ = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert code == 0
    results = json.loads(out)["results"]
    values = results["character"]["character"]["values"]
    assert values[0] == 1 and -1 in values
    checks = {c["quantity"]: c for c in results["verify"]["checks"]}
    assert checks["right_convolution_negates_character"]["passed"]
    assert checks["two_sided_convolution_restores"]["passed"]
    assert checks["interior_size"]["value"] == 11


def test_analyze_free_ball_verify_checks_each_side_on_its_own_interior(tmp_path, capsys):
    # mu = delta_a: the left and right interiors of the radius-2 ball differ
    config = {
        "group": {"kind": "free", "rank": 2, "radius": 2},
        "measure": [{"g": "a", "w": "1"}],
        "tasks": ["verify"],
    }
    code, out, err = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert code == 0, err
    checks = json.loads(out)["results"]["verify"]["checks"]
    assert [c["quantity"] for c in checks] == [
        "interior_size",
        "right_convolution_negates_character",
        "left_convolution_negates_character",
        "two_sided_convolution_restores",
    ]
    assert all(c["passed"] for c in checks)


def test_analyze_high_dimensional_lattice_exits_zero(tmp_path, capsys):
    axis = [1] + [0] * 1199
    config = {
        "group": {"kind": "lattice", "dim": 1200, "radius": 1},
        "measure": [{"g": json.dumps(axis), "w": "1/2"}, {"g": json.dumps([-x for x in axis]), "w": "1/2"}],
        "tasks": ["character"],
    }
    start = time.perf_counter()  # 1200 unit steps of one pass each: a per-axis rank lookup took 25 s
    code, out, _ = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    elapsed = time.perf_counter() - start
    assert code == 0
    values = json.loads(out)["results"]["character"]["character"]["values"]
    assert len(values) == 2401 and values.count(-1) == 2
    assert elapsed < 5, f"{elapsed:.2f} s"


def test_analyze_nonsymmetric_verify_uses_roots_of_unity(tmp_path, capsys):
    config = {
        "group": {"kind": "cyclic", "n": 5},
        "measure": [{"g": "1", "w": "1"}],
        "tasks": ["verify"],
    }
    code, out, _ = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert code == 0
    checks = json.loads(out)["results"]["verify"]["checks"]
    assert checks[0]["quantity"] == "min_return"
    assert checks[0]["value"] == 5
    assert all(c["passed"] for c in checks)


def test_analyze_nonsymmetric_verify_reports_the_group_order_as_threshold(tmp_path, capsys):
    """The first return time is at most |G|, so |G| is the min_return
    record's threshold, on a group of order below 64 too."""
    config = {
        "group": {"kind": "cyclic", "n": 12},
        "measure": [{"g": "5", "w": "1/2"}, {"g": "2", "w": "1/2"}],
        "tasks": ["verify"],
    }
    code, out, _ = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["options"] == {"tol": 1e-9, "exact": True}
    checks = report["results"]["verify"]["checks"]
    assert checks[0]["quantity"] == "min_return" and checks[0]["threshold"] == 12
    assert all(c["passed"] for c in checks)


@pytest.mark.parametrize("options", [{"max_power": 64}, {"seed": 0}])
def test_analyze_refuses_the_dropped_options(tmp_path, capsys, options):
    config = {**Z4_CONFIG, "options": options}
    code, out, err = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert code == 2 and out == ""
    assert f"options: unknown key {next(iter(options))!r}" in err


def test_analyze_runs_one_eigensolve_for_spectrum_and_verify(monkeypatch):
    config = parse_config(
        {
            "group": {"kind": "dihedral", "n": 32},  # 32 character blocks of 2 x 2
            "measure": [{"g": "1", "w": 0.5}, {"g": "3", "w": 0.3}, {"g": "40", "w": 0.2}],
            "tasks": ["spectrum", "verify"],
            "options": {"exact": False},
        }
    )
    calls, passes = [], []
    eig, clusters = np.linalg.eig, operators._clusters
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    monkeypatch.setattr(operators, "_clusters", lambda *args: passes.append(args) or clusters(*args))
    report = run_analysis(config)
    assert calls == [(32, 2, 2)]
    assert len(passes) == 1  # one records pass for both tasks
    assert report["results"]["verify"]["passed"]
    assert sum(r["multiplicity"] for r in report["results"]["spectrum"]["eigenvalues"]) == 64


def test_analyze_runs_one_records_pass_for_spectrum_and_theorem_verify(monkeypatch):
    """On a symmetric exact walk the verify task runs the theorem checks,
    whose `spectra` pass reuses the spectrum task's report."""
    config = parse_config(
        {
            "group": {"kind": "dihedral", "n": 6},
            "measure": [{"g": "1", "w": "1/4"}, {"g": "5", "w": "1/4"}, {"g": "6", "w": "1/2"}],
            "tasks": ["spectrum", "verify"],
        }
    )
    passes, clusters = [], operators._clusters
    monkeypatch.setattr(operators, "_clusters", lambda *args: passes.append(args) or clusters(*args))
    report = run_analysis(config)
    checks = report["results"]["verify"]["checks"]
    assert report["results"]["verify"]["passed"] and checks[0]["quantity"] == "peripheral_pm1"
    assert len(passes) == 1


@pytest.mark.parametrize(
    "config",
    [
        {
            "group": {"kind": "lattice", "dim": 3, "radius": 5},
            "measure": [
                {"g": g, "w": "1/6"}
                for g in ["[1,0,0]", "[-1,0,0]", "[0,1,0]", "[0,-1,0]", "[0,0,1]", "[0,0,-1]"]
            ],
            "tasks": ["character", "verify"],
        },
        {
            "group": {"kind": "dihedral", "n": 4},
            "measure": [{"g": "1", "w": "1/4"}, {"g": "3", "w": "1/4"}, {"g": "4", "w": "1/2"}],
            "tasks": ["character", "verify"],
        },
    ],
    ids=["Z3ball", "D4"],
)
def test_analyze_searches_for_the_character_once(monkeypatch, config):
    calls = []
    search = harmonic._search_anti_character
    monkeypatch.setattr(
        harmonic, "_search_anti_character", lambda group, mu: calls.append(group) or search(group, mu)
    )
    report = run_analysis(parse_config(config))
    assert len(calls) == 1
    assert report["results"]["character"]["character"] is not None
    assert report["results"]["verify"]["passed"]


def test_analyze_character_past_order_512(tmp_path, capsys):
    z2_16 = {
        "group": {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 16},
        "measure": [{"g": str(1 << i), "w": "1/16"} for i in range(16)],  # the coordinate generators
        "tasks": ["character"],
    }
    z1024 = dict(z2_16, group={"kind": "cyclic", "n": 1024}, measure=[{"g": g, "w": "1/2"} for g in ("1", "1023")])
    results = []
    for config in (z2_16, z1024):
        out_path = tmp_path / "report.json"
        code, _, err = run_main(capsys, ["analyze", write_config(tmp_path, config), "--out", str(out_path)])
        assert code == 0, err
        results.append(json.loads(out_path.read_text())["results"]["character"])
    assert [(r["har_dim"], r["anti_dim"]) for r in results] == [(1, 1), (1, 1)]
    assert results[0]["character"]["values"] == [(-1) ** bin(g).count("1") for g in range(1 << 16)]
    assert results[1]["character"]["values"] == [(-1) ** g for g in range(1024)]


def test_analyze_verify_on_z2_16_in_seconds(tmp_path, capsys):
    """Generation is one class labelling and equal eigenvalues are
    clustered once, so the theorem checks on Z2^16 need no closure BFS."""
    config = {
        "group": {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 16},
        "measure": [{"g": str(1 << i), "w": "1/16"} for i in range(16)],
        "tasks": ["character", "verify"],
    }
    out_path = tmp_path / "report.json"
    start = time.perf_counter()
    code, _, err = run_main(capsys, ["analyze", write_config(tmp_path, config), "--out", str(out_path)])
    elapsed = time.perf_counter() - start
    assert code == 0, err
    assert json.loads(out_path.read_text())["results"]["verify"]["passed"]
    assert elapsed < 5, f"{elapsed:.2f} s"


# ---------------------------------------------------------------- error paths

def test_analyze_refuses_dense_matrix_over_budget(tmp_path, capsys, monkeypatch):
    config = {
        "group": {"kind": "dihedral", "n": 8},  # eight complex 2 x 2 character blocks
        "measure": [{"g": "1", "w": 0.5}, {"g": "7", "w": 0.5}],
        "tasks": ["spectrum"],
        "options": {"exact": False},
    }
    monkeypatch.setattr(operators, "DENSE_BYTES_BUDGET", 16 * 8 * 2 * 2 - 1)
    code, out, err = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert code == 2
    assert out == ""
    assert "DENSE_BYTES_BUDGET" in err and "8 x 2 x 2" in err


def test_analyze_character_spectrum_runs_past_the_dense_budget(tmp_path, capsys):
    measure = [{"g": "1", "w": 0.5}, {"g": "29999", "w": 0.3}, {"g": "30007", "w": 0.2}]
    cyclic = {
        "group": {"kind": "cyclic", "n": 60000},
        "measure": measure,
        "tasks": ["spectrum"],
        "options": {"exact": False},
    }
    out_path = tmp_path / "report.json"
    code, _, err = run_main(
        capsys, ["analyze", write_config(tmp_path, cyclic), "--out", str(out_path)]
    )
    assert code == 0, err
    records = json.loads(out_path.read_text())["results"]["spectrum"]["eigenvalues"]
    assert sum(r["multiplicity"] for r in records) == 60000
    # the same order on a dihedral group: 30000 blocks of 2 x 2
    dihedral = dict(cyclic, group={"kind": "dihedral", "n": 30000})
    code, _, err = run_main(
        capsys, ["analyze", write_config(tmp_path, dihedral, "d.json"), "--out", str(out_path)]
    )
    assert code == 0, err
    records = json.loads(out_path.read_text())["results"]["spectrum"]["eigenvalues"]
    assert sum(r["multiplicity"] for r in records) == 60000
    # S8 has no element of order above 15: 15 blocks of 2688 x 2688 are over the budget
    symmetric = dict(cyclic, group={"kind": "symmetric", "n": 8})
    code, out, err = run_main(capsys, ["analyze", write_config(tmp_path, symmetric, "s.json")])
    assert code == 2
    assert out == ""
    assert "DENSE_BYTES_BUDGET" in err and "15 x 2688 x 2688" in err


@pytest.mark.parametrize(
    "group, support, order",
    [
        ({"kind": "dihedral", "n": 4096}, ["4096", "1", "4095"], 8192),  # a reflection, r, r^-1
        ({"kind": "symmetric", "n": 7}, ["720", "873", "4320"], 5040),  # (0 1), a 7-cycle, its inverse
    ],
    ids=["D4096", "S7"],
)
def test_analyze_spectrum_at_scale(tmp_path, capsys, group, support, order):
    config = {
        "group": group,
        "measure": [{"g": g, "w": w} for g, w in zip(support, [0.5, 0.25, 0.25])],
        "tasks": ["spectrum"],
        "options": {"exact": False},
    }
    out_path = tmp_path / "report.json"
    code, _, err = run_main(
        capsys, ["analyze", write_config(tmp_path, config), "--out", str(out_path)]
    )
    assert code == 0, err
    records = json.loads(out_path.read_text())["results"]["spectrum"]["eigenvalues"]
    assert sum(r["multiplicity"] for r in records) == order


def test_analyze_refuses_biharmonic_basis_over_budget(tmp_path, capsys):
    # delta at the identity fixes every function: 20000 classes, a 20000 x 20000 basis
    config = {
        "group": {"kind": "cyclic", "n": 20000},
        "measure": [{"g": "0", "w": "1"}],
        "tasks": ["biharmonic"],
    }
    code, out, err = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert code == 2
    assert out == ""
    assert "DENSE_BYTES_BUDGET" in err and "20000 x 20000" in err


@pytest.mark.parametrize(
    "error", [MemoryError(), RecursionError("maximum recursion depth exceeded")]
)
def test_main_reports_resource_errors_in_one_line(tmp_path, capsys, monkeypatch, error):
    def fail(group, mu, config):
        raise error

    monkeypatch.setitem(cli._TASK_RUNNERS, "spectrum", fail)
    code, out, err = run_main(capsys, ["analyze", write_config(tmp_path, Z4_CONFIG)])
    assert code == 1
    assert out == ""
    assert err == f"computation failed: {str(error) or type(error).__name__}\n"


def test_analyze_rejects_bad_measure_sum(tmp_path, capsys):
    config = {
        "group": {"kind": "cyclic", "n": 4},
        "measure": [{"g": "1", "w": "1/2"}],
        "tasks": ["spectrum"],
    }
    code, _, err = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert code == 2
    assert "measure" in err


def test_analyze_rejects_spectrum_on_ball(tmp_path, capsys):
    config = {
        "group": {"kind": "free", "rank": 2, "radius": 3},
        "measure": [{"g": "a", "w": "1/2"}, {"g": "A", "w": "1/2"}],
        "tasks": ["spectrum"],
    }
    code, _, err = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert code == 2
    assert "spectrum requires finite group; use verify/truncated tasks" in err


def test_analyze_rejects_float_biharmonic(tmp_path, capsys):
    config = {
        "group": {"kind": "cyclic", "n": 4},
        "measure": [{"g": "1", "w": 0.5}, {"g": "3", "w": 0.5}],
        "tasks": ["biharmonic"],
    }
    code, _, err = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert code == 2
    assert "measure" in err and "exact" in err


def test_analyze_rejects_nongenerating_verify(tmp_path, capsys):
    config = {
        "group": {"kind": "cyclic", "n": 4},
        "measure": [{"g": "2", "w": "1"}],
        "tasks": ["verify"],
    }
    code, _, err = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert code == 2
    assert "generating" in err


def test_analyze_config_error_messages(tmp_path, capsys):
    cases = [
        ({"group": {"kind": "cyclic", "n": 4}, "measure": [{"g": "1", "w": "1"}],
          "tasks": ["fourier"]}, "unknown task"),
        ({"group": {"kind": "cyclic", "n": 4}, "measure": [{"g": "1", "w": "1"}],
          "tasks": ["spectrum"], "extra": 1}, "unknown field"),
        ({"measure": [{"g": "1", "w": "1"}], "tasks": ["spectrum"]}, "group: field is required"),
        ({"group": {"kind": "septonion"}, "measure": [{"g": "1", "w": "1"}],
          "tasks": ["spectrum"]}, "group:"),
        ({"group": {"kind": "cyclic", "n": 4}, "measure": [{"g": "1", "w": "1"}],
          "tasks": ["spectrum"], "options": {"tol": -1}}, "options.tol"),
    ]
    for obj, fragment in cases:
        code, _, err = run_main(capsys, ["analyze", write_config(tmp_path, obj)])
        assert code == 2
        assert fragment in err


def test_analyze_missing_and_invalid_files(tmp_path, capsys):
    code, _, err = run_main(capsys, ["analyze", str(tmp_path / "absent.json")])
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_main(capsys, ["analyze", str(bad)])
    assert code == 2 and "invalid JSON" in err


def test_analyze_rejects_bad_tol_override(tmp_path, capsys):
    code, _, err = run_main(
        capsys, ["analyze", write_config(tmp_path, Z4_CONFIG), "--tol", "-1"]
    )
    assert code == 2
    assert "options.tol" in err


def test_analyze_refuses_a_huge_symmetric_group_at_once(tmp_path, capsys):
    config = dict(Z4_CONFIG, group={"kind": "symmetric", "n": 10**6}, tasks=["spectrum"])
    start = time.perf_counter()
    code, _, err = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert time.perf_counter() - start < 0.1
    assert code == 2 and "exceeds the supported bound 65536" in err


def _unwritable_outputs(tmp_path):
    config = write_config(tmp_path, Z4_CONFIG)
    (tmp_path / "a-file").write_text("")
    (tmp_path / "a-dir").mkdir()
    return [
        (["analyze", config, "--out", str(tmp_path / "missing" / "x.json")], tmp_path / "missing" / "x.json"),
        (["verify", "examples", "--out", str(tmp_path / "a-dir")], tmp_path / "a-dir"),
        (["analyze", config, "--csv", str(tmp_path / "a-file" / "csv")], tmp_path / "a-file" / "csv"),
    ]


def test_unwritable_outputs_exit_2_with_one_line(tmp_path, capsys):
    for argv, path in _unwritable_outputs(tmp_path):
        code, out, err = run_main(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1, err
        assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_analyze_rejects_non_finite_tol_override(tmp_path, capsys, tol):
    code, out, err = run_main(capsys, ["analyze", write_config(tmp_path, Z4_CONFIG), "--tol", tol])
    assert code == 2 and out == ""
    assert "options.tol: must be a finite positive number" in err


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 10**400])
def test_analyze_rejects_non_finite_tol_option(tmp_path, capsys, tol):
    config = dict(Z4_CONFIG, options={"tol": tol})
    code, out, err = run_main(capsys, ["analyze", write_config(tmp_path, config)])
    assert code == 2 and out == ""
    assert "options.tol: must be a finite positive number" in err


def test_analyze_rejects_nan_weight_and_non_integer_table(tmp_path, capsys):
    nan_weight = dict(Z4_CONFIG, measure=[{"g": "1", "w": float("nan")}, {"g": "3", "w": 0.5}])
    code, out, err = run_main(capsys, ["analyze", write_config(tmp_path, nan_weight)])
    assert code == 2 and out == ""
    assert "weight nan is not finite" in err
    table = dict(Z4_CONFIG, group={"kind": "table", "table": [[0, 1.7], [1, 0]]},
                 measure=[{"g": "1", "w": "1"}])
    code, out, err = run_main(capsys, ["analyze", write_config(tmp_path, table)])
    assert code == 2 and out == ""
    assert "rows of JSON integers" in err


def test_parse_config_option_validation():
    base = {
        "group": {"kind": "cyclic", "n": 4},
        "measure": [{"g": "1", "w": "1"}],
        "tasks": ["spectrum"],
    }
    with pytest.raises(ConfigError):
        parse_config("not a dict")
    with pytest.raises(ConfigError):
        parse_config({**base, "options": {"mystery": 1}})
    with pytest.raises(ConfigError):
        parse_config({**base, "options": {"exact": "yes"}})
    for dropped in ({"max_power": 64}, {"seed": 0}):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({**base, "options": dropped})
    with pytest.raises(ConfigError):
        parse_config({**base, "tasks": []})
    config = parse_config({**base, "options": {"tol": 1e-6}})
    assert isinstance(config, AnalysisConfig)
    assert config.tol == 1e-6
    assert config.exact is True
    assert config.to_json()["options"] == {"tol": 1e-6, "exact": True}


# ---------------------------------------------------------------- report encoder

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from(["\u00e9\u4e2d\U0001f600", '"\\/\b\f\n\r\t\x00\x1f\x7f']),
)
RECORD_KEYS = ["%s", "100%", "%%d", '"q"', "back\\slash", "\u00e9t\u00e9", "\u4e2d", "\U0001f600", "plain"]
# texts that look like the seam between two records of a batch, or need escapes
SEAM_TEXTS = st.sampled_from(["},", "{", "},\n      {", '"', "\\", "\n", "\x00", "\u00e9\u4e2d\U0001f600", "a},\n  {b"])
# flat records: one key type per record, as sorting needs; values among the float edge cases
FLAT_RECORDS = st.one_of(
    st.dictionaries(st.one_of(SEAM_TEXTS, st.text()), st.one_of(SEAM_TEXTS, JSON_SCALARS), min_size=1),
    *(st.dictionaries(keys, st.one_of(JSON_SCALARS, st.floats().map(np.float64), st.just(10**30)), min_size=1)
      for keys in (st.integers(), st.floats(), st.booleans(), st.none())),
)


class _Record(dict):
    """A dict subclass, which json writes as a dict."""


class _Text(str):
    """A str subclass, which json writes as a str."""


JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(st.text(), inner),
        # homogeneous lists take one encoder call per batch
        st.lists(st.integers()),
        st.lists(st.floats(allow_nan=False, allow_infinity=False)),
        st.lists(st.floats()),
        st.lists(st.text()),
        # int lists of -1, 0 and 1, and bools and floats among them
        st.lists(st.sampled_from([-1, 0, 1])),
        st.lists(st.sampled_from([-1, 0, 1, True, False, 1.0, -1.0, 2, -2])),
        # records of one shape, with keys that need escapes
        st.lists(st.fixed_dictionaries({key: inner for key in RECORD_KEYS}), max_size=4),
        # records of two shapes (with and without "note")
        st.lists(st.fixed_dictionaries({key: inner for key in RECORD_KEYS[-2:]}, optional={"note": inner}),
                 max_size=6),
        # batches of flat records take one encoder call; mixed with an empty
        # dict, a record holding a list or a dict subclass they go one by one
        st.lists(FLAT_RECORDS, max_size=6),
        st.lists(st.one_of(FLAT_RECORDS, st.just({}), st.dictionaries(st.text(), st.lists(inner), min_size=1),
                           FLAT_RECORDS.map(_Record)), max_size=6),
        # scalar lists with numpy floats, bools among ints and str subclasses
        st.lists(st.one_of(st.integers(), st.booleans(), st.floats().map(np.float64), st.text().map(_Text))),
    ),
    max_leaves=30,
)


@given(JSON_VALUES)
def test_encoder_matches_json_dumps(payload):
    assert cli._encode(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_encoder_edge_cases_match_json_dumps():
    cases = [
        [], {}, (), [[]], {"a": {}}, [1, True], [1.0, 2], [float("inf"), 1.0],
        {1: "int key", 2.5: "float key"}, {True: 1, False: 0}, {None: "null key"},
        [True, 1, -1], [1, True, 0, False, -1], [1, -1, 0, 2], [-1, 0, 1, -2], [1.0, -1, 0],
        [{1: "a"}, {True: "b"}, {1.0: "c"}, {"%s": 1, "%%": [1, -1]}, {"%s": 2, "%%": [0, 10**20]}],
        [np.float64(0.1), np.float64(float("nan"))], -0.0, 10**30,
    ]
    for payload in cases:
        assert cli._encode(payload) == json.dumps(payload, indent=2, sort_keys=True)
    for bad in ([np.int64(1)], {(1, 2): 3}):
        with pytest.raises(TypeError):
            cli._encode(bad)


EMIT_CASES = [
    [], {}, (), [[]], {"a": {}}, {"a": []}, [(), {}], (1, (2, [3])), None, True, -0.0, 10**30, "top \u00e9",
    {1: "int key", 2.5: "float key"}, {True: 1, False: 0}, {None: "null key"}, {"%s": [1, -1, 0, 2]},
    [1, True, 0, False, -1], [float("inf"), 1.0, float("nan")], [np.float64(0.1), 2.5, -1e300],
    [{"fixture": "f", "passed": True}, {"fixture": "g", "passed": False, "note": "n"}, {}, {"x": 1}] * 3,
    {"checks": [{"a": [1, 2, 3, 4], "b": {"c": (5, 6)}}] * 5, "rows": tuple(range(7))},
    [{"},\n      {": "},\n      {", "{": "}", 'q"\\': "\x00\u00e9\n", "\u4e2d\U0001f600": "a},\n    {b"}] * 4,
    [{1: 0.5, -2: float("nan")}, {2.5: float("inf"), -1.0: -float("inf")}, {True: -0.0, False: 10**30},
     {None: np.float64(0.1)}, {3: np.float64(float("-inf"))}],
    [{"a": 1}, {}, {"b": [1, 2]}, _Record(c=3), {"d": None}, {"e": {}}, _Record(), {"f": "g"}],
    [np.float64(0.25), 1, True, 0, False, -1, _Text("sub"), "plain", np.float64(float("nan"))],
]


def _emitted(payload, batch, out_path=None):
    """What _emit writes with _BATCH = batch: the file's text, or stdout's."""
    with mock.patch.object(cli, "_BATCH", batch):
        if out_path is not None:
            cli._emit(payload, out_path)
            return Path(out_path).read_text(encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli._emit(payload, None)
        return out.getvalue()


@given(JSON_VALUES, st.integers(1, 3))
def test_streamed_report_matches_json_dumps(payload, batch):
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as directory:
        assert _emitted(payload, batch, os.path.join(directory, "r.json")) == expected
    assert _emitted(payload, batch) == expected


def test_streamed_edge_cases_match_json_dumps(tmp_path):
    for batch in (1, 2, 3, cli._BATCH):
        for payload in EMIT_CASES:
            expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            assert _emitted(payload, batch, str(tmp_path / "r.json")) == expected
            assert _emitted(payload, batch) == expected


def test_check_records_stream_as_their_dicts(tmp_path):
    records = [verify.CheckRecord("f", f"q{i}", i / 3, 1e-8, i % 2 == 0, note="n" * (i % 3)) for i in range(7)]
    report = verify.VerificationReport("suite", records)
    payload = {"suite": report.suite, "passed": report.passed, "checks": report.records}
    expected = json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
    for batch in (1, 2, 3, cli._BATCH):
        assert _emitted(payload, batch, str(tmp_path / "r.json")) == expected


def test_unencodable_report_leaves_no_file(tmp_path):
    """A value json cannot write, deep in a long list, fails after the
    first batches are written; the partial file is removed."""
    out = tmp_path / "r.json"
    payload = {"a": [1.5] * (3 * cli._BATCH) + [{"b": [[np.int64(1)]]}], "z": 1}
    with pytest.raises(TypeError):
        cli._emit(payload, str(out))
    assert not out.exists()
    with pytest.raises(TypeError):
        _emitted(payload, 2)


def test_streamed_report_memory_follows_one_batch(tmp_path):
    """_emit of a 60,000-record list (a 5.4 MB report) holds one batch of
    texts at a time, not the report."""
    rows = [{"im": 0.0, "multiplicity": 1, "peripheral": i == 0, "re": math.cos(i / 7)} for i in range(60000)]
    out = tmp_path / "r.json"
    tracemalloc.start()
    try:
        cli._emit({"eigenvalues": rows}, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_text(encoding="utf-8") == json.dumps({"eigenvalues": rows}, indent=2, sort_keys=True) + "\n"
    assert peak < 1 << 20, peak


# ---------------------------------------------------------------- verify subcommand

def test_verify_subcommand_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, _, _ = run_main(capsys, ["verify", "stirling", "--seed", "3", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "stirling"
    assert payload["passed"] is True
    assert payload["checks"]


def test_verify_theorems_with_a_wrong_character_writes_failed_records(tmp_path, capsys, monkeypatch):
    # a character that is not -1 on the support is a wrong answer, not a bad input:
    # the report is written with its failed records and the run exits 1
    monkeypatch.setattr(
        verify, "find_anti_character", lambda group, mu: Character(group, [1] * group.order)
    )
    out = tmp_path / "report.json"
    code, _, err = run_main(capsys, ["verify", "theorems", "--seed", "0", "--out", str(out)])
    assert (code, err) == (1, "")
    payload = json.loads(out.read_text())
    failed = {c["quantity"] for c in payload["checks"] if not c["passed"]}
    assert payload["passed"] is False
    assert "anti_factors_through_character" in failed
    assert failed <= {"anti_iff_character", "anti_dim_equals_har_dim", "anti_factors_through_character"}


def test_verify_subcommand_deterministic_bytes(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "revuz", "--seed", "5", "--out", str(a)]) == 0
    assert main(["verify", "revuz", "--seed", "5", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


SCIPY_GUARD = """
import sys
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from groupwalk.cli import main
seen = [loaded()]
assert main(["verify", "stirling", "--seed", "0", "--out", sys.argv[1]]) == 0
seen.append(loaded())
assert main(["analyze", sys.argv[2], "--out", sys.argv[3]]) == 0
seen.append(loaded())
print(seen)
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    """numpy is the only run-time dependency: a fresh interpreter imports
    the CLI, runs the stirling suite (the matrix exponential) and a full
    analyze, and has loaded no scipy module after any of the three."""
    src = str(Path(groupwalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [str(tmp_path / "stirling.json"), write_config(tmp_path, Z4_CONFIG), str(tmp_path / "z4.json")]
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_GUARD, *argv], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[[], [], []]"


def test_verify_subcommand_unknown_suite(capsys):
    code, _, err = run_main(capsys, ["verify", "nope"])
    assert code == 2
    assert "nope" in err


@pytest.mark.parametrize("seed", ["-1", "-7", "x", "1.5"])
def test_verify_refuses_a_bad_seed_before_any_suite_runs(capsys, monkeypatch, seed):
    """numpy's seeded generators take no negative seed: the parser refuses
    it with exit 2 and a message naming --seed, and no suite starts."""
    monkeypatch.setattr(cli, "verify_suite", lambda *args, **kwargs: pytest.fail("a suite ran"))
    code, out, err = run_main(capsys, ["verify", "all", "--seed", seed])
    assert code == 2 and out == ""
    assert "--seed" in err and "non-negative integer" in err


# ---------------------------------------------------------------- parser plumbing

def test_parser_prog_and_missing_command(capsys):
    assert build_parser().prog == "groupwalk"
    code = main([])
    capsys.readouterr()
    assert code == 2


def test_two_main_calls_construct_one_parser(capsys, monkeypatch):
    built, real = [], cli.argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counted)
    assert main([]) == 2 and main(["verify", "nope"]) == 2
    capsys.readouterr()
    assert built.count("groupwalk") == 1
