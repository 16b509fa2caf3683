import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recipkit
from recipkit.cli import SUBCOMMANDS, _emit_json, build_parser, main, write_report

LINEAR_DOC = {
    "kind": "linear",
    "A": [[-1.0, -2.0], [2.0, -1.0]],
    "B": [[1.0], [0.0]],
    "C": [[1.0, 0.0]],
    "D": [[0.0]],
    "G": [[1.0, 0.0], [0.0, -1.0]],
    "Q0": [[1.0, 0.0], [0.0, 2.0]],
}


def read_report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_cli_import_leaves_heavy_scipy_modules_unloaded(tmp_path):
    # the library imports no scipy: not at cold start, not in the linear checks (impulse
    # symmetry, Hankel recovery), not in the variational test
    runs = [["recover-g", "--model", "indefinite-g", "--out", str(tmp_path / "recover")],
            ["check-reciprocity", "--model", "indefinite-g", "--out", str(tmp_path / "check")],
            ["variational-test", "--model", "brayton-moser", "--out", str(tmp_path / "var")]]
    code = (f"import sys, recipkit.cli\n"
            f"print([recipkit.cli.main(args) for args in {runs!r}])\n"
            f"print([m for m in sys.modules if m.startswith('scipy')])")
    src = str(Path(recipkit.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    lines = out.stdout.strip().splitlines()
    assert lines[-2:] == ["[0, 0, 0]", "[]"]


def test_emit_json_formatting():
    assert _emit_json({"b": 1, "a": [True, 2.5]}) == '{"a":[true,2.5],"b":1}'
    assert _emit_json(0.1) == "0.10000000000000001"
    assert _emit_json(float("nan")) == "null"
    assert _emit_json(float("inf")) == "null"
    assert _emit_json(np.array([1.0, 2.0])) == "[1,2]"
    with pytest.raises(TypeError):
        _emit_json(object())


def test_write_report_round_trip(tmp_path):
    path = write_report(str(tmp_path), {"x": 1.5, "nested": {"ok": True}})
    with open(path) as fh:
        assert json.load(fh) == {"x": 1.5, "nested": {"ok": True}}
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".report-")]
    assert leftovers == []


def test_list_models(tmp_path, capsys):
    assert main(["list-models", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "brayton-moser" in out and "fields:" in out
    rep = read_report(tmp_path)
    assert {"swing", "gyrator"} <= {row["name"] for row in rep["models"]}
    assert "quadratic" in rep["fields"]


def test_check_reciprocity_linear(tmp_path):
    assert main(["check-reciprocity", "--model", "indefinite-g",
                 "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path)
    assert rep["ok"] and rep["reciprocal"] and rep["impulse_symmetric"]
    assert rep["residual"] < 1e-10


def test_check_reciprocity_nonlinear_kinds(tmp_path):
    assert main(["check-reciprocity", "--model", "brayton-moser",
                 "--samples", "30", "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path)["reciprocal"]
    assert main(["check-reciprocity", "--model", "scalar-relaxation",
                 "--samples", "30", "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path)["points"] > 0


def test_reports_are_byte_identical(tmp_path):
    # the closed-form conjugate, the row-stacked converted storage, a recorded trajectory,
    # the row-stacked linearization and the stacked reciprocity stencil
    for i, command in enumerate([["legendre", "--field", "quadratic", "--samples", "30"],
                                 ["convert-ph", "--model", "swing"],
                                 ["simulate", "--model", "rc-tanh"],
                                 ["variational-test", "--model", "brayton-moser"],
                                 ["check-reciprocity", "--model", "brayton-moser"]]):
        a, b = tmp_path / f"{i}a", tmp_path / f"{i}b"
        for d in (a, b):
            assert main([*command, "--out", str(d)]) == 0
        for name in ["report.json"] + ["trajectory.csv"] * (command[0] == "simulate"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_check_passivity(tmp_path):
    assert main(["check-passivity", "--model", "indefinite-g",
                 "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path)
    assert rep["passive"] and "kernel_invariance" in rep

    doc = dict(LINEAR_DOC)
    doc["A"] = [[1.0, 0.0], [0.0, 1.0]]  # active
    del doc["G"], doc["Q0"]
    path = tmp_path / "active.json"
    path.write_text(json.dumps(doc))
    assert main(["check-passivity", "--input", str(path),
                 "--out", str(tmp_path)]) == 1
    assert read_report(tmp_path)["passive"] is False


def test_compatible_q(tmp_path):
    assert main(["compatible-q", "--model", "indefinite-g",
                 "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path)
    assert np.allclose(rep["Q"], np.eye(2), atol=1e-9)
    assert rep["compatibility_gap"] < 1e-10


def test_gyrator_storage_seed_fails_the_lmi_in_both_commands(tmp_path, capsys):
    # the gyrator's Q0 fails the passivity LMI: a failed check, not a numerical failure
    assert main(["check-passivity", "--model", "gyrator", "--out", str(tmp_path)]) == 1
    assert main(["compatible-q", "--model", "gyrator", "--out", str(tmp_path)]) == 1
    assert "Q0 fails the passivity LMI" in capsys.readouterr().err


def test_compatible_q_non_reciprocal_is_a_failed_check(tmp_path):
    path = tmp_path / "non-reciprocal.json"
    path.write_text(json.dumps(dict(LINEAR_DOC, B=[[1.0], [0.3]])))
    assert main(["compatible-q", "--input", str(path), "--out", str(tmp_path)]) == 1


def test_check_passivity_judges_the_lmi_once_at_its_tolerance(tmp_path):
    # min LMI eigenvalue -5e-7: passive at --tol lmi=1e-5, so the kernel check
    # must not re-judge the LMI at a tighter tolerance of its own
    path = tmp_path / "marginal.json"
    path.write_text(json.dumps({"kind": "linear", "A": [[-1.0]], "B": [[1.0]],
                                "C": [[1.0]], "D": [[0.0]], "Q0": [[1.001]]}))
    assert main(["check-passivity", "--input", str(path), "--tol", "lmi=1e-5",
                 "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path)
    assert rep["ok"] and -1e-5 < rep["min_eigenvalue"] < 0.0
    assert rep["kernel_invariance"] == {"A_invariant": True, "inside_ker_C": True,
                                        "kernel_dimension": 0}


def test_failed_assumption_writes_a_report(tmp_path, capsys):
    # the margins of a failed check reach report.json, not only stderr
    assert main(["legendre", "--field", "cosh", "--tol", "round_trip=1e-18",
                 "--out", str(tmp_path / "legendre")]) == 1
    rep = read_report(tmp_path / "legendre")
    assert rep["command"] == "legendre" and rep["ok"] is False
    assert rep["failed_assumption"] == "round-trip"
    assert rep["reason"].startswith("assumption round-trip")
    assert sorted(rep["report"]) == ["biconjugate_gap", "hessian_inverse_gap", "round_trip_gap"]
    assert rep["report"]["round_trip_gap"] > 1e-18

    assert main(["compatible-q", "--model", "gyrator", "--out", str(tmp_path / "q")]) == 1
    rep = read_report(tmp_path / "q")
    assert rep["command"] == "compatible-q" and rep["ok"] is False
    assert rep["failed_assumption"] == "passivity"
    # the LmiReport, serialized field by field
    assert sorted(rep["report"]) == ["Pi", "kernel_basis", "min_eigenvalue", "passive"]
    assert rep["report"]["passive"] is False and rep["report"]["min_eigenvalue"] < -1.0
    assert "Q0 fails the passivity LMI" in capsys.readouterr().err


def test_recover_g(tmp_path):
    assert main(["recover-g", "--model", "indefinite-g",
                 "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path)
    assert rep["reference_relative_error"] <= 1e-4
    G = np.array(rep["G"])
    assert np.allclose(G, G.T, atol=1e-8)


@pytest.mark.parametrize("horizon", ["-1", "0"])
def test_recover_g_rejects_non_positive_horizon(tmp_path, horizon):
    assert main(["recover-g", "--model", "gyrator", "--horizon", horizon,
                 "--out", str(tmp_path)]) == 2


def test_legendre_cli(tmp_path):
    assert main(["legendre", "--field", "quadratic", "--samples", "40",
                 "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path)
    assert rep["round_trip_gap"] < 1e-8
    assert rep["hessian_inverse_gap"] < 1e-6
    assert rep["biconjugate_gap"] < 1e-8
    assert rep["homogeneous_degree_two"] and rep["conjugacy_equals_value"]


def test_legendre_tolerance_below_the_measured_gap_exits_1(tmp_path, capsys):
    argv = ["legendre", "--field", "cosh", "--samples", "20", "--out", str(tmp_path)]
    assert main(argv) == 0
    gap = read_report(tmp_path)["round_trip_gap"]
    assert main(argv + ["--tol", f"round_trip={0.5 * gap!r}"]) == 1
    assert capsys.readouterr().err.startswith("check failed: assumption round-trip")


def test_legendre_field_from_json(tmp_path):
    doc = {"field": {"polynomial": {
        "dim": 1,
        "terms": [{"exponents": [2], "coeff": 1.0}],
        "domain": {"lower": [-2.0], "upper": [2.0]},
    }}}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    assert main(["legendre", "--input", str(path), "--samples", "30",
                 "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path)["homogeneous_degree_two"]


def test_christoffel_cli(tmp_path):
    assert main(["christoffel", "--field", "quadratic", "--samples", "5",
                 "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path)
    assert rep["flat"] and rep["cross_oracle_gap"] < 1e-8
    assert main(["christoffel", "--field", "cosh", "--samples", "5",
                 "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path)["flat"] is False


def test_variational_test_cli(tmp_path):
    assert main(["variational-test", "--model", "brayton-moser",
                 "--horizon", "0.5", "--step", "0.01", "--u-const", "0.2",
                 "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path)
    assert rep["match"] and rep["max_output_gap"] < 1e-5
    assert rep["probes"] >= 2


def test_simulate_writes_csv(tmp_path):
    assert main(["simulate", "--model", "rc-relaxation", "--horizon", "2",
                 "--step", "0.01", "--u-const", "0.5",
                 "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path)
    assert rep["steps"] == 200
    assert rep["passive_along"] is True
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].split(",")[:2] == ["t", "x_1"]
    assert len(lines) == 202  # header + 201 samples
    # capacitor relaxes toward the source value
    assert abs(float(lines[-1].split(",")[1]) - 0.5) < 0.1


def test_simulate_keeps_the_newton_matrix_across_steps(tmp_path, monkeypatch):
    # simulate's 200 rc-tanh steps form the Newton matrix (one rhs Jacobian and one
    # factorization) twice, not once per step; the one solve is the explicit-Euler start
    counts = {"jac": 0, "solve": 0}
    integrate, solve = recipkit.dynamics.integrate_implicit_midpoint, np.linalg.solve

    def counted_integrate(rhs, x0, t_span, step, mass=None, rhs_jac=None, domain=None):
        def jac(t, x):
            counts["jac"] += 1
            return rhs_jac(t, x)
        return integrate(rhs, x0, t_span, step, mass=mass, rhs_jac=jac, domain=domain)

    def counted_solve(*args):
        counts["solve"] += 1
        return solve(*args)

    monkeypatch.setattr(recipkit.dynamics, "integrate_implicit_midpoint", counted_integrate)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    assert main(["simulate", "--model", "rc-tanh", "--horizon", "2",
                 "--out", str(tmp_path)]) == 0
    steps = read_report(tmp_path)["steps"]
    assert steps == 200 and counts == {"jac": 2, "solve": 1}
    assert counts["jac"] < steps


def test_simulate_port_hamiltonian(tmp_path):
    assert main(["simulate", "--model", "swing", "--horizon", "1",
                 "--step", "0.01", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "trajectory.csv").exists()


def test_certify_relaxation_cli(tmp_path):
    assert main(["certify-relaxation", "--model", "rc-tanh", "--samples", "50",
                 "--horizon", "2", "--step", "0.01", "--u-const", "0.3",
                 "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path)
    assert rep["relaxation"] and rep["mode"] == "-I"
    assert rep["trajectory_passive"] is True


def test_certify_relaxation_rejects_indefinite(tmp_path):
    doc = {
        "kind": "hessian_pseudo_gradient",
        "K": {"polynomial": {"dim": 1,
                             "terms": [{"exponents": [2], "coeff": -0.5}]}},
        "V": {"polynomial": {"dim": 2,
                             "terms": [{"exponents": [2, 0], "coeff": 0.5},
                                       {"exponents": [1, 1], "coeff": -1.0}]}},
        "sigma": [-1],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["certify-relaxation", "--input", str(path), "--samples", "30",
                 "--out", str(tmp_path)]) == 1
    rep = read_report(tmp_path)
    assert rep["relaxation"] is False and rep["reason"]


def test_convert_ph_cli(tmp_path):
    assert main(["convert-ph", "--model", "swing", "--horizon", "0.3",
                 "--step", "0.001", "--out", str(tmp_path)]) == 0
    rep = read_report(tmp_path)
    assert rep["trajectory_match"] and rep["trajectory_gap"] < 1e-4
    assert rep["report"]["I_structure_gap"] < 1e-10


def test_convert_ph_structure_mismatch(tmp_path):
    quad = lambda c: {"polynomial": {"dim": 1,
                                     "terms": [{"exponents": [2], "coeff": c}]}}
    doc = {
        "kind": "port_hamiltonian",
        "H": {"polynomial": {"dim": 2,
                             "terms": [{"exponents": [2, 0], "coeff": 0.5},
                                       {"exponents": [0, 2], "coeff": 0.5}]}},
        "J": [[0.0, -1.0], [1.0, 0.0]],
        "g": [[1.0], [0.0]],
        "split": {
            "idx1": [0], "idx2": [1],
            "H1": quad(0.5), "H2": quad(0.5),
            "P1": quad(0.25), "P2": quad(0.0),
            "Pc": [[2.0]],  # inconsistent with J
            "g1": [[1.0]],
        },
    }
    path = tmp_path / "ph.json"
    path.write_text(json.dumps(doc))
    assert main(["convert-ph", "--input", str(path),
                 "--out", str(tmp_path)]) == 1
    rep = read_report(tmp_path)
    assert rep["failed_assumption"] == "I" and rep["ok"] is False


def test_bad_input_exit_codes(tmp_path, capsys):
    assert main(["check-reciprocity", "--model", "no-such-model"]) == 2
    assert main(["check-reciprocity"]) == 2
    assert main(["legendre", "--field", "no-such-field"]) == 2
    assert main(["check-reciprocity", "--model", "gyrator",
                 "--tol", "reciprocity"]) == 2
    assert main(["simulate", "--model", "gyrator"]) == 2  # wrong kind
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(LINEAR_DOC))
    assert main(["check-reciprocity", "--model", "gyrator",
                 "--input", str(path)]) == 2
    capsys.readouterr()


def test_tol_override_forces_failure(tmp_path):
    code = main(["check-reciprocity", "--model", "brayton-moser",
                 "--samples", "20", "--tol", "reciprocity=1e-18",
                 "--out", str(tmp_path)])
    assert code == 1
    assert read_report(tmp_path)["ok"] is False


def test_numerical_failure_exit_code(tmp_path):
    doc = {
        "kind": "nonlinear",
        "potential": {"polynomial": {"dim": 1,
                                     "terms": [{"exponents": [2], "coeff": -0.5}]}},
        "metric": {"constant": [[1.0]]},
        "g": [[1.0]],
    }
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(doc))
    # x' = +x leaves the unit box before the default horizon
    assert main(["variational-test", "--input", str(path),
                 "--horizon", "4.0", "--out", str(tmp_path)]) == 3


def poly(dim, terms):
    return {"polynomial": {"dim": dim,
                           "terms": [{"exponents": e, "coeff": c} for e, c in terms]}}


QUADRATIC = poly(2, [([2, 0], 0.5), ([0, 2], 0.5)])
NONLINEAR_DOC = {"kind": "nonlinear", "potential": QUADRATIC,
                 "metric": {"constant": [[1.0, 0.0], [0.0, 1.0]]}, "g": [[1.0], [0.0]]}
PH_DOC = {"kind": "port_hamiltonian", "H": QUADRATIC, "J": [[0.0, -1.0], [1.0, 0.0]],
          "g": [[1.0], [0.0]]}

# id -> (command, document, the failed check stderr names); every row is bad input
BAD_DOCUMENTS = {
    "constant-metric-asymmetry": (["variational-test", "--horizon", "0.2"],
                                  {**NONLINEAR_DOC, "metric": {"constant": [[1.0, 0.5],
                                                                            [0.0, 1.0]]}},
                                  "asymmetry"),
    "constant-metric-singular": (["variational-test", "--horizon", "0.2"],
                                 {**NONLINEAR_DOC, "metric": {"constant": [[1.0, 0.0],
                                                                           [0.0, 0.0]]}},
                                 "determinant"),
    "hessian-of-metric-singular": (["variational-test", "--horizon", "0.2"],
                                   {**NONLINEAR_DOC,
                                    "metric": {"hessian_of": poly(2, [([2, 0], 0.5)])}},
                                   "determinant"),
    "linear-G-singular": (["check-reciprocity"],
                          {**LINEAR_DOC, "G": [[1.0, 0.0], [0.0, 0.0]]}, "determinant"),
    "linear-G-asymmetric": (["check-reciprocity"],
                            {**LINEAR_DOC, "G": [[1.0, 0.5], [0.0, -1.0]]}, "asymmetry"),
    "J-not-skew": (["simulate"], {**PH_DOC, "J": [[0.0, -1.0], [2.0, 0.0]]}, "J-skew"),
    "R-not-dissipative": (["simulate"], {**PH_DOC, "R": {"linear": [[-0.1, 0.0], [0.0, 0.0]]}},
                          "R-dissipation"),
    "R-nan": (["simulate"], {**PH_DOC, "R": {"linear": [[float("nan"), 0.0], [0.0, 0.0]]}},
              "non-finite"),
    "coeff-nan": (["legendre"], {"field": poly(2, [([2, 0], float("nan")), ([0, 2], 1.0)])},
                  "finite"),
    "coeff-infinity": (["christoffel"],
                       {"field": poly(2, [([2, 0], float("inf")), ([0, 2], 1.0)])}, "finite"),
    "coeff-string": (["legendre"], {"field": poly(2, [([2, 0], "abc"), ([0, 2], 1.0)])},
                     "coeff has the wrong type"),
    "u_box-string": (["simulate"], {**PH_DOC, "u_box": {"lower": ["a"], "upper": [1.0]}},
                     "u_box: lower has the wrong type"),
    # an integer field holds no boolean and no number with a fractional part
    "sigma-fraction": (["check-reciprocity"], {**LINEAR_DOC, "sigma": [1.7]},
                       "sigma has the wrong type"),
    "dim-fraction": (["legendre"], {"field": poly(1.9, [([2.6], 1.0)])},
                     "dim has the wrong type"),
    "dim-boolean": (["legendre"], {"field": poly(True, [([2], 1.0)])}, "dim has the wrong type"),
    "exponents-fraction": (["legendre"], {"field": poly(1, [([2.6], 1.0)])},
                           "exponents has the wrong type"),
    "split-index-fraction": (["convert-ph"], {**PH_DOC, "split": {"idx1": [0.9], "idx2": [1.2]}},
                             "idx1 has the wrong type"),
    # JSON 1e400 parses to inf, which no box may hold
    "domain-infinite": (["variational-test"],
                        {**NONLINEAR_DOC, "domain": {"lower": [-1.0, -1.0], "upper": [1.0, 1e400]}},
                        "domain has the wrong type"),
}


@pytest.mark.parametrize("case", list(BAD_DOCUMENTS))
def test_bad_document_exit_codes(tmp_path, case, capsys):
    command, doc, what = BAD_DOCUMENTS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    # a document failing a structure check is bad input, refused at load
    assert main([*command, "--input", str(path), "--out", str(tmp_path)]) == 2
    assert what in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_model_path_extends_registry(tmp_path, monkeypatch):
    doc = dict(LINEAR_DOC)
    doc["name"] = "extra-osc"
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setenv("RECIPKIT_MODEL_PATH", str(path))
    assert main(["check-reciprocity", "--model", "extra-osc",
                 "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path)["model"] == "extra-osc"

    shadow = dict(LINEAR_DOC)
    shadow["name"] = "gyrator"
    path.write_text(json.dumps(shadow))
    assert main(["check-reciprocity", "--model", "gyrator"]) == 2


# Every option each subcommand declares; each one is read by its handler.
OPTION_SURFACE = {
    "list-models": ["--out"],
    "check-reciprocity": ["--model", "--input", "--out", "--seed", "--samples", "--horizon",
                          "--tol"],
    "check-passivity": ["--model", "--input", "--out", "--q0", "--tol"],
    "compatible-q": ["--model", "--input", "--out", "--q0", "--tol"],
    "recover-g": ["--model", "--input", "--out", "--seed", "--horizon", "--tol"],
    "legendre": ["--field", "--input", "--out", "--seed", "--samples", "--tol"],
    "christoffel": ["--field", "--input", "--out", "--seed", "--samples", "--tol"],
    "variational-test": ["--model", "--input", "--out", "--horizon", "--step", "--x0",
                         "--u-const", "--u-sin", "--tol"],
    "simulate": ["--model", "--input", "--out", "--horizon", "--step", "--x0", "--u-const",
                 "--u-sin", "--tol"],
    "certify-relaxation": ["--model", "--input", "--out", "--seed", "--samples", "--horizon",
                           "--step", "--u-const", "--u-sin", "--tol"],
    "convert-ph": ["--model", "--input", "--out", "--seed", "--horizon", "--step", "--x0",
                   "--u-const", "--u-sin", "--tol"],
}

TOLERANCES = {
    "list-models": {},
    "check-reciprocity": {"reciprocity": 1e-6},
    "check-passivity": {"lmi": 1e-9},
    "compatible-q": {"fixed_point": 1e-11, "lmi": 1e-8},
    "recover-g": {"recover": 1e-4},
    "legendre": {"round_trip": 1e-8, "biconjugate": 1e-8, "hessian": 1e-6,
                 "homogeneity": 1e-8},
    "christoffel": {"flat": 1e-8},
    "variational-test": {"match": 1e-5},
    "simulate": {"dissipation": 1e-8},
    "certify-relaxation": {"inequality": 1e-9, "dissipation": 1e-8},
    "convert-ph": {"structure": 1e-8, "trajectory": 1e-4},
}


def test_option_surface_snapshot():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {name: [flag for action in sp._actions for flag in action.option_strings
                      if flag not in ("-h", "--help")]
               for name, sp in sub.choices.items()}
    assert surface == OPTION_SURFACE
    assert sum(len(flags) for flags in surface.values()) == 74
    assert {name: spec[3] for name, spec in SUBCOMMANDS.items()} == TOLERANCES


def test_tol_help_lists_the_keys(capsys):
    assert main(["certify-relaxation", "--help"]) == 0
    assert "inequality=1e-09, dissipation=1e-08" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("command", sorted(OPTION_SURFACE))
def test_undeclared_flag_or_tolerance_key_exits_2(command, capsys):
    assert main([command, "--no-such-flag", "1"]) == 2
    assert main([command, "--tol", "nosuchkey=1"]) == 2
    err = capsys.readouterr().err
    assert ("unknown key 'nosuchkey'" in err) == (command != "list-models")


@pytest.mark.parametrize("argv", [
    ["legendre", "--field", "cosh", "--seed", "-1"],
    ["check-reciprocity", "--model", "brayton-moser", "--samples", "0"],
    ["christoffel", "--field", "cosh", "--samples", "0"],
    ["legendre", "--field", "cosh", "--samples", "2.5"],
    ["simulate", "--model", "rc-tanh", "--step", "0"],
    ["variational-test", "--model", "brayton-moser", "--step", "-0.01"],
    ["convert-ph", "--model", "swing", "--step", "inf"],
    ["simulate", "--model", "rc-tanh", "--horizon", "nan"],
    ["certify-relaxation", "--model", "rc-tanh", "--horizon", "inf"],
    ["convert-ph", "--model", "swing", "--horizon", "-1"],
    ["simulate", "--model", "rc-tanh", "--horizon", "0"],
    ["variational-test", "--model", "brayton-moser", "--horizon", "0"],
    ["check-reciprocity", "--model", "gyrator", "--horizon", "-1"],
    ["check-reciprocity", "--model", "gyrator", "--horizon", "0"],
    ["recover-g", "--model", "gyrator", "--tol", "recover=nan"],
    ["check-reciprocity", "--model", "gyrator", "--tol", "reciprocity=-1"],
    ["simulate", "--model", "rc-tanh", "--horizon", "1e12", "--step", "1e-10"],
])
def test_out_of_range_numbers_exit_2(argv, capsys):
    assert main(argv) == 2


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--model", "rc-tanh", "--horizon", "0.2", "--u-const", "nan"], "--u-const"),
    (["simulate", "--model", "rc-tanh", "--horizon", "0.2", "--x0", "inf"], "--x0"),
    (["simulate", "--model", "rc-tanh", "--horizon", "0.2", "--u-sin", "inf,1"], "--u-sin"),
    (["variational-test", "--model", "brayton-moser", "--horizon", "0.2", "--step", "0.01",
      "--x0", "5"], "--x0"),
])
def test_bad_start_values_are_rejected_as_input(argv, flag, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}")


@pytest.mark.parametrize("command", ["legendre", "christoffel"])
def test_field_commands_use_every_requested_sample(tmp_path, command):
    assert main([command, "--field", "cosh", "--samples", "20", "--out", str(tmp_path)]) == 0
    assert read_report(tmp_path)["points"] == 20


def test_zero_horizon_skips_the_trajectory(tmp_path):
    assert main(["certify-relaxation", "--model", "rc-tanh", "--samples", "30",
                 "--horizon", "0", "--out", str(tmp_path)]) == 0
    assert "trajectory_passive" not in read_report(tmp_path)


@pytest.mark.parametrize("command", ["legendre", "christoffel", "check-reciprocity"])
def test_unreadable_input_file_exits_2(tmp_path, command, capsys):
    assert main([command, "--input", str(tmp_path / "missing.json")]) == 2
    assert "no such file" in capsys.readouterr().err
    assert main([command, "--input", str(tmp_path)]) == 2  # a directory
