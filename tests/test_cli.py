"""Command-line surface: schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import waylimit as w
from waylimit.cli import DEMO_NAMES, main, model_from_dict, model_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demo_verify_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "demo", "swap")
    assert code == 0
    path = tmp_path / "swap.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(path), "--state", "alpha_y")
    assert code == 0
    report = json.loads(out)
    assert report["eps_sq"] == pytest.approx(0.0, abs=1e-12)
    assert report["fundamental_bound"] == pytest.approx(0.0, abs=1e-12)
    assert report["violations"] == []


def test_demo_files_reparse_to_the_same_operators(capsys):
    for name, builder in (("swap", w.swap_demo_model), ("trivial", w.trivial_demo_model)):
        code, out, _ = run_cli(capsys, "demo", name)
        assert code == 0
        model, pair, _ = model_from_dict(json.loads(out))
        original, opair = builder()
        assert w.frobenius_norm(model.U.matrix - original.U.matrix) < 1e-15
        assert w.frobenius_norm(model.A.matrix - original.A.matrix) < 1e-15
        assert w.frobenius_norm(pair.L1.matrix - opair.L1.matrix) < 1e-15
        assert np.linalg.norm(model.xi.amplitudes - original.xi.amplitudes) < 1e-15


def test_demo_yw_sample(capsys):
    code, out, _ = run_cli(capsys, "demo", "yw-sample")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "yw_model"
    eta_plus = sum(re * re + im * im for re, im in doc["eta_plus"])
    eta_minus = sum(re * re + im * im for re, im in doc["eta_minus"])
    assert eta_plus + eta_minus == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_every_demo_file_verifies(tmp_path, capsys, name):
    code, out, _ = run_cli(capsys, "demo", name)
    assert code == 0
    path = tmp_path / f"{name}.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["violations"] == []


def test_verify_yw_sample_values_and_csv(tmp_path, capsys):
    path = tmp_path / "yw.json"
    path.write_text(run_cli(capsys, "demo", "yw-sample")[1])
    code, out, _ = run_cli(capsys, "verify", str(path), "--state", "alpha_y")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "yw_model" and doc["model_name"] == "yw-sample"
    # eps_y^2 = 0.05 + 0.05; each leaked branch records +/-1/4, a quarter off
    # the intended +/-1/2, so eps(alpha_y)^2 = 2 (1/2)(0.05 (1/4)^2)
    assert doc["eps_y_sq"] == pytest.approx(0.1, abs=1e-15)
    assert doc["error_at_alpha_y"] == pytest.approx(0.003125, abs=1e-15)
    code, out, _ = run_cli(capsys, "verify", str(path), "--csv")
    assert code == 0
    header, row = out.splitlines()
    assert header == "model_name,state,eps_y_sq,error_at_alpha_y,violations"
    assert row.startswith("yw-sample,alpha_y,0.099999999999999992,")


def test_verify_yw_sample_input_errors(tmp_path, capsys):
    doc = json.loads(run_cli(capsys, "demo", "yw-sample")[1])
    path = tmp_path / "yw.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(path), "--state", "alpha_x")
    assert code == 1
    assert "--state" in err and "alpha_y" in err
    del doc["M"]
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert err.startswith("error: M: missing required field")


def test_verify_yw_relation_is_a_regression_alarm(tmp_path, capsys, monkeypatch):
    # 2 eps(alpha_y)^2 <= eps_y^2 is a theorem for valid data; force a
    # failure through the plumbing to pin the alarm path
    import waylimit.cli as cli_module

    monkeypatch.setattr(cli_module, "yw_error_at_alpha_y", lambda yw: 0.5)
    path = tmp_path / "yw.json"
    path.write_text(run_cli(capsys, "demo", "yw-sample")[1])
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert json.loads(out)["violations"] == ["yw_relation"]


def test_verify_null_reasons_on_demos(tmp_path, capsys):
    reasons = {}
    for name in ("swap", "trivial"):
        path = tmp_path / f"{name}.json"
        path.write_text(run_cli(capsys, "demo", name)[1])
        code, out, _ = run_cli(capsys, "verify", str(path))
        assert code == 0
        reasons[name] = json.loads(out)["null_reasons"]
        # the CSV schema has no such column
        assert "null_reasons" not in run_cli(capsys, "verify", str(path), "--csv")[1]
    yanase = "Yanase condition fails: [M, L2] residual 7.071e-01, tolerance 1e-09"
    assert reasons["swap"] == {"yanase_bound": yanase, "spin_bound": yanase}
    assert reasons["trivial"] == {}


def test_demo_unknown_name(capsys):
    code, _, err = run_cli(capsys, "demo", "bogus")
    assert code == 1
    assert "swap" in err and "trivial" in err and "yw-sample" in err


def test_verify_trivial_values(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "demo", "trivial")
    path = tmp_path / "trivial.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["eps_sq"] == pytest.approx(0.25, abs=1e-12)
    assert report["yanase_bound"] == pytest.approx(0.125, abs=1e-12)


def test_verify_corrupted_unitary_names_field(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "demo", "swap")
    doc = json.loads(out)
    doc["U"][0][0] = [3.0, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "U" in err


def test_verify_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": "v1",\n  "object_dim": }')
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "line 2" in err and "column" in err


def test_verify_dimension_mismatch_names_field(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "demo", "swap")
    doc = json.loads(out)
    doc["xi"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "xi" in err


def test_verify_inline_state_and_csv(tmp_path, capsys):
    import csv
    import io

    _, out, _ = run_cli(capsys, "demo", "trivial")
    path = tmp_path / "trivial.json"
    path.write_text(out)
    state = json.dumps([[1.0, 0.0], [0.0, 0.0]])
    code, out, _ = run_cli(capsys, "verify", str(path), "--state", state, "--csv")
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out)))
    assert header[:3] == ["model_name", "state", "eps_sq"]
    assert row[1] == state  # comma-bearing field survives quoting
    assert float(row[2]) == pytest.approx(0.25, abs=1e-12)


def test_sweep_deterministic_and_formatted(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["sweep", "--family", "spin_ladder", "--sizes", "2,3",
            "--seed", "21", "--restarts", "2", "--max-iters", "15"]
    assert run_cli(capsys, *args, "--out", str(out_a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().split("\n")
    assert lines[0] == "family,size,var_mz,bound,achieved,gap_ratio,seed"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "spin_ladder"
        float(fields[3])  # parses without locale surprises


def test_sweep_oscillator_bound_column(tmp_path, capsys):
    out = tmp_path / "osc.csv"
    code, _, _ = run_cli(capsys, "sweep", "--family", "oscillator",
                         "--sizes", "0,1,10", "--out", str(out),
                         "--seed", "3", "--restarts", "1", "--max-iters", "5")
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    bounds = [float(r.split(",")[3]) for r in rows]
    assert bounds[0] == pytest.approx(0.25, abs=1e-15)
    assert bounds[1] == pytest.approx(0.05, abs=1e-15)
    assert bounds[2] == pytest.approx(1.0 / 164.0, abs=1e-15)


def test_sweep_rejects_bad_sizes(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for family, sizes in (("spin_ladder", "two"), ("spin_ladder", "3,-1"),
                          ("oscillator", "0.005,-1"), ("oscillator", "nan"),
                          ("oscillator", "inf")):
        code, _, err = run_cli(capsys, "sweep", "--family", family,
                               "--sizes", sizes, "--out", str(out))
        assert code == 1
        assert err.startswith("error: --sizes: ")
        # rejected before any row runs
        assert not out.exists()


def test_sweep_in_which_every_size_fails_exits_one(tmp_path, capsys):
    out = tmp_path / "osc.csv"
    code, _, err = run_cli(capsys, "sweep", "--family", "oscillator",
                           "--sizes", "1,2", "--out", str(out))
    assert code == 1
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 2
    assert all(r.split(",")[4] == "nan" for r in rows)
    assert err.startswith("size 1 failed: ")
    assert "size 2 failed: " in err


@pytest.mark.parametrize("option", [["--restarts", "0"], ["--max-iters", "-1"],
                                    ["--seed", "-1"]])
def test_sweep_invalid_optimizer_options_are_input_errors(tmp_path, capsys, option):
    code, _, err = run_cli(capsys, "sweep", "--family", "spin_ladder", "--sizes", "2",
                           "--out", str(tmp_path / "x.csv"), *option)
    assert code == 1
    assert err.startswith("error: ")


def test_cli_import_skips_concurrent_futures():
    # a cold `waylimit` start should not pay for importing a thread pool
    src = str(Path(w.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, waylimit.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_verify_loads_neither_optimizer_nor_oscillator(tmp_path):
    # verify and demo need only linalg, measurement, bounds and spin; with
    # PYTHONDONTWRITEBYTECODE=1 every module imported is compiled on each spawn
    src = str(Path(w.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import contextlib, io, sys, waylimit.cli as cli\n"
            "def loaded():\n"
            "    return [m for m in ('waylimit.optimizer', 'waylimit.oscillator')\n"
            "            if m in sys.modules]\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "    assert cli.main(['demo', 'swap']) == 0\n"
            "with open(sys.argv[1], 'w') as handle:\n"
            "    handle.write(out.getvalue())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', sys.argv[1]]) == 0\n"
            "print(loaded())\n")
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path / "swap.json")],
                            env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split("\n") == ["[]", "[]", ""]


def test_lazy_exports_resolve_to_the_module_objects():
    import waylimit.optimizer
    import waylimit.oscillator

    exports = {
        waylimit.oscillator: (
            "CoherentAmplitudes", "FockSpace", "coherent_state", "lowering_operator",
            "m_z_operator", "number_operator", "oscillator_bound",
            "total_number_operator", "two_mode_coherent_state"),
        waylimit.optimizer: (
            "CommutantBasis", "OptimizationRun", "OptimizerConfig", "SweepRow",
            "commutant_basis", "conservative_unitary", "hermitian_coordinates",
            "numerical_gradient", "optimize_noise", "oscillator_probe",
            "record_observable", "spin_ladder_probe", "sweep_probe_size"),
    }
    listed = dir(w)
    for module, names in exports.items():
        for name in names:
            assert getattr(w, name) is getattr(module, name)
            assert name in listed
    assert "spin_operators" in listed and "bound_report" in listed
    # the first lookup keeps the name in the package, so later ones skip __getattr__
    assert vars(w)["optimize_noise"] is waylimit.optimizer.optimize_noise
    from waylimit import optimize_noise
    assert optimize_noise is waylimit.optimizer.optimize_noise
    with pytest.raises(AttributeError, match="no attribute 'not_an_export'"):
        w.not_an_export
    with pytest.raises(ImportError):
        from waylimit import not_an_export  # noqa: F401


def test_optimize_default_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 4, "restarts": 3, "max_iters": 40}))
    out = tmp_path / "run.json"
    code, _, _ = run_cli(capsys, "optimize", str(config), "--out", str(out))
    assert code == 0
    run = json.loads(out.read_text())
    assert run["final_objective"] >= 0.125 - 1e-9
    assert run["bound_value"] == pytest.approx(0.125, abs=1e-9)
    trace = run["objective_trace"]
    assert all(a >= b - 1e-15 for a, b in zip(trace, trace[1:]))


def test_verify_reads_an_optimize_output(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "restarts": 3, "max_iters": 20}))
    out = tmp_path / "run.json"
    assert run_cli(capsys, "optimize", str(config), "--out", str(out))[0] == 0
    run = json.loads(out.read_text())
    code, text, _ = run_cli(capsys, "verify", str(out), "--state", "alpha_y")
    assert code == 0
    report = json.loads(text)
    assert report["model_name"] == "optimized"
    assert report["eps_sq"] == run["final_objective"]
    assert report["violations"] == []


def test_optimize_noop_run_reports_initial_objective(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 0, "restarts": 1, "max_iters": 0}))
    code, _, _ = run_cli(capsys, "optimize", str(config), "--out",
                         str(tmp_path / "run.json"))
    assert code == 0
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["final_objective"] == pytest.approx(0.5, abs=1e-12)


def test_optimize_sup_objective_on_swap_theta(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 1, "restarts": 1, "max_iters": 0,
        "objective": "sup", "theta0": "swap",
        "object": {"A": "s_z"},
    }))
    code, _, _ = run_cli(capsys, "optimize", str(config), "--out",
                         str(tmp_path / "run.json"))
    assert code == 0
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["final_objective"] < 1e-10


def test_optimize_deterministic_output(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 11, "restarts": 2, "max_iters": 20}))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run_cli(capsys, "optimize", str(config), "--out", str(out_a))[0] == 0
    assert run_cli(capsys, "optimize", str(config), "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_optimize_invalid_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"objective": "everything"}))
    code, _, err = run_cli(capsys, "optimize", str(config))
    assert code == 1
    assert "objective" in err


def test_inequality_violation_maps_to_exit_two(tmp_path, capsys, monkeypatch):
    # the inequalities are theorems, so a genuine model cannot trip them;
    # force a violating report through the plumbing to pin the alarm path
    import waylimit.cli as cli_module

    violating = w.BoundReport(
        eps_sq=0.0, fundamental_bound=0.2, yanase_bound=None, spin_bound=None,
        acl_residual=0.0, yanase_residual=0.0, commutator_identity_residual=0.0,
        uncertainty_lhs=0.1, uncertainty_rhs=0.0)
    monkeypatch.setattr(cli_module, "bound_report", lambda *args: violating)
    _, out, _ = run_cli(capsys, "demo", "swap")
    path = tmp_path / "swap.json"
    path.write_text(out)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert json.loads(out)["violations"] == ["fundamental_bound"]


def test_theorem_violation_maps_to_exit_two(tmp_path, capsys, monkeypatch):
    import waylimit.optimizer

    def boom(*args, **kwargs):
        raise w.TheoremViolation("forced for the exit-code contract")

    # cmd_optimize imports optimize_noise from the optimizer when it runs
    monkeypatch.setattr(waylimit.optimizer, "optimize_noise", boom)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restarts": 1}))
    code, _, err = run_cli(capsys, "optimize", str(config))
    assert code == 2
    assert "theorem violation" in err


def test_exit_codes_stay_in_contract(tmp_path, capsys):
    codes = set()
    codes.add(run_cli(capsys, "demo", "swap")[0])
    codes.add(run_cli(capsys, "demo", "nope")[0])
    codes.add(run_cli(capsys, "verify", str(tmp_path / "missing.json"))[0])
    codes.add(run_cli(capsys, "frobnicate")[0])
    assert codes <= {0, 1, 2}


def test_non_finite_sentinels():
    from waylimit.cli import _fmt, _sanitize

    assert _sanitize({"a": float("inf"), "b": [float("nan"), 1.5]}) == \
        {"a": "inf", "b": ["nan", 1.5]}
    assert _fmt(float("inf")) == "inf"
    assert _fmt(float("nan")) == "nan"
    assert _fmt(0.125) == "0.125"


def test_model_dict_roundtrip_exact():
    model, pair = w.swap_demo_model()
    doc = model_to_dict(model, pair, name="swap")
    # through real JSON text, as the files would be
    reparsed, repair, metadata = model_from_dict(json.loads(json.dumps(doc)))
    assert metadata["name"] == "swap"
    np.testing.assert_array_equal(reparsed.U.matrix, model.U.matrix)
    np.testing.assert_array_equal(repair.L2.matrix, pair.L2.matrix)
    np.testing.assert_array_equal(reparsed.xi.amplitudes, model.xi.amplitudes)


def test_internal_error_is_labeled_and_keeps_exit_one(tmp_path, capsys, monkeypatch):
    import waylimit.cli as cli_module

    def broken(*args, **kwargs):
        raise RuntimeError("forced internal failure")

    _, out, _ = run_cli(capsys, "demo", "swap")
    path = tmp_path / "swap.json"
    path.write_text(out)
    monkeypatch.setattr(cli_module, "bound_report", broken)
    monkeypatch.delenv("WAYLIMIT_DEBUG", raising=False)
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert err.startswith("internal error: RuntimeError: forced internal failure")
    assert "Traceback" not in err
    monkeypatch.setenv("WAYLIMIT_DEBUG", "1")
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "Traceback" in err and "forced internal failure" in err


@pytest.mark.parametrize("config, field", [
    ({"probe": {"family": "spin_ladder", "size": 1}}, "probe.size"),
    ({"psi": "gamma_q"}, "psi"),
    ({"theta0": [0.1, 0.2]}, "theta0"),
    ({"probe": {"L2": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
                "M": [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]],
                "xi": [[1, 0], [0, 0]]}}, "Yanase"),
    ({"object": {"L1": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]],
                        [[0, 0], [0, 0], [0, 0]]]}}, "dim"),
    ({"grad_step": 1e-5}, "grad_step"),
    ({"optimize_xi": "false"}, "optimize_xi"),
    ({"optimize_xi": 0}, "optimize_xi"),
    ({"seed": 0.9}, "seed"),
    ({"restarts": 1.5}, "restarts"),
    ({"max_iters": True}, "max_iters"),
    ({"seed": "3"}, "seed"),
    ({"seed": -1}, "seed"),
    ({"tol": "1e-10"}, "tol"),
    ({"tol": False}, "tol"),
    ({"objective": 5}, "objective"),
    ({"probe": {"family": "spin_ladder", "size": 2.9}}, "probe.size"),
    ({"probe": {"family": "oscillator", "n_max": None}}, "probe.n_max"),
    ({"probe": {"family": "oscillator", "n_max": 2.5}}, "probe.n_max"),
    ({"probe": 7}, "probe"),
    ({"object": "s_x"}, "object"),
    ({"theta0": ["0.1", 0.2, 0.3, 0.4, 0.5, 0.6]}, "theta0[0]"),
])
def test_optimize_config_problems_are_input_errors(tmp_path, capsys, config, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"restarts": 1, "max_iters": 1, **config}))
    code, _, err = run_cli(capsys, "optimize", str(path))
    assert code == 1
    assert err.startswith("error: ")
    assert field in err


def test_optimize_config_l1_dimension_error_names_the_field(tmp_path, capsys):
    path = tmp_path / "config.json"
    l1 = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]
    path.write_text(json.dumps({"restarts": 1, "max_iters": 1, "object": {"L1": l1}}))
    code, _, err = run_cli(capsys, "optimize", str(path))
    assert code == 1
    assert err.startswith("error: object.L1: has dim 3, expected 2")
