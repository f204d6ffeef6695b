"""Command-line surface: schemas, exit codes, determinism."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import waylimit as w
from waylimit.cli import (DEMO_NAMES, ket_to_json, main, model_from_dict, model_to_dict,
                          yw_model_from_dict, yw_model_to_dict)
from helpers import (SWAP_MATRIX, large_eigenvalue_probe_model, near_kernel_model,
                     near_kernel_probe_model, random_conservative_model)


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
    import waylimit.yw

    monkeypatch.setattr(waylimit.yw, "yw_error_at_alpha_y", lambda yw: 0.5)
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
    # python's json reads NaN and Infinity; a model file or --state must not carry them
    _, out, _ = run_cli(capsys, "demo", "swap")
    path.write_text(out.replace("0.5", "Infinity", 1))
    assert "Infinity" in path.read_text()
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert err == f"error: {path}: non-standard JSON literal Infinity; numbers must be finite\n"
    path.write_text(out)
    code, _, err = run_cli(capsys, "verify", str(path), "--state", "[[NaN, 0], [0, 0]]")
    assert code == 1
    assert err == "error: --state: non-standard JSON literal NaN; numbers must be finite\n"
    # a JSON bool is not a number, even where it would read as 1
    code, _, err = run_cli(capsys, "verify", str(path), "--state", "[[true, 0], [0, 0]]")
    assert code == 1
    assert err == ("error: --state[0]: expected a [re, im] pair of JSON numbers, "
                   "got [true, 0]\n")
    # an integer too large for a float is not a complex scalar either
    code, _, err = run_cli(capsys, "verify", str(path), "--state", f"[[1{'0' * 400}, 0], [0, 0]]")
    assert code == 1
    assert err.startswith("error: --state[0]: expected a [re, im] pair of JSON numbers, got [1000")


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_HUGE_INT = "9" * 5000
needs_digit_limit = pytest.mark.skipif(
    not _DIGIT_LIMIT or _DIGIT_LIMIT >= len(_HUGE_INT),
    reason="this interpreter reads any integer literal")


@needs_digit_limit
@pytest.mark.parametrize("command", ["verify", "optimize"])
def test_oversized_integer_literal_in_a_file_is_an_input_error(tmp_path, capsys, command):
    if command == "verify":
        _, text, _ = run_cli(capsys, "demo", "swap")
        text = text.replace('"object_dim": 2', f'"object_dim": {_HUGE_INT}')
    else:
        text = f'{{"seed": {_HUGE_INT}}}'
    assert _HUGE_INT in text
    path = tmp_path / "huge.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, command, str(path))
    assert code == 1
    assert err.startswith(f"error: {path}: Exceeds the limit")


@needs_digit_limit
def test_oversized_integer_literal_in_an_inline_state_is_an_input_error(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "demo", "swap")
    path = tmp_path / "swap.json"
    path.write_text(out)
    code, _, err = run_cli(capsys, "verify", str(path), "--state", f"[[{_HUGE_INT}, 0], [0, 0]]")
    assert code == 1
    assert err.startswith("error: --state: Exceeds the limit")


_OVERFLOW = "1" + "0" * 400  # an integer literal whose float is infinite


@pytest.mark.parametrize("text, field", [
    ('{"theta0": [1e999, 0, 0, 0, 0, 0]}', "theta0[0]"),
    (f'{{"theta0": [{_OVERFLOW}, 0, 0, 0, 0, 0]}}', "theta0[0]"),
], ids=["theta0-1e999", "theta0-401-digits"])
def test_config_number_that_overflows_a_float_is_an_input_error(tmp_path, capsys, text, field):
    # json reads 1e999 as infinity and a long integer exactly; neither is a
    # finite float, so neither may run a search or reach the optimizer
    path = tmp_path / "config.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "optimize", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {field}: expected a finite JSON number, got one that overflows a float\n"


def test_deeply_nested_model_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert err == f"error: {path}: JSON nested too deeply to read\n"


def test_deeply_nested_inline_state_is_an_input_error(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "demo", "swap")
    path = tmp_path / "swap.json"
    path.write_text(out)
    code, _, err = run_cli(capsys, "verify", str(path), "--state", "[" * 5000 + "]" * 5000)
    assert code == 1
    assert err == "error: --state: JSON nested too deeply to read\n"


def test_model_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "demo", "swap")
    path = tmp_path / "utf16.json"
    path.write_bytes(out.encode("utf-16"))
    assert path.read_bytes()[:2] == b"\xff\xfe"
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")


def test_error_messages_echo_a_short_prefix_of_the_value(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text(json.dumps(list(range(3000))))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert err.startswith("error: model file: expected a JSON object, got [0, 1, 2, ")
    assert err.endswith("...\n")
    _, out, _ = run_cli(capsys, "demo", "swap")
    path.write_text(out)
    code, _, err = run_cli(capsys, "verify", str(path), "--state", "x" * 3000)
    assert code == 1
    assert err.startswith("error: --state must be a named state or a JSON ket, got 'xxx")
    assert len(err.encode()) < 300


def test_verify_dimension_mismatch_names_field(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "demo", "swap")
    doc = json.loads(out)
    doc["xi"] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "xi" in err


@pytest.mark.parametrize("field,message", [
    ("L1", "L1 has dim 3, expected object_dim 2"),
    ("L2", "L2 has dim 3, expected probe_dim 2"),
])
def test_verify_pair_dimension_is_an_input_error(tmp_path, capsys, field, message):
    _, out, _ = run_cli(capsys, "demo", "swap")
    doc = json.loads(out)
    doc[field] = [[[float(i == j), 0.0] for j in range(3)] for i in range(3)]
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_inline_state_and_csv(tmp_path, capsys):
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


def _record_fields(record, *left_out):
    return [f.name for f in dataclasses.fields(record) if f.name not in left_out]


def test_verify_outputs_follow_the_bound_report(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "demo", "swap")
    path = tmp_path / "swap.json"
    path.write_text(out)
    figures = _record_fields(w.BoundReport, "null_reasons", "noise_scale")
    code, out, _ = run_cli(capsys, "verify", str(path), "--csv")
    assert code == 0
    header, row = list(csv.reader(io.StringIO(out, newline="")))
    assert header == ["model_name", "state", *figures, "violations"]
    assert len(row) == len(header)
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert list(json.loads(out)) == ["schema", "model_name", "state", *figures, "violations",
                                     "null_reasons", "environment"]


def test_verify_csv_quotes_a_carriage_return(tmp_path, capsys):
    # a JSON string may hold a \r, and JSON reads one as whitespace in a ket;
    # unquoted, a \r ends the CSV record early
    doc = json.loads(run_cli(capsys, "demo", "swap")[1])
    doc["metadata"]["name"] = "swap\rdemo"
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(doc))
    for state in ("alpha_y", "[[1, 0],\r[0, 0]]"):
        code, out, _ = run_cli(capsys, "verify", str(path), "--csv", "--state", state)
        assert code == 0
        header, row = list(csv.reader(io.StringIO(out, newline="")))
        assert len(row) == len(header)
        assert row[:2] == ["swap\rdemo", state]


def test_verify_named_state_dimension_is_an_input_error(tmp_path, capsys):
    model, pair = random_conservative_model(np.random.default_rng(4), object_dim=3)
    path = tmp_path / "three.json"
    path.write_text(json.dumps(model_to_dict(model, pair)))
    code, out, err = run_cli(capsys, "verify", str(path), "--state", "alpha_y")
    assert code == 1
    assert out == ""
    assert err == "error: --state: ket has dim 2, expected 3\n"


def test_verify_empty_inline_state_is_an_input_error(tmp_path, capsys):
    _, out, _ = run_cli(capsys, "demo", "swap")
    path = tmp_path / "swap.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, "verify", str(path), "--state", "[]")
    assert (code, out, err) == (1, "", "error: --state: ket needs at least one amplitude\n")


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
    assert lines[0].split(",") == _record_fields(w.SweepRow, "error")
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "spin_ladder"
        float(fields[3])  # parses without locale surprises


def test_sweep_rows_record_the_seed_they_ran_with(tmp_path, capsys):
    out = tmp_path / "seeds.csv"
    search = {"restarts": 2, "max_iters": 15}
    code, _, _ = run_cli(capsys, "sweep", "--family", "spin_ladder", "--sizes", "2,3",
                         "--seed", "3", "--restarts", "2", "--max-iters", "15",
                         "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert [row[6] for row in rows] == ["3", "4"]
    # optimize at a row's seed, with the same search settings, is that row's search
    config = tmp_path / "config.json"
    for row in rows:
        config.write_text(json.dumps({"seed": int(row[6]), **search, "probe": {
            "family": "spin_ladder", "size": int(row[1])}}))
        code, out_text, _ = run_cli(capsys, "optimize", str(config))
        assert code == 0
        assert json.loads(out_text)["final_objective"] == float(row[4])


def test_sweep_seed_column_keeps_every_digit(tmp_path, capsys):
    # a seed past 1e17 has more digits than a float's 17 significant ones
    out = tmp_path / "seed.csv"
    seed = "123456789012345678901"
    code, _, _ = run_cli(capsys, "sweep", "--family", "spin_ladder", "--sizes", "2",
                         "--seed", seed, "--restarts", "1", "--max-iters", "0",
                         "--out", str(out))
    assert code == 0
    assert out.read_text().strip().split("\n")[1].split(",")[-1] == seed


def test_sweep_oscillator_bound_column(tmp_path, capsys):
    out = tmp_path / "osc.csv"
    code, _, _ = run_cli(capsys, "sweep", "--family", "oscillator",
                         "--sizes", "0,1,10", "--out", str(out),
                         "--seed", "3", "--restarts", "1", "--max-iters", "5")
    assert code == 0
    rows = [[float(x) for x in r.split(",")[1:]]
            for r in out.read_text().strip().split("\n")[1:]]
    bounds = [row[2] for row in rows]
    assert bounds[0] == pytest.approx(0.25, abs=1e-15)
    # size 1 runs at its derived cutoff of 8, where the truncated variance
    # of m_z reads 1.00000035; the bound is read from that variance
    var_mz = rows[1][1]
    assert var_mz == pytest.approx(1.0, abs=1e-6)
    assert bounds[1] == 1.0 / (4.0 + 16.0 * var_mz)
    assert rows[1][3] >= bounds[1] - 1e-9
    # size 10 needs a cutoff above the limit; its probe was never built, so
    # its failed row has neither a variance nor a bound
    assert math.isnan(rows[2][3])
    assert math.isnan(rows[2][1]) and math.isnan(bounds[2])
    # each row, the failed one too, records the seed its search was given
    assert [row[5] for row in rows] == [3.0, 4.0, 5.0]


def test_sweep_rejects_bad_sizes(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for family, sizes in (("spin_ladder", "two"), ("spin_ladder", "3,-1"),
                          ("oscillator", "0.005,-1"), ("oscillator", "nan"),
                          ("oscillator", "inf"), ("spin_ladder", "1" + "0" * 400)):
        code, _, err = run_cli(capsys, "sweep", "--family", family,
                               "--sizes", sizes, "--out", str(out))
        assert code == 1
        assert err.startswith("error: --sizes: ")
        # rejected before any row runs
        assert not out.exists()
    code, _, err = run_cli(capsys, "sweep", "--family", "spin_ladder", "--sizes", ",",
                           "--out", str(out))
    assert (code, err) == (1, "error: --sizes: need at least one size\n")
    assert not out.exists()


def test_sweep_in_which_every_size_fails_exits_one(tmp_path, capsys):
    out = tmp_path / "osc.csv"
    code, _, err = run_cli(capsys, "sweep", "--family", "oscillator",
                           "--sizes", "2,3", "--out", str(out))
    assert code == 1
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 2
    assert all(r.split(",")[4] == "nan" for r in rows)
    # each row names the cutoff it needs and the limit
    assert err.startswith("size 2 failed: |alpha|^2 + |beta|^2 = 2 needs n_max = 11; ")
    assert "size 3 failed: |alpha|^2 + |beta|^2 = 3 needs n_max = 12; " in err
    assert err.count("limited to n_max <= 8") == 2


@pytest.mark.parametrize("option", [["--restarts", "0"], ["--max-iters", "-1"],
                                    ["--seed", "-1"]])
def test_sweep_invalid_optimizer_options_are_input_errors(tmp_path, capsys, option):
    message = {"--restarts": "restarts must be at least 1",
               "--max-iters": "max_iters must be nonnegative",
               "--seed": "seed must be nonnegative"}[option[0]]
    code, _, err = run_cli(capsys, "sweep", "--family", "spin_ladder", "--sizes", "2",
                           "--out", str(tmp_path / "x.csv"), *option)
    assert (code, err) == (1, f"error: {message}\n")


def _src_env(**extra):
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(w.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_skips_concurrent_futures():
    # a cold `waylimit` start should not pay for importing a thread pool
    code = "import sys, waylimit.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


# the package modules that `import waylimit.cli`, `demo swap`, `demo trivial`
# and a `verify` of a model file load; with PYTHONDONTWRITEBYTECODE=1 every
# module imported is compiled again on each spawn
VERIFY_SET = ["waylimit", "waylimit.bounds", "waylimit.cli", "waylimit.linalg",
              "waylimit.measurement", "waylimit.schema", "waylimit.spin"]
SEARCH_SET = sorted([*VERIFY_SET, "waylimit.optimizer", "waylimit.oscillator",
                     "waylimit.search_cli"])

# runs `main` on each argument list of argv[1] (a JSON list) in turn, and
# prints after the import and after each command the loaded package modules
# and whether numpy.random is loaded
_IMPORT_PROBE = """
import contextlib, io, json, sys
def loaded():
    return [sorted(m for m in sys.modules if m.split(".")[0] == "waylimit"),
            "numpy.random" in sys.modules]
import waylimit.cli as cli
steps = [loaded()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    steps.append(loaded())
print(json.dumps(steps))
"""


def _loaded_after(*commands):
    result = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(commands)],
                            env=_src_env(), capture_output=True, text=True, check=True)
    return [tuple(step) for step in json.loads(result.stdout)]


def test_verify_loads_neither_optimizer_nor_oscillator(tmp_path, capsys):
    # verify and demo load exactly the verify set, and numpy.random stays
    # unloaded (annotations such as np.random.Generator are never evaluated);
    # partial interaction data adds only the yw module
    files = {}
    for name in ("swap", "trivial", "yw-sample"):
        files[name] = str(tmp_path / f"{name}.json")
        Path(files[name]).write_text(run_cli(capsys, "demo", name)[1])
    steps = _loaded_after(["demo", "swap"], ["demo", "trivial"], ["verify", files["swap"]],
                          ["verify", files["trivial"], "--csv"])
    assert steps == [(VERIFY_SET, False)] * 5
    with_yw = sorted([*VERIFY_SET, "waylimit.yw"])
    assert _loaded_after(["demo", "yw-sample"]) == [(VERIFY_SET, False), (with_yw, False)]
    assert _loaded_after(["verify", files["yw-sample"]]) == [(VERIFY_SET, False),
                                                             (with_yw, False)]


def test_search_commands_load_the_search_module(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restarts": 1, "max_iters": 0}))
    optimize = _loaded_after(["optimize", str(config), "--out", str(tmp_path / "run.json")])
    sweep = _loaded_after(["sweep", "--family", "spin_ladder", "--sizes", "2", "--restarts",
                           "1", "--max-iters", "0", "--out", str(tmp_path / "sweep.csv")])
    for steps in (optimize, sweep):
        assert [modules for modules, _ in steps] == [VERIFY_SET, SEARCH_SET]


def _spawn_cli(*argv, stdout=subprocess.PIPE, **env):
    """`python -m waylimit.cli argv` in a fresh interpreter, with env added."""
    return subprocess.run([sys.executable, "-m", "waylimit.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=_src_env(**env))


def test_python_m_matches_in_process_main(tmp_path, capsys):
    # under `python -m` cli.py runs as __main__: its output must not differ
    for name in ("swap", "trivial", "yw-sample"):
        path = tmp_path / f"{name}.json"
        path.write_text(run_cli(capsys, "demo", name)[1])
        for extra in ([], ["--csv"]):
            code, out, err = run_cli(capsys, "verify", str(path), *extra)
            spawned = _spawn_cli("verify", str(path), *extra)
            assert (spawned.returncode, spawned.stdout, spawned.stderr) == (code, out, err)


def test_python_m_optimize_reports_a_config_error_as_an_input_error(tmp_path):
    # the search module shares CliInputError with the entry point running as
    # __main__, so a bad config is not reported as an internal error
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restarts": 1, "bogus": 1}))
    spawned = _spawn_cli("optimize", str(config))
    assert spawned.returncode == 1
    assert spawned.stderr.startswith("error: bogus: unknown key, expected one of ")
    assert spawned.stderr.count("\n") == 1


@pytest.mark.parametrize("buffering", [{}, {"PYTHONUNBUFFERED": "1"}],
                         ids=["buffered", "unbuffered"])
def test_closed_standard_output_is_an_input_error(tmp_path, capsys, buffering):
    # a pipe whose reader is gone: one error line and exit 1, and no
    # "Exception ignored" line from the interpreter's final flush
    swap = tmp_path / "swap.json"
    swap.write_text(run_cli(capsys, "demo", "swap")[1])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restarts": 1, "max_iters": 0}))
    for argv in (["verify", str(swap)], ["verify", str(swap), "--csv"], ["demo", "swap"],
                 ["optimize", str(config)]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            spawned = _spawn_cli(*argv, stdout=write_end, **buffering)
        finally:
            os.close(write_end)
        assert spawned.returncode == 1, argv
        assert spawned.stderr == "error: cannot write standard output: [Errno 32] Broken pipe\n"
    # descriptor 1 closed before start: the interpreter has no sys.stdout
    spawned = subprocess.run([sys.executable, "-m", "waylimit.cli", "verify", str(swap)],
                             stderr=subprocess.PIPE, text=True, env=_src_env(**buffering),
                             preexec_fn=lambda: os.close(1))
    assert (spawned.returncode, spawned.stderr) == (
        1, "error: cannot write standard output: the stream is closed\n")


def test_failed_standard_output_write_in_process(capsys, monkeypatch):
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["demo", "swap"]) == 1
    assert capsys.readouterr().err == "error: cannot write standard output: [Errno 32] Broken pipe\n"


def test_lazy_exports_resolve_to_the_module_objects():
    import waylimit.optimizer
    import waylimit.oscillator
    import waylimit.outcomes
    import waylimit.yw

    exports = {
        waylimit.outcomes: (
            "OutcomeDistribution", "bsf_deviation", "error_probability",
            "outcome_distribution"),
        waylimit.yw: (
            "YWModel", "random_yw_model", "yw_check_bound", "yw_eps_y",
            "yw_error_at_alpha_y"),
        waylimit.oscillator: (
            "CoherentAmplitudes", "FockSpace", "coherent_state", "fock_cutoff",
            "lowering_operator",
            "m_z_operator", "number_operator", "oscillator_bound",
            "total_number_operator", "two_mode_coherent_state"),
        waylimit.optimizer: (
            "CommutantBasis", "OptimizationRun", "OptimizerConfig", "SweepRow",
            "commutant_basis", "conservative_unitary", "hermitian_coordinates",
            "numerical_gradient", "optimize_noise", "oscillator_probe",
            "record_observable", "spin_ladder_probe", "sweep_probe_size"),
    }
    assert {name for names in exports.values() for name in names} == set(w._LAZY)
    listed = dir(w)
    for module, names in exports.items():
        for name in names:
            assert getattr(w, name) is getattr(module, name)
            assert name in listed
            # the first lookup keeps the name in the package, so later ones skip __getattr__
            assert vars(w)[name] is getattr(module, name)
    assert "spin_operators" in listed and "bound_report" in listed
    from waylimit import optimize_noise, YWModel
    assert optimize_noise is waylimit.optimizer.optimize_noise
    assert YWModel is waylimit.yw.YWModel
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


def test_optimize_output_follows_the_optimization_run(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"objective": "sup", "restarts": 1, "max_iters": 2}))
    code, out, _ = run_cli(capsys, "optimize", str(config))
    assert code == 0
    run = json.loads(out)
    assert list(run) == ["schema", *_record_fields(w.OptimizationRun), "environment"]
    assert run["objective"] == "sup"


def test_verify_reads_an_oscillator_optimize_output(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"probe": {"family": "oscillator", "alpha": [0.1, 0.0],
                                            "beta": [0.0, 0.1]},
                                  "restarts": 2, "max_iters": 5}))
    out = tmp_path / "run.json"
    assert run_cli(capsys, "optimize", str(config), "--out", str(out))[0] == 0
    run = json.loads(out.read_text())
    assert run["result_model"]["probe_dim"] == 16  # (n_max + 1)^2 at the derived n_max = 3
    assert run["final_objective"] >= run["bound_value"] - 1e-9
    code, text, _ = run_cli(capsys, "verify", str(out))
    assert code == 0
    report = json.loads(text)
    assert report["eps_sq"] == run["final_objective"]
    assert report["yanase_bound"] == run["bound_value"]
    assert report["violations"] == []


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


def test_optimize_swap_theta_is_swap_in_a_non_diagonal_basis(tmp_path, capsys):
    # with L1 = L2 = S_x the eigenbasis of the total is not the standard one,
    # so the swap coordinates give SWAP only if the CLI and the optimizer
    # take them in the same commutant basis
    sx = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "restarts": 1, "max_iters": 0, "theta0": "swap",
        "object": {"L1": "s_x"},
        "probe": {"L2": sx, "M": sx, "xi": [[1.0, 0.0], [0.0, 0.0]]},
    }))
    code, _, _ = run_cli(capsys, "optimize", str(config), "--out", str(tmp_path / "run.json"))
    assert code == 0
    u = np.array(json.loads((tmp_path / "run.json").read_text())["result_model"]["U"])
    np.testing.assert_allclose(u[..., 0] + 1j * u[..., 1], SWAP_MATRIX, rtol=0, atol=1e-12)


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
        uncertainty_lhs=0.1, uncertainty_rhs=0.0, noise_scale=1.0)
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


def test_optimizer_soundness_alarm_fires(tmp_path, capsys, monkeypatch):
    # a floor above every reachable noise stands in for a broken bound: the
    # check on each accepted iterate must raise, and optimize must exit 2
    import waylimit.optimizer

    monkeypatch.setattr(waylimit.optimizer, "yanase_bound", lambda model, pair, psi: 2.0)
    sx, _, sz = w.spin_operators()
    l2, m, xi = w.spin_ladder_probe(2)
    with pytest.raises(w.TheoremViolation,
                       match=r"^accepted iterate has squared noise \S+ below the bound 2$"):
        w.optimize_noise(sx, w.ConservationPair(L1=sz, L2=l2), m, xi, w.named_state("alpha_y"),
                         w.OptimizerConfig(restarts=1, max_iters=3))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restarts": 1, "max_iters": 3}))
    code, out, err = run_cli(capsys, "optimize", str(config))
    assert (code, out) == (2, "")
    assert err.startswith("theorem violation: accepted iterate has squared noise ")


def test_out_in_a_missing_directory_is_an_input_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"restarts": 1, "max_iters": 1}))
    out = tmp_path / "missing" / "out.txt"
    for argv in (("sweep", "--family", "spin_ladder", "--sizes", "2", "--restarts", "1",
                  "--max-iters", "1", "--out", str(out)),
                 ("optimize", str(config), "--out", str(out))):
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert not out.parent.exists()


def test_exit_codes_stay_in_contract(tmp_path, capsys):
    codes = set()
    codes.add(run_cli(capsys, "demo", "swap")[0])
    codes.add(run_cli(capsys, "demo", "nope")[0])
    codes.add(run_cli(capsys, "verify", str(tmp_path / "missing.json"))[0])
    codes.add(run_cli(capsys, "frobnicate")[0])
    assert codes <= {0, 1, 2}


def test_non_finite_sentinels():
    from waylimit.schema import _fmt, _sanitize

    assert _sanitize({"a": float("inf"), "b": [float("nan"), 1.5]}) == \
        {"a": "inf", "b": ["nan", 1.5]}
    assert _fmt(float("inf")) == "inf"
    assert _fmt(float("nan")) == "nan"
    assert _fmt(0.125) == "0.125"


def test_model_dict_roundtrip_exact():
    # through real JSON text, as the files would be
    def reread(doc):
        return json.loads(json.dumps(doc))

    rng = np.random.default_rng(29)
    models = [w.swap_demo_model()] + [random_conservative_model(rng) for _ in range(6)]
    for k, (model, pair) in enumerate(models):
        meta = {"name": f"model-{k}", "description": "seeded"}
        reparsed, repair, metadata = model_from_dict(reread(model_to_dict(model, pair, **meta)))
        assert metadata == meta
        assert (reparsed.object_dim, reparsed.probe_dim) == (model.object_dim, model.probe_dim)
        for old, new in ((model.A, reparsed.A), (pair.L1, repair.L1), (pair.L2, repair.L2),
                         (model.M, reparsed.M), (model.U, reparsed.U)):
            np.testing.assert_array_equal(new.matrix, old.matrix)
        np.testing.assert_array_equal(reparsed.xi.amplitudes, model.xi.amplitudes)
    for k in range(6):
        yw = w.random_yw_model(int(rng.integers(2, 9)), rng)
        meta = {"name": f"yw-{k}", "description": ""}
        reparsed, none, metadata = yw_model_from_dict(reread(yw_model_to_dict(yw, **meta)))
        assert none is None and metadata == meta and reparsed.probe_dim == yw.probe_dim
        np.testing.assert_array_equal(reparsed.xi.amplitudes, yw.xi.amplitudes)
        for key in ("xi_plus", "xi_minus", "eta_plus", "eta_minus"):
            np.testing.assert_array_equal(getattr(reparsed, key), getattr(yw, key))
        np.testing.assert_array_equal(reparsed.M.matrix, yw.M.matrix)


@pytest.mark.parametrize("demo, where, value, message", [
    # a bool where a number belongs: the swap U holds 1.0 and the probe state
    # a zero imaginary part, so the values would read the same as numbers
    ("swap", ("xi", 0, 1), False,
     "xi[0]: expected a [re, im] pair of JSON numbers, got [0.7071067811865475, false]"),
    ("swap", ("U", 0, 0, 0), True,
     "U[0][0]: expected a [re, im] pair of JSON numbers, got [true, 0.0]"),
    ("swap", ("probe_dim",), True, "probe_dim: expected a JSON integer, got true"),
    ("swap", ("object_dim",), 2.0, "object_dim: expected a JSON integer, got 2.0"),
    ("swap", ("metadata",), [], "metadata: expected a JSON object, got []"),
    ("swap", ("metadata",), "x", 'metadata: expected a JSON object, got "x"'),
    ("swap", ("metadata",), {"name": 5}, "metadata.name: expected a JSON string, got 5"),
    ("yw-sample", ("probe_dim",), True, "probe_dim: expected a JSON integer, got true"),
    ("yw-sample", ("eta_plus", 0, 0), True,
     "eta_plus[0]: expected a [re, im] pair of JSON numbers, got [true, 0.0]"),
    ("swap", ("schema",), "v2", "schema: expected 'v1', got 'v2'"),
    ("swap", ("U", 0), [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
     "U: row 0 does not make the matrix square"),
    ("yw-sample", ("xi_plus",), [[0.1, 0.0], [0.0, 0.0]], "xi_plus has dim 2, expected 4"),
    ("yw-sample", ("xi_plus",), [], "xi_plus has dim 0, expected 4"),
    ("swap", ("object_dim",), 0, "dimensions must be positive"),
    ("swap", ("M",), [[[0.5, 0.0]]], "M has dim 1, expected probe_dim 2"),
    ("swap", ("A",), [[[0.5, 0.0]]], "A has dim 1, expected object_dim 2"),
    ("swap", ("U",), [], "U: operator must be a nonempty square matrix, got shape (0,)"),
    ("yw-sample", ("M",), [[[0.5, 0.0]]], "M has dim 1, expected 4"),
    ("yw-sample", ("M", 2, 2), [0.9, 0.0], "record spectrum [-0.5, 0.9] leaves [-1/2, 1/2]"),
    ("yw-sample", ("eta_minus", 3), [0.2, 0.0],
     "image norms 1, 0.99 break the isometry condition"),
    ("yw-sample", ("eta_minus",), [[0.22360679774997896, 0.0], [0.0, 0.0], [0.0, 0.0],
                                   [0.0, 0.0]],
     "image overlap 2.179e-01 breaks orthogonality"),
], ids=["xi-bool", "U-bool", "probe_dim-bool", "object_dim-float", "metadata-array",
        "metadata-string", "metadata-name-number", "yw-probe_dim-bool", "yw-eta_plus-bool",
        "schema-v2", "U-short-row", "yw-xi_plus-dim", "yw-xi_plus-empty", "object_dim-zero", "M-dim", "A-dim",
        "U-empty", "yw-M-dim", "yw-M-spectrum", "yw-isometry", "yw-orthogonality"])
def test_model_file_problems_are_input_errors(tmp_path, capsys, demo, where, value, message):
    doc = json.loads(run_cli(capsys, "demo", demo)[1])
    target = doc
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def _swap_with(tmp_path, capsys, entries=(), scaled=()) -> str:
    """The swap demo's file with, for each (field, value) of entries, entry [0]
    of a ket or [0][0] of a matrix set to value, and each (field, factor) of
    scaled multiplying every entry of a matrix."""
    doc = json.loads(run_cli(capsys, "demo", "swap")[1])
    for field, value in entries:
        if field == "xi":
            doc[field][0] = [value, 0.0]
        else:
            doc[field][0][0] = [value, 0.0]
    for field, factor in scaled:
        doc[field] = [[[re * factor, im * factor] for re, im in row] for row in doc[field]]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


_EVALUATION_OVERFLOW = "error: the model's values overflow double precision\n"


@pytest.mark.parametrize("entries, message", [
    ((("U", 1e200),), "error: U: values overflow the unitary check\n"),
    ((("xi", 1e200),), "error: xi: values overflow double precision\n"),
    ((("A", 1e160),), _EVALUATION_OVERFLOW),
    ((("L1", 1e160),), _EVALUATION_OVERFLOW),
    ((("L2", 1e160),), _EVALUATION_OVERFLOW),
    ((("M", 1e160),), _EVALUATION_OVERFLOW),
    # no numpy product overflows here, only the float product of two variances
    ((("A", 1e80), ("L1", 1e80)), _EVALUATION_OVERFLOW),
], ids=["U-1e200", "xi-1e200", "A-1e160", "L1-1e160", "L2-1e160", "M-1e160", "A-L1-1e80"])
def test_overflowing_model_file_is_one_input_error_line(tmp_path, capsys, entries, message):
    # finite entries whose arithmetic overflows: exit 1 and one line, with no
    # numpy warning (the suite makes a RuntimeWarning an error); a check of
    # one field names it
    path = _swap_with(tmp_path, capsys, entries)
    for extra in ((), ("--csv",)):
        assert run_cli(capsys, "verify", path, *extra) == (1, "", message)


def test_overflowing_noise_is_inf_without_a_warning():
    # the library side of the M-1e160 case above: noise reads ||W psi|| from one
    # np.vdot, which overflows to inf without a RuntimeWarning, and verify's
    # check of the infinite eps_sq makes that the one input error line
    model, _ = w.swap_demo_model()
    big = dataclasses.replace(model, M=w.Operator.hermitian(1e160 * model.M.matrix))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert w.noise(big, w.named_state("alpha_z")) == math.inf
    assert caught == []


@pytest.mark.parametrize("field", ["A", "L1", "L2", "M"])
def test_large_finite_model_file_still_verifies(tmp_path, capsys, field):
    # at 1e100 nothing overflows: the report is computed as before
    code, out, err = run_cli(capsys, "verify", _swap_with(tmp_path, capsys, ((field, 1e100),)))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["violations"] == [] and math.isfinite(report["eps_sq"])


def test_conserved_quantities_at_1e8_verify_without_a_residue_alarm(tmp_path, capsys):
    # the imaginary residue of <v|L|v> rounds in proportion to L v; with L1
    # and L2 scaled by 1e8 it passes STRUCTURE_TOL, not the scaled threshold
    path = _swap_with(tmp_path, capsys, scaled=(("L1", 1e8), ("L2", 1e8)))
    code, out, err = run_cli(capsys, "verify", path,
                             "--state", "[[0.6,0.1],[0.3,-0.7348469228349535]]")
    assert (code, err) == (0, "")
    assert json.loads(out)["violations"] == []


def _scaled_random_model(tmp_path, fields, factor) -> str:
    """The file of the seed-5 3 x 4 model of random_conservative_model, whose
    conserved quantities, interaction and record round, with every entry of
    each named matrix multiplied by factor."""
    model, pair = random_conservative_model(np.random.default_rng(5), 3, 4)
    doc = model_to_dict(model, pair)
    for field in fields:
        doc[field] = [[[re * factor, im * factor] for re, im in row] for row in doc[field]]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("fields, factor", [
    (("L1", "L2"), 1e-7), (("L1", "L2"), 1e5), (("L1", "L2"), 1e6), (("M",), 1e6),
    (("M", "A"), 1e6),
])
def test_scaled_random_model_verifies_with_every_check(tmp_path, capsys, fields, factor):
    # each factor leaves the model exactly conservative and Yanase; the
    # bounds keep their values (L) or scale by factor^2 (M and A together)
    reports = []
    for scale in (1.0, factor):
        path = _scaled_random_model(tmp_path, fields, scale)
        code, out, err = run_cli(capsys, "verify", path, "--state", "[[1,0],[0,0],[0,0]]")
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    base, report = reports
    assert report["violations"] == [] and report["null_reasons"] == base["null_reasons"]
    assert report["commutator_identity_residual"] is not None
    bound_scale = factor ** 2 if "A" in fields else 1.0
    assert base["yanase_bound"] == pytest.approx(0.0060843521986, rel=1e-10)
    for name in ("fundamental_bound", "yanase_bound"):
        assert report[name] == pytest.approx(bound_scale * base[name], rel=1e-7)


def _explicit_probe_config(tmp_path, factor) -> str:
    """An optimize config whose L1 = S_z and 3-level L2 = V diag(1, 0, -1) V^dag
    (V random) are multiplied by factor; M = V diag(1/2, -1/2, 1/2) V^dag."""
    v = w.random_unitary(3, np.random.default_rng(3)).matrix
    l2 = (v * np.array([1.0, 0.0, -1.0])) @ v.conj().T
    m = (v * np.array([0.5, -0.5, 0.5])) @ v.conj().T
    sz = w.spin_operators()[2].matrix

    def matrix(a):
        return [[[float(z.real), float(z.imag)] for z in row] for row in a]

    config = {"restarts": 2, "max_iters": 10, "object": {"L1": matrix(factor * sz)},
              "probe": {"L2": matrix(factor * l2), "M": matrix(m),
                        "xi": [[0.6, 0.0], [0.0, 0.64], [0.48, 0.0]]}}
    path = tmp_path / f"config-{factor:g}.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_scaled_explicit_probe_optimize_matches_the_unscaled_run(tmp_path, capsys):
    # at 1e4 the sectors of L1 x I + I x L2 keep their sizes, so the search
    # runs in the same space and finds the same interaction
    runs = []
    for factor in (1.0, 1e4):
        code, out, err = run_cli(capsys, "optimize", _explicit_probe_config(tmp_path, factor))
        assert (code, err) == (0, "")
        runs.append(json.loads(out))
    base, run = runs
    assert len(run["theta"]) == len(base["theta"]) == 10
    for name in ("final_objective", "bound_value"):
        assert run[name] == pytest.approx(base[name], rel=1e-9)


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
    ({"theta0": [0.1, "1e-10", 0.3, 0.4, 0.5, 0.6]}, "theta0[1]"),
    ({"theta0": [False, 0.2, 0.3, 0.4, 0.5, 0.6]}, "theta0[0]"),
    ({"objective": 5}, "objective"),
    ({"probe": {"family": "spin_ladder", "size": 2.9}}, "probe.size"),
    ({"probe": {"family": "oscillator", "n_max": None}}, "probe.n_max"),
    ({"probe": {"family": "oscillator", "n_max": 2.5}}, "probe.n_max"),
    ({"probe": 7}, "probe"),
    ({"object": "s_x"}, "object"),
    ({"theta0": ["0.1", 0.2, 0.3, 0.4, 0.5, 0.6]}, "theta0[0]"),
    # json.dumps writes a float NaN as the non-standard literal NaN
    ({"theta0": [math.nan, 0.2, 0.3, 0.4, 0.5, 0.6]}, "NaN"),
    ({"probe": {"family": "oscillator", "alpha": [math.nan, 0]}}, "NaN"),
    # unknown probe keys, one misspelling per form
    ({"probe": {"family": "spin_ladder", "sise": 4}}, "probe.sise"),
    ({"probe": {"family": "oscillator", "alpah": [0.1, 0]}}, "probe.alpah"),
    ({"probe": {"L2": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
                "M": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
                "xi": [[1, 0], [0, 0]], "Xi": [[1, 0], [0, 0]]}}, "probe.Xi"),
    # unknown object keys, and JSON bools where numbers belong
    ({"object": {"a": "s_z"}}, "object.a"),
    ({"probe": {"family": "oscillator", "alpha": [True, 0]}}, "probe.alpha"),
    ({"probe": {"L2": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
                "M": [[[0.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]],
                "xi": [[True, 0], [0, 0]]}}, "probe.xi[0]"),
    ({"psi": [[True, 0], [0, 0]]}, "psi[0]"),
    # an empty probe is an explicit probe without its fields, not the default
    ({"probe": {}}, "probe.L2: missing required field"),
    # theta0 names its accepted forms
    ({"theta0": "Swap"}, "theta0: expected 'zero', 'swap' or a JSON array, got \"Swap\""),
    ({"theta0": 5}, "theta0: expected a JSON array, got 5"),
    # a size past the float range overflows in the ladder's arithmetic
    ({"probe": {"family": "spin_ladder", "size": 10 ** 400}}, "probe.size"),
])
def test_optimize_config_problems_are_input_errors(tmp_path, capsys, config, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"restarts": 1, "max_iters": 1, **config}))
    code, _, err = run_cli(capsys, "optimize", str(path))
    assert code == 1
    assert err.startswith("error: ")
    assert field in err


@pytest.mark.parametrize("config, line", [
    ({"object": {"A": "s_w"}},
     "object.A: unknown observable 's_w', expected one of ['s_x', 's_y', 's_z'] or a matrix"),
    ({"probe": {"family": "harmonic"}}, "probe.family: unknown family 'harmonic'"),
    ({"theta0": "swap", "probe": {"family": "spin_ladder", "size": 3}},
     "theta0 'swap' needs a two-qubit composite space"),
    # the residual that follows depends on the basis, so only the prefix is pinned
    ({"theta0": "swap", "object": {"L1": "s_x"}}, "theta0 'swap' is not conservative here: "),
    ({"probe": {"family": "oscillator", "alpha": [1, 0], "beta": [1, 0]}},
     "probe: |alpha|^2 + |beta|^2 = 2 needs n_max = 11; full oscillator interactions "
     "are limited to n_max <= 8"),
    ({"max_iters": -2}, "config: max_iters must be nonnegative"),
    ({"probe": {"L2": [[[0, 0], [0.5, 0]], [[0.5, 0], [0, 0]]],
                "M": [[[float(i == j), 0] for j in range(3)] for i in range(3)],
                "xi": [[1, 0], [0, 0]]}}, "M has dim 3, L2 has dim 2"),
], ids=["object-A-unknown", "probe-family-unknown", "swap-three-levels", "swap-not-conservative",
        "oscillator-cutoff", "max_iters-negative", "probe-M-dim"])
def test_optimize_config_error_lines(tmp_path, capsys, config, line):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"restarts": 1, "max_iters": 1, **config}))
    code, out, err = run_cli(capsys, "optimize", str(path))
    assert (code, out) == (1, "")
    if line.endswith(": "):
        assert err.startswith(f"error: {line}") and err.count("\n") == 1
    else:
        assert err == f"error: {line}\n"


def test_optimize_config_n_max_is_refused_with_the_rule(tmp_path, capsys):
    # a config written for the old settable cutoff must not run with another one
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"probe": {"family": "oscillator", "n_max": 2,
                                          "alpha": [0.02, 0], "beta": [0, 0.01]}}))
    code, out, err = run_cli(capsys, "optimize", str(path))
    assert (code, out) == (1, "")
    assert err == "error: probe.n_max: unknown key, expected one of ['family', 'alpha', 'beta']\n"


def test_optimize_config_tol_is_an_unknown_key(tmp_path, capsys):
    # the optimizer stops at GRADIENT_TOL; a config cannot set another
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"tol": 1e-8}))
    code, out, err = run_cli(capsys, "optimize", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: tol: unknown key, expected one of ['seed', ")
    assert "'tol'" not in err


def test_optimize_theta0_of_the_wrong_length_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"restarts": 1, "max_iters": 1, "theta0": [0.1, 0.2]}))
    code, out, err = run_cli(capsys, "optimize", str(path))
    assert (code, out, err) == (1, "", "error: theta0 has length 2, expected 6\n")


def test_optimize_array_theta0_builds_one_commutant_basis(tmp_path, capsys, monkeypatch):
    # the optimizer checks theta0's length on the basis it builds anyway
    import waylimit.optimizer as opt
    calls = []
    original = opt.commutant_basis

    def counted(conserved):
        calls.append(conserved)
        return original(conserved)
    monkeypatch.setattr(opt, "commutant_basis", counted)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"restarts": 1, "max_iters": 2, "theta0": [0.1] * 6}))
    code, _, _ = run_cli(capsys, "optimize", str(path), "--out", str(tmp_path / "run.json"))
    assert code == 0
    assert len(calls) == 1


def test_verify_at_an_exact_eigenstate_of_a_large_probe_quantity(tmp_path, capsys):
    # var(L2, xi) rounds to -3.6e-12 here; it is clamped, not an internal error
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(*large_eigenvalue_probe_model())))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["fundamental_bound"] == pytest.approx(0.25, abs=1e-15)
    assert report["violations"] == []


def test_optimize_config_psi_messages_name_the_field(tmp_path, capsys):
    # psi and --state share one reader; its messages name the field
    path = tmp_path / "config.json"
    for psi, message in (
            ("gamma_q", "error: psi must be a named state or a JSON ket, got 'gamma_q'\n"),
            ([[1, 0], [0, 0], [0, 0]], "error: psi: ket has dim 3, expected 2\n"),
            ("[[1, 0], [0, 0], [0, 0]]", "error: psi: ket has dim 3, expected 2\n"),
            ("[[NaN, 0], [1, 0]]",
             "error: psi: non-standard JSON literal NaN; numbers must be finite\n"),
            ([], "error: psi: ket needs at least one amplitude\n")):
        path.write_text(json.dumps({"restarts": 1, "max_iters": 1, "psi": psi}))
        code, _, err = run_cli(capsys, "optimize", str(path))
        assert (code, err) == (1, message)


def test_optimize_config_l1_dimension_error_names_the_field(tmp_path, capsys):
    path = tmp_path / "config.json"
    l1 = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]
    path.write_text(json.dumps({"restarts": 1, "max_iters": 1, "object": {"L1": l1}}))
    code, _, err = run_cli(capsys, "optimize", str(path))
    assert code == 1
    assert err.startswith("error: object.L1: has dim 3, expected 2")


def test_verify_near_the_kernel_of_a_large_conserved_quantity(tmp_path, capsys):
    # <psi|L1|psi> rounds with an imaginary residue of about 1e-7 at a null
    # vector of L1 = 1e10 (H - lambda_3 I): rounding, not an internal error
    model, pair, psi = near_kernel_model()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model, pair)))
    code, out, err = run_cli(capsys, "verify", str(path), "--state", json.dumps(ket_to_json(psi)))
    assert (code, err) == (0, "")
    assert json.loads(out)["violations"] == []


def test_verify_a_valid_model_whose_robertson_sides_are_near_zero(tmp_path, capsys):
    # with A x 1e4 an uncentred rhs would read 6.9e-8 against lhs 0, an exit 2;
    # the centred images keep rhs below lhs
    model, pair, psi = near_kernel_probe_model(1e4)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model, pair)))
    code, out, err = run_cli(capsys, "verify", str(path), "--state", json.dumps(ket_to_json(psi)))
    assert (code, err) == (0, "")
    assert json.loads(out)["violations"] == []


_SX_JSON = [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]
_HUGE_JSON = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e200, 0.0]]]


@pytest.mark.parametrize("warning_filter", ["error", "always"])
@pytest.mark.parametrize("config, message", [
    ({"object": {"A": [[[1e200, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]]}},
     _EVALUATION_OVERFLOW),
    ({"probe": {"L2": _HUGE_JSON, "M": _HUGE_JSON, "xi": [[0.6, 0.0], [0.8, 0.0]]}},
     _EVALUATION_OVERFLOW),
    ({"probe": {"L2": _SX_JSON, "M": _SX_JSON, "xi": [[1e200, 0.0], [0.0, 0.0]]}},
     "error: probe.xi: values overflow double precision\n"),
], ids=["object-A-1e200", "probe-L2-M-1e200", "probe-xi-1e200"])
def test_overflowing_optimize_config_is_one_input_error_line(tmp_path, capsys, config, message,
                                                             warning_filter):
    # every command runs under main's floating-point policy: finite config
    # values whose arithmetic overflows are refused with one line, whether
    # numpy's warnings raise or print, and no output is written
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"restarts": 1, "max_iters": 2, **config}))
    out = tmp_path / "run.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(warning_filter)
        assert run_cli(capsys, "optimize", str(path), "--out", str(out)) == (1, "", message)
    assert caught == []
    assert not out.exists()


def test_failure_inside_a_sweep_search_is_an_internal_error(tmp_path, capsys, monkeypatch):
    # a failed row is a probe that could not be built; a ValueError from the
    # search is a bug, and is not written as a row
    import waylimit.optimizer as opt

    def broken(*args, **kwargs):
        raise ValueError("forced search failure")
    monkeypatch.setattr(opt, "optimize_noise", broken)
    monkeypatch.delenv("WAYLIMIT_DEBUG", raising=False)
    config = w.OptimizerConfig(restarts=1, max_iters=1)
    with pytest.raises(ValueError, match="^forced search failure$"):
        opt.sweep_probe_size("spin_ladder", [1, 2], config)
    out = tmp_path / "sweep.csv"
    sweep = ("sweep", "--family", "spin_ladder", "--out", str(out), "--sizes")
    assert run_cli(capsys, *sweep, "1,2") == (1, "", "internal error: ValueError: "
                                                       "forced search failure\n")
    assert not out.exists()
    # probe refusals never reach the search: they stay rows, with their lines
    refusal = "ladder probe needs at least two levels"
    rows = opt.sweep_probe_size("spin_ladder", [0, 1], config)
    assert [row.error for row in rows] == [refusal, refusal]
    assert all(math.isnan(row.var_mz) and math.isnan(row.bound) for row in rows)
    assert run_cli(capsys, *sweep, "0,1") == (1, "", f"size 0 failed: {refusal}\n"
                                                     f"size 1 failed: {refusal}\n")
    assert out.read_text() == ("family,size,var_mz,bound,achieved,gap_ratio,seed\n"
                               "spin_ladder,0,nan,nan,nan,nan,0\n"
                               "spin_ladder,1,nan,nan,nan,nan,1\n")
