import dataclasses
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import klscope

from klscope import driver
from klscope.codespace import (
    code_from_json,
    code_to_json,
    kl_violation,
    lambda_star,
    orthonormalize,
    signature_vector,
)
from klscope.driver import (
    SWEEP_CSV_HEADER,
    SweepResult,
    SweepRow,
    build_parser,
    main,
    read_sweep_csv,
    sweep,
    verify_code,
)
from klscope.enumerators import weight_enumerators
from klscope.optimizer import SETTLE_RESTARTS, OptimizerConfig
from klscope.pauli import MarginalKernel, enumerate_error_basis
from klscope.stabilizer import BUILTIN_GENERATORS, builtin, codespace_from_stabilizer


def fast_config(**kw):
    base = dict(seed=0, restarts=4, stop_on_loss=1e-14)
    base.update(kw)
    return OptimizerConfig(**base)


def test_sweep_feasible_and_infeasible_points():
    # two-qubit K=1 codes span squared lengths [0, 2]
    result = sweep(2, 1, 2, [0.5, 2.5], mu=1000.0, config=fast_config())
    assert [r.target_lambda_sq for r in result.rows] == [0.5, 2.5]
    assert result.rows[0].final_loss <= 1e-8
    assert result.rows[1].final_loss >= 1e-3
    assert result.rows[0].kl_violation <= 1e-10


def test_sweep_csv_round_trip_and_resume():
    result = sweep(2, 1, 2, [0.3, 1.1], mu=1000.0, config=fast_config())
    text = result.csv()
    lines = text.strip().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    rows = read_sweep_csv(text)
    assert [r.target_lambda_sq for r in rows] == [0.3, 1.1]

    seen = []
    resumed = sweep(2, 1, 2, [0.3, 0.7, 1.1], mu=1000.0, config=fast_config(),
                    done=rows, on_row=seen.append)
    assert [r.target_lambda_sq for r in seen] == [0.7]
    assert [r.target_lambda_sq for r in resumed.rows] == [0.3, 0.7, 1.1]


def _without_wall_ms(rows):
    return [dataclasses.replace(r, wall_ms=0) for r in rows]


def test_sweep_warm_starts_from_converged_neighbour():
    cfg = OptimizerConfig(seed=1606, restarts=12, stop_on_loss=1e-12)
    first = sweep(6, 2, 3, [0.70, 0.72], config=cfg)
    assert all(r.final_loss <= 1e-8 for r in first.rows)
    assert first.rows[1].restarts_used == 1  # started from the 0.70 code
    again = sweep(6, 2, 3, [0.70, 0.72], config=cfg)
    assert _without_wall_ms(again.rows) == _without_wall_ms(first.rows)


def test_sweep_infeasible_point_settles():
    cfg = OptimizerConfig(seed=1606, restarts=12, stop_on_loss=1e-12)
    high = sweep(6, 2, 3, [0.70, 1.08], config=cfg).rows[1]
    assert high.restarts_used == 1 + SETTLE_RESTARTS  # warm start and two that agree
    assert abs(high.achieved_lambda_sq - 1.0) <= 1e-6
    assert high.final_loss >= 1e-3


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_sweep_verdicts_hold_across_seeds(seed):
    # criterion 6's verdicts on a coarse grid: stopping a point early must not
    # cost a feasible point its hit
    cfg = OptimizerConfig(seed=seed, restarts=12, stop_on_loss=1e-12)
    for row in sweep(6, 2, 3, [0.52, 0.66, 0.80, 0.94, 1.08], config=cfg).rows:
        if 0.6 <= row.target_lambda_sq <= 1.0:
            assert row.final_loss <= 1e-8, row
        else:
            assert row.final_loss >= 1e-3, row
            assert min(abs(row.achieved_lambda_sq - b) for b in (0.6, 1.0)) <= 1e-6, row


def test_resumed_sweep_starts_cold():
    cfg = fast_config()
    done = sweep(2, 1, 2, [0.3, 1.1], config=cfg).rows
    seen = []
    resumed = sweep(2, 1, 2, [0.3, 0.7, 1.1, 1.5], config=cfg, done=done,
                    on_row=seen.append)
    assert [r.target_lambda_sq for r in seen] == [0.7, 1.5]
    assert [r.target_lambda_sq for r in resumed.rows] == [0.3, 0.7, 1.1, 1.5]
    # done rows carry no code, so the first new point is a cold search
    cold = sweep(2, 1, 2, [0.7], config=cfg).rows
    assert _without_wall_ms(seen[:1]) == _without_wall_ms(cold)


def test_sweep_computes_a_repeated_target_once():
    assert len(sweep(2, 1, 2, [0.5, 0.5], config=fast_config()).rows) == 1
    rows = sweep(2, 1, 2, [0.5, 1.1, 0.5 + 1e-14], config=fast_config()).rows
    assert [r.target_lambda_sq for r in rows] == [0.5, 1.1]  # equal to 12 digits


def test_sweep_rows_sorted():
    result = sweep(2, 1, 2, [1.5, 0.2], mu=1000.0, config=fast_config())
    targets = [r.target_lambda_sq for r in result.rows]
    assert targets == sorted(targets)


def _constructed(tmp_path, *argv):
    """The code and info that ``klscope construct *argv`` writes."""
    path = tmp_path / "code.json"
    assert main(["construct", *argv, "--out", str(path)]) == 0
    return code_from_json(path.read_text()), json.loads(path.read_text())["info"]


def test_construct_family723_and_verify(tmp_path):
    code, info = _constructed(tmp_path, "family723", "--lambda-star", "1.0", "--branch=--")
    report = verify_code(code)
    assert report["valid"]
    assert abs(report["lambda_star"] - 1.0) <= 1e-8
    assert report["enumerator_consistent"]
    assert report["lu_drift"] <= 1e-9
    assert info["branch"] == "--"


@pytest.mark.parametrize("d", [2, 3])
def test_verify_checks_the_enumerator_identity_of_its_distance(d):
    # lambda*^2 = A_1 + ... + A_{d-1}: shaw623 has lambda* = 0 at d = 2 but A_2 = 1
    code = codespace_from_stabilizer(builtin("shaw623"))
    report = verify_code(code, d=d)
    we = weight_enumerators(code)
    assert report["valid"] and report["enumerator_consistent"]
    assert report["enumerator_lambda_sq"] == float(we.A[1:d].sum())
    assert abs(report["lambda_star"] ** 2 - (0.0, 1.0)[d - 2]) <= 1e-12


def test_verify_contracts_each_code_once(monkeypatch):
    calls = []
    values = MarginalKernel.values

    def counting(self, psi):
        calls.append(psi.shape)
        return values(self, psi)

    monkeypatch.setattr(MarginalKernel, "values", counting)
    report = verify_code(codespace_from_stabilizer(builtin("steane")), lu_samples=4)
    assert report["valid"]
    assert len(calls) == 1 + 4  # the code, then each local-unitary image


def test_verify_draws_the_per_factor_haar_unitaries(monkeypatch):
    # one stacked draw gives the bytes of n per-factor draws from the same generator
    def haar_unitary(rng):
        z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        return orthonormalize(z)[0]

    seen = []
    apply = driver.apply_local_unitary
    monkeypatch.setattr(driver, "apply_local_unitary",
                        lambda code, factors: seen.append(factors) or apply(code, factors))
    code = codespace_from_stabilizer(builtin("steane"))
    verify_code(code, lu_samples=3, seed=11)
    rng = np.random.default_rng(11)
    assert len(seen) == 3
    for factors in seen:
        reference = np.stack([haar_unitary(rng) for _ in range(code.n)])
        assert factors.tobytes() == reference.tobytes()


def test_construct_family623_theta_and_e_vector(tmp_path):
    code, info = _constructed(tmp_path, "family623", "--theta", "0.0")
    basis = enumerate_error_basis(6, 3)
    assert abs(lambda_star(signature_vector(code, basis)) - 1.0) <= 1e-9
    assert info["family"] == "623" and len(info["e"]) == 5

    e = [0.5 / math.sqrt(5)] * 5
    code2, info2 = _constructed(tmp_path, "family623", "--e-vector", ",".join(map(repr, e)),
                                "--seed", "3")
    lam2 = lambda_star(signature_vector(code2, basis)) ** 2
    assert abs(lam2 - 0.6) <= 1e-9
    assert info2 == {"family": "623", "e": e}


def test_construct_permcode_and_stabilizer(tmp_path):
    code, info = _constructed(tmp_path, "permcode", "--variant", "minus")
    basis = enumerate_error_basis(7, 3)
    assert abs(lambda_star(signature_vector(code, basis)) - math.sqrt(7)) <= 1e-9
    assert info == {"family": "723-perm", "variant": "minus"}

    code2, info = _constructed(tmp_path, "stabilizer", "--name", "steane")
    assert lambda_star(signature_vector(code2, basis)) <= 1e-9
    assert info == {"family": "stabilizer", "generators": list(builtin("steane").generators)}


def test_cli_construct_verify_enumerate(tmp_path):
    code_path = tmp_path / "code.json"
    rc = main(["construct", "stabilizer", "--name", "steane", "--out", str(code_path)])
    assert rc == 0
    payload = json.loads(code_path.read_text())
    assert payload["format"] == "klscope.code/1"
    code = code_from_json(code_path.read_text())
    assert code.n == 7 and code.K == 2

    report_path = tmp_path / "report.json"
    rc = main(["verify", str(code_path), "--out", str(report_path)])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["valid"] and report["lambda_star"] <= 1e-9

    enum_path = tmp_path / "enum.csv"
    rc = main(["enumerate", str(code_path), "--out", str(enum_path)])
    assert rc == 0
    lines = enum_path.read_text().strip().splitlines()
    assert lines[0] == "j,A_j,B_j"
    a4 = float(lines[5].split(",")[1])
    assert abs(a4 - 21.0) <= 1e-8


def test_cli_shor_code_construct_verify_enumerate(tmp_path):
    gens = tmp_path / "shor.txt"
    gens.write_text("\n".join(BUILTIN_GENERATORS["shor913"]) + "\n")
    code_path = tmp_path / "shor.json"
    assert main(["construct", "stabilizer", "--generators", str(gens),
                 "--out", str(code_path)]) == 0
    named_path = tmp_path / "shor_named.json"
    assert main(["construct", "stabilizer", "--name", "shor913",
                 "--out", str(named_path)]) == 0
    assert named_path.read_text() == code_path.read_text()
    report_path = tmp_path / "report.json"
    assert main(["verify", str(code_path), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["valid"] is True and report["enumerator_consistent"] is True
    assert abs(report["enumerator_lambda_sq"] - 9) <= 1e-9
    enum_path = tmp_path / "enum.csv"
    assert main(["enumerate", str(code_path), "--out", str(enum_path)]) == 0
    lines = enum_path.read_text().strip().splitlines()
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == list(range(10))


@pytest.mark.parametrize("call, message", [
    (lambda: sweep(2, 1, 2, []), "empty sweep grid"),
    (lambda: read_sweep_csv("target,loss\n"), "bad sweep CSV header: 'target,loss'"),
], ids=["empty-grid", "csv-header"])
def test_entry_checks_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_non_isometric_code_json_rejected(tmp_path):
    code = codespace_from_stabilizer(builtin("steane"))
    payload = json.loads(code_to_json(code))
    payload["amplitudes"][1] = [[2 * re, 2 * im] for re, im in payload["amplitudes"][1]]
    text = json.dumps(payload)
    with pytest.raises(ValueError, match="orthonormal"):
        code_from_json(text)
    path = tmp_path / "scaled.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2


def _steane_payload():
    return json.loads(code_to_json(codespace_from_stabilizer(builtin("steane"))))


@pytest.mark.parametrize("malformed", [
    {key: value for key, value in _steane_payload().items() if key != "amplitudes"},
    {key: value for key, value in _steane_payload().items() if key != "n"},
    {key: value for key, value in _steane_payload().items() if key != "K"},
    {**_steane_payload(), "amplitudes": [[["x", 0.0]] * 128] * 2},
    {**_steane_payload(), "amplitudes": [[None] * 128] * 2},
    {**_steane_payload(), "n": "7"},
    {**_steane_payload(), "n": 7.0},
    {**_steane_payload(), "amplitudes": [[[float("nan"), 0.0]] * 128] * 2},
    [_steane_payload()],
], ids=["no-amplitudes", "no-n", "no-K", "string-amplitude", "null-amplitude",
        "string-n", "float-n", "nan-amplitude", "top-level-list"])
def test_malformed_code_json_rejected(tmp_path, malformed):
    text = json.dumps(malformed)
    with pytest.raises(ValueError):
        code_from_json(text)
    path = tmp_path / "malformed.json"
    path.write_text(text)
    for command in ("verify", "signature", "enumerate"):
        assert main([command, str(path)]) == 2, command


def test_cli_construct_family_roundtrip(tmp_path):
    code_path = tmp_path / "cyc.json"
    rc = main(["construct", "family723", "--lambda-star", "1.0",
               "--branch=--", "--out", str(code_path)])
    assert rc == 0
    code = code_from_json(code_path.read_text())
    basis = enumerate_error_basis(7, 3)
    assert abs(lambda_star(signature_vector(code, basis)) - 1.0) <= 1e-10


def test_cli_construct_family623_reports_the_given_e(tmp_path):
    code_path = tmp_path / "frame.json"
    assert main(["construct", "family623", "--e-vector=-0.5,0,0,0,0",
                 "--out", str(code_path)]) == 0
    assert json.loads(code_path.read_text())["info"]["e"] == [-0.5, 0.0, 0.0, 0.0, 0.0]


def test_cli_signature_csv(tmp_path):
    code_path = tmp_path / "shaw.json"
    main(["construct", "stabilizer", "--name", "shaw623", "--out", str(code_path)])
    sig_path = tmp_path / "sig.csv"
    rc = main(["signature", str(code_path), "--out", str(sig_path)])
    assert rc == 0
    rows = dict(
        ln.split(",") for ln in sig_path.read_text().strip().splitlines()[1:]
    )
    assert abs(float(rows["IIIZIZ"]) - 1.0) <= 1e-10


def test_cli_generator_file(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("X X\nZ Z\n")
    out = tmp_path / "bell.json"
    rc = main(["construct", "stabilizer", "--generators", str(gens), "--out", str(out)])
    assert rc == 0
    code = code_from_json(out.read_text())
    assert code.n == 2 and code.K == 1


def test_cli_optimize_with_flags(tmp_path):
    out = tmp_path / "result.json"
    rc = main(["optimize", "--n", "2", "--K", "1", "--d", "2", "--mode", "target_length",
               "--lambda-target", "1.0", "--restarts", "3", "--max-iters", "500",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["format"] == "klscope.result/1"
    assert payload["converged"]
    assert payload["stop_reason"] == "budget"  # no stop_on_loss, no warm start
    assert abs(payload["lambda_star"] - 1.0) <= 1e-6
    code = code_from_json(json.dumps(payload["code"]))
    assert kl_violation(code, enumerate_error_basis(2, 2)) <= 1e-10


def test_readme_command_lines_parse():
    # parsed, not run: the documented flags must exist in the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("klscope ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == shlex.split(line)[1], line


def test_cli_sweep_resume(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--n", "2", "--K", "1", "--d", "2",
               "--grid", "0.4,1.9", "--restarts", "3", "--out", str(out)])
    assert rc == 0
    rows = read_sweep_csv(out.read_text())
    assert len(rows) == 2

    # resume with one extra grid point recomputes only the new one
    rc = main(["sweep", "--n", "2", "--K", "1", "--d", "2",
               "--grid", "0.4,1.0,1.9", "--restarts", "3",
               "--resume", str(out)])
    assert rc == 0
    rows = read_sweep_csv(out.read_text())
    assert [r.target_lambda_sq for r in rows] == [0.4, 1.0, 1.9]


def test_cli_sweep_resume_rejects_truncated_row(tmp_path):
    rows = [SweepRow(0.4, 1e-14, 1e-16, 0.4, 2, 10), SweepRow(1.9, 1e-14, 1e-16, 1.9, 2, 10)]
    complete = SWEEP_CSV_HEADER + "\n" + rows[0].csv() + "\n"
    truncated = complete + rows[1].csv()[:9] + "\n"
    with pytest.raises(ValueError, match="line 3"):
        read_sweep_csv(truncated)
    with pytest.raises(ValueError, match="line 2"):
        read_sweep_csv(complete.replace("0.4,", "0.4x,", 1))
    path = tmp_path / "sweep.csv"
    path.write_text(truncated)
    assert main(["sweep", "--n", "2", "--K", "1", "--d", "2", "--grid", "0.4,1.9",
                 "--restarts", "1", "--resume", str(path)]) == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "2", "--K", "1", "--d", "2", "--grid", "0.4,1.0",
     "--restarts", "1", "--max-iters", "50", "--resume"],
    ["construct", "stabilizer", "--name", "steane", "--out"],
], ids=["sweep", "construct"])
def test_cli_failed_write_keeps_previous_file(tmp_path, monkeypatch, argv):
    path = tmp_path / "previous.csv"
    previous = SWEEP_CSV_HEADER + "\n" + SweepRow(0.4, 1e-14, 1e-16, 0.4, 2, 10).csv() + "\n"
    path.write_text(previous)

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    assert main([*argv, str(path)]) == 2
    assert path.read_text() == previous
    assert not (tmp_path / "previous.csv.tmp").exists()


@pytest.mark.parametrize("command", ["verify", "enumerate", "signature"])
def test_cli_stdin_and_stdout_carry_the_file_bytes(tmp_path, monkeypatch, capsys, command):
    code_path = tmp_path / "steane.json"
    assert main(["construct", "stabilizer", "--name", "steane", "--out", str(code_path)]) == 0
    out = tmp_path / "out.txt"
    assert main([command, str(code_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "steane.json"]  # no .tmp
    capsys.readouterr()
    assert main([command, str(code_path)]) == 0
    assert capsys.readouterr().out == out.read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(code_path.read_text()))
    assert main([command, "-", "--out", "-"]) == 0
    assert capsys.readouterr().out == out.read_text()
    # a device is written in place, not replaced through a sibling temp file
    device = tmp_path / "null"
    device.symlink_to(os.devnull)
    assert main([command, str(code_path), "--out", str(device)]) == 0
    assert device.is_symlink() and not (tmp_path / "null.tmp").exists()


def test_cli_rejects_bad_numeric_input(tmp_path, capsys):
    ops = tmp_path / "ops.txt"
    ops.write_text("XI\nZI\n")
    sweep_args = ["sweep", "--n", "2", "--K", "1", "--d", "2", "--from", "0.2", "--to", "1.0"]
    for argv in (
        ["optimize", "--n", "2", "--K", "1", "--d", "2", "--restarts", "0"],
        ["optimize", "--n", "2", "--K", "1", "--d", "2", "--max-iters", "0"],
        ["jnr", "--operators", str(ops), "--K", "1", "--restarts", "0"],
        sweep_args + ["--step", "0"],
        sweep_args + ["--step", "-0.1"],
        ["optimize", "--n", "2", "--K", "0", "--d", "2", "--restarts", "1"],
        ["sweep", "--n", "2", "--K", "0", "--d", "2", "--grid", "0.5", "--restarts", "1"],
    ):
        assert main(argv) == 2, argv
    capsys.readouterr()
    # non-finite (and negative tolerance) values, and a lambda target outside
    # target_length mode, are refused before any search, by an error naming them
    for argv, name in (
        (["optimize", "--mu", "nan"], "mu"),
        (["optimize", "--mu", "inf"], "mu"),
        (["optimize", "--kl-tol", "nan"], "kl_tol"),
        (["optimize", "--kl-tol", "-1"], "kl_tol"),
        (["optimize", "--mode", "target_length", "--lambda-target", "nan"], "lambda_target"),
        (["optimize", "--mode", "kl_only", "--lambda-target", "inf"], "lambda_target"),
        (["optimize", "--mode", "target_length"], "lambda_target"),
        (["optimize", "--mode", "minimize_length", "--lambda-target", "0.5"], "lambda_target"),
        (["sweep", "--grid", "0.5,nan"], "grid"),
        (["sweep", "--grid", "inf"], "grid"),
        (["sweep", "--step", "nan"], "--step"),
        (["sweep", "--step", "inf"], "--step"),
        (["sweep", "--to", "inf"], "--to"),
        (["sweep", "--from", "nan"], "--from"),
        (["sweep", "--grid", "0.5", "--mu", "nan"], "mu"),
        (["sweep", "--grid", "0.5", "--kl-tol", "inf"], "kl_tol"),
    ):
        argv = [*argv, "--n", "2", "--K", "1", "--d", "2", "--restarts", "1"]
        assert main(argv) == 2, argv
        assert name in capsys.readouterr().err, argv
    # a comma-list entry that is not a number is named by its flag and position
    for argv, message in (
        (["construct", "family623", "--e-vector", "0.4,x"],
         "--e-vector entry 2 is not a number: 'x'"),
        (["sweep", "--n", "2", "--K", "1", "--grid", "0.5,,0.7"],
         "--grid entry 2 is not a number: ''"),
    ):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


def test_verify_rejects_negative_tolerance(tmp_path, capsys):
    # a negative tolerance used to call Steane invalid (exit 1)
    code_path = tmp_path / "steane.json"
    assert main(["construct", "stabilizer", "--name", "steane", "--out", str(code_path)]) == 0
    with pytest.raises(ValueError, match="tol"):
        verify_code(codespace_from_stabilizer(builtin("steane")), tol=-1.0)
    capsys.readouterr()
    assert main(["verify", str(code_path), "--kl-tol", "-1"]) == 2
    assert "tol must be non-negative" in capsys.readouterr().err


def test_signature_rejects_bad_tolerance(tmp_path, capsys):
    # a negative tolerance used to call Steane a non-code, a NaN one to accept any subspace
    code_path = tmp_path / "steane.json"
    assert main(["construct", "stabilizer", "--name", "steane", "--out", str(code_path)]) == 0
    capsys.readouterr()
    for tol in ("-1", "nan", "inf"):
        assert main(["signature", str(code_path), "--kl-tol", tol]) == 2, tol
        assert "tol must be non-negative and finite" in capsys.readouterr().err, tol


@pytest.mark.parametrize("command", [
    ["optimize"],
    ["sweep", "--grid", "0.5"],
])
def test_cli_rejects_code_dimension_above_hilbert_space(command):
    # K = 9 > 2^2 used to redraw rank-deficient starts forever, so the CLI runs
    # in a child process that a timeout can end
    src = Path(klscope.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "klscope", *command,
            "--n", "2", "--K", "9", "--d", "2", "--restarts", "1"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "1 <= K <= 4" in done.stderr


def _status(argv):
    """main's exit status, or the code of the SystemExit that argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, name", [
    (["construct", "family623"], "one of the arguments --theta --e-vector is required"),
    (["construct", "family999"], "invalid choice: 'family999'"),
    (["construct", "family723"], "--lambda-star"),
    (["construct", "family723", "--lambda-star", "1.0", "--branch", "x-"], "--branch"),
    (["construct", "family723", "--lambda-star", "1.0", "--branch", "+"], "--branch"),
    (["construct", "family723", "--lambda-star", "1.0", "--branch", "+-+"], "--branch"),
    (["construct", "stabilizer"], "generators"),
    (["construct", "family723", "--lambda-star", "nan"], "lambda*"),
    (["construct", "family723", "--lambda-star", "inf"], "lambda*"),
    (["construct", "family623", "--theta", "nan"], "theta"),
    (["construct", "family623", "--theta", "inf"], "theta"),
    (["construct", "family623", "--e-vector", "nan,0,0,0,0"], "e must"),
    (["construct", "family623", "--e-vector", "0.5,0,0,0,inf"], "e must"),
    (["construct", "family623", "--theta", "0.3", "--e-vector", "0.5,0,0,0,0"],
     "argument --e-vector: not allowed with argument --theta"),
    (["construct", "stabilizer", "--name", "steane", "--generators", os.devnull],
     "argument --generators: not allowed with argument --name"),
], ids=["family623-parameter", "unknown-kind", "no-lambda-star", "bad-sign", "one-sign",
        "three-signs", "no-generators", "lambda-nan", "lambda-inf", "theta-nan", "theta-inf",
        "e-nan", "e-inf", "theta-and-e-vector", "name-and-generators"])
def test_cli_construct_rejects_bad_input(argv, name, capsys):
    # the parser refuses a missing, unknown or conflicting flag (SystemExit); the
    # library refuses a bad value (status 2 from main); both name it
    assert _status(argv) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["construct", "permcode", "--theta", "0.3"],
    ["construct", "stabilizer", "--name", "steane", "--seed", "4"],
    ["construct", "family623", "--theta", "0", "--variant", "minus"],
], ids=["permcode-theta", "stabilizer-seed", "family623-variant"])
def test_cli_construct_refuses_another_familys_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


def test_cli_rejects_input_naming_it(tmp_path, capsys):
    empty = tmp_path / "ops.txt"
    empty.write_text("\n")
    assert main(["jnr", "--operators", str(empty), "--K", "1"]) == 2
    assert str(empty) in capsys.readouterr().err
    uneven = tmp_path / "uneven.txt"
    uneven.write_text("XI\nXIZ\n")
    assert main(["jnr", "--operators", str(uneven), "--K", "1"]) == 2
    assert "Pauli words of equal length, got lengths [2, 3]" in capsys.readouterr().err
    assert main(["construct", "family623", "--e-vector", "0.5,0,0"]) == 2
    assert "5 components" in capsys.readouterr().err


def test_cli_jnr(tmp_path):
    ops = tmp_path / "ops.txt"
    ops.write_text("XI\nXZ\nYI\nYZ\nZI\n")
    out = tmp_path / "jnr.csv"
    rc = main(["jnr", "--operators", str(ops), "--K", "2",
               "--restarts", "12", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].endswith("residual,hits")
    values = [list(map(float, ln.split(",")[:5])) for ln in lines[1:]]
    finals = sorted(v[4] for v in values)
    assert abs(finals[0] + 1) <= 1e-8 and abs(finals[-1] - 1) <= 1e-8


def test_cli_jnr_forms_no_dense_matrix(tmp_path):
    # 13 qubits is past dense_matrix's guard: the words reach the kernel as words
    ops = tmp_path / "ops.txt"
    ops.write_text("XIIIIIIIIIIIZ\nIZZIIIIIIIIII\nIIIIIIYIIIIII\n")
    out = tmp_path / "jnr.csv"
    assert main(["jnr", "--operators", str(ops), "--K", "1", "--restarts", "1",
                 "--max-iters", "5", "--out", str(out)]) == 0
    header, row = out.read_text().strip().splitlines()
    assert header == "XIIIIIIIIIIIZ,IZZIIIIIIIIII,IIIIIIYIIIIII,residual,hits"
    assert all(abs(float(v)) <= 1 for v in row.split(",")[:3])


def test_cli_error_exit_code(tmp_path):
    rc = main(["construct", "stabilizer", "--name", "nope",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_sweep_row_csv_format():
    assert SWEEP_CSV_HEADER == (
        "target_lambda_sq,final_loss,kl_violation,achieved_lambda_sq,restarts_used,wall_ms"
    )
    row = SweepRow(0.6, 1e-12, 1e-15, 0.6000001, 8, 123)
    assert row.csv() == "0.6,1e-12,1e-15,0.6000001,8,123"


def test_sweep_csv_round_trip_is_exact():
    rows = [
        SweepRow(0.1 + 0.2, 5e-324, 0.0, 1 / 3, 12, 0),
        SweepRow(1e300, 2.2250738585072014e-308, 1e-30, math.pi, 1, 98765),
    ]
    text = SweepResult(rows).csv()
    assert text.splitlines()[0] == SWEEP_CSV_HEADER
    assert read_sweep_csv(text) == rows
