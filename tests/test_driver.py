import json
import math

import pytest

from klscope.codespace import (
    code_from_json,
    code_to_json,
    kl_violation,
    lambda_star,
    signature_vector,
)
from klscope.driver import (
    SWEEP_CSV_HEADER,
    SweepRow,
    construct_code,
    main,
    read_sweep_csv,
    sweep,
    verify_code,
)
from klscope.optimizer import OptimizerConfig
from klscope.pauli import enumerate_error_basis

from literature_codes import SHOR_913


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


def test_sweep_threaded_matches_serial():
    grid = [0.4, 1.0, 1.8]
    serial = sweep(2, 1, 2, grid, mu=1000.0, config=fast_config(threads=1))
    pooled = sweep(2, 1, 2, grid, mu=1000.0, config=fast_config(threads=3))
    for a, b in zip(serial.rows, pooled.rows):
        assert a.target_lambda_sq == b.target_lambda_sq
        assert abs(a.achieved_lambda_sq - b.achieved_lambda_sq) <= 1e-6


def test_sweep_rows_sorted():
    result = sweep(2, 1, 2, [1.5, 0.2], mu=1000.0, config=fast_config())
    targets = [r.target_lambda_sq for r in result.rows]
    assert targets == sorted(targets)


def test_construct_family723_and_verify():
    code, info = construct_code("family723", lambda_star=1.0, branch="--")
    report = verify_code(code)
    assert report["valid"]
    assert abs(report["lambda_star"] - 1.0) <= 1e-8
    assert report["enumerator_consistent"]
    assert report["lu_drift"] <= 1e-9
    assert info["branch"] == "--"


def test_construct_family623_theta_and_e_vector():
    code, info = construct_code("family623", theta=0.0)
    basis = enumerate_error_basis(6, 3)
    assert abs(lambda_star(signature_vector(code, basis)) - 1.0) <= 1e-9

    e = [0.5 / math.sqrt(5)] * 5
    code2, info2 = construct_code("family623", theta=None, e_vector=e, seed=3)
    lam2 = lambda_star(signature_vector(code2, basis)) ** 2
    assert abs(lam2 - 0.6) <= 1e-9


def test_construct_permcode_and_stabilizer():
    code, _ = construct_code("permcode", variant="minus")
    basis = enumerate_error_basis(7, 3)
    assert abs(lambda_star(signature_vector(code, basis)) - math.sqrt(7)) <= 1e-9

    code2, info = construct_code("stabilizer", name="steane", rows=None)
    assert lambda_star(signature_vector(code2, basis)) <= 1e-9
    assert len(info["generators"]) == 6


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
    gens.write_text("\n".join(SHOR_913) + "\n")
    code_path = tmp_path / "shor.json"
    assert main(["construct", "stabilizer", "--generators", str(gens),
                 "--out", str(code_path)]) == 0
    report_path = tmp_path / "report.json"
    assert main(["verify", str(code_path), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["valid"] is True and report["enumerator_consistent"] is True
    assert abs(report["enumerator_lambda_sq"] - 9) <= 1e-9
    enum_path = tmp_path / "enum.csv"
    assert main(["enumerate", str(code_path), "--out", str(enum_path)]) == 0
    lines = enum_path.read_text().strip().splitlines()
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == list(range(10))


def test_non_isometric_code_json_rejected(tmp_path):
    code, _ = construct_code("stabilizer", name="steane")
    payload = json.loads(code_to_json(code))
    payload["amplitudes"][1] = [[2 * re, 2 * im] for re, im in payload["amplitudes"][1]]
    text = json.dumps(payload)
    with pytest.raises(ValueError, match="orthonormal"):
        code_from_json(text)
    path = tmp_path / "scaled.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2


def test_cli_construct_family_roundtrip(tmp_path):
    code_path = tmp_path / "cyc.json"
    rc = main(["construct", "family723", "--lambda-star", "1.0",
               "--branch=--", "--out", str(code_path)])
    assert rc == 0
    code = code_from_json(code_path.read_text())
    basis = enumerate_error_basis(7, 3)
    assert abs(lambda_star(signature_vector(code, basis)) - 1.0) <= 1e-10


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


def test_cli_optimize_with_config(tmp_path):
    cfg = {
        "n": 2, "K": 1, "d": 2, "mode": "target_length", "mu": 1000.0,
        "lambda_target": 1.0, "restarts": 3, "max_iters": 500,
        "seed": 5, "kl_tol": 1e-10,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "result.json"
    rc = main(["optimize", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["format"] == "klscope.result/1"
    assert payload["converged"]
    assert abs(payload["lambda_star"] - 1.0) <= 1e-6
    code = code_from_json(json.dumps(payload["code"]))
    assert kl_violation(code, enumerate_error_basis(2, 2)) <= 1e-10


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


def test_cli_error_exit_code(tmp_path):
    rc = main(["construct", "stabilizer", "--name", "nope",
               "--out", str(tmp_path / "x.json")])
    assert rc == 2


def test_sweep_row_csv_format():
    row = SweepRow(0.6, 1e-12, 1e-15, 0.6000001, 8, 123)
    text = row.csv()
    parts = text.split(",")
    assert len(parts) == 6
    assert float(parts[0]) == 0.6 and int(parts[4]) == 8
