"""Tests for the benchmark's own code: spans, op accounting, checks, smoke runs.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import harness
import run
import workloads
from harness import FAILED, MISSED, OK, REFUSED, Batch, Op, end_to_end, run_pass
from layers import PER_LAYER
from tracing import Span, Tracer, installed, self_times

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _ticks(*values):
    it = iter(values)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=_ticks(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0))
    with tracer.span("a", "x"):
        with tracer.span("b", "y"):
            with tracer.span("c", "z"):
                pass
        with tracer.span("d", "y"):
            pass
    names = [s.name for s in tracer.spans]
    assert names == ["a", "b", "c", "d"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 0]
    # a: 10 - (b 3 + d 2); b: 3 - c 1
    assert self_times(tracer.spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("p", "x", 0.0, 10.0),
        Span("c1", "y", 1.0, 5.0, parent=0),
        Span("c2", "y", 3.0, 6.0, parent=0),
        Span("c3", "y", 9.0, 12.0, parent=0),  # clipped to the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_wrapper_records_error_and_restores_original():
    module = SimpleNamespace(f=lambda x: x + 1, g=lambda: 1 / 0)
    original_f = module.f
    tracer = Tracer()
    targets = [(module, "f", "m.f", "x", lambda a, k, r: {"out": r}),
               (module, "g", "m.g", "x", None)]
    with installed(tracer, targets):
        assert module.f(1) == 2
        with pytest.raises(ZeroDivisionError):
            module.g()
    assert module.f is original_f
    assert tracer.spans[0].info == {"out": 2}
    assert tracer.spans[1].error.startswith("ZeroDivisionError")


def _op(op_id, status=OK, raises=None, refused=harness._never):
    def runner():
        if raises is not None:
            raise raises
        return status

    return Op(op_id, runner, lambda out: (out, {"value": 1}), refused)


def test_op_that_raises_fails_and_is_excluded_from_ops_per_s():
    ops = [
        _op("ok"),
        _op("raises", raises=RuntimeError("boom")),
        _op("refused", raises=ValueError("enumerator guard: n=9 exceeds 8"),
            refused=workloads.enumerator_guard),
        _op("missed", status=MISSED),
        Op("bad-check", lambda: None, lambda out: out["missing"]),
    ]
    records, wall = run_pass(ops, clock=itertools.count().__next__)
    assert [r.status for r in records] == [OK, FAILED, REFUSED, MISSED, FAILED]
    assert records[1].error == "RuntimeError: boom"
    e2e = end_to_end([(records, wall)])
    assert (e2e["attempted"], e2e["ok"], e2e["failed"], e2e["refused"], e2e["missed"]) == (
        5, 1, 2, 1, 1)
    assert e2e["ops_per_s"] == 1 / wall
    assert e2e["failed_frac"] == 2 / 5


def test_search_verdict_follows_criterion_6():
    def row(target, achieved, kl=0.0, loss=None):
        if loss is None:
            loss = (achieved - target) ** 2 + kl
        return SimpleNamespace(target_lambda_sq=target, achieved_lambda_sq=achieved,
                               kl_violation=kl, final_loss=loss, restarts_used=3)

    assert workloads.search_verdict(0.7, row(0.7, 0.7))[0] == OK
    assert workloads.search_verdict(0.7, row(0.7, 0.84))[0] == MISSED
    assert workloads.search_verdict(0.52, row(0.52, 0.6))[0] == OK
    assert workloads.search_verdict(0.52, row(0.52, 0.52))[0] == FAILED
    assert workloads.search_verdict(1.07, row(1.07, 1.0))[0] == OK
    assert workloads.search_verdict(0.7, row(0.7, 0.7, loss=1.0))[0] == FAILED


def test_verify_verdict_needs_every_check():
    good = {"kl_violation": 0.0, "valid": True, "enumerator_consistent": True,
            "lambda_star": 1.0, "enumerator_lambda_sq": 1.0, "lu_drift": 1e-15}
    assert workloads.verify_verdict(1.0, good)[0] == OK
    assert workloads.verify_verdict(1.0 + 1e-7, good)[0] == FAILED
    assert workloads.verify_verdict(1.0, {**good, "lu_drift": 1e-8})[0] == FAILED
    assert workloads.verify_verdict(1.0, {**good, "enumerator_consistent": False})[0] == FAILED


def test_batch_times_each_output_and_fails_the_ops_it_never_reached():
    def sweep(report):
        report(1)
        report(2)
        raise RuntimeError("stopped")

    check = lambda out: (OK, {"out": out})  # noqa: E731
    batch = Batch("b", ("b0", "b1", "b2"), sweep, (check, check, check))
    records, wall = run_pass([batch], clock=itertools.count().__next__)
    assert [r.status for r in records] == [OK, OK, FAILED]
    assert [r.recorded for r in records[:2]] == [{"out": 1}, {"out": 2}]
    assert records[2].error == "RuntimeError: stopped"
    assert [r.seconds for r in records] == [1, 1, 1]
    assert wall == 5


def test_inputs_repeat_for_a_seed():
    a = workloads.setup_search(5, low=1, feasible=2, high=1).inputs
    b = workloads.setup_search(5, low=1, feasible=2, high=1).inputs
    c = workloads.setup_search(6, low=1, feasible=2, high=1).inputs
    assert a == b and a != c
    grid = a["grid"]
    assert grid == sorted(grid)
    assert all(workloads.is_feasible_target(t) for t in grid[1:3])
    assert grid[0] <= 0.55 and grid[3] >= 1.05


TINY = {
    "search": {"low": 1, "feasible": 1, "high": 1},
    "verify": {"thetas": 1, "lambdas": 1},
    "signature-scan": {"per_code": 2},
}

COUNTS = [name for name, (unit, _) in PER_LAYER.items() if unit == "count"] + [
    "codespace.kl_bytes_computed", "optimizer.hit_rate"]


def _traced(workload, seed=3):
    record = run.measure(workload, seed, seconds=0, trace=1, size=TINY[workload])
    line = run.result_line(record)
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == set(PER_LAYER)
    assert record["end_to_end"]["passes"] == 1
    return record, line


@pytest.mark.parametrize("workload", ["search", "signature-scan"])
def test_smoke_counters_repeat_exactly(workload):
    first, line = _traced(workload)
    second, _ = _traced(workload)
    assert {k: first["per_layer"][k] for k in COUNTS} == {
        k: second["per_layer"][k] for k in COUNTS}
    metrics = first["per_layer"]
    assert metrics["enumerators.calls"] == 0
    if workload == "search":
        assert metrics["optimizer.calls"] == 3
        assert metrics["optimizer.restarts"] >= 2 * workloads.SEARCH_RESTARTS + 1
        assert metrics["optimizer.feasible_restarts"] >= 1
    else:
        assert metrics["optimizer.calls"] == 0
        assert metrics["codespace.lu_calls"] == 10
        assert metrics["stabilizer.extract_ms.n9"] > 0


def test_smoke_verify_layer_split():
    record, _ = _traced("verify")
    metrics = record["per_layer"]
    assert metrics["optimizer.calls"] == 0
    assert metrics["enumerators.refused"] == 1  # Shor [[9,1,3]], n = 9 > 8
    assert metrics["enumerators.words"] == sum(
        4 ** n for n in (5, 6, 7, 7, 6, 7, 8))
    assert max(record["layer_self_s"], key=record["layer_self_s"].get) == "enumerators"
    statuses = {op["op_id"]: op["status"] for op in record["ops"]}
    assert statuses.pop("verify:shor913") == REFUSED
    assert set(statuses.values()) == {OK}


def test_untraced_run_reports_every_end_to_end_metric():
    record = run.measure("signature-scan", 4, seconds=0, trace=0, size=TINY["signature-scan"])
    record["import_times_s"] = run.fresh_import_times(2)
    line = run.result_line(record)
    assert list(line["metrics"]) == list(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert len(record["setup_times_s"]) == run.SETUP_REPEATS


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
