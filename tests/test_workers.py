"""Restarts run in forked workers, one per usable core: the results must not
depend on the core count, and no worker may outlive the call that forked it."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path

import pytest

from klscope import optimizer
from klscope.driver import SWEEP_CSV_HEADER, SweepRow, sweep
from klscope.optimizer import LossSpec, OptimizerConfig, optimize
from klscope.pauli import enumerate_error_basis

SRC = str(Path(__file__).resolve().parents[1] / "src")
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

needs_two_cores = pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="needs at least two usable cores")

# argv[1] == "1": pin to one CPU before numpy loads, so every restart runs in-process
_SEARCHES = """
import os, sys
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import dataclasses, hashlib
from klscope.driver import sweep
from klscope.optimizer import LossSpec, OptimizerConfig, jnr_feasibility, optimize
from klscope.pauli import enumerate_error_basis

print(len(os.sched_getaffinity(0)))

def show(res):
    print(hashlib.sha256(res.code.basis.tobytes()).hexdigest(), res.stop_reason,
          res.restarts_used, repr(res.restart_summaries))

# cold, hits at its third restart: the restarts started past it are dropped
spec = LossSpec("target_length", mu=1000.0, target_length=0.8 ** 0.5)
show(optimize(6, 2, enumerate_error_basis(6, 3), spec,
              OptimizerConfig(seed=1, restarts=8, stop_on_loss=1e-12)))
# an unreachable target: cold spends its budget, warm settles
basis = enumerate_error_basis(2, 2)
spec = LossSpec("target_length", mu=1000.0, target_length=2.5 ** 0.5)
cfg = OptimizerConfig(seed=3, restarts=6, stop_on_loss=1e-12)
cold = optimize(2, 1, basis, spec, cfg)
show(cold)
show(optimize(2, 1, basis, spec, cfg, start=cold.code.basis))
# the benchmark's search grid at workload seed 1606
grid = [0.5069777060139263, 0.6850017165945185, 0.7688959036575356,
        0.9374430290821671, 1.0928404172222648]
for row in sweep(6, 2, 3, grid).rows:
    print(dataclasses.replace(row, wall_ms=0).csv())
ops = ["XI", "XZ", "YI", "YZ", "ZI"]
print(repr(jnr_feasibility(ops, 2, OptimizerConfig(seed=5, restarts=40))))
"""


@needs_two_cores
def test_results_are_byte_identical_for_one_core_and_all():
    outputs = []
    for pin in ("1", "0"):
        done = subprocess.run([sys.executable, "-c", _SEARCHES, pin], env=ENV,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        cores, _, rest = done.stdout.partition("\n")
        outputs.append((int(cores), rest))
    (one, pinned), (many, free) = outputs
    assert one == 1 and many >= 2
    assert pinned.count("\n") == 3 + 5 + 1
    assert pinned == free


@needs_two_cores
def test_sweep_leaves_no_worker_behind(monkeypatch):
    seen, opened = [], []
    run = optimizer._forked_restarts

    def watched(*args):
        with closing(run(*args)) as outcomes:
            opened.append(outcomes)  # so only closing, not collection, can end them
            for outcome in outcomes:
                seen.append(len(multiprocessing.active_children()))
                yield outcome

    monkeypatch.setattr(optimizer, "_forked_restarts", watched)
    cfg = OptimizerConfig(seed=0, restarts=4, stop_on_loss=1e-14)
    sweep(2, 1, 2, [2.5, 0.5], config=cfg)
    assert seen[0] >= 2  # the cold first point ran in workers
    assert multiprocessing.active_children() == []


# cold searches that hit early, so each closes its workers while some of
# them are still running or sending an outcome
_EARLY_STOPS = """
from klscope.optimizer import LossSpec, OptimizerConfig, optimize
from klscope.pauli import enumerate_error_basis

spec = LossSpec("target_length", mu=1000.0, target_length=0.5 ** 0.5)
for seed in range(200):
    optimize(2, 1, enumerate_error_basis(2, 2), spec,
             OptimizerConfig(seed=seed, restarts=40, stop_on_loss=1e-12))
"""


@needs_two_cores
def test_early_stopped_searches_do_not_hang():
    # a pool killed while a worker held its result queue's lock used to hang here
    done = subprocess.run([sys.executable, "-c", _EARLY_STOPS], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


class _Stop(Exception):
    pass


@needs_two_cores
def test_raising_on_row_leaves_no_worker_behind():
    raised = _Stop("first row")

    def on_row(row):
        raise raised

    cfg = OptimizerConfig(seed=0, restarts=4, stop_on_loss=1e-14)
    with pytest.raises(_Stop) as info:
        sweep(2, 1, 2, [2.5, 0.5, 1.0], config=cfg, on_row=on_row)
    assert info.value is raised
    assert multiprocessing.active_children() == []


@needs_two_cores
def test_failing_restart_in_a_worker_leaves_no_worker_behind(monkeypatch):
    run = optimizer._run_restart

    def failing(seed_index, *args):
        if seed_index == 2:
            raise _Stop(f"restart {seed_index}")
        return run(seed_index, *args)

    monkeypatch.setattr(optimizer, "_run_restart", failing)  # forked workers inherit it
    spec = LossSpec("target_length", mu=1000.0, target_length=2.5 ** 0.5)
    with pytest.raises(_Stop, match="restart 2"):
        optimize(2, 1, enumerate_error_basis(2, 2), spec, OptimizerConfig(seed=0, restarts=6))
    assert multiprocessing.active_children() == []


def _children_of(pid):
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while listed
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


@needs_two_cores
def test_interrupted_cli_sweep_keeps_complete_rows_and_no_worker(tmp_path):
    # a resumed sweep starts cold, so its first new point runs in workers
    out = tmp_path / "sweep.csv"
    previous = SWEEP_CSV_HEADER + "\n" + SweepRow(0.7, 1e-20, 1e-30, 0.7, 1, 10).csv() + "\n"
    out.write_text(previous)
    argv = [sys.executable, "-m", "klscope", "sweep", "--n", "6", "--K", "2",
            "--grid", "0.7,0.52,1.09", "--restarts", "40", "--resume", str(out)]
    proc = subprocess.Popen(argv, env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 120
        while len(workers := _children_of(proc.pid)) < 2:
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "no workers within 120 s"
            time.sleep(0.05)
        time.sleep(0.5)
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) != 0
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert out.read_text() == previous
    assert not [pid for pid in workers if Path(f"/proc/{pid}").exists()]
