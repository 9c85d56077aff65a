"""klscope benchmark: one workload, one process, one closed loop on one core.

Usage, from the repository root:

    python3 benchmarks/run.py --workload search --seed 1606 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all      # each workload in its own process

Workloads: ``search``, ``verify`` and ``signature-scan`` (see workloads.py).
The run pins BLAS and OpenMP to one thread and unsets ``KLSCOPE_THREADS``
before numpy loads, imports klscope from ``src/`` of this checkout, builds the
workload's inputs from ``--seed`` (set-up, repeated and timed), then runs
passes over the fixed op list until the next pass would end after
``--seconds``; there is always at least one pass.

With ``--trace 0`` the result line holds the end-to-end metrics: ``wall_s``
(median seconds per pass), ``ops_per_s`` (median over passes of the ops that
passed their check per second), ``op_p50_ms`` (median op latency),
``setup_s`` (median klscope import, this one and two in fresh interpreters,
plus the median of three set-ups) and ``peak_rss_mb``.
``failed_frac`` is ``failed / attempted`` of the same line and is printed in
the summary with the refused and missed ops (harness.py).  With
``--trace 1`` each untraced pass is followed by a traced one and the result
line holds the per-layer metrics of one set-up plus one pass (layers.py).

Output: an ``env`` line, a summary, and as the last line one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (environment, inputs, per-op quality fields, spans) is written under
``benchmarks/results/``.  Exits 2 without a result when klscope cannot be
imported from this checkout.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("search", "verify", "signature-scan")
SETUP_REPEATS = 3
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def pin_threads(environ):
    """One BLAS/OpenMP thread and no klscope worker pool; call before numpy loads."""
    environ.update(THREAD_PINS)
    environ.pop("KLSCOPE_THREADS", None)


def import_klscope():
    """Import klscope from this checkout's src/; returns the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import klscope

    elapsed = time.perf_counter() - start
    if SRC not in Path(klscope.__file__).resolve().parents:
        raise ImportError(f"klscope resolved to {klscope.__file__}, not under {SRC}")
    return elapsed


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import klscope; print(time.perf_counter() - start)"
)


def fresh_import_times(count):
    """Seconds to import klscope in ``count`` fresh interpreters, one after another."""
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        times.append(float(proc.stdout))
    return times


def environment():
    import numpy
    import scipy

    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": info.get("name"), "version": info.get("version")}

    thread_vars = sorted({k for k in os.environ if "THREAD" in k}
                         | set(THREAD_PINS) | {"MKL_NUM_THREADS", "KLSCOPE_THREADS"})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
    }


def measure(workload, seed, seconds, trace, size=None):
    """Run one workload in this process; returns the full result record."""
    from klscope import pauli

    from harness import end_to_end, run_pass
    from layers import layer_metrics, targets
    from tracing import Tracer, installed
    from workloads import WORKLOADS

    setup_fn = WORKLOADS[workload]
    size = size or {}
    tracer = Tracer() if trace else None
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        pauli.enumerate_error_basis.cache_clear()
        start = time.perf_counter()
        if trace:
            tracer.op = "setup"
            with installed(tracer, targets()):
                setup = setup_fn(seed, tracer=tracer, **size)
            tracer.op = None
        else:
            setup = setup_fn(seed, **size)
        setup_times.append(time.perf_counter() - start)

    passes, traced = [], []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(setup.ops))
        if trace:
            with installed(tracer, targets()):
                traced.append(run_pass(setup.ops, tracer))
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > seconds:
            break

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "inputs": setup.inputs,
        "setup_times_s": setup_times,
        "end_to_end": end_to_end(passes),
        "pass_walls_s": [wall for _, wall in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": [vars(rec) for rec in passes[0][0]],
    }
    if trace:
        metrics, layer_self = layer_metrics(tracer.spans, len(traced))
        untraced_s = sum(wall for _, wall in passes)
        metrics["trace.overhead_frac"] = sum(wall for _, wall in traced) / untraced_s - 1
        record["end_to_end_traced"] = end_to_end(traced)
        record["per_layer"] = metrics
        record["layer_self_s"] = layer_self
        record["tracer"] = tracer
    return record


def result_line(record):
    from layers import PER_LAYER

    e2e = record["end_to_end"]
    if record["trace"]:
        metrics = {
            name: {"value": record["per_layer"][name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
        accounting = [record["end_to_end"], record["end_to_end_traced"]]
    else:
        values = {
            "wall_s": e2e["wall_s"],
            "ops_per_s": e2e["ops_per_s"],
            "op_p50_ms": e2e["op_p50_ms"],
            "setup_s": statistics.median(record["import_times_s"])
            + statistics.median(record["setup_times_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
                   for name in END_TO_END_UNITS}
        accounting = [e2e]
    attempted = sum(a["attempted"] for a in accounting)
    failed = sum(a["failed"] for a in accounting)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def summary(record, line):
    e2e = record["end_to_end"]
    out = [
        f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"passes={e2e['passes']} ops={e2e['attempted']} ok={e2e['ok']} "
        f"failed={e2e['failed']} refused={e2e['refused']} missed={e2e['missed']}"
    ]
    for name, metric in line["metrics"].items():
        note = f"  (n={e2e['attempted']})" if name == "op_p50_ms" else ""
        out.append(f"  {name:32s} {metric['value']:.6g} {metric['unit']}{note}")
    if not record["trace"]:
        out.append(f"  {'failed_frac':32s} {e2e['failed_frac']:.6g} 1"
                   f"  (refused {e2e['refused']}, missed {e2e['missed']} of {e2e['attempted']})")
    else:
        shares = ", ".join(f"{k} {v:.4g}" for k, v in
                           sorted(record["layer_self_s"].items(), key=lambda kv: -kv[1]))
        out.append(f"  layer self time, s: {shares}")
    return "\n".join(out)


def run_all(args):
    codes = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, check=False).returncode)
    return max(codes)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1606)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    pin_threads(os.environ)
    try:
        import_s = import_klscope()
    except ImportError as exc:
        print(f"error: cannot import klscope from {SRC}: {exc}", file=sys.stderr)
        return 2

    record = measure(args.workload, args.seed, args.seconds, args.trace)
    record["env"] = environment()
    record["import_times_s"] = [import_s]
    if not args.trace:
        record["import_times_s"] += fresh_import_times(SETUP_REPEATS - 1)
    line = result_line(record)
    record["result"] = line

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}-spans.jsonl")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("env " + json.dumps(record["env"]))
    print(summary(record, line))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
