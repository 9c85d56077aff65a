"""Write a BENCH_*.json record: the benchmark's workloads timed in alternating
pairs on a base checkout and on this one, with search quality next to the
timings.

Usage, from the repository root (the base is another checkout, for instance
``git archive <commit> | tar -x -C ../base``):

    python3 tools/bench.py --base ../base --out BENCH_19.json \
        --runs search:1606 verify:1606 signature-scan:1606 search:7

Timing: for each ``WORKLOAD:SEED`` of ``--runs`` (default: every workload of
BENCHMARK.json at seed 1606) ``benchmarks/run.py`` runs ``--pairs`` times on
each side for ``--seconds`` (default: BENCHMARK.json's run length), the side
that goes first alternating from pair to pair.  The record keeps every run's
end-to-end metrics and, per metric, each side's median and quartiles and the
number of pairs the head won.  run.py pins BLAS and OpenMP to one thread; the
record holds the machine and the thread settings it ran under.

Quality: one process per side runs every restart in process (so each
L-BFGS-B call is seen) on one BLAS thread, and records the evaluations and
iterations of one pass of the ``search`` workload, the criterion-6 sweep
(seed 1606, 31 points, its restarts and verdicts) and a per-restart table
(lambda*^2, KL residual, final loss, iterations, evaluations and how each
stage ended) of the fixed searches in SEARCHES; a target-length search's rows
also carry ``target_gap``, lambda*^2 minus the target.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (label, n, loss kind, target lambda*^2, seed, restarts); no stop_on_loss, so
# every restart runs
SEARCHES = [
    (f"n6-{kind[:3]}-s{seed}", 6, kind, None, seed, 12)
    for seed in (1, 2, 3, 20240623) for kind in ("minimize_length", "maximize_length")
] + [
    (f"n6-target{t}-s1606", 6, "target_length", t, 1606, 12) for t in (0.507, 0.8)
] + [("n7-max-s20240723", 7, "maximize_length", None, 20240723, 6)]


def verdict_holds(row):
    """Criterion 6's verdict on one sweep row; no verdict between the bands."""
    t = row.target_lambda_sq
    if 0.6 - 1e-9 <= t <= 1.0 + 1e-9:
        return row.final_loss <= 1e-8
    if t <= 0.55 + 1e-9 or t >= 1.05 - 1e-9:
        return row.final_loss >= 1e-3
    return True


def quality(checkout):
    """Evaluation counts and the per-restart table of one checkout."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks")]
    import scipy.optimize

    from klscope import optimizer
    from klscope.driver import sweep
    from klscope.optimizer import LossSpec, OptimizerConfig
    from klscope.pauli import enumerate_error_basis

    import harness
    import workloads

    optimizer._usable_cores = lambda: 1  # the same outcomes, all in this process
    stages = []
    minimize = scipy.optimize.minimize

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        stages.append({"iterations": int(res.nit), "evaluations": int(res.nfev),
                       "message": str(res.message)})
        return res

    scipy.optimize.minimize = counted
    out = {}
    with optimizer._one_blas_thread():
        setup = workloads.WORKLOADS["search"](1606)
        stages.clear()
        records, wall = harness.run_pass(setup.ops)
        out["search_pass"] = {
            "grid": setup.inputs, "wall_s": wall, "stages": len(stages),
            "statuses": [rec.status for rec in records],
            "evaluations": sum(s["evaluations"] for s in stages),
            "iterations": sum(s["iterations"] for s in stages),
        }

        grid = [round(0.5 + 0.02 * k, 10) for k in range(31)]
        stages.clear()
        t0 = time.perf_counter()
        rows = sweep(6, 2, 3, grid, mu=1000.0,
                     config=OptimizerConfig(seed=1606, restarts=12, stop_on_loss=1e-12)).rows
        out["criterion6_sweep"] = {
            "wall_s": time.perf_counter() - t0,
            "restarts": sum(r.restarts_used for r in rows),
            "evaluations": sum(s["evaluations"] for s in stages),
            "verdicts_hold": all(map(verdict_holds, rows)),
        }

        bases = {n: enumerate_error_basis(n, 3) for n in (6, 7)}
        out["searches"] = {}
        for label, n, kind, target_sq, seed, restarts in SEARCHES:
            spec = LossSpec(kind, mu=1000.0,
                            target_length=None if target_sq is None else math.sqrt(target_sq))
            stages.clear()
            t0 = time.perf_counter()
            res = optimizer.optimize(n, 2, bases[n], spec,
                                     OptimizerConfig(seed=seed, restarts=restarts))
            wall = time.perf_counter() - t0
            per_restart = len(optimizer.MU_STAGES)
            table = []
            for s in res.restart_summaries:
                own = stages[per_restart * s.seed_index: per_restart * (s.seed_index + 1)]
                table.append({
                    "restart": s.seed_index, "lambda_sq": s.lambda_sq, "kl": s.kl_violation,
                    "final_loss": s.final_loss, "iterations": s.iterations,
                    "evaluations": sum(st["evaluations"] for st in own),
                    "stage_ends": [st["message"] for st in own],
                })
                if target_sq is not None:  # each side's end point against its target
                    table[-1]["target_gap"] = s.lambda_sq - target_sq
            out["searches"][label] = {
                "wall_s": wall,
                "evaluations": sum(r["evaluations"] for r in table),
                "iterations": sum(r["iterations"] for r in table),
                "restarts": table,
            }
    return out


def run_once(checkout, workload, seed, seconds):
    """End-to-end metrics of one run.py run in ``checkout``."""
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True, timeout=600)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in line["metrics"].items()} | {
        "failed": line["failed"], "attempted": line["attempted"]}


def side_quality(checkout):
    done = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--quality",
                           str(checkout)], capture_output=True, text=True, check=True,
                          timeout=1800, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    return json.loads(done.stdout)


def summarize(runs, better):
    """Per metric: each side's median and quartiles, and the pairs head won."""
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        base = [r[name] for r in runs["base"]]
        head = [r[name] for r in runs["head"]]
        out[name] = {side: dict(zip(("q1", "median", "q3"), statistics.quantiles(vals, n=4)))
                     for side, vals in (("base", base), ("head", head))}
        out[name]["head_wins"] = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    return out


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="checkout to compare against")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--runs", nargs="+", metavar="WORKLOAD:SEED",
                        default=[f"{w['name']}:1606" for w in config["workloads"]])
    parser.add_argument("--quality", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # each side's quartiles need two runs
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    if args.quality:
        json.dump(quality(args.quality.resolve()), sys.stdout)
        return 0
    if args.base is None or args.out is None:
        parser.error("--base and --out are required")
    sides = {"base": args.base.resolve(), "head": ROOT}
    better = {m["name"]: m["better"] for m in config["end_to_end"]}

    sys.path.insert(0, str(ROOT / "benchmarks"))
    import run as bench_run

    bench_run.pin_threads(os.environ)  # the settings every run.py run uses
    record = {"machine": bench_run.environment(), "pairs": args.pairs,
              "seconds": args.seconds, "workloads": []}
    for spec in args.runs:
        workload, seed = spec.split(":")
        runs = {side: [] for side in sides}
        for pair in range(args.pairs):
            order = list(sides) if pair % 2 == 0 else list(sides)[::-1]  # alternate who runs first
            for side in order:
                runs[side].append(run_once(sides[side], workload, int(seed), args.seconds))
                print(workload, seed, side, runs[side][-1], file=sys.stderr, flush=True)
        record["workloads"].append({"workload": workload, "seed": int(seed),
                                    "summary": summarize(runs, better), "runs": runs})
    record["quality"] = {side: side_quality(checkout) for side, checkout in sides.items()}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
