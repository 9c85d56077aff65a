"""Closed-loop op runner and end-to-end accounting.

An op is one call into klscope plus a check of its output, or one output of a
call that serves several ops in order (a batch: a sweep over a grid).  Ops run
one at a time on one thread: the next starts when the previous one is done.
Each op ends in one status:

- ``ok``: it returned and its output passed the workload's check;
- ``failed``: it raised an unexpected error, or its output is wrong;
- ``refused``: it raised an error the program documents for its input (the
  weight-enumerator guard on n > 8 qubits);
- ``missed``: the search ended short of a feasible target within its restart
  budget (a false "infeasible" verdict under the criterion-6 thresholds).

Refused and missed ops are known limits of the program and are
counted apart from ``failed``; none of the three counts towards ``ops_per_s``.
"""

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

OK, FAILED, REFUSED, MISSED = "ok", "failed", "refused", "missed"
STATUSES = (OK, FAILED, REFUSED, MISSED)


def _never(exc):
    return False


@dataclass(frozen=True)
class Op:
    op_id: str
    run: Callable[[], object]
    check: Callable[[object], tuple]  # output -> (status, recorded fields)
    refused: Callable[[Exception], bool] = _never


@dataclass(frozen=True)
class Batch:
    """Ops served by one call: ``run(report)`` calls ``report(output)`` as each
    op's output is ready, in op order.  An op's latency runs from the previous
    output (or the call) to its own output."""

    batch_id: str
    op_ids: tuple
    run: Callable[[Callable[[object], None]], object]
    checks: tuple  # one output -> (status, recorded fields) per op


@dataclass
class OpRecord:
    op_id: str
    status: str
    seconds: float
    recorded: dict = field(default_factory=dict)
    error: str | None = None


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


def _checked(op_id, check, out, seconds):
    try:
        status, recorded = check(out)
    except Exception as exc:
        return OpRecord(op_id, FAILED, seconds, error="check: " + _error(exc))
    if status not in STATUSES:
        raise ValueError(f"op {op_id}: unknown status {status!r}")
    return OpRecord(op_id, status, seconds, recorded)


def run_op(op, clock=time.perf_counter):
    """Run and time one op, then check its output outside the timed region."""
    start = clock()
    try:
        out = op.run()
    except Exception as exc:  # an op that raises is accounted, not fatal
        status = REFUSED if op.refused(exc) else FAILED
        return OpRecord(op.op_id, status, clock() - start, error=_error(exc))
    return _checked(op.op_id, op.check, out, clock() - start)


def run_batch(batch, clock=time.perf_counter):
    """Run one batch; ops left without an output when it raises have failed."""
    outputs = []
    start = clock()
    error = "no output"
    try:
        batch.run(lambda out: outputs.append((out, clock())))
    except Exception as exc:
        error = _error(exc)
    end = clock()
    records, prev = [], start
    for k, (op_id, check) in enumerate(zip(batch.op_ids, batch.checks)):
        if k < len(outputs):
            out, done = outputs[k]
            records.append(_checked(op_id, check, out, done - prev))
            prev = done
        else:
            records.append(OpRecord(op_id, FAILED, end - prev, error=error))
            prev = end
    return records


def run_pass(items, tracer=None, clock=time.perf_counter):
    """One pass over a list of ops and batches; returns (records, wall seconds)."""
    records = []
    start = clock()
    for item in items:
        if isinstance(item, Batch):
            item_id, run = item.batch_id, lambda: run_batch(item, clock)
        else:
            item_id, run = item.op_id, lambda: [run_op(item, clock)]
        if tracer is None:
            records.extend(run())
            continue
        tracer.op = item_id
        try:
            with tracer.span("benchmark.op", "bench"):
                records.extend(run())
        finally:
            tracer.op = None
    return records, clock() - start


def end_to_end(passes):
    """Timing metrics and op accounting over ``[(records, wall), ...]``."""
    records = [rec for recs, _ in passes for rec in recs]
    counts = {status: 0 for status in STATUSES}
    for rec in records:
        counts[rec.status] += 1
    attempted = len(records)
    return {
        "wall_s": statistics.median(wall for _, wall in passes),
        "ops_per_s": statistics.median(
            sum(rec.status == OK for rec in recs) / wall for recs, wall in passes),
        "op_p50_ms": 1e3 * statistics.median(rec.seconds for rec in records),
        "passes": len(passes),
        "attempted": attempted,
        "failed_frac": counts[FAILED] / attempted,
        **counts,
    }
