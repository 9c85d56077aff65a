"""Penalty-based code search over the Stiefel manifold.

Candidate bases are parameterized by the polar map f(theta) =
theta (theta^dag theta)^{-1/2}; the losses combine the KL residual with a
penalty weight mu and a length objective (minimize, maximize, hit a target
length, or hit a target vector).  Gradients are analytic: the KL values
back-propagate through ``MarginalKernel.adjoint`` (the transposed subset
read-off of ``MarginalKernel.values``).  Every loss depends on the code's
projector alone, so its gradient is the horizontal projection
2 (I - psi psi^dag) g_psi R (Edelman, Arias & Smith, SIAM J. Matrix Anal.
Appl. 20, 1998), with no derivative of the polar map.  Each restart
descends with L-BFGS (gradient-only quasi-Newton) in three stages of
penalty weight MU_STAGES = (1, 1e3, 1e6) x mu, so converged points meet the
KL tolerance instead of the O(1/mu^2) single-stage penalty floor.  A stage
ends when its loss stops improving: at the first iteration whose accepted
decrease is at most STALL_TOL x |loss| (relative to the loss itself, so a
loss going to zero keeps its precision), or at the gradient tolerance
GRAD_TOL = 1e-9, which the stiff later stages rarely reach.

The restarts of a cold search are independent, each drawn from its own
SeedSequence child, so they run in forked worker processes, one per usable
core (``os.sched_getaffinity``), each owning one end of a duplex pipe.
Their outcomes are consumed in seed order and every stop decision is taken
on them in that order, so results are byte-identical for any core count;
``taskset -c 0`` runs them serially.  Stopping kills the workers: none holds
a lock the parent then waits on.
"""

import ctypes
import functools
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg  # noqa: F401  maps L-BFGS-B's OpenBLAS; scipy.optimize loads in _restarts

from .codespace import DEFAULT_KL_TOL, CodeSubspace, is_integer, kl_residual
# not called here: benchmarks/layers.py wraps these two names to count KL calls
from .codespace import kl_violation as codespace_kl_violation, signature_vector  # noqa: F401
from .pauli import ErrorBasis, MarginalKernel

LOSS_KINDS = ("kl_only", "minimize_length", "maximize_length", "target_length", "target_vector")

# relative size of the perturbation a warm start descends from
WARM_START_NOISE = 1e-3
# consecutive settled restarts after a warm one that end a warm-started search
SETTLE_RESTARTS = 2

# penalty weights of the escalation stages, in units of LossSpec.mu
MU_STAGES = (1.0, 1e3, 1e6)
# L-BFGS-B projected-gradient tolerance of every stage; under the stiff
# penalty weights few stages reach it, and the stall test ends the others
GRAD_TOL = 1e-9
# a stage stalls at the first iteration that lowers the loss f by at most
# STALL_TOL x |f|
STALL_TOL = 1000 * np.finfo(float).eps

JNR_RESIDUAL_TOL = 1e-9  # jnr_feasibility: largest KL residual of a feasible restart
JNR_DEDUP_TOL = 1e-6  # jnr_feasibility: value tuples this close (max norm) are one point


class ConditioningError(ValueError):
    """theta is too close to singular for the polar map."""


@dataclass(frozen=True, eq=False)
class LossSpec:
    kind: str
    mu: float = 1000.0
    target_length: float | None = None
    target_vector: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not 0 < self.mu < math.inf:  # also rejects NaN
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        if self.kind == "target_length" and self.target_length is None:
            raise ValueError("target_length loss needs a target length")
        if self.target_length is not None and not math.isfinite(self.target_length):
            raise ValueError(f"target_length must be finite, got {self.target_length}")
        if self.kind == "target_vector":
            if self.target_vector is None:
                raise ValueError("target_vector loss needs a target vector")
            v = np.array(self.target_vector, dtype=float)
            if not np.isfinite(v).all():
                raise ValueError("target_vector must be finite")
            v.setflags(write=False)
            object.__setattr__(self, "target_vector", v)


@dataclass(frozen=True)
class OptimizerConfig:
    seed: int = 0
    restarts: int = 50
    max_iters: int = 2000
    kl_tol: float = DEFAULT_KL_TOL
    stop_on_loss: float | None = None  # end restarts early once reached

    def __post_init__(self):
        for name, least in (("seed", 0), ("restarts", 1), ("max_iters", 1)):
            value = getattr(self, name)
            if not is_integer(value) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        if not 0 <= self.kl_tol < math.inf:  # also rejects NaN
            raise ValueError(f"kl_tol must be non-negative and finite, got {self.kl_tol}")
        if self.stop_on_loss is not None and not math.isfinite(self.stop_on_loss):
            raise ValueError(f"stop_on_loss must be finite, got {self.stop_on_loss}")


@dataclass(frozen=True)
class RestartSummary:
    """A restart's end point: loss, KL residual and lambda*^2 at weight
    ``spec.mu``, iterations of all stages, ``grad_norm``, the norm of the
    last stage's gradient as L-BFGS-B returned it, and ``stage_stops``, how
    each stage ended ("stalled", "line search", "gradient" or "iterations")."""

    seed_index: int
    final_loss: float
    kl_violation: float
    lambda_sq: float
    iterations: int
    grad_norm: float
    stage_stops: tuple


@dataclass
class OptimizationResult:
    """Best restart of a search.  ``converged``: its KL residual is at most
    ``kl_tol`` (a code was found), whatever the length objective reached.
    ``stop_reason``: "target" (``stop_on_loss`` reached), "settled" (see
    ``optimize``) or "budget" (neither; every restart ran)."""

    code: CodeSubspace
    kl_violation: float
    lambda_star: float
    final_loss: float
    iterations: int
    restarts_used: int
    converged: bool
    wall_time_ms: int
    stop_reason: str
    restart_summaries: list = field(default_factory=list)


def _stacked_action(ops, m=None, spec=None):
    """MarginalKernel of an ErrorBasis or of equal-length Pauli words (letter
    strings or PauliStrings); with ``m``, checked to act on m dimensions, and
    with a target_vector ``spec``, to have one operator per target entry."""
    action = ops.action if isinstance(ops, ErrorBasis) else MarginalKernel(ops)
    if m is not None and m != action.dim:
        raise ValueError(f"operators act on {action.dim.bit_length() - 1} qubits, "
                         f"the search space on {math.log2(m):g}")
    n_ops = action.readoff.shape[0]
    if spec is not None and spec.kind == "target_vector" and len(spec.target_vector) != n_ops:
        raise ValueError(f"target_vector has {len(spec.target_vector)} entries, "
                         f"but there are {n_ops} operators")
    return action


def _polar(theta):
    """Polar factor psi = theta R and R = (theta^dag theta)^{-1/2}."""
    lam, U = np.linalg.eigh(theta.conj().T @ theta)
    if lam[0] <= 0 or np.sqrt(lam[0]) < 1e-8 or lam[0] < 1e-14 * lam[-1]:
        raise ConditioningError(
            f"smallest singular value {np.sqrt(max(lam[0], 0.0)):.2e} too small"
        )
    R = (U / np.sqrt(lam)) @ U.conj().T
    return theta @ R, R


def stiefel_map(theta):
    """Map a full-rank 2^n x K matrix to a CodeSubspace via the polar factor."""
    theta = np.asarray(theta, dtype=complex)
    m, K = theta.shape
    n = int(m).bit_length() - 1
    if 2 ** n != m:
        raise ValueError(f"row count {m} is not a power of two")
    return CodeSubspace(n=n, K=K, basis=_polar(theta)[0])


def _length_term(spec, mean, length_sq):
    """Length objective of the loss and half its derivative in ``mean``."""
    if spec.kind == "kl_only":
        return 0.0, np.zeros_like(mean)
    if spec.kind == "minimize_length":
        return length_sq, mean
    if spec.kind == "maximize_length":
        return -length_sq, -mean
    if spec.kind == "target_length":
        gap = length_sq - spec.target_length ** 2
        return gap ** 2, 2 * gap * mean
    dv = mean - spec.target_vector  # target_vector
    return float(dv @ dv), dv


def _evaluate(theta, action, spec, mu, want_grad):
    """Loss (and gradient, KL residual, length^2) at theta."""
    psi, R = _polar(theta)
    K = psi.shape[1]
    Y, A = action.values(psi)
    kl, mean, dev = kl_residual(A)
    length_sq = float(mean @ mean)
    # kl_only is unweighted at the base stage; escalation still applies
    mu_eff = mu / spec.mu if spec.kind == "kl_only" else mu
    term, half_derivative = _length_term(spec, mean, length_sq)
    aux = {"kl": kl, "length_sq": length_sq, "components": mean}
    if want_grad:
        # dL = sum_a Re tr(M_a dA_a) (M_a Hermitian); the loss is a function of
        # psi psi^dag, so only g_psi's part orthogonal to psi moves it
        idx = np.arange(K)
        M = 2 * mu_eff * dev
        M[:, idx, idx] += (2 / K) * half_derivative[:, None]
        g_psi = action.adjoint(Y, M)
        aux["grad"] = 2 * (g_psi - psi @ (psi.conj().T @ g_psi)) @ R
    return mu_eff * kl + term, aux


def loss(theta, ops, spec):
    """Value of the selected loss at theta over ``ops`` (an ErrorBasis or Pauli words)."""
    theta = np.asarray(theta, dtype=complex)
    val, _ = _evaluate(theta, _stacked_action(ops, len(theta), spec), spec, spec.mu, False)
    return val


def gradient(theta, ops, spec):
    """Packed real gradient of ``loss``: dL/dRe(theta) + i dL/dIm(theta).

    A step theta - eta * gradient decreases the loss to first order; the
    directional derivative along a complex direction D is Re tr(grad^dag D).
    """
    theta = np.asarray(theta, dtype=complex)
    _, aux = _evaluate(theta, _stacked_action(ops, len(theta), spec), spec, spec.mu, True)
    return aux["grad"]


def _stop_reason(res):
    """How an L-BFGS-B run ended: "stalled" (the stall test, or scipy's own
    relative-reduction test), "gradient", "iterations" or "line search"."""
    if res.status == 99 or (res.status == 0 and "REDUCTION" in res.message):
        return "stalled"
    return {0: "gradient", 1: "iterations"}.get(res.status, "line search")


def _descend_lbfgs(theta, action, spec, mu, cfg):
    """One escalation stage of L-BFGS on the real-packed parameters, ended by
    the stall test or by L-BFGS-B; returns the end point, the iteration count,
    the norm of the gradient there, unpacked from L-BFGS-B's own (the packing
    is exact), and the stop reason."""
    m, K = theta.shape
    previous = math.inf

    def stall(intermediate_result):
        nonlocal previous
        f = float(intermediate_result.fun)
        if previous - f <= STALL_TOL * abs(f):
            raise StopIteration  # L-BFGS-B returns this accepted point and its gradient
        previous = f

    def unpack(x):
        return (x[: m * K] + 1j * x[m * K:]).reshape(m, K)

    def fun(x):
        try:
            f, aux = _evaluate(unpack(x), action, spec, mu, True)
        except ConditioningError:
            return np.inf, np.zeros_like(x)
        g = aux["grad"]
        return f, np.concatenate([g.real.ravel(), g.imag.ravel()])

    res = scipy.optimize.minimize(
        fun,
        np.concatenate([theta.real.ravel(), theta.imag.ravel()]),
        jac=True,
        method="L-BFGS-B",
        callback=stall,
        options=dict(maxiter=cfg.max_iters, ftol=1e-20, gtol=GRAD_TOL, maxcor=20),
    )
    return unpack(res.x), int(res.nit), float(np.linalg.norm(unpack(res.jac))), _stop_reason(res)


def _gaussian(rng, m, K):
    return (rng.standard_normal((m, K)) + 1j * rng.standard_normal((m, K))) / np.sqrt(2)


def _run_restart(seed_index, seq, m, K, action, spec, cfg, start=None):
    """One restart from a random start, or from ``start`` nudged by
    WARM_START_NOISE (relative, Frobenius) drawn from the same seed.

    Returns (RestartSummary, end point theta, per-operator mean diagonal):
    after the last stage one evaluation at the base weight gives the summary's
    loss, KL residual and lambda*^2, and the stage itself its ``grad_norm``.
    """
    rng = np.random.default_rng(seq)
    if start is not None:
        noise = _gaussian(rng, m, K)
        theta = start + WARM_START_NOISE * np.linalg.norm(start) / np.linalg.norm(noise) * noise
        _polar(theta)  # a rank-deficient start raises ConditioningError
    else:
        while True:
            theta = _gaussian(rng, m, K)
            try:
                _polar(theta)
                break
            except ConditioningError:
                continue  # measure-zero event: re-draw the start
    total_iters, stops = 0, []
    for scale in MU_STAGES:
        theta, iters, grad_norm, stop = _descend_lbfgs(theta, action, spec, spec.mu * scale, cfg)
        total_iters += iters
        stops.append(stop)
    base_loss, aux = _evaluate(theta, action, spec, spec.mu, False)
    summary = RestartSummary(
        seed_index=seed_index,
        final_loss=base_loss,
        kl_violation=aux["kl"],
        lambda_sq=aux["length_sq"],
        iterations=total_iters,
        grad_norm=grad_norm,
        stage_stops=tuple(stops),
    )
    return summary, theta, aux["components"]


def _usable_cores():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# name prefix and suffix of the thread-count calls of a system OpenBLAS and of
# the builds numpy (64-bit integers) and scipy ship
_OPENBLAS_NAMES = (("openblas", ""), ("openblas", "64_"),
                   ("scipy_openblas", ""), ("scipy_openblas", "64_"))


@functools.cache
def _openblas_thread_calls():
    """(set, get) thread-count calls of every OpenBLAS mapped into this process,
    looked up once: importing this module maps every OpenBLAS a restart calls."""
    paths = []
    with suppress(OSError), open("/proc/self/maps") as fh:  # absent off Linux: no pin
        paths = sorted({ln.split(None, 5)[5].strip() for ln in fh if "openblas" in ln})
    calls = []
    for lib in map(ctypes.CDLL, paths):
        for prefix, suffix in _OPENBLAS_NAMES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get is not None:
                set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                get.argtypes, get.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                calls.append((set_threads, get))
                break
    return tuple(calls)


@contextmanager
def _one_blas_thread():
    """Every OpenBLAS loaded in this process at one thread inside the block.

    Workers forked inside it inherit one thread each.  A fork stops OpenBLAS's
    thread pool, and setting the count in the child would restart it: its
    helpers then spin on the other workers' cores.
    """
    saved = [(set_threads, get()) for set_threads, get in _openblas_thread_calls()]
    for set_threads, _ in saved:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, count in saved:
            set_threads(count)


def _worker(conn, m, K, action, spec, cfg):
    """Run each seed that arrives on ``conn`` and send back its outcome, or
    the exception it raised; the parent kills the worker when done."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's to handle
    while True:
        r, seq = conn.recv()
        try:
            outcome = _run_restart(r, seq, m, K, action, spec, cfg)
        except Exception as exc:  # re-raised in the parent
            outcome = exc
        conn.send(outcome)


def _forked_restarts(m, K, action, spec, cfg, seeds, workers):
    """The outcomes of ``seeds`` in seed order, run by ``workers`` forked
    processes that each own one end of a duplex pipe and take the next seed
    as soon as they are free.  The kernel reaches them through fork, never
    pickled.  Closing kills and joins every worker, also on an exception or
    Ctrl-C; a worker's exception is re-raised here, and a dead worker's pipe
    raises EOFError."""
    fork = multiprocessing.get_context("fork")
    procs = {}  # parent end of the pipe -> worker
    try:
        for _ in range(workers):
            conn, child = fork.Pipe()
            proc = fork.Process(target=_worker, args=(child, m, K, action, spec, cfg), daemon=True)
            proc.start()
            procs[conn] = proc
            child.close()
        pending, running, done = iter(seeds), {}, {}  # running: pipe -> seed index

        def feed(conn):
            task = next(pending, None)
            if task is not None:
                conn.send(task)
                running[conn] = task[0]

        for conn in procs:
            feed(conn)
        for r in range(len(seeds)):
            while r not in done:
                for conn in multiprocessing.connection.wait(list(running)):
                    outcome = conn.recv()
                    if isinstance(outcome, Exception):
                        raise outcome
                    done[running.pop(conn)] = outcome
                    feed(conn)
            yield done.pop(r)
    finally:
        for proc in procs.values():
            proc.kill()
        for conn, proc in procs.items():
            proc.join()
            conn.close()


def _restarts(m, K, action, spec, cfg, start=None):
    """The outcomes of ``cfg.restarts`` seeded restarts, in seed order.

    ``start`` (if given) takes the first slot, and the whole search then runs
    in this process: it usually ends within 1 + SETTLE_RESTARTS restarts,
    fewer than forked workers pay for.  A cold search runs in forked workers,
    one per usable core (``_forked_restarts``).  Either way OpenBLAS runs one
    thread until the generator closes (a restart's calls are too small to
    gain from more, and an idle helper spins beside it).  Closing drops the
    outcomes computed ahead of the consumer and kills the workers."""
    if not is_integer(K) or not 1 <= K <= m:  # else the redraw of rank-deficient starts never ends
        raise ValueError(f"need an integer 1 <= K <= {m}, got K={K!r}")
    import scipy.optimize  # noqa: F401  once, before any fork; a process with no search saves 19 MB
    seeds = list(enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)))
    workers = 1 if start is not None else min(_usable_cores(), len(seeds))
    with _one_blas_thread():
        if workers < 2:
            for r, seq in seeds:
                yield _run_restart(r, seq, m, K, action, spec, cfg, start if r == 0 else None)
            return
        yield from _forked_restarts(m, K, action, spec, cfg, seeds, workers)


def _best(outcomes):
    """The best outcome by loss; within 1e-12 of it, the smallest KL residual."""
    best = min(outcomes, key=lambda o: (o[0].final_loss, o[0].kl_violation))
    for o in outcomes:
        if o[0].final_loss <= best[0].final_loss + 1e-12 and o[0].kl_violation < best[0].kl_violation:
            best = o
    return best


def optimize(n, K, ops, spec, config=None, *, start=None):
    """Multi-restart search over ``ops`` (an ErrorBasis or n-qubit Pauli
    words); returns the best restart by loss (ties by KL), whose summary gives
    the result's ``kl_violation``, ``lambda_star`` and ``converged``.

    ``start`` (a 2^n x K matrix, e.g. the basis of a nearby code) takes the
    first restart slot: that restart descends from ``start`` plus a seeded
    relative perturbation of WARM_START_NOISE.  The perturbation matters:
    extremal codes (lambda*^2 = 0.6 and 1 for ((6,2,3))) are stationary
    points of the length, and a descent started exactly on one stays there.
    The other restarts are the random ones of the same seed, so the budget
    stays ``config.restarts``.

    A warm-started search also stops once it has settled: SETTLE_RESTARTS
    restarts in a row after the warm one end KL-exact (residual <= kl_tol)
    without lowering the best loss by more than ``spec.mu * kl_tol``, and the
    best restart is KL-exact.  An infeasible target, where ``stop_on_loss``
    is out of reach, then costs 1 + SETTLE_RESTARTS restarts, not the whole
    budget.  Cold searches run until ``stop_on_loss`` or the budget.

    A cold search runs its restarts in forked workers, one per usable core; a
    warm-started one runs in this process.  Outcomes are taken in seed order,
    and those computed past a stop are dropped, so the result (restart
    summaries and ``stop_reason`` included) is the same for any number of
    cores.
    """
    if not is_integer(n):
        raise ValueError(f"n must be an integer, got n={n!r}")
    cfg = config or OptimizerConfig()
    m = 2 ** n
    action = _stacked_action(ops, m, spec)
    if start is not None:
        start = np.asarray(start, dtype=complex)
        if start.shape != (m, K) or not np.isfinite(start).all():
            raise ValueError(f"start must be a finite {m} x {K} matrix, got shape {start.shape}")
    t0 = time.perf_counter()
    outcomes = []
    settled = 0  # consecutive settled restarts after the warm one
    stop_reason = "budget"
    with closing(_restarts(m, K, action, spec, cfg, start)) as restarts:
        for outcome in restarts:
            summary = outcome[0]
            if start is not None and outcomes:
                floor = _best(outcomes)[0].final_loss - spec.mu * cfg.kl_tol
                exact = summary.kl_violation <= cfg.kl_tol
                settled = settled + 1 if exact and summary.final_loss >= floor else 0
            outcomes.append(outcome)
            if cfg.stop_on_loss is not None and summary.final_loss <= cfg.stop_on_loss:
                stop_reason = "target"
                break
            if settled >= SETTLE_RESTARTS and _best(outcomes)[0].kl_violation <= cfg.kl_tol:
                stop_reason = "settled"
                break

    best, theta, _ = _best(outcomes)
    return OptimizationResult(
        code=stiefel_map(theta),
        kl_violation=best.kl_violation,
        lambda_star=float(np.sqrt(max(best.lambda_sq, 0.0))),
        final_loss=best.final_loss,
        iterations=best.iterations,
        restarts_used=len(outcomes),
        converged=best.kl_violation <= cfg.kl_tol,
        wall_time_ms=int(round((time.perf_counter() - t0) * 1000)),
        stop_reason=stop_reason,
        restart_summaries=[o[0] for o in outcomes],
    )


@dataclass(frozen=True)
class JNRPoint:
    values: tuple
    residual: float
    hits: int


def jnr_feasibility(operators, K, config=None):
    """Feasible tuples of the rank-K joint numerical range of ``operators``,
    an ErrorBasis or equal-length Pauli words (no 2^n x 2^n matrix is formed).

    Runs multi-start KL-residual minimization for P A_i P = v_i P and returns
    the value tuples found with residual at most JNR_RESIDUAL_TOL, merging
    tuples within JNR_DEDUP_TOL (max norm) of an earlier one.  The restarts
    run in forked workers, one per usable core, and are deduplicated in seed
    order, so the points do not depend on the core count.
    """
    cfg = config or OptimizerConfig(restarts=200)
    action = _stacked_action(operators)
    spec = LossSpec(kind="kl_only", mu=1.0)
    points = []
    for summary, _, vals in _restarts(action.dim, K, action, spec, cfg):
        if summary.kl_violation <= JNR_RESIDUAL_TOL:
            for i, p in enumerate(points):
                if np.abs(vals - np.asarray(p.values)).max() <= JNR_DEDUP_TOL:
                    points[i] = JNRPoint(p.values, min(p.residual, summary.kl_violation), p.hits + 1)
                    break
            else:
                points.append(JNRPoint(tuple(float(v) for v in vals), summary.kl_violation, 1))
    return points
