import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from klscope.codespace import kl_violation, lambda_star, signature_vector
from klscope import optimizer
from klscope.optimizer import (
    SETTLE_RESTARTS,
    ConditioningError,
    LossSpec,
    OptimizerConfig,
    gradient,
    jnr_feasibility,
    loss,
    optimize,
    stiefel_map,
)
from klscope.families import code_623, single_param_frame_623
from klscope.pauli import enumerate_error_basis, pauli_from_string
from klscope.stabilizer import builtin, codespace_from_stabilizer

np_rng = np.random.default_rng(314159)


def random_theta(m, K):
    return np_rng.standard_normal((m, K)) + 1j * np_rng.standard_normal((m, K))


_THREAD_CHECK = """
import hashlib
from klscope.optimizer import LossSpec, OptimizerConfig, optimize
from klscope.pauli import enumerate_error_basis
res = optimize(7, 2, enumerate_error_basis(7, 3), LossSpec("maximize_length"),
               OptimizerConfig(seed=7, restarts=2, max_iters=200))
print(hashlib.sha256(res.code.basis.tobytes()).hexdigest())
print(repr(res.restart_summaries))
"""


def test_search_is_blas_thread_invariant():
    # the same search, run with one and with two BLAS threads, gives the same bytes
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _THREAD_CHECK], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


_BLAS_POLICY = """
import ctypes
import numpy as np
from klscope import optimizer
from klscope.optimizer import LossSpec, OptimizerConfig, optimize
from klscope.pauli import enumerate_error_basis

def thread_counts():
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split(None, 5)[5].strip() for ln in fh if "openblas" in ln})
    counts = []
    for lib in map(ctypes.CDLL, paths):
        for prefix, suffix in optimizer._OPENBLAS_NAMES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get is not None:
                counts.append(get())
                break
    return counts

inside = []
run = optimizer._run_restart

def recording(*args):
    inside.append(thread_counts())
    return run(*args)

optimizer._run_restart = recording
before = thread_counts()
spec = LossSpec("target_length", mu=1000.0, target_length=2.5 ** 0.5)
res = optimize(2, 1, enumerate_error_basis(2, 2), spec, OptimizerConfig(seed=3, restarts=6),
               start=np.eye(4)[:, :1])
for counts in (before, inside[0], thread_counts()):
    print(*counts)
print(res.stop_reason)
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs at least two usable cores")
def test_warm_restart_runs_on_one_blas_thread():
    # an in-process restart pins every OpenBLAS to one thread; optimize restores the count
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _BLAS_POLICY], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    before, inside, after, stop_reason = done.stdout.splitlines()
    assert stop_reason == "settled"  # every restart ran in this process
    assert before and set(before.split()) == {"2"}
    assert set(inside.split()) == {"1"}
    assert after == before


def test_blas_pin_reads_the_maps_once(monkeypatch):
    reads = []

    def counting_open(path, *args, **kwargs):
        reads.append(path)
        return open(path, *args, **kwargs)

    optimizer._openblas_thread_calls.cache_clear()
    monkeypatch.setattr(optimizer, "open", counting_open, raising=False)
    before = [get() for _, get in optimizer._openblas_thread_calls()]
    for _ in range(2):
        with optimizer._one_blas_thread():
            assert all(get() == 1 for _, get in optimizer._openblas_thread_calls())
    assert reads == ["/proc/self/maps"]
    assert [get() for _, get in optimizer._openblas_thread_calls()] == before


def test_stiefel_map_fixes_isometry():
    code = codespace_from_stabilizer(builtin("steane"))
    out = stiefel_map(code.basis)
    assert np.abs(out.basis - code.basis).max() <= 1e-13


def test_stiefel_map_scale_invariance():
    theta = random_theta(16, 3)
    a = stiefel_map(theta)
    b = stiefel_map(2.0 * theta)
    assert np.abs(a.basis - b.basis).max() <= 1e-12


def test_stiefel_map_orthonormal_columns():
    for _ in range(5):
        theta = random_theta(32, 4)
        psi = stiefel_map(theta).basis
        assert np.abs(psi.conj().T @ psi - np.eye(4)).max() <= 1e-12


def test_stiefel_map_conditioning_error():
    theta = np.zeros((8, 2), dtype=complex)
    theta[:, 0] = np_rng.standard_normal(8)
    theta[:, 1] = theta[:, 0]
    with pytest.raises(ConditioningError):
        stiefel_map(theta)


def test_stiefel_map_rejects_non_power_of_two_rows():
    with pytest.raises(ValueError, match="row count 6 is not a power of two"):
        stiefel_map(np.ones((6, 1)))


def test_restart_grad_norm_is_the_last_stage_gradient():
    # exact: L-BFGS-B ends with the gradient at the end point it returns
    action = enumerate_error_basis(2, 2).action
    spec = LossSpec("target_length", mu=1000.0, target_length=1.0)
    cfg = OptimizerConfig(seed=3, restarts=1)
    seq = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    with optimizer._one_blas_thread():
        summary, theta, _ = optimizer._run_restart(0, seq, 4, 1, action, spec, cfg)
        _, aux = optimizer._evaluate(theta, action, spec, spec.mu * optimizer.MU_STAGES[-1], True)
    assert summary.grad_norm == np.linalg.norm(aux["grad"])


STAGE_STOPS = {"stalled", "line search", "gradient", "iterations"}


def test_cold_search_stages_end_stalled_and_kl_exact():
    res = optimize(6, 2, enumerate_error_basis(6, 3), LossSpec("minimize_length", mu=1000.0),
                   OptimizerConfig(seed=1, restarts=4))
    stops = [stop for s in res.restart_summaries for stop in s.stage_stops]
    assert len(stops) == 4 * len(optimizer.MU_STAGES) and set(stops) <= STAGE_STOPS
    assert "stalled" in stops
    assert all(s.kl_violation <= 1e-12 for s in res.restart_summaries)


def test_stage_budget_is_reported_as_iterations():
    res = optimize(2, 1, enumerate_error_basis(2, 2), LossSpec("minimize_length", mu=1000.0),
                   OptimizerConfig(seed=1, restarts=1, max_iters=1))
    assert res.restart_summaries[0].stage_stops == ("iterations",) * len(optimizer.MU_STAGES)


def test_stage_started_at_its_minimum_stalls():
    action = enumerate_error_basis(6, 3).action
    spec = LossSpec("minimize_length", mu=1000.0)
    theta = optimizer._gaussian(np.random.default_rng(5), 64, 2)
    with optimizer._one_blas_thread():
        theta, iters, _, _ = optimizer._descend_lbfgs(theta, action, spec, spec.mu, OptimizerConfig())
        _, again, _, stop = optimizer._descend_lbfgs(theta, action, spec, spec.mu, OptimizerConfig())
    assert iters > 2
    assert stop == "stalled" and again <= 2


def test_feasible_target_search_keeps_its_precision():
    # the stall test is relative to the loss, so a loss going to zero is not cut off early
    code = code_623(single_param_frame_623(0.3))
    basis = enumerate_error_basis(6, 3)
    spec = LossSpec("target_length", mu=1000.0,
                    target_length=lambda_star(signature_vector(code, basis)))
    res = optimize(6, 2, basis, spec, OptimizerConfig(seed=2, restarts=1), start=code.basis)
    assert res.converged
    assert res.final_loss <= 1e-18


def test_loss_examples_steane():
    steane = codespace_from_stabilizer(builtin("steane"))
    basis = enumerate_error_basis(7, 3)
    assert loss(steane.basis, basis, LossSpec("kl_only", mu=1.0)) <= 1e-20
    spec = LossSpec("target_length", mu=1000.0, target_length=0.0)
    assert loss(steane.basis, basis, spec) <= 1e-20


def test_loss_example_shaw_minimize():
    shaw = codespace_from_stabilizer(builtin("shaw623"))
    basis = enumerate_error_basis(6, 3)
    val = loss(shaw.basis, basis, LossSpec("minimize_length", mu=1000.0))
    assert abs(val - 1.0) <= 1e-10


def test_loss_spec_validation():
    with pytest.raises(ValueError):
        LossSpec("bogus")
    with pytest.raises(ValueError):
        LossSpec("kl_only", mu=0.0)
    with pytest.raises(ValueError):
        LossSpec("target_length", mu=1.0)
    with pytest.raises(ValueError):
        LossSpec("target_vector", mu=1.0)


def test_gradient_zero_at_exact_code():
    steane = codespace_from_stabilizer(builtin("steane"))
    basis = enumerate_error_basis(7, 3)
    g = gradient(steane.basis, basis, LossSpec("kl_only", mu=1.0))
    assert np.linalg.norm(g) <= 1e-8


def test_gradient_matches_finite_differences():
    basis = enumerate_error_basis(3, 3)
    specs = [
        LossSpec("kl_only", mu=1.0),
        LossSpec("minimize_length", mu=1000.0),
        LossSpec("maximize_length", mu=1000.0),
        LossSpec("target_length", mu=1000.0, target_length=0.8),
        LossSpec("target_vector", mu=1000.0,
                 target_vector=np.linspace(-0.2, 0.2, len(basis))),
    ]
    h = 1e-5
    for trial in range(20):
        theta = random_theta(8, 2)
        spec = specs[trial % len(specs)]
        g = gradient(theta, basis, spec)
        delta = random_theta(8, 2)
        analytic = float(np.real(np.vdot(g, delta)))
        fd = (loss(theta + h * delta, basis, spec)
              - loss(theta - h * delta, basis, spec)) / (2 * h)
        assert abs(analytic - fd) <= 1e-6 * max(abs(fd), 1e-9 / 1e-6)


def test_gradient_orthogonal_to_scale_directions():
    basis = enumerate_error_basis(3, 3)
    theta = random_theta(8, 2)
    for spec in (LossSpec("kl_only", mu=1.0), LossSpec("minimize_length", mu=1000.0)):
        g = gradient(theta, basis, spec)
        assert abs(np.real(np.vdot(g, theta))) <= 1e-8
        assert abs(np.real(np.vdot(g, 1j * theta))) <= 1e-8


def _chain_rule_gradient(theta, action, spec, mu):
    """The gradient by the chain rule through the eigendecomposition of
    theta^dag theta (the derivative of the polar map): the reference for the
    horizontal projection that ``_evaluate`` takes."""
    lam, U = np.linalg.eigh(theta.conj().T @ theta)
    s = np.sqrt(lam)
    R = (U / s) @ U.conj().T
    psi = theta @ R
    K = psi.shape[1]
    Y, A = action.values(psi)
    idx = np.arange(K)
    diag = A[:, idx, idx].real
    mean = diag.mean(axis=1)
    mu_eff = mu / spec.mu if spec.kind == "kl_only" else mu
    _, half_derivative = optimizer._length_term(spec, mean, float(mean @ mean))
    M = mu_eff * (A + A.conj().transpose(0, 2, 1))
    M[:, idx, idx] = 2 * mu_eff * (diag - mean[:, None]) + 2 * half_derivative[:, None] / K
    g_psi = action.adjoint(Y, M)
    denom = -(s[:, None] * s[None, :]) * (s[:, None] + s[None, :])
    Q = U @ ((U.conj().T @ (theta.conj().T @ g_psi) @ U) / denom) @ U.conj().T
    return 2 * (g_psi @ R + theta @ (Q + Q.conj().T))


def test_projected_gradient_matches_the_chain_rule():
    # every loss kind, K = 1..4, d = 2 and 3, at every stage weight; K = 1 at
    # weight 1e6 fails if the imaginary round-off of the KL diagonal reaches M
    for d in (2, 3):
        basis = enumerate_error_basis(3, d)
        specs = [
            LossSpec("kl_only", mu=1.0),
            LossSpec("minimize_length", mu=1000.0),
            LossSpec("maximize_length", mu=1000.0),
            LossSpec("target_length", mu=1000.0, target_length=0.8),
            LossSpec("target_vector", mu=1000.0,
                     target_vector=np.linspace(-0.2, 0.2, len(basis))),
        ]
        for K in range(1, 5):
            theta = random_theta(8, K)
            for spec in specs:
                for scale in optimizer.MU_STAGES:
                    mu = spec.mu * scale
                    _, aux = optimizer._evaluate(theta, basis.action, spec, mu, True)
                    ref = _chain_rule_gradient(theta, basis.action, spec, mu)
                    err = np.linalg.norm(aux["grad"] - ref)
                    assert err <= 1e-12 * np.linalg.norm(ref), (d, K, spec.kind, mu)


def test_optimize_two_qubit_extremes():
    # K=1 on two qubits: any state is feasible; the squared correlation length
    # spans [0, 2] from Bell states to product states
    basis = enumerate_error_basis(2, 2)
    cfg = OptimizerConfig(seed=1, restarts=6)
    rmin = optimize(2, 1, basis, LossSpec("minimize_length", mu=1000.0), cfg)
    assert rmin.lambda_star ** 2 <= 1e-8
    assert rmin.converged
    rmax = optimize(2, 1, basis, LossSpec("maximize_length", mu=1000.0), cfg)
    assert abs(rmax.lambda_star ** 2 - 2.0) <= 1e-6
    assert rmax.kl_violation <= 1e-10


def test_optimize_result_certified_independently():
    basis = enumerate_error_basis(2, 2)
    cfg = OptimizerConfig(seed=3, restarts=4)
    res = optimize(2, 1, basis, LossSpec("target_length", mu=1000.0, target_length=1.0), cfg)
    assert res.converged
    assert kl_violation(res.code, basis) <= 1e-10
    sig = signature_vector(res.code, basis)
    assert abs(lambda_star(sig) - res.lambda_star) <= 1e-9


def test_optimize_deterministic_given_seed():
    basis = enumerate_error_basis(2, 2)
    spec = LossSpec("target_length", mu=1000.0, target_length=1.0)
    a = optimize(2, 1, basis, spec, OptimizerConfig(seed=11, restarts=3))
    b = optimize(2, 1, basis, spec, OptimizerConfig(seed=11, restarts=3))
    assert np.abs(a.code.basis - b.code.basis).max() == 0
    assert a.final_loss == b.final_loss


def test_warm_start_from_exact_code_hits_first():
    steane = codespace_from_stabilizer(builtin("steane"))
    basis = enumerate_error_basis(7, 3)
    cfg = OptimizerConfig(seed=0, restarts=4, stop_on_loss=1e-12)
    res = optimize(7, 2, basis, LossSpec("kl_only", mu=1.0), cfg, start=steane.basis)
    assert res.restarts_used == 1 and res.stop_reason == "target"
    assert res.converged and res.kl_violation <= 1e-10


def test_warm_start_keeps_the_random_restarts():
    basis = enumerate_error_basis(2, 2)
    spec = LossSpec("target_length", mu=1000.0, target_length=1.0)
    cfg = OptimizerConfig(seed=11, restarts=3)
    plain = optimize(2, 1, basis, spec, cfg)
    cold = optimize(2, 1, basis, spec, cfg, start=None)
    assert np.array_equal(plain.code.basis, cold.code.basis)
    assert plain.restart_summaries == cold.restart_summaries
    warm = optimize(2, 1, basis, spec, cfg, start=plain.code.basis)
    assert warm.restarts_used == 3
    # the start takes slot 0; slots 1.. are the cold call's restarts
    assert warm.restart_summaries[1:] == plain.restart_summaries[1:]
    assert warm.restart_summaries[0] != plain.restart_summaries[0]


def test_infeasible_target_cold_spends_budget_warm_settles():
    # two-qubit K=1 codes span squared lengths [0, 2], so 2.5 is out of reach
    basis = enumerate_error_basis(2, 2)
    spec = LossSpec("target_length", mu=1000.0, target_length=2.5 ** 0.5)
    cfg = OptimizerConfig(seed=3, restarts=5, stop_on_loss=1e-12)
    cold = optimize(2, 1, basis, spec, cfg)
    assert cold.restarts_used == 5 and cold.stop_reason == "budget"
    warm = optimize(2, 1, basis, spec, cfg, start=cold.code.basis)
    assert warm.restarts_used == 1 + SETTLE_RESTARTS and warm.stop_reason == "settled"
    assert warm.converged and abs(warm.lambda_star ** 2 - 2.0) <= 1e-6
    # the restarts it ran are the cold call's restarts of the same slots
    assert warm.restart_summaries[1:] == cold.restart_summaries[1:1 + SETTLE_RESTARTS]


def test_warm_start_validates_shape():
    basis = enumerate_error_basis(2, 2)
    spec = LossSpec("kl_only", mu=1.0)
    with pytest.raises(ValueError, match="shape"):
        optimize(2, 1, basis, spec, OptimizerConfig(restarts=1), start=np.ones((4, 2)))
    with pytest.raises(ConditioningError):
        optimize(2, 2, basis, spec, OptimizerConfig(restarts=1), start=np.zeros((4, 2)))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_warm_start_rejects_non_finite_entries(value):
    # a NaN start used to run the whole warm search, then fail in stiefel_map
    start = np.eye(4, 1, dtype=complex)
    start[2, 0] = value
    with pytest.raises(ValueError, match="start must be a finite 4 x 1 matrix"):
        optimize(2, 1, enumerate_error_basis(2, 2), LossSpec("kl_only", mu=1.0),
                 OptimizerConfig(restarts=1), start=start)


def test_target_vector_length_must_match_operators():
    basis = enumerate_error_basis(2, 2)  # 6 operators
    spec = LossSpec("target_vector", target_vector=[0.0, 1.0])
    theta = random_theta(4, 1)
    for call in (lambda: loss(theta, basis, spec), lambda: gradient(theta, basis, spec),
                 lambda: optimize(2, 1, basis, spec, OptimizerConfig(restarts=1))):
        with pytest.raises(ValueError, match="target_vector has 2 entries, but there are 6"):
            call()


def test_target_vector_loss_accepts_signature():
    shaw = codespace_from_stabilizer(builtin("shaw623"))
    basis = enumerate_error_basis(6, 3)
    sig = signature_vector(shaw, basis)
    spec = LossSpec("target_vector", mu=1000.0, target_vector=sig.components)
    assert loss(shaw.basis, basis, spec) <= 1e-20
    # a fresh search against the Shaw signature reproduces lambda* = 1
    res = optimize(6, 2, basis, spec, OptimizerConfig(seed=4, restarts=2))
    assert res.kl_violation <= 1e-10
    assert abs(res.lambda_star - 1.0) <= 1e-6


def test_jnr_disconnected_two_qubit_example():
    ops = ["XI", "XZ", "YI", "YZ", "ZI"]
    points = jnr_feasibility(ops, 2, OptimizerConfig(seed=5, restarts=25))
    assert len(points) == 2
    signs = set()
    for p in points:
        vals = np.asarray(p.values)
        assert np.abs(vals[:4]).max() <= 1e-8
        assert abs(abs(vals[4]) - 1.0) <= 1e-8
        assert p.residual <= 1e-9
        signs.add(np.sign(vals[4]))
    assert signs == {-1.0, 1.0}
    assert sum(p.hits for p in points) == 25


def test_jnr_rank_one_fills_interval():
    points = jnr_feasibility(["ZI"], 1, OptimizerConfig(seed=9, restarts=40, max_iters=5))
    vals = [p.values[0] for p in points]
    assert min(vals) < -0.5 and max(vals) > 0.5
    assert all(-1 - 1e-9 <= v <= 1 + 1e-9 for v in vals)


def test_jnr_full_rank_trace_average():
    points = jnr_feasibility(["II"], 4, OptimizerConfig(seed=2, restarts=3))
    assert len(points) == 1
    assert abs(points[0].values[0] - 1.0) <= 1e-9
    # a non-scalar operator leaves no feasible tuple at full rank
    assert jnr_feasibility(["ZI"], 4, OptimizerConfig(seed=2, restarts=3)) == []


def test_jnr_sees_the_restarts_of_a_kl_only_search():
    ops = [pauli_from_string(w) for w in ("XI", "XZ", "YI", "YZ", "ZI")]
    cfg = OptimizerConfig(seed=5, restarts=25)
    points = jnr_feasibility(ops, 2, cfg)
    res = optimize(2, 2, ops, LossSpec("kl_only", mu=1.0), cfg)
    assert [s.seed_index for s in res.restart_summaries] == list(range(25))
    hits = sum(s.kl_violation <= optimizer.JNR_RESIDUAL_TOL for s in res.restart_summaries)
    assert sum(p.hits for p in points) == hits
    assert min(p.residual for p in points) == min(s.kl_violation for s in res.restart_summaries)


def test_config_rejects_empty_budgets():
    with pytest.raises(ValueError, match="restarts"):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError, match="max_iters"):
        OptimizerConfig(max_iters=0)


@pytest.mark.parametrize("field, value", [
    ("kl_tol", -1.0), ("kl_tol", -1e-300),
    ("restarts", 2.5), ("restarts", True), ("restarts", "3"),
    ("max_iters", 100.0), ("max_iters", False),
    ("seed", -3), ("seed", 1.5), ("seed", True),
])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        OptimizerConfig(**{field: value})


@pytest.mark.parametrize("n, K, named", [
    (2, 2.0, "1 <= K <= 4, got K=2.0"), (2, 1.5, "1 <= K <= 4, got K=1.5"),
    (2, True, "1 <= K <= 4, got K=True"), (2.0, 1, "n must be an integer, got n=2.0"),
    (True, 1, "n must be an integer, got n=True"),
])
def test_searches_reject_non_integer_sizes_before_any_restart(monkeypatch, n, K, named):
    def no_restart(*args):
        raise AssertionError("a restart ran")

    monkeypatch.setattr(optimizer, "_run_restart", no_restart)
    monkeypatch.setattr(optimizer, "_usable_cores", lambda: 1)
    cfg = OptimizerConfig(restarts=1)
    with pytest.raises(ValueError, match=named):
        optimize(n, K, enumerate_error_basis(2, 2), LossSpec("minimize_length"), cfg)
    if "K=" in named:  # jnr_feasibility takes its qubits from the words
        with pytest.raises(ValueError, match=named):
            jnr_feasibility(["XI", "ZI"], K, cfg)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_search_input_rejected(value):
    with pytest.raises(ValueError, match="kl_tol"):
        OptimizerConfig(kl_tol=value)
    with pytest.raises(ValueError, match="stop_on_loss"):
        OptimizerConfig(stop_on_loss=value)
    with pytest.raises(ValueError, match="mu"):
        LossSpec("kl_only", mu=value)
    with pytest.raises(ValueError, match="target_length"):
        LossSpec("target_length", target_length=value)
    with pytest.raises(ValueError, match="target_vector"):
        LossSpec("target_vector", target_vector=[0.0, value])


def test_jnr_validates_input():
    cfg = OptimizerConfig(seed=0, restarts=1)
    with pytest.raises(ValueError, match="invalid Pauli letter 'Q'"):
        jnr_feasibility(["XI", "QI"], 1, cfg)
    with pytest.raises(ValueError, match=r"equal length, got lengths \[2, 3\]"):
        jnr_feasibility(["XI", "XIZ"], 1, cfg)
    with pytest.raises(ValueError, match=r"one or more Pauli words .* got lengths \[\]"):
        jnr_feasibility([], 1, cfg)
    with pytest.raises(ValueError, match="K <= 2"):
        jnr_feasibility(["X"], 3, cfg)


def test_mismatched_operators_rejected_on_entry(monkeypatch):
    def no_evaluation(*args):
        raise AssertionError("evaluated despite mismatched operators")

    monkeypatch.setattr(optimizer, "_evaluate", no_evaluation)
    spec, cfg = LossSpec("kl_only", mu=1.0), OptimizerConfig(seed=0, restarts=2)
    for ops, k, n in ((enumerate_error_basis(6, 3), 6, 7), (["XI", "ZZ"], 2, 3)):
        match = f"operators act on {k} qubits, the search space on {n}"
        with pytest.raises(ValueError, match=match):
            optimize(n, 2, ops, spec, cfg)
        with pytest.raises(ValueError, match=match):
            loss(random_theta(2 ** n, 2), ops, spec)
        with pytest.raises(ValueError, match=match):
            gradient(random_theta(2 ** n, 2), ops, spec)


def _search_answer(ops, seed=11):
    res = optimize(5, 2, ops, LossSpec("kl_only", mu=1.0), OptimizerConfig(seed=seed, restarts=2))
    return (res.kl_violation, res.lambda_star, res.converged, res.code.basis.tobytes(),
            res.restart_summaries)


def test_search_answer_comes_from_its_restarts(monkeypatch):
    basis = enumerate_error_basis(5, 3)
    as_words = _search_answer([op.letters for op in basis])

    def no_second_pass(*args):
        raise AssertionError("optimize contracted the KL tensor after its restarts")

    monkeypatch.setattr(optimizer, "codespace_kl_violation", no_second_pass)
    monkeypatch.setattr(optimizer, "signature_vector", no_second_pass)
    as_basis = _search_answer(basis)
    assert as_basis == as_words
    best = min(as_basis[4], key=lambda s: (s.final_loss, s.kl_violation))
    assert as_basis[:2] == (best.kl_violation, np.sqrt(best.lambda_sq))
