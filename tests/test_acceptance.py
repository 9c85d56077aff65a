"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The optimization
criteria (5 and 6) take a few minutes; everything else runs in seconds.
"""

import functools
import math

import numpy as np

import klscope as kl
from klscope.driver import sweep
from klscope.families import (
    appendix_b_residuals,
    code_623,
    cyclic_code_723,
    cyclic_coeffs_from_lambda,
    hamiltonian_ground_check,
    lambda_star_sq_623,
    perm_code_723,
    predicted_signature_623,
    random_frame,
    single_param_frame_623,
    so4_check,
)
from klscope.optimizer import LossSpec, OptimizerConfig, jnr_feasibility, optimize
from klscope.pauli import dense_matrix, enumerate_error_basis, pauli_from_string

SQRT7 = math.sqrt(7)

BASIS6 = enumerate_error_basis(6, 3)
BASIS7 = enumerate_error_basis(7, 3)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] criterion {num}: FAIL - {desc}")
                raise
            print(f"[ACCEPTANCE] criterion {num}: PASS - {desc}")
        return wrapper
    return deco


def haar_unitary(rng):
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def named_codes():
    return {
        "steane": (kl.codespace_from_stabilizer(kl.builtin("steane")), BASIS7),
        "shaw623": (kl.codespace_from_stabilizer(kl.builtin("shaw623")), BASIS6),
        "perm723": (perm_code_723("plus"), BASIS7),
    }


@criterion(1, "named-code lambda* values (Steane 0, Shaw 1 at Z4Z6, perm sqrt7)")
def test_criterion_1_named_codes():
    steane = kl.codespace_from_stabilizer(kl.builtin("steane"))
    assert kl.lambda_star(kl.signature_vector(steane, BASIS7)) <= 1e-9

    shaw = kl.codespace_from_stabilizer(kl.builtin("shaw623"))
    sig = kl.signature_vector(shaw, BASIS6)
    assert abs(kl.lambda_star(sig) - 1.0) <= 1e-9
    assert abs(sig.component("IIIZIZ") - 1.0) <= 1e-9
    others = [v for op, v in zip(BASIS6.ops, sig.components) if op.letters != "IIIZIZ"]
    assert np.abs(others).max() <= 1e-9

    for variant in ("plus", "minus"):
        code = perm_code_723(variant)
        lam = kl.lambda_star(kl.signature_vector(code, BASIS7))
        assert abs(lam - SQRT7) <= 1e-9


@criterion(2, "((6,2,3)) family exactness over 50 random frames and 20 thetas")
def test_criterion_2_frame_family():
    rng = np.random.default_rng(62350)
    for _ in range(50):
        frame = random_frame(rng)
        code = code_623(frame)
        assert kl.kl_violation(code, BASIS6) <= 1e-10
        sig = kl.signature_vector(code, BASIS6)
        assert abs(kl.lambda_star(sig) ** 2 - lambda_star_sq_623(frame.e)) <= 1e-9
        pred = predicted_signature_623(frame.e, BASIS6)
        assert np.abs(sig.components - pred.components).max() <= 1e-9

    theta_max = math.acos(1 / math.sqrt(5))
    lam_sqs = []
    for theta in np.linspace(0.0, theta_max, 20):
        code = code_623(single_param_frame_623(theta))
        assert kl.kl_violation(code, BASIS6) <= 1e-10
        lam_sq = kl.lambda_star(kl.signature_vector(code, BASIS6)) ** 2
        expect = 0.5 + 0.5 * (math.sin(theta) ** 4 / 4 + math.cos(theta) ** 4)
        assert abs(lam_sq - expect) <= 1e-9
        lam_sqs.append(lam_sq)
    assert abs(max(lam_sqs) - 1.0) <= 1e-9
    assert abs(min(lam_sqs) - 0.6) <= 1e-9


@criterion(3, "((7,2,3)) cyclic family across the lambda grid and all branches")
def test_criterion_3_cyclic_family():
    for lam in (0.0, 0.4, 1.0, 2.0, SQRT7):
        for b1 in (-1, 1):
            for b3 in (-1, 1):
                coeffs = cyclic_coeffs_from_lambda(lam, b1, b3)
                code = cyclic_code_723(coeffs)
                assert kl.kl_violation(code, BASIS7) <= 1e-10
                measured = kl.lambda_star(kl.signature_vector(code, BASIS7))
                assert abs(measured - lam) <= 1e-8

    c0 = cyclic_coeffs_from_lambda(0.0, -1, -1)
    assert abs(c0.c0 - 1 / math.sqrt(8)) <= 1e-12
    assert abs(c0.c2 - math.sqrt(7 / 8)) <= 1e-12
    assert abs(c0.c1) <= 1e-12 and abs(c0.c3) <= 1e-12 and abs(c0.c4) <= 1e-12
    c7 = cyclic_coeffs_from_lambda(SQRT7, -1, -1)
    assert abs(c7.c0 - math.sqrt(15) / 8) <= 1e-12


@criterion(4, "weight enumerators match closed forms; A1+A2 = lambda*^2")
def test_criterion_4_enumerators():
    constructed = []
    for lam in (0.0, 1.0, SQRT7):
        code = cyclic_code_723(cyclic_coeffs_from_lambda(lam, -1, -1))
        we = kl.weight_enumerators(code)
        cf = kl.closed_form_723(lam)
        assert np.abs(we.A - cf.A).max() <= 1e-8
        assert np.abs(we.B - cf.B).max() <= 1e-8
        constructed.append((code, BASIS7, we))

    for theta in (0.0, 0.4, math.acos(1 / math.sqrt(5))):
        code = code_623(single_param_frame_623(theta))
        we = kl.weight_enumerators(code)
        cf = kl.closed_form_623(theta)
        assert np.abs(we.A - cf.A).max() <= 1e-8
        assert np.abs(we.B - cf.B).max() <= 1e-8
        constructed.append((code, BASIS6, we))

    for name, (code, basis) in named_codes().items():
        constructed.append((code, basis, kl.weight_enumerators(code)))

    for code, basis, we in constructed:
        lam_sq = kl.lambda_star(kl.signature_vector(code, basis)) ** 2
        assert abs(kl.lambda_star_sq_from_enumerator(we) - lam_sq) <= 1e-8


@criterion(5, "optimization extremes: 623 min/max and 723 max with 50 restarts")
def test_criterion_5_optimization_extremes():
    cfg = OptimizerConfig(seed=20240623, restarts=50)
    rmin = optimize(6, 2, BASIS6, LossSpec("minimize_length", mu=1000.0), cfg)
    assert rmin.kl_violation <= 1e-10
    assert 0.599 <= rmin.lambda_star ** 2 <= 0.601

    rmax = optimize(6, 2, BASIS6, LossSpec("maximize_length", mu=1000.0), cfg)
    assert rmax.kl_violation <= 1e-10
    assert 0.999 <= rmax.lambda_star ** 2 <= 1.0 + 1e-9

    cfg7 = OptimizerConfig(seed=20240723, restarts=50)
    rmax7 = optimize(7, 2, BASIS7, LossSpec("maximize_length", mu=1000.0), cfg7)
    assert rmax7.kl_violation <= 1e-10
    assert 6.9 <= rmax7.lambda_star ** 2 <= 7.0 + 1e-9


@criterion(6, "((6,2,3)) sweep reproduces the feasibility transition on [0.5, 1.1]")
def test_criterion_6_sweep_transition():
    grid = [round(0.5 + 0.02 * k, 10) for k in range(31)]
    cfg = OptimizerConfig(seed=1606, restarts=12, stop_on_loss=1e-12)
    result = sweep(6, 2, 3, grid, mu=1000.0, config=cfg)
    assert len(result.rows) == 31
    text = result.csv()
    assert text.splitlines()[0] == (
        "target_lambda_sq,final_loss,kl_violation,achieved_lambda_sq,restarts_used,wall_ms"
    )
    for row in result.rows:
        t = row.target_lambda_sq
        if 0.6 - 1e-9 <= t <= 1.0 + 1e-9:
            assert row.final_loss <= 1e-8, (t, row.final_loss)
        elif t <= 0.55 + 1e-9 or t >= 1.05 - 1e-9:
            assert row.final_loss >= 1e-3, (t, row.final_loss)


@criterion(7, "disconnected rank-2 joint numerical range: 200 feasibility runs")
def test_criterion_7_disconnected_jnr():
    ops = ["XI", "XZ", "YI", "YZ", "ZI"]
    points = jnr_feasibility(ops, 2, OptimizerConfig(seed=7200, restarts=200))
    assert sum(p.hits for p in points) == 200  # every run landed on a tuple
    signs = set()
    for p in points:
        vals = np.asarray(p.values)
        assert np.abs(vals[:4]).max() <= 1e-8
        assert abs(abs(vals[4]) - 1.0) <= 1e-8
        signs.add(np.sign(vals[4]))
    assert signs == {-1.0, 1.0}


@criterion(8, "invariance suites: LU, purity chains, gradients, residuals, SO(4), Hamiltonians")
def test_criterion_8_invariance_suites():
    # lambda* drift under 100 random local-unitary tuples per named code
    rng = np.random.default_rng(8001)
    for name, (code, basis) in named_codes().items():
        base = kl.lambda_star(kl.signature_vector(code, basis))
        for _ in range(100):
            factors = [haar_unitary(rng) for _ in range(code.n)]
            moved = kl.apply_local_unitary(code, factors)
            lam = kl.lambda_star(kl.signature_vector(moved, basis, tol=1e-9))
            assert abs(lam - base) <= 1e-9, name

    # purity chains on named-code codewords
    for name, (code, basis) in named_codes().items():
        for codeword in range(code.K):
            singles = {}
            for q in range(1, code.n + 1):
                rho = kl.reduced_density_matrix(code, codeword, [q])
                vec = [np.trace(rho @ dense_matrix(pauli_from_string(p))).real
                       for p in "XYZ"]
                nsq = float(np.dot(vec, vec))
                assert abs(nsq - (2 * kl.purity(rho) - 1)) <= 1e-10
                singles[q] = nsq
            for i, j in [(1, 2), (2, 5), (3, code.n)]:
                rho = kl.reduced_density_matrix(code, codeword, [i, j])
                words = [a + b for a in "XYZ" for b in "XYZ"]
                vec = [np.trace(rho @ dense_matrix(pauli_from_string(w))).real
                       for w in words]
                lhs = float(np.dot(vec, vec))
                rhs = 4 * kl.purity(rho) - 1 - singles[i] - singles[j]
                assert abs(lhs - rhs) <= 1e-10

    # analytic gradients against central finite differences
    basis3 = enumerate_error_basis(3, 3)
    specs = [
        LossSpec("kl_only", mu=1.0),
        LossSpec("minimize_length", mu=1000.0),
        LossSpec("maximize_length", mu=1000.0),
        LossSpec("target_length", mu=1000.0, target_length=0.8),
    ]
    rng = np.random.default_rng(8002)
    h = 1e-5
    for trial in range(20):
        theta = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        spec = specs[trial % len(specs)]
        g = kl.gradient(theta, basis3, spec)
        delta = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
        analytic = float(np.real(np.vdot(g, delta)))
        fd = (kl.loss(theta + h * delta, basis3, spec)
              - kl.loss(theta - h * delta, basis3, spec)) / (2 * h)
        rel = abs(analytic - fd) / max(abs(fd), 1e-9)
        assert rel <= 1e-6

    # elimination residuals for every closed-form coefficient set
    for lam in (0.0, 0.4, 1.0, 2.0, SQRT7):
        for b1 in (-1, 1):
            for b3 in (-1, 1):
                rep = appendix_b_residuals(cyclic_coeffs_from_lambda(lam, b1, b3))
                assert rep.max_abs <= 1e-11

    # SO(4) correspondences at five random angles
    rng = np.random.default_rng(8003)
    frame = random_frame(rng)
    for theta in rng.uniform(0, 2 * np.pi, size=5):
        for gen in ("K1", "K2", "K3", "K4", "K5", "K6"):
            rep = so4_check(frame, gen, theta)
            assert rep.projector_deviation <= 1e-10, (gen, theta)

    # Hamiltonian ground spaces
    rep6 = hamiltonian_ground_check("h623")
    assert rep6.degeneracy == 16 and rep6.codeword_residual <= 1e-9
    rep7 = hamiltonian_ground_check("h723")
    assert rep7.degeneracy == 8 and rep7.codeword_residual <= 1e-9


@criterion(9, "stabilizer signature integrality (full table substitute)")
def test_criterion_9_stabilizer_integrality():
    for name, n in (("steane", 7), ("shaw623", 6)):
        code = kl.codespace_from_stabilizer(kl.builtin(name))
        sig = kl.signature_vector(code, enumerate_error_basis(n, 3))
        mags = np.abs(sig.components)
        assert np.minimum(mags, np.abs(mags - 1)).max() <= 1e-10
        lam_sq = kl.lambda_star(sig) ** 2
        assert abs(lam_sq - round(lam_sq)) <= 1e-9
