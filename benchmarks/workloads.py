"""The benchmark's three workloads, their inputs and their output checks.

Every input is drawn in set-up from the workload seed; klscope sees only the
drawn values.  Ops call klscope through module attributes (``driver.sweep``,
``codespace.signature_vector``, ...) looked up at call time, so the traced
run sees every call through the wrappers it installs.

- ``search``: a pass is one ``driver.sweep`` of ((6,2,3)) over a grid of
  target lambda*^2 values, and one op is one grid point.  Targets lie on both
  infeasible sides and across the feasible band [0.6, 1.0], only where the
  criterion-6 thresholds give a verdict.  ``optimizer`` and ``driver`` do
  nearly all the work.  Infeasible targets always spend the whole restart
  budget while feasible ones stop at the first hit, so a faster iteration and
  a better hit rate move the time differently.
- ``verify``: one op builds one code and runs ``driver.verify_code`` on it.
  ``enumerators`` does most of the work, stabilizer extraction is sizeable at
  n = 8 and 9, and ``optimizer`` does nothing.  The codes cover n = 5..9 and
  K = 2..8.  Shor [[9,1,3]] is refused by the n <= 8 enumerator guard and stays
  in the op list so the limit shows.
- ``signature-scan``: one op applies a Haar-random local unitary, drawn in
  set-up, to a fixed code and recomputes its signature and lambda*.  The
  ``codespace`` KL contraction and ``apply_local_unitary`` do the work, on
  fewer and larger inputs (n up to 9, K up to 8) than the optimizer's kernel.
"""

import functools
import math
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from klscope import codespace, driver, families, pauli, stabilizer
from klscope.optimizer import OptimizerConfig

from harness import FAILED, MISSED, OK, Batch, Op

D = 3
SQRT7 = math.sqrt(7)
KL_TOL = 1e-10

# Stabilizer generator tables typed from the literature.
LITERATURE_GENERATORS = {
    # five-qubit perfect code, cyclic shifts of XZZXI
    # (Laflamme, Miquel, Paz & Zurek, PRL 77, 198 (1996))
    "code513": ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"),
    # D. Gottesman, PRA 54, 1862 (1996), K = 8
    "gottesman833": ("XXXXXXXX", "ZZZZZZZZ", "IXIXYZYZ", "IXZYIXZY", "IYXZXZIY"),
    # P. W. Shor, PRA 52, R2493 (1995)
    "shor913": (
        "ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ",
        "XXXXXXIII", "IIIXXXXXX",
    ),
}

# lambda* of the named codes at d = 3
KNOWN_LAMBDA = {
    "steane": 0.0,
    "shaw623": 1.0,
    "perm723": SQRT7,
    "code513": 0.0,
    "gottesman833": 0.0,
    "shor913": 3.0,
}

# search: the ((6,2,3)) sweep of criterion 6 and its verdict thresholds
SEARCH_N, SEARCH_K = 6, 2
SEARCH_MU = 1000.0
SEARCH_RESTARTS = 12
# The sweep's optimizer seed is the criterion-6 seed, not drawn from the
# workload seed: a restart's cost and whether it hits depend on its start far
# more than on its target, and starts drawn from the workload seed made the
# pass time and median op latency spread by 0.15 to 0.3 of their median over
# five seeds.  The workload seed draws the grid.
OPTIMIZER_SEED = 1606
STOP_ON_LOSS = 1e-12
FEASIBLE_BAND = (0.6, 1.0)
FEASIBLE_MAX_LOSS = 1e-8
INFEASIBLE_LOW = (0.50, 0.55)
INFEASIBLE_HIGH = (1.05, 1.10)
INFEASIBLE_MIN_LOSS = 1e-3

LAMBDA_TOL = 1e-8     # verify: lambda* against its known value
LU_DRIFT_TOL = 1e-9   # verify: lambda* drift under local unitaries
SCAN_TOL = 1e-9       # signature-scan: |delta lambda*|


class SetupError(RuntimeError):
    """An input the benchmark builds in set-up fails its own check."""


@dataclass
class Setup:
    ops: list
    inputs: dict


def is_feasible_target(target_sq):
    lo, hi = FEASIBLE_BAND
    return lo - 1e-9 <= target_sq <= hi + 1e-9


def stratified(rng, lo, hi, count):
    """One uniform draw in each of ``count`` equal slices of [lo, hi]."""
    edges = np.linspace(lo, hi, count + 1)
    return [float(x) for x in edges[:-1] + rng.random(count) * np.diff(edges)]


def haar_unitary(rng):
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def build_bases(ns, tracer=None):
    """Error bases at d = 3 with their action tables, built before any op."""
    bases = {}
    for n in sorted(set(ns)):
        basis = pauli.enumerate_error_basis(n, D)
        span = tracer.span("klscope.pauli.ErrorBasis.action", "pauli") if tracer else nullcontext()
        with span:
            basis.action
        bases[n] = basis
    return bases


def literature_codes():
    """Extract the literature codes and check each is a d = 3 code."""
    codes = {}
    for name, rows in LITERATURE_GENERATORS.items():
        code = stabilizer.codespace_from_stabilizer(stabilizer.parse_generators(rows))
        violation = codespace.kl_violation(code, pauli.enumerate_error_basis(code.n, D))
        if violation > KL_TOL:
            raise SetupError(f"{name}: KL violation {violation:.3e} at d={D}")
        codes[name] = code
    return codes


# ---------------------------------------------------------------------------
# search


def search_verdict(target_sq, row):
    """Criterion-6 verdict on one sweep row: (status, recorded fields)."""
    recorded = {
        "target_lambda_sq": target_sq,
        "achieved_lambda_sq": row.achieved_lambda_sq,
        "kl_violation": row.kl_violation,
        "final_loss": row.final_loss,
        "restarts_used": row.restarts_used,
    }
    expected_loss = (row.achieved_lambda_sq - target_sq) ** 2 + row.kl_violation
    if row.target_lambda_sq != target_sq or not math.isclose(
        row.final_loss, expected_loss, rel_tol=1e-9, abs_tol=1e-18
    ):
        return FAILED, recorded
    if is_feasible_target(target_sq):
        return (OK if row.final_loss <= FEASIBLE_MAX_LOSS else MISSED), recorded
    return (OK if row.final_loss >= INFEASIBLE_MIN_LOSS else FAILED), recorded


def setup_search(seed, low=1, feasible=3, high=1, tracer=None):
    rng = np.random.default_rng(seed)
    grid = (
        stratified(rng, *INFEASIBLE_LOW, low)
        + stratified(rng, *FEASIBLE_BAND, feasible)
        + stratified(rng, *INFEASIBLE_HIGH, high)
    )
    config = OptimizerConfig(seed=OPTIMIZER_SEED, restarts=SEARCH_RESTARTS,
                             stop_on_loss=STOP_ON_LOSS)
    build_bases([SEARCH_N], tracer)

    def run(report):
        return driver.sweep(SEARCH_N, SEARCH_K, D, grid, mu=SEARCH_MU, config=config,
                            on_row=report)

    sweep = Batch(
        "search:sweep",
        tuple(f"search:{t:.6f}" for t in grid),
        run,
        tuple(functools.partial(search_verdict, t) for t in grid),
    )
    return Setup([sweep], {"grid": grid, "optimizer_seed": OPTIMIZER_SEED})


# ---------------------------------------------------------------------------
# verify


def enumerator_guard(exc):
    return isinstance(exc, ValueError) and str(exc).startswith("enumerator guard")


def verify_verdict(known_lambda, report):
    lam = report.get("lambda_star")
    recorded = {
        "kl_violation": report["kl_violation"],
        "lambda_star": lam,
        "lambda_error": None if lam is None else abs(lam - known_lambda),
        "enumerator_lambda_sq": report.get("enumerator_lambda_sq"),
        "lu_drift": report.get("lu_drift"),
    }
    good = (
        report.get("valid") is True
        and report.get("enumerator_consistent") is True
        and recorded["lambda_error"] <= LAMBDA_TOL
        and recorded["lu_drift"] <= LU_DRIFT_TOL
    )
    return (OK if good else FAILED), recorded


def _verify_op(name, build, known_lambda, lu_seed):
    def run():
        return driver.verify_code(build(), d=D, lu_samples=3, seed=lu_seed)

    return Op(f"verify:{name}", run, lambda report: verify_verdict(known_lambda, report),
              refused=enumerator_guard)


def _stabilizer_builder(rows):
    return lambda: stabilizer.codespace_from_stabilizer(stabilizer.parse_generators(rows))


def _builtin_builder(name):
    return lambda: stabilizer.codespace_from_stabilizer(stabilizer.builtin(name))


def _family623_builder(theta):
    return lambda: families.code_623(families.single_param_frame_623(theta))


def _family723_builder(lam):
    return lambda: families.cyclic_code_723(families.cyclic_coeffs_from_lambda(lam))


def lambda_623(theta):
    """Closed-form lambda* of the single-parameter ((6,2,3)) frame code."""
    s, c = math.sin(theta), math.cos(theta)
    return math.sqrt(0.5 + 0.5 * (s ** 4 / 4 + c ** 4))


def setup_verify(seed, thetas=3, lambdas=3, tracer=None):
    rng = np.random.default_rng(seed)
    theta_grid = stratified(rng, 0.0, math.acos(1 / math.sqrt(5)), thetas)
    lambda_grid = stratified(rng, 0.0, SQRT7, lambdas)
    lu_seed = int(rng.integers(0, 2 ** 31))
    build_bases(range(5, 10), tracer)
    literature_codes()
    ops = [
        _verify_op("code513", _stabilizer_builder(LITERATURE_GENERATORS["code513"]),
                   KNOWN_LAMBDA["code513"], lu_seed),
        _verify_op("shaw623", _builtin_builder("shaw623"), KNOWN_LAMBDA["shaw623"], lu_seed),
        _verify_op("steane", _builtin_builder("steane"), KNOWN_LAMBDA["steane"], lu_seed),
        _verify_op("perm723", lambda: families.perm_code_723("plus"),
                   KNOWN_LAMBDA["perm723"], lu_seed),
    ]
    ops += [_verify_op(f"family623:{t:.6f}", _family623_builder(t), lambda_623(t), lu_seed)
            for t in theta_grid]
    ops += [_verify_op(f"family723:{lam:.6f}", _family723_builder(lam), lam, lu_seed)
            for lam in lambda_grid]
    ops += [
        _verify_op(name, _stabilizer_builder(LITERATURE_GENERATORS[name]),
                   KNOWN_LAMBDA[name], lu_seed)
        for name in ("gottesman833", "shor913")
    ]
    return Setup(ops, {"theta": theta_grid, "lambda_star": lambda_grid, "lu_seed": lu_seed})


# ---------------------------------------------------------------------------
# signature-scan


def _scan_op(name, index, code, basis, factors, reference):
    def run():
        moved = codespace.apply_local_unitary(code, factors)
        return codespace.lambda_star(codespace.signature_vector(moved, basis, tol=1e-9))

    def check(lam):
        error = abs(lam - reference)
        return (OK if error <= SCAN_TOL else FAILED), {"lambda_error": error}

    return Op(f"scan:{name}:{index}", run, check)


def setup_signature_scan(seed, per_code=60, tracer=None):
    rng = np.random.default_rng(seed)
    bases = build_bases([6, 7, 8, 9], tracer)
    literature = literature_codes()
    codes = {
        "shaw623": stabilizer.codespace_from_stabilizer(stabilizer.builtin("shaw623")),
        "steane": stabilizer.codespace_from_stabilizer(stabilizer.builtin("steane")),
        "perm723": families.perm_code_723("plus"),
        "gottesman833": literature["gottesman833"],
        "shor913": literature["shor913"],
    }
    references = {}
    for name, code in codes.items():
        lam = codespace.lambda_star(codespace.signature_vector(code, bases[code.n]))
        if abs(lam - KNOWN_LAMBDA[name]) > LAMBDA_TOL:
            raise SetupError(f"{name}: lambda* {lam!r}, expected {KNOWN_LAMBDA[name]!r}")
        references[name] = lam
    ops = []
    for index in range(per_code):
        for name, code in codes.items():
            factors = [haar_unitary(rng) for _ in range(code.n)]
            ops.append(_scan_op(name, index, code, bases[code.n], factors, references[name]))
    return Setup(ops, {"codes": list(codes), "unitaries_per_code": per_code})


WORKLOADS = {
    "search": setup_search,
    "verify": setup_verify,
    "signature-scan": setup_signature_scan,
}
