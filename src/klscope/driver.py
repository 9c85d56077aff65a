"""Sweep harness and command-line interface.

Subcommands: sweep (feasibility scan of target lengths, CSV out), optimize
(single search, JSON out), construct (code JSON out; one subcommand per family,
family623, family723, permcode and stabilizer, each taking only its own
flags), verify (re-check a code JSON), enumerate (weight enumerator CSV),
signature (signature vector CSV), jnr (joint-numerical-range feasibility CSV).
Each writes to stdout, or with ``--out`` replaces a file.
"""

import argparse
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import families
from .codespace import (
    DEFAULT_KL_TOL,
    apply_local_unitary,
    code_from_json,
    code_to_json,
    is_integer,
    kl_residual,
    kl_tensor,
    lambda_star,
    orthonormalize,
    signature_to_csv,
    signature_vector,
)
# not called here: benchmarks/layers.py wraps this name to count KL calls
from .codespace import kl_violation  # noqa: F401
from .enumerators import (
    enumerator_to_csv,
    lambda_star_sq_from_enumerator,
    weight_enumerators,
)
from .optimizer import LossSpec, OptimizerConfig, jnr_feasibility, optimize
from .pauli import enumerate_error_basis
from .stabilizer import builtin, codespace_from_stabilizer, parse_generators

RESULT_JSON_FORMAT = "klscope.result/1"


@dataclass(frozen=True)
class SweepRow:
    target_lambda_sq: float
    final_loss: float
    kl_violation: float
    achieved_lambda_sq: float
    restarts_used: int
    wall_ms: int

    def csv(self):
        """The row in the column order of SWEEP_CSV_HEADER; floats round-trip."""
        return ",".join(
            repr(float(getattr(self, f.name))) if f.type is float else str(getattr(self, f.name))
            for f in fields(self)
        )


SWEEP_CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


@dataclass
class SweepResult:
    rows: list

    def csv(self):
        lines = [SWEEP_CSV_HEADER]
        lines.extend(row.csv() for row in self.rows)
        return "\n".join(lines) + "\n"


def sweep(n, K, d, grid, mu=1000.0, config=None, done=None, on_row=None):
    """Scan target lambda*^2 values; returns rows sorted by target.

    Points are computed in grid order.  Each one warm-starts from the code of
    the converged point computed earlier in this call whose achieved lambda*^2
    is nearest its target (lambda*^2 moves continuously along the code
    families); that start takes the first of the ``config.restarts`` slots and
    the random restarts follow until ``stop_on_loss`` is reached or they
    settle (see ``optimize``), so an infeasible point with a converged
    neighbour uses 1 + SETTLE_RESTARTS restarts, not the whole budget.
    ``done`` supplies already-completed rows (for
    resume); they carry no code, so a resumed sweep starts cold until its
    first newly converged point.  ``on_row`` is called after each newly
    computed point, in grid order.

    A cold point runs its restarts in forked workers, one per usable core,
    which are gone when its search returns or raises; rows do not depend on
    the core count.
    """
    grid = [float(t) for t in grid]
    if not grid:
        raise ValueError("empty sweep grid")
    for t in grid:
        if not math.isfinite(t):
            raise ValueError(f"sweep grid target must be finite, got {t}")
    cfg = config or OptimizerConfig(restarts=12, stop_on_loss=1e-12)
    basis = enumerate_error_basis(n, d)
    rows = list(done or [])
    have = {round(r.target_lambda_sq, 12) for r in rows}
    converged = []  # (achieved lambda*^2, code basis) of this call's converged points
    for target_sq in grid:
        if round(target_sq, 12) in have:  # done, or a repeat of this call's target
            continue
        have.add(round(target_sq, 12))
        start = min(converged, key=lambda c: abs(c[0] - target_sq))[1] if converged else None
        t0 = time.perf_counter()
        spec = LossSpec(kind="target_length", mu=mu, target_length=math.sqrt(max(target_sq, 0.0)))
        result = optimize(n, K, basis, spec, cfg, start=start)
        achieved_sq = result.lambda_star ** 2
        row = SweepRow(
            target_lambda_sq=target_sq,
            final_loss=(achieved_sq - target_sq) ** 2 + result.kl_violation,
            kl_violation=result.kl_violation,
            achieved_lambda_sq=achieved_sq,
            restarts_used=result.restarts_used,
            wall_ms=int(round((time.perf_counter() - t0) * 1000)),
        )
        if result.converged:
            converged.append((row.achieved_lambda_sq, result.code.basis))
        rows.append(row)
        if on_row is not None:
            on_row(row)
    rows.sort(key=lambda r: r.target_lambda_sq)
    return SweepResult(rows=rows)


def read_sweep_csv(text):
    """Rows of a sweep CSV; a malformed row raises ValueError naming its line."""
    lines = [(k, ln.strip()) for k, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    header = lines[0][1] if lines else ""
    if header != SWEEP_CSV_HEADER:
        raise ValueError(f"bad sweep CSV header: {header!r}")
    columns = fields(SweepRow)
    n_fields = len(columns)
    rows = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != n_fields:
            raise ValueError(
                f"sweep CSV line {lineno}: {len(parts)} fields, expected {n_fields}"
            )
        try:
            rows.append(SweepRow(*(f.type(part) for f, part in zip(columns, parts))))
        except ValueError as exc:
            raise ValueError(f"sweep CSV line {lineno}: {exc}") from None
    return rows


def verify_code(code, d=3, tol=DEFAULT_KL_TOL, lu_samples=3, seed=0):
    """Re-check a code: KL residual, lambda*, enumerator identity, LU drift."""
    if not 0 <= tol < math.inf:  # also rejects NaN
        raise ValueError(f"tol must be non-negative and finite, got {tol}")
    if not is_integer(lu_samples) or lu_samples < 0:
        raise ValueError(f"lu_samples must be a non-negative integer, got {lu_samples!r}")
    basis = enumerate_error_basis(code.n, d)
    violation, mean, _ = kl_residual(kl_tensor(code, basis))  # the one contraction of the code
    report = {"n": code.n, "K": code.K, "d": d, "kl_violation": violation}
    if violation <= tol:
        lam = float(np.linalg.norm(mean))  # lambda*, the norm of the signature vector
        report["lambda_star"] = lam
        we = weight_enumerators(code, d)  # A_j for j < d only, so no qubit limit
        report["enumerator_lambda_sq"] = sq = lambda_star_sq_from_enumerator(we, d)
        report["enumerator_consistent"] = bool(abs(sq - lam ** 2) <= 1e-8)
        # n Haar unitaries per sample, one draw: real parts g[:, :, 0], imaginary g[:, :, 1]
        g = np.random.default_rng(seed).standard_normal((lu_samples, code.n, 2, 2, 2))
        samples = orthonormalize((g[:, :, 0] + 1j * g[:, :, 1]) / np.sqrt(2))[0]
        drift = 0.0
        for factors in samples:
            moved = apply_local_unitary(code, factors)
            sig2 = signature_vector(moved, basis, max(tol, 1e-9))
            drift = max(drift, abs(lambda_star(sig2) - lam))
        report["lu_drift"] = drift
        report["valid"] = True
    else:
        report["valid"] = False
    return report


# ---------------------------------------------------------------------------
# CLI: each subcommand returns (text, exit status) and main writes the text


def _read(path):
    """The text of the file ``path``; ``-`` reads stdin."""
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _lines(path):
    """The non-blank lines of the file ``path``, stripped."""
    return [ln.strip() for ln in _read(path).splitlines() if ln.strip()]


def _write(path, text):
    """Write ``text`` to stdout (no path or ``-``) or over the file ``path``: a
    sibling temp file, synced, is renamed over it, so a crash mid-write leaves
    the previous complete file."""
    if path in (None, "-"):
        sys.stdout.write(text)
    elif os.path.exists(path) and not os.path.isfile(path):  # /dev/null, a pipe
        with open(path, "w") as fh:
            fh.write(text)
    else:
        try:
            with open(path + ".tmp", "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(path + ".tmp", path)
        except BaseException:  # a failed write leaves no temp file
            with contextlib.suppress(OSError):
                os.remove(path + ".tmp")
            raise


def _floats(flag, text):
    """The floats of the comma list ``text`` given to ``flag``; a bad entry is named by position."""
    values = []
    for k, part in enumerate(text.split(","), start=1):
        try:
            values.append(float(part))
        except ValueError:
            raise ValueError(f"{flag} entry {k} is not a number: {part!r}") from None
    return values


def _config(args, stop_on_loss):
    return OptimizerConfig(seed=args.seed, restarts=args.restarts, max_iters=args.max_iters,
                           kl_tol=getattr(args, "kl_tol", DEFAULT_KL_TOL),  # jnr has none
                           stop_on_loss=stop_on_loss)


def _cmd_sweep(args):
    if args.grid:
        grid = _floats("--grid", args.grid)
    else:
        start = getattr(args, "from")
        for flag, value in (("--from", start), ("--to", args.to)):
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value}")
        if not 0 < args.step < math.inf:  # also rejects NaN
            raise ValueError(f"--step must be positive and finite, got {args.step}")
        n_steps = int(round((args.to - start) / args.step))
        grid = [start + k * args.step for k in range(n_steps + 1)]
    done = read_sweep_csv(_read(args.resume)) if args.resume else []
    args.out = args.out or args.resume  # a resumed sweep rewrites its CSV by default
    written = []

    def on_row(row):  # rewrite the CSV after every completed point
        written.append(row)
        _write(args.out, SweepResult(done + written).csv())

    result = sweep(args.n, args.K, args.d, grid, mu=args.mu, config=_config(args, 1e-12),
                   done=done, on_row=None if args.out in (None, "-") else on_row)
    return result.csv(), 0


def _cmd_optimize(args):
    mode, lam = args.mode, args.lambda_target
    if lam is not None and not math.isfinite(lam):
        raise ValueError(f"lambda_target must be finite, got {lam}")
    if (mode == "target_length") != (lam is not None):
        raise ValueError(f"lambda_target goes with target_length mode only, which needs it; "
                         f"got mode {mode} with lambda_target {lam}")
    cfg = _config(args, None)
    spec = LossSpec(kind=mode, mu=args.mu,
                    target_length=abs(lam) if mode == "target_length" else None)
    result = optimize(args.n, args.K, enumerate_error_basis(args.n, args.d), spec, cfg)
    payload = {
        "format": RESULT_JSON_FORMAT, "mode": mode, "mu": args.mu, "lambda_target": lam,
        "kl_violation": result.kl_violation, "lambda_star": result.lambda_star,
        "lambda_sq": result.lambda_star ** 2, "final_loss": result.final_loss,
        "iterations": result.iterations, "restarts_used": result.restarts_used,
        "stop_reason": result.stop_reason, "converged": result.converged,
        "wall_time_ms": result.wall_time_ms, "code": json.loads(code_to_json(result.code)),
    }
    return json.dumps(payload, indent=2) + "\n", 0


def _construct(args):
    """The code JSON of the family handler ``args.build``, its info appended."""
    code, info = args.build(args)
    return json.dumps({**json.loads(code_to_json(code)), "info": info}) + "\n", 0


def _family623(args):
    if args.theta is not None:
        if args.seed is not None:
            raise ValueError("--seed draws the frame of --e-vector; --theta fixes its own")
        frame = families.single_param_frame_623(args.theta)
    else:
        e = np.asarray(_floats("--e-vector", args.e_vector))
        frame = families.frame_with_e(e, np.random.default_rng(args.seed or 0))
    return families.code_623(frame), {"family": "623", "e": frame.e.tolist()}


def _family723(args):
    branch = args.branch or "--"  # argparse reads the documented `--branch=--` as an empty value
    signs = {"+": 1, "-": -1}
    coeffs = families.cyclic_coeffs_from_lambda(
        args.lambda_star, branch_c1=signs[branch[0]], branch_c3=signs[branch[1]])
    return families.cyclic_code_723(coeffs), {
        "family": "723-cyclic", "coefficients": coeffs.as_array.tolist(), "branch": branch}


def _permcode(args):
    return families.perm_code_723(args.variant), {"family": "723-perm", "variant": args.variant}


def _stabilizer(args):
    stab = parse_generators(_lines(args.generators)) if args.name is None else builtin(args.name)
    return codespace_from_stabilizer(stab), {"family": "stabilizer",
                                             "generators": list(stab.generators)}


def _cmd_verify(args):
    code = code_from_json(_read(args.code))
    report = verify_code(code, d=args.d, tol=args.kl_tol, seed=args.seed)
    return json.dumps(report, indent=2) + "\n", 0 if report["valid"] else 1


def _cmd_enumerate(args):
    return enumerator_to_csv(weight_enumerators(code_from_json(_read(args.code)))), 0


def _cmd_signature(args):
    code = code_from_json(_read(args.code))
    sig = signature_vector(code, enumerate_error_basis(code.n, args.d), args.kl_tol)
    return signature_to_csv(sig), 0


def _cmd_jnr(args):
    words = _lines(args.operators)
    if not words:
        raise ValueError(f"operator file {args.operators!r} lists no Pauli words")
    points = jnr_feasibility(words, args.K, _config(args, None))
    lines = [",".join(words) + ",residual,hits"]
    lines.extend(",".join(repr(v) for v in p.values) + f",{p.residual!r},{p.hits}"
                 for p in points)
    return "\n".join(lines) + "\n", 0


# flags that several subcommands share; --restarts takes its default per subcommand
_SHARED_FLAGS = {
    "code": dict(help="code JSON path or - for stdin"),
    "--n": dict(type=int, required=True),
    "--K": dict(type=int, required=True),
    "--d": dict(type=int, default=3),
    "--mu": dict(type=float, default=1000.0),
    "--restarts": dict(type=int),
    "--max-iters": dict(type=int, default=2000),
    "--seed": dict(type=int, default=0),
    "--kl-tol": dict(type=float, default=DEFAULT_KL_TOL),
    "--out": dict(type=str, default=None, help="output file; stdout when absent or -"),
}
_SEARCH_FLAGS = "--n --K --d --mu --restarts --max-iters --seed --kl-tol --out"


def _command(sub, name, func, help, flags, **defaults):
    p = sub.add_parser(name, help=help)
    for flag in flags.split():
        p.add_argument(flag, **_SHARED_FLAGS[flag])
    p.set_defaults(func=func, **defaults)
    return p


def build_parser():
    parser = argparse.ArgumentParser(
        prog="klscope",
        description="Signature vectors and lambda* for quantum codes: "
        "exact families, enumerators, and Stiefel-manifold search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "sweep", _cmd_sweep, "scan target lambda*^2 values, CSV out",
                 _SEARCH_FLAGS, restarts=12)
    p.add_argument("--from", type=float, default=0.5, dest="from")
    p.add_argument("--to", type=float, default=1.1)
    p.add_argument("--step", type=float, default=0.02)
    p.add_argument("--grid", type=str, default=None, help="comma list overriding from/to/step")
    p.add_argument("--resume", type=str, default=None, help="existing CSV to continue")

    p = _command(sub, "optimize", _cmd_optimize, "single search, result JSON out",
                 _SEARCH_FLAGS, restarts=50)
    p.add_argument("--mode", type=str, default="minimize_length",
                   choices=["kl_only", "minimize_length", "maximize_length", "target_length"])
    p.add_argument("--lambda-target", type=float, default=None)

    # construct: one subcommand per family, each declaring only the flags it reads
    construct = sub.add_parser("construct", help="build an exact code, JSON out").add_subparsers(
        dest="family", required=True)
    p = _command(construct, "family623", _construct, "((6,2,3)) frame family", "--seed --out",
                 build=_family623, seed=None).add_mutually_exclusive_group(required=True)
    p.add_argument("--theta", type=float)
    p.add_argument("--e-vector", type=str, help="comma list of 5 reals")
    p = _command(construct, "family723", _construct, "((7,2,3)) cyclic family", "--out",
                 build=_family723)
    p.add_argument("--lambda-star", type=float, required=True)
    p.add_argument("--branch", type=str, default="--", choices=["++", "+-", "-+", "--"],
                   help="two signs: c1 branch, c3 branch")
    p = _command(construct, "permcode", _construct, "((7,2,3)) permutation-invariant code",
                 "--out", build=_permcode)
    p.add_argument("--variant", type=str, default="plus", choices=["plus", "minus"])
    p = _command(construct, "stabilizer", _construct, "stabilizer code", "--out",
                 build=_stabilizer).add_mutually_exclusive_group(required=True)
    p.add_argument("--name", type=str, help="builtin stabilizer code name")
    p.add_argument("--generators", type=str, help="generator file")

    _command(sub, "verify", _cmd_verify, "re-check a code JSON", "code --d --kl-tol --seed --out")
    _command(sub, "enumerate", _cmd_enumerate, "weight enumerator CSV for a code JSON",
             "code --out")
    _command(sub, "signature", _cmd_signature, "signature vector CSV for a code JSON",
             "code --d --kl-tol --out")

    p = _command(sub, "jnr", _cmd_jnr, "rank-K joint numerical range feasibility",
                 "--K --restarts --max-iters --seed --out", restarts=200)
    p.add_argument("--operators", type=str, required=True, help="one Pauli word per line")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        text, status = args.func(args)
        _write(args.out, text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
