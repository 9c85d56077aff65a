"""Exact code families on six and seven qubits.

Six qubits: codes |0_L> = sum_i |x_i>|S_i> built from an orthogonal frame,
the 5x5 matrix A = [a b c d e] with A A^T = I/4 (``OrthoFrame``; the samplers
build A from ``orthonormalize`` of a Gaussian matrix, ``frame_from_abcd``
completes four columns by SVD).  The signature norm depends only on the
completion column e through lambda*^2 = 1/2 + 8 sum_i e_i^4 and sweeps [0.6, 1].
Seven qubits: permutation-invariant codes on the Dicke basis and
cyclic codes on even-weight cyclic orbits, parameterized by lambda* in
[0, sqrt(7)].  Includes Hamiltonian ground-space checks and the frame-rotation
/ physical-unitary correspondence for the six-qubit family.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codespace import (CodeSubspace, SignatureVector, apply_local_unitary, kl_violation,
                        new_code, orthonormalize)
from .pauli import apply_pauli, dense_matrix, enumerate_error_basis, pauli_from_string

SQRT7 = math.sqrt(7.0)

FRAME_TOL = 1e-10  # A A^T = I/4 and |e|^2 = 1/4
CHECK_TOL = 1e-10  # KL violation, cyclic constraint residuals, shared projectors
GAP_TOL = 1e-8     # energy window of a Hamiltonian's ground space


def _word(n, sites, letter):
    """The n-qubit Pauli word with ``letter`` on the 1-based ``sites``, I elsewhere."""
    return "".join(letter if q in sites else "I" for q in range(1, n + 1))


def _pauli_sum(n, terms):
    """Dense sum of coeff * P over (coeff, word) terms, added in order."""
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for coeff, word in terms:
        h += coeff * dense_matrix(pauli_from_string(word))
    return h


# ---------------------------------------------------------------------------
# the ((6,2,3)) orthogonal-frame family


def s_basis_623():
    """The five paired-support basis states on qubits q2..q6 (32 amplitudes)."""
    pairs = [
        ("00001", "11110"),
        ("00010", "11101"),
        ("00100", "11011"),
        ("01000", "10111"),
        ("10000", "01111"),
    ]
    states = []
    for lo, hi in pairs:
        v = np.zeros(32, dtype=complex)
        v[int(lo, 2)] = 1 / math.sqrt(2)
        v[int(hi, 2)] = 1 / math.sqrt(2)
        states.append(v)
    return states


@dataclass(frozen=True, eq=False)
class OrthoFrame:
    """The 5x5 matrix A = [a b c d e] with A A^T = I/4 (2A orthogonal)."""

    matrix: np.ndarray

    def __post_init__(self):
        A = np.array(self.matrix, dtype=float)
        if A.shape != (5, 5):
            raise ValueError(f"frame matrix must be real 5x5, got shape {A.shape}")
        if not np.abs(A @ A.T - np.eye(5) / 4).max() <= FRAME_TOL:  # also rejects NaN
            raise ValueError("frame columns do not satisfy A A^T = I/4")
        A.setflags(write=False)
        object.__setattr__(self, "matrix", A)

    a = property(lambda self: self.matrix[:, 0])
    b = property(lambda self: self.matrix[:, 1])
    c = property(lambda self: self.matrix[:, 2])
    d = property(lambda self: self.matrix[:, 3])
    e = property(lambda self: self.matrix[:, 4])


def _completion_vector(e):
    """e as a float 5-vector; raises unless it is finite with |e|^2 = 1/4."""
    e = np.asarray(e, dtype=float)
    if e.shape != (5,):
        raise ValueError(f"e must have 5 components, got shape {e.shape}")
    if not abs(e @ e - 0.25) <= FRAME_TOL:  # also rejects NaN and inf
        raise ValueError(f"e must be finite with squared norm 1/4, got {e.tolist()}")
    return e


def frame_from_abcd(a, b, c, d):
    """Complete four orthogonal 1/4-norm columns with the unique e (sign-fixed)."""
    M = np.stack([np.asarray(v, dtype=float) for v in (a, b, c, d)], axis=1)
    if M.shape != (5, 4):
        raise ValueError("a, b, c, d must be real 5-vectors")
    if not np.abs(M.T @ M - np.eye(4) / 4).max() <= FRAME_TOL:  # also rejects NaN
        raise ValueError("a, b, c, d are not orthogonal with squared norm 1/4")
    e = np.linalg.svd(M.T)[2][4] / 2  # spans the null space of [a b c d]^T
    lead = e[np.abs(e) > 1e-12][0]
    return OrthoFrame(np.column_stack([M, e if lead > 0 else -e]))


def random_frame(rng):
    """Random frame: a Haar-random orthogonal 5x5 matrix scaled by 1/2."""
    return OrthoFrame(orthonormalize(rng.standard_normal((5, 5)))[0].real / 2)


def frame_with_e(e, rng):
    """A frame with the given completion column e and random (a, b, c, d).

    lambda* depends only on e, so this samples the locally-equivalent fiber
    over one signature class.
    """
    e = _completion_vector(e)
    complement = np.linalg.svd(e.reshape(1, 5))[2][1:]
    rotation = orthonormalize(rng.standard_normal((4, 4)))[0].real
    return OrthoFrame(np.column_stack([complement.T @ rotation / 2, e]))


def _spinors(frame):
    """|x_i> = g_i|0> + g_{i+5}|1>, |y_i> = g*_{i+5}|0> - g*_i|1>; g = (a + ib, c + id)."""
    g_lo, g_hi = frame.a + 1j * frame.b, frame.c + 1j * frame.d
    xs = np.stack([g_lo, g_hi], axis=1)
    ys = np.stack([g_hi.conj(), -g_lo.conj()], axis=1)
    return xs, ys


def code_623(frame):
    """The six-qubit code of a frame; raises if the exact family is violated."""
    s_states = np.array(s_basis_623())
    xs, ys = _spinors(frame)
    # sum_i |x_i> (x) |S_i>: each of the 32 indices lies in at most one S_i
    code = new_code(6, [(xs.T @ s_states).ravel(), (ys.T @ s_states).ravel()])
    violation = kl_violation(code, enumerate_error_basis(6, 3))
    if not violation <= CHECK_TOL:
        raise AssertionError(
            f"frame-family construction bug: KL violation {violation:.3e}"
        )
    return code


def predicted_signature_623(e, basis=None):
    """Closed-form signature components from the completion vector e.

    Nonzero entries sit on X_iX_j and Y_iY_j (value -2 e_{7-i} e_{7-j}) and on
    Z_iZ_j (value 2 e_{7-i}^2 + 2 e_{7-j}^2) for qubit pairs 2 <= i < j <= 6.
    """
    e = _completion_vector(e)
    if basis is None:
        basis = enumerate_error_basis(6, 3)
    elif basis.n != 6 or basis.d < 3:
        raise ValueError(
            f"the predicted signature needs a 6-qubit error basis with d >= 3, "
            f"got n={basis.n}, d={basis.d}"
        )
    comps = np.zeros(len(basis))
    for i, j in itertools.combinations(range(2, 7), 2):
        ei, ej = e[7 - i - 1], e[7 - j - 1]
        for letter, value in (
            ("X", -2 * ei * ej),
            ("Y", -2 * ei * ej),
            ("Z", 2 * ei ** 2 + 2 * ej ** 2),
        ):
            comps[basis.index_of[_word(6, (i, j), letter)]] = value
    return SignatureVector(basis=basis, components=comps)


def lambda_star_sq_623(e):
    """lambda*^2 = 1/2 + 8 sum_i e_i^4 for a valid completion vector."""
    return 0.5 + 8 * float(np.sum(_completion_vector(e) ** 4))


def single_param_frame_623(theta):
    """The one-parameter frame whose lambda*^2 runs over [0.6, 1]."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    c, s = math.cos(theta), math.sin(theta)
    return OrthoFrame(0.5 * np.array(
        [
            [0.5, 0.5, 0.5, 0.5 * c, 0.5 * s],
            [0.5, -0.5, -0.5, 0.5 * c, 0.5 * s],
            [-0.5, 0.5, -0.5, 0.5 * c, 0.5 * s],
            [-0.5, -0.5, 0.5, 0.5 * c, 0.5 * s],
            [0.0, 0.0, 0.0, -s, c],
        ]
    ))


def block_eigenvalues(r, s):
    """Eigenvalues of the 5x5 correlation block [[1, r..], [r, 1, s..], ...]."""
    root = math.sqrt(9 * s ** 2 + 16 * r ** 2)
    return np.array([1 - s, 1 - s, 1 - s, (2 + 3 * s + root) / 2, (2 + 3 * s - root) / 2])


# frame-rotation generators: skew 4x4 with +1 at (i,j), -1 at (j,i)
def _skew(i, j):
    m = np.zeros((4, 4))
    m[i, j] = 1.0
    m[j, i] = -1.0
    return m


SO4_GENERATORS = {
    "K1": _skew(0, 1) + _skew(2, 3),
    "K2": _skew(0, 1) - _skew(2, 3),
    "K3": _skew(1, 2) + _skew(0, 3),
    "K4": _skew(1, 2) - _skew(0, 3),
    "K5": _skew(0, 2) + _skew(1, 3),
    "K6": _skew(0, 2) - _skew(1, 3),
}

# generator -> (rotation-angle sign, which unitary realizes the same code map)
SO4_CORRESPONDENCE = {
    "K4": (+1.0, "X1"),
    "K5": (+1.0, "Y1"),
    "K2": (-1.0, "Z1"),
    "K3": (+1.0, "XL"),
    "K6": (-1.0, "YL"),
    "K1": (-1.0, "ZL"),
}

def _rot2(axis, theta):
    """exp(-i theta sigma_axis)."""
    sigma = dense_matrix(pauli_from_string(axis))
    return math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * sigma


@dataclass(frozen=True)
class So4Report:
    unitary: str
    projector_deviation: float
    state_deviation: float


def so4_check(frame, generator, theta):
    """Check one frame-rotation vs unitary correspondence for the 6-qubit family.

    Rotating the (a, b, c, d) block by exp(sign * theta * K) must reproduce the
    code obtained by the matching unitary: a rotation of qubit 1 for X1/Y1/Z1,
    or a rotation within the logical span for XL/YL/ZL.
    """
    if generator not in SO4_GENERATORS:
        raise ValueError(f"unknown generator {generator!r}")
    sign, unitary = SO4_CORRESPONDENCE[generator]
    # exp(t K) = cos t I + sin t K, exact because every generator squares to -I
    t = sign * theta
    rot = math.cos(t) * np.eye(4) + math.sin(t) * SO4_GENERATORS[generator]
    lhs = code_623(OrthoFrame(np.column_stack([frame.matrix[:, :4] @ rot, frame.e])))

    base = code_623(frame)
    if unitary in ("X1", "Y1", "Z1"):
        rhs = apply_local_unitary(base, [_rot2(unitary[0], theta)] + [np.eye(2)] * 5)
    else:
        rhs = CodeSubspace(n=6, K=2, basis=base.basis @ _rot2(unitary[0], theta))

    proj_dev = float(np.abs(lhs.projector - rhs.projector).max())
    state_dev = float(np.abs(lhs.basis - rhs.basis).max())
    return So4Report(unitary=unitary, projector_deviation=proj_dev, state_deviation=state_dev)


# ---------------------------------------------------------------------------
# the ((7,2,3)) permutation-invariant and cyclic families


def dicke(n, k):
    """Normalized uniform superposition of all weight-k basis states."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    v = np.zeros(2 ** n, dtype=complex)
    v[np.bitwise_count(np.arange(2 ** n)) == k] = 1 / math.sqrt(math.comb(n, k))
    return v


def perm_code_723(variant="plus"):
    """Permutation-invariant seven-qubit code; both sign variants reach lambda* = sqrt(7)."""
    if variant == "plus":
        signs = (math.sqrt(15), -SQRT7, math.sqrt(21), math.sqrt(21))
    elif variant == "minus":
        signs = (math.sqrt(15), SQRT7, math.sqrt(21), -math.sqrt(21))
    else:
        raise ValueError(f"variant must be 'plus' or 'minus', got {variant!r}")
    zero_l = sum(w * dicke(7, k) for w, k in zip(signs, (0, 2, 4, 6))) / 8
    return new_code(7, [zero_l, apply_pauli("X" * 7, zero_l)])


def _cyclic_orbit_state(pattern):
    n = len(pattern)
    orbit = {int(pattern[i:] + pattern[:i], 2) for i in range(n)}
    v = np.zeros(2 ** n, dtype=complex)
    v[sorted(orbit)] = 1 / math.sqrt(len(orbit))
    return v


CYCLIC_ORBIT_PATTERNS = (
    "0000000",
    "0000011",
    "0000101",
    "0001001",
    "0001111",
    "0011011",
    "0011101",
    "0101011",
    "0010111",
    "0111111",
)


def cyclic_basis_723():
    """The ten even-weight cyclic orbit states on seven qubits."""
    return [_cyclic_orbit_state(p) for p in CYCLIC_ORBIT_PATTERNS]


@dataclass(frozen=True)
class CyclicCoeffs:
    c0: float
    c1: float
    c2: float
    c3: float
    c4: float

    @property
    def as_array(self):
        return np.array([self.c0, self.c1, self.c2, self.c3, self.c4])


def cyclic_constraint_residuals(c):
    """Residuals of the four coefficient constraints (normalization, Z, X, Y)."""
    c0, c1, c2, c3, c4 = c.as_array
    return np.array(
        [
            c0 ** 2 + c1 ** 2 + c2 ** 2 + c3 ** 2 + c4 ** 2 - 1,
            7 * c0 ** 2 + 3 * c1 ** 2 - c2 ** 2 - c3 ** 2 - 5 * c4 ** 2,
            2 * SQRT7 * c0 * c4 + 2 * math.sqrt(3) * c1 * c2 + 4 * math.sqrt(3) * c1 * c3
            + 4 * math.sqrt(3) * c1 * c4 + 4 * c2 * c3 + 3 * c3 ** 2,
            2 * SQRT7 * c0 * c4 + 2 * math.sqrt(3) * c1 * c2 + 4 * math.sqrt(3) * c1 * c3
            - 4 * math.sqrt(3) * c1 * c4 - 4 * c2 * c3 - 3 * c3 ** 2,
        ]
    )


def cyclic_coeffs_from_lambda(lam, branch_c1=-1, branch_c3=-1):
    """Closed-form cyclic coefficients for a target signature norm lambda*.

    Parameters
    ----------
    lam : float in [0, sqrt(7)]
    branch_c1, branch_c3 : +1 or -1, selecting the sign of c1 and the root
        taken in c3.  All four combinations solve the constraints; the
        c1 = -1 branch matches the 'plus' permutation code at lambda* = sqrt(7).
    """
    if not 0 <= lam <= SQRT7 + 1e-12:  # also rejects NaN
        raise ValueError(f"lambda* must lie in [0, sqrt(7)], got {lam}")
    if branch_c1 not in (-1, 1) or branch_c3 not in (-1, 1):
        raise ValueError("branches must be +1 or -1")
    lam = min(float(lam), SQRT7)
    c0 = math.sqrt(SQRT7 * lam + 8) / 8
    c1 = branch_c1 * math.sqrt(SQRT7 * lam) / 8
    c4 = -math.sqrt(3) * c1
    # 7 c0^2 - 15 sqrt(7) lam / 64 simplified; snap the exact-endpoint noise
    # (sqrt(7)*sqrt(7) != 7 in floats) so both c3 branches coincide there
    disc = (7 - SQRT7 * lam) / 8
    if disc < 1e-13:
        disc = 0.0
    c3 = 0.4 * (SQRT7 * c0 + branch_c3 * math.sqrt(disc))
    c2 = -2 * c3 + SQRT7 * c0
    coeffs = CyclicCoeffs(c0=c0, c1=c1, c2=c2, c3=c3, c4=c4)
    residual = float(np.abs(cyclic_constraint_residuals(coeffs)).max())
    if not residual <= 1e-12:
        raise ValueError(f"cyclic coefficients miss the constraints by {residual:.3e}")
    return coeffs


def cyclic_code_723(coeffs):
    """Build the cyclic seven-qubit code of a coefficient set."""
    residuals = cyclic_constraint_residuals(coeffs)
    if not np.abs(residuals).max() <= CHECK_TOL:  # also rejects NaN
        raise ValueError(
            "coefficients violate the constraints; residuals "
            + ", ".join(f"{r:.3e}" for r in residuals)
        )
    basis = cyclic_basis_723()
    weights = [
        coeffs.c0,
        coeffs.c1 / math.sqrt(3), coeffs.c1 / math.sqrt(3), coeffs.c1 / math.sqrt(3),
        coeffs.c3 / 2, coeffs.c3 / 2, coeffs.c3 / 2, coeffs.c3 / 2,
        coeffs.c2,
        coeffs.c4,
    ]
    zero_l = sum(w * v for w, v in zip(weights, basis))
    return new_code(7, [zero_l, apply_pauli("X" * 7, zero_l)])


# ---------------------------------------------------------------------------
# residual bookkeeping for the cyclic coefficient elimination


@dataclass(frozen=True, eq=False)
class EliminationReport:
    constraint_residuals: np.ndarray  # the four coefficient constraints
    difference_residual: float        # 4 sqrt(3) c1 c4 + 4 c2 c3 + 3 c3^2
    sum_residual: float               # sqrt(7) c0 c4 + sqrt(3) c1 c2 + 2 sqrt(3) c1 c3
    quartic_residual: float
    factored_residual: float
    linear_factor: float              # c4 + sqrt(3) c1

    @property
    def max_abs(self):
        return max(
            float(np.abs(self.constraint_residuals).max()),
            abs(self.difference_residual),
            abs(self.sum_residual),
            abs(self.quartic_residual),
            abs(self.factored_residual),
        )


def appendix_b_residuals(coeffs):
    """Numerical residuals of the coefficient-elimination identities.

    For closed-form coefficient sets every residual vanishes to round-off and
    the linear factor c4 + sqrt(3) c1 is exactly zero.
    """
    c0, c1, c2, c3, c4 = coeffs.as_array
    s3 = math.sqrt(3)
    diff = 4 * s3 * c1 * c4 + 4 * c2 * c3 + 3 * c3 ** 2
    total = SQRT7 * c0 * c4 + s3 * c1 * c2 + 2 * s3 * c1 * c3
    quartic = (
        28 * c4 ** 4
        + (7 + 8 * c1 ** 2) * c4 ** 2
        + 96 * s3 * c1 ** 3 * c4
        + (12 * c1 ** 4 - 21 * c1 ** 2)
    )
    cubic = (
        28 * c4 ** 3
        - 28 * s3 * c1 * c4 ** 2
        + (92 * c1 ** 2 + 7) * c4
        + s3 * (4 * c1 ** 3 - 7 * c1)
    )
    linear = c4 + s3 * c1
    return EliminationReport(
        constraint_residuals=cyclic_constraint_residuals(coeffs),
        difference_residual=diff,
        sum_residual=total,
        quartic_residual=quartic,
        factored_residual=linear * cubic,
        linear_factor=linear,
    )


# ---------------------------------------------------------------------------
# Hamiltonian ground-space checks


def hamiltonian_623():
    """-2 Z2 (Z3+Z4+Z5+Z6) + (1/2) sum_{i != j in 3..6} Zi Zj, dense 64x64."""
    return _pauli_sum(6, [(-2, _word(6, (2, i), "Z")) for i in (3, 4, 5, 6)]
                      + [(1, _word(6, pair, "Z"))
                         for pair in itertools.combinations((3, 4, 5, 6), 2)])


def hamiltonian_723():
    """-sum_{i != j} (Xi Xj + Yi Yj + Zi Zj) on seven qubits, dense 128x128."""
    return _pauli_sum(7, [(-2, _word(7, pair, letter))
                          for pair in itertools.combinations(range(1, 8), 2)
                          for letter in "XYZ"])


@dataclass(frozen=True)
class GroundSpaceReport:
    ground_energy: float
    degeneracy: int
    codeword_residual: float
    reference_subspace_deviation: float


def hamiltonian_ground_check(which):
    """Diagonalize the named Hamiltonian and verify degeneracy and containment.

    ``h623``: 16-fold ground space containing both theta = 0 codewords.
    ``h723``: 8-fold ground space equal to the Dicke (symmetric) span and
    containing the lambda* = sqrt(7) codewords.
    """
    if which == "h623":
        h = hamiltonian_623()
        code = code_623(single_param_frame_623(0.0))
        reference = None
    elif which == "h723":
        h = hamiltonian_723()
        code = perm_code_723("plus")
        reference = np.stack([dicke(7, k) for k in range(8)], axis=1)
    else:
        raise ValueError(f"unknown Hamiltonian {which!r}")
    vals, vecs = np.linalg.eigh(h)
    ground = vals[0]
    sel = vals <= ground + GAP_TOL
    gs = vecs[:, sel]
    proj = gs @ gs.conj().T
    codeword_residual = float(np.abs(proj @ code.basis - code.basis).max())
    if reference is not None:
        ref_proj = reference @ reference.conj().T
        ref_dev = float(np.abs(proj - ref_proj).max())
    else:
        ref_dev = 0.0
    return GroundSpaceReport(
        ground_energy=float(ground),
        degeneracy=int(sel.sum()),
        codeword_residual=codeword_residual,
        reference_subspace_deviation=ref_dev,
    )
