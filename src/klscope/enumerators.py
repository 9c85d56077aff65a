"""Quantum weight enumerators of a code projector.

A_j = K^-2 sum_{wt(O)=j} Tr(O P) Tr(O^dag P) and
B_j = K^-1 sum_{wt(O)=j} Tr(O P O^dag P), summed over all 4^n Pauli words.
They are computed in Rains' subset-purity form (E. Rains, "Quantum weight
enumerators", IEEE Trans. Inf. Theory 44, 1998): for a qubit subset S with
rho_S = Tr_{S^c} P, the words supported inside S sum to
sum_{supp(O) in S} Tr(O P) Tr(O^dag P) = 2^|S| Tr(rho_S^2) and
sum_{supp(O) in S} Tr(O P O^dag P) = 2^|S| Tr(rho_{S^c}^2).
Summing over |S| = s gives A'_s = sum_j C(n-j, s-j) A_j, and B'_s the same
way; binomial inversion recovers A_j and B_j.  Each purity is one Gram
matrix of the 2^n x K codeword block reshaped to S versus the rest.  The
inversion is lower-triangular: A_j and B_j for j < d need only the subsets with
|S| < d (A') or |S| > n - d (B'), so ``weight_enumerators(code, d)`` visits only
those and returns arrays of length min(d, n + 1).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .codespace import is_integer

MAX_ENUMERATOR_QUBITS = 12


@dataclass(frozen=True, eq=False)
class WeightEnumerator:
    n: int
    A: np.ndarray  # A_0..A_{m-1}, m = min(d, n + 1) (n + 1 in full); A[0] = 1
    B: np.ndarray  # B_0..B_{m-1}


def weight_enumerators(code, d=None):
    """A_j and B_j for j < min(d, n + 1) from the subset purities Tr(rho_S^2) they
    need: all 2^n without ``d`` (so n <= MAX_ENUMERATOR_QUBITS), else 2 sum_{s<d} C(n, s)."""
    if d is not None and (not is_integer(d) or d < 1):
        raise ValueError(f"d must be an integer of at least 1, or None; got d={d!r}")
    n, K = code.n, code.K
    if d is None and n > MAX_ENUMERATOR_QUBITS:
        raise ValueError(f"enumerator guard: n={n} exceeds {MAX_ENUMERATOR_QUBITS}")
    terms = n + 1 if d is None else min(d, n + 1)
    psi = code.basis.reshape((2,) * n + (K,))
    a_prime = np.zeros(n + 1)  # A'_s = sum_{|S|=s} 2^s Tr(rho_S^2)
    b_prime = np.zeros(n + 1)  # B'_s = sum_{|S|=s} 2^s Tr(rho_{S^c}^2)
    for s in sorted({*range(terms), *range(n + 1 - terms, n + 1)}):
        for keep in itertools.combinations(range(n), s):
            rest = [q for q in range(n) if q not in keep]
            m = psi.transpose(list(keep) + rest + [n]).reshape(2 ** s, -1)
            # rho_S = m m^dag; m^dag m has the same nonzero spectrum
            gram = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m
            purity = np.vdot(gram, gram).real
            a_prime[s] += 2 ** s * purity
            b_prime[n - s] += 2 ** (n - s) * purity  # keep is S^c of an (n-s)-subset
    inverse = np.array([[(-1) ** (j - s) * math.comb(n - s, j - s) if s <= j else 0
                         for s in range(n + 1)] for j in range(n + 1)], dtype=float)
    # rows j < terms meet the unvisited sizes only in zeros: bitwise the full head
    A, B = inverse @ a_prime / K ** 2, inverse @ b_prime / K
    return WeightEnumerator(n=n, A=A[:terms], B=B[:terms])


def closed_form_723(lam):
    """Closed-form enumerator of the seven-qubit cyclic family at a given lambda*."""
    if not 0 <= lam <= math.sqrt(7) + 1e-9:  # also rejects NaN
        raise ValueError(f"lambda* must lie in [0, sqrt(7)], got {lam}")
    t = lam ** 2
    A = np.array([1.0, 0.0, t, 0.0, 21 - 2 * t, 0.0, 42 + t, 0.0])
    B = np.array([1.0, 0.0, t, 3 * (7 + t), 21 - 2 * t, 6 * (21 - t), 42 + t, 3 * (15 + t)])
    return WeightEnumerator(n=7, A=A, B=B)


def closed_form_623(theta):
    """Closed-form enumerator of the six-qubit single-parameter family."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    c2, c4 = math.cos(2 * theta), math.cos(4 * theta)
    A = np.array(
        [
            1.0,
            0.0,
            3 / 16 * c2 + 5 / 64 * c4 + 47 / 64,
            -3 / 16 * c2 - 5 / 64 * c4 + 17 / 64,
            -3 / 16 * c2 - 5 / 64 * c4 + 721 / 64,
            3 / 16 * c2 + 5 / 64 * c4 + 1007 / 64,
            3.0,
        ]
    )
    B = np.array(
        [
            1.0,
            0.0,
            3 / 16 * c2 + 5 / 64 * c4 + 47 / 64,
            3 / 8 * c2 + 5 / 32 * c4 + 751 / 32,
            -3 / 4 * c2 - 5 / 16 * c4 + 577 / 16,
            -3 / 8 * c2 - 5 / 32 * c4 + 1297 / 32,
            9 / 16 * c2 + 15 / 64 * c4 + 1677 / 64,
        ]
    )
    return WeightEnumerator(n=6, A=A, B=B)


def lambda_star_sq_from_enumerator(we, d=3):
    """lambda*^2 = A_1 + ... + A_{d-1} for a code of distance d, with d <= len(we.A)."""
    if not is_integer(d) or not 2 <= d <= len(we.A):
        raise ValueError(f"d must be an integer in [2, {len(we.A)}], got d={d!r}")
    return float(we.A[1:d].sum())


def enumerator_to_csv(we):
    """CSV text with rows (j, A_j, B_j)."""
    lines = ["j,A_j,B_j"]
    for j in range(len(we.A)):
        lines.append(f"{j},{float(we.A[j])!r},{float(we.B[j])!r}")
    return "\n".join(lines) + "\n"
