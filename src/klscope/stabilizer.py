"""Stabilizer codes: generator parsing, codeword extraction, built-in codes.

The code space of a stabilizer group is the joint +1 eigenspace of its
generators.  It is the range of the dense projector prod_g (I + g)/2, read
off from one column-pivoted QR factorization of that projector.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .codespace import CodeSubspace
from .pauli import apply_pauli, commutes, phased_pauli_from_string

# generator tables for the named built-in codes
BUILTIN_GENERATORS = {
    "steane": (
        "X I X I X I X",
        "I X X I I X X",
        "I I I X X X X",
        "Z I Z I Z I Z",
        "I Z Z I I Z Z",
        "I I I Z Z Z Z",
    ),
    "shaw623": (
        "Y I Z X X Y",
        "Z X I I X Z",
        "I Z X X X X",
        "I I I Z I Z",
        "Z Z Z I Z I",
    ),
}


@dataclass(frozen=True)
class StabilizerCode:
    n: int
    generators: tuple  # PhasedPauli with phase +1 or -1

    @property
    def K(self):
        return 2 ** (self.n - len(self.generators))


def _parse_row(row):
    tokens = str(row).replace("−", "-").split()
    if tokens and tokens[0] in ("+", "-"):
        sign, tokens = tokens[0], tokens[1:]
        text = sign + "".join(tokens)
    else:
        text = "".join(tokens)
    g = phased_pauli_from_string(text)
    if g.phase_exp % 2 != 0:
        raise ValueError(f"generator phase must be +1 or -1, got {g}")
    return g


def _gf2_rank(rows_bits):
    rank = 0
    pivots = []
    for row in rows_bits:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
            rank += 1
    return rank


def parse_generators(rows):
    """Validate generator rows: equal length, commuting, independent."""
    gens = [_parse_row(r) for r in rows]
    if not gens:
        raise ValueError("no generators given")
    n = gens[0].n
    for g in gens[1:]:
        if g.n != n:
            raise ValueError(f"generator length mismatch: {g} has n={g.n}, expected {n}")
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            if not commutes(gens[a].word, gens[b].word):
                raise ValueError(
                    f"generators anticommute: {gens[a].word} and {gens[b].word}"
                )
    bits = [(g.word.x_mask << n) | g.word.z_mask for g in gens]
    if _gf2_rank(bits) < len(gens):
        raise ValueError("generators are dependent over GF(2)")
    if len(gens) > n:
        raise ValueError(f"more generators ({len(gens)}) than qubits ({n})")
    return StabilizerCode(n=n, generators=tuple(gens))


def stabilizer_projector(code):
    """Dense product of (I + g)/2 over the generators."""
    dim = 2 ** code.n
    proj = np.eye(dim, dtype=complex)
    for g in code.generators:
        proj = (proj + g.phase.real * apply_pauli(g.word, proj)) / 2
    return proj


def codespace_from_stabilizer(code):
    """Orthonormal basis of the joint +1 eigenspace of the generators.

    The first K columns of Q in the pivoted QR of the projector span its
    range; the rank is the number of |diag R| above 1e-8.
    """
    q, r, _ = scipy.linalg.qr(stabilizer_projector(code), mode="economic", pivoting=True)
    rank = int(np.sum(np.abs(np.diag(r)) > 1e-8))
    if rank == 0:
        raise ValueError("empty joint eigenspace of the generators")
    if rank != code.K:
        raise ValueError(f"eigenspace dimension {rank} != expected K={code.K}")
    return CodeSubspace(n=code.n, K=code.K, basis=q[:, :rank])


def builtin(name):
    """Named stabilizer codes: ``steane`` ((7,2,3)) and ``shaw623`` ((6,2,3))."""
    try:
        rows = BUILTIN_GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; available: {sorted(BUILTIN_GENERATORS)}"
        ) from None
    return parse_generators(rows)
