"""Stabilizer codes: generator parsing, codeword extraction, built-in codes.

The code space of a stabilizer group is the joint +1 eigenspace of its
generators, the range of prod_g (I + g)/2.  It is read off from projected K+1
vectors (seeded random ones pushed through that product, orthonormalized), so
no 2^n x 2^n matrix is formed; their rank, capped at K+1, is its dimension.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .codespace import CodeSubspace, orthonormalize
from .pauli import apply_pauli, commutes, pauli_from_string

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

# any seed spans the same space; a fixed one gives the same basis on every call
_PROJECTION_SEED = 9705052


def _parse_row(row):
    """A generator row, blanks ignored, as a signed word: an optional sign
    (+, - or the unicode minus) before its letters, + when absent."""
    text = "".join(str(row).split()).replace("\u2212", "-")
    signed = text[:1] in ("+", "-")
    if signed and text[1:2] == "i":
        raise ValueError(f"generator phase must be +1 or -1, got {text}")
    return (text[0] if signed else "+") + pauli_from_string(text[signed:]).letters


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


@dataclass(frozen=True)
class StabilizerCode:
    """A stabilizer group on n qubits: generator rows, held as signed words
    such as "+XZZXI" (``_parse_row``), checked to have length n, commute and
    be independent over GF(2)."""

    n: int
    generators: tuple

    def __post_init__(self):
        gens = tuple(_parse_row(r) for r in self.generators)
        if not gens:
            raise ValueError("no generators given")
        words = [pauli_from_string(g[1:]) for g in gens]
        for g, w in zip(gens, words):
            if w.n != self.n:
                raise ValueError(f"generator length mismatch: {g} has n={w.n}, expected {self.n}")
        for a, b in itertools.combinations(words, 2):
            if not commutes(a, b):
                raise ValueError(f"generators anticommute: {a} and {b}")
        if _gf2_rank([(w.x_mask << self.n) | w.z_mask for w in words]) < len(gens):
            raise ValueError("generators are dependent over GF(2)")
        object.__setattr__(self, "generators", gens)

    @property
    def K(self):
        return 2 ** (self.n - len(self.generators))


def parse_generators(rows):
    """The StabilizerCode of generator rows, n the length of the first."""
    rows = tuple(rows)
    return StabilizerCode(n=len(_parse_row(rows[0])) - 1 if rows else 0, generators=rows)


def _project(code, block):
    """prod_g (I + g)/2 applied to the columns of ``block``."""
    for g in code.generators:
        block = (block + (-1.0 if g[0] == "-" else 1.0) * apply_pauli(g[1:], block)) / 2
    return block


def codespace_from_stabilizer(code):
    """Orthonormal basis of the joint +1 eigenspace of the generators.

    K + 1 seeded Gaussian vectors are projected onto the eigenspace and
    orthonormalized; their rank is its dimension up to K + 1, so the extra
    vector would show a dimension above K.  A StabilizerCode is checked when
    built, so the dimension is K, and ``rank != K`` is a self-check.
    """
    block = np.random.default_rng(_PROJECTION_SEED).standard_normal((2 ** code.n, code.K + 1))
    q, rank = orthonormalize(_project(code, block))
    if rank != code.K:
        raise ValueError(f"eigenspace dimension {rank} != expected K={code.K}")
    return CodeSubspace(n=code.n, K=code.K, basis=q[:, :rank])


def builtin(name):
    """Named stabilizer codes: ``steane`` ((7,2,3)), ``shaw623`` ((6,2,3)),
    ``code513`` [[5,1,3]], ``gottesman833`` [[8,3,3]] and ``shor913`` [[9,1,3]]."""
    try:
        rows = BUILTIN_GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; available: {sorted(BUILTIN_GENERATORS)}"
        ) from None
    return parse_generators(rows)
