"""Exact n-qubit Pauli string algebra.

Pauli words are stored as plain letter strings over ``IXYZ`` with qubit 1 as
the leftmost letter (and the most significant bit of computational-basis
indices).  Products track their scalar phase exactly as a power of i, never
as a float.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

PAULI_LETTERS = "IXYZ"

# i^k for k = 0..3, as exact complex literals
PHASES = (1 + 0j, 1j, -1 + 0j, -1j)
PHASE_LABELS = ("+", "+i", "-", "-i")

_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# single-qubit product table: (p, q) -> (i exponent, resulting letter)
_CYCLIC = {("X", "Y"): "Z", ("Y", "Z"): "X", ("Z", "X"): "Y"}


def _single_product(p, q):
    if p == "I":
        return 0, q
    if q == "I":
        return 0, p
    if p == q:
        return 0, "I"
    if (p, q) in _CYCLIC:
        return 1, _CYCLIC[(p, q)]
    return 3, _CYCLIC[(q, p)]


_PRODUCT_TABLE = {
    (p, q): _single_product(p, q) for p in PAULI_LETTERS for q in PAULI_LETTERS
}

MAX_DENSE_QUBITS = 12


@dataclass(frozen=True)
class PauliString:
    """A phase-free n-qubit Pauli word."""

    letters: str

    def __post_init__(self):
        for pos, ch in enumerate(self.letters):
            if ch not in PAULI_LETTERS:
                raise ValueError(
                    f"invalid Pauli letter {ch!r} at position {pos + 1} in {self.letters!r}"
                )
        if len(self.letters) < 1:
            raise ValueError("empty Pauli string")

    @property
    def n(self):
        return len(self.letters)

    @cached_property
    def weight(self):
        return sum(ch != "I" for ch in self.letters)

    @cached_property
    def x_mask(self):
        """Bit mask of sites that flip basis states (X or Y letters)."""
        mask = 0
        for ch in self.letters:
            mask = (mask << 1) | (ch in "XY")
        return mask

    @cached_property
    def z_mask(self):
        """Bit mask of sites that contribute (-1)^bit signs (Z or Y letters)."""
        mask = 0
        for ch in self.letters:
            mask = (mask << 1) | (ch in "YZ")
        return mask

    @cached_property
    def y_count(self):
        return sum(ch == "Y" for ch in self.letters)

    def __str__(self):
        return self.letters


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli word with an exact scalar phase i^phase_exp."""

    phase_exp: int
    word: PauliString

    def __post_init__(self):
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @property
    def phase(self):
        return PHASES[self.phase_exp]

    @property
    def n(self):
        return self.word.n

    def __str__(self):
        return PHASE_LABELS[self.phase_exp] + self.word.letters


def pauli_from_string(text):
    """Parse a letter string such as ``"YIZXXY"`` into a PauliString."""
    return PauliString(str(text))


def phased_pauli_from_string(text):
    """Parse an optional phase prefix (+, +i, -, -i) followed by letters."""
    text = str(text).replace("−", "-")  # unicode minus
    for k, label in sorted(enumerate(PHASE_LABELS), key=lambda t: -len(t[1])):
        if text.startswith(label):
            return PhasedPauli(k, PauliString(text[len(label):]))
    return PhasedPauli(0, PauliString(text))


def _as_phased(p):
    if isinstance(p, PhasedPauli):
        return p
    if isinstance(p, PauliString):
        return PhasedPauli(0, p)
    return PhasedPauli(0, pauli_from_string(p))


def multiply(p, q):
    """Sitewise product of two (phased) Pauli words with exact phase tracking."""
    p, q = _as_phased(p), _as_phased(q)
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} vs {q.n}")
    k = p.phase_exp + q.phase_exp
    out = []
    for a, b in zip(p.word.letters, q.word.letters):
        dk, c = _PRODUCT_TABLE[(a, b)]
        k += dk
        out.append(c)
    return PhasedPauli(k % 4, PauliString("".join(out)))


def commutes(p, q):
    """True when the two words commute (sitewise anticommutation parity even)."""
    p, q = _as_phased(p).word, _as_phased(q).word
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} vs {q.n}")
    par = bin(p.x_mask & q.z_mask).count("1") + bin(p.z_mask & q.x_mask).count("1")
    return par % 2 == 0


@dataclass(frozen=True)
class ErrorBasis:
    """All Pauli words with 0 < weight < d on n qubits, in (weight, lex) order."""

    n: int
    d: int
    ops: tuple

    def __len__(self):
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __getitem__(self, idx):
        return self.ops[idx]

    @cached_property
    def index_of(self):
        return {op.letters: k for k, op in enumerate(self.ops)}

    @cached_property
    def action(self):
        """Stacked output-indexed action: (O_a v)[y] = amps[a, y] * v[perms[a, y]]."""
        perms = np.empty((len(self.ops), 2 ** self.n), dtype=np.intp)
        amps = np.empty((len(self.ops), 2 ** self.n), dtype=complex)
        for k, op in enumerate(self.ops):
            perm, amp = pauli_action(op)
            perms[k] = perm
            amps[k] = amp[perm]
        perms.setflags(write=False)
        amps.setflags(write=False)
        return perms, amps


def expected_error_basis_size(n, d):
    return sum(math.comb(n, w) * 3 ** w for w in range(1, d))


@lru_cache(maxsize=None)
def enumerate_error_basis(n, d):
    """Enumerate the error basis {O : 0 < wt(O) < d} on n qubits.

    Words are sorted by (weight, lexicographic letters); the letter order
    I < X < Y < Z coincides with ASCII order.  Results are cached; ErrorBasis
    values are immutable.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if d < 2:
        raise ValueError(f"need d >= 2 for a non-empty error basis, got d={d}")
    if d > n + 1:
        raise ValueError(f"need d <= n+1, got d={d} with n={n}")
    ops = []
    for w in range(1, d):
        words = []
        for sites in itertools.combinations(range(n), w):
            for letters in itertools.product("XYZ", repeat=w):
                word = ["I"] * n
                for s, ch in zip(sites, letters):
                    word[s] = ch
                words.append("".join(word))
        words.sort()
        ops.extend(PauliString(w_) for w_ in words)
    basis = ErrorBasis(n=n, d=d, ops=tuple(ops))
    if len(basis) != expected_error_basis_size(n, d):
        raise ValueError(f"error basis has {len(basis)} words, expected "
                         f"{expected_error_basis_size(n, d)}")
    return basis


def parity_signs(n):
    """(-1)^popcount(i) for i in [0, 2^n), as an int8 array."""
    bits = np.arange(2 ** n, dtype=np.uint32)
    par = np.zeros(2 ** n, dtype=np.int8)
    while bits.any():
        par ^= (bits & 1).astype(np.int8)
        bits >>= 1
    return 1 - 2 * par


def pauli_action(p):
    """Signed-permutation form of a Pauli word: O|x> = amp[x] |perm[x]>.

    Returns (perm, amp) with perm[x] = x XOR x_mask and
    amp[x] = i^{#Y} (-1)^{popcount(x AND z_mask)}.  Exact in floating point.
    """
    p = _as_phased(p).word
    xs = np.arange(2 ** p.n, dtype=np.intp)
    perm = xs ^ p.x_mask
    amp = PHASES[p.y_count % 4] * parity_signs(p.n)[xs & p.z_mask].astype(complex)
    return perm, amp


def apply_pauli(p, vec):
    """Apply a Pauli word to a state vector or to the columns of a matrix."""
    perm, amp = pauli_action(p)
    v = np.asarray(vec)
    if v.ndim == 1:
        return amp[perm] * v[perm]
    return amp[perm][:, None] * v[perm, :]


def dense_matrix(p):
    """Dense 2^n x 2^n matrix of a Pauli word (qubit 1 = most significant bit)."""
    p = _as_phased(p).word
    if p.n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense matrix guard: n={p.n} exceeds {MAX_DENSE_QUBITS}")
    out = np.array([[1.0 + 0j]])
    for ch in p.letters:
        out = np.kron(out, _PAULI_MATS[ch])
    return out
