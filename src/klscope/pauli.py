"""Exact n-qubit Pauli string algebra.

Pauli words are stored as plain letter strings over ``IXYZ`` with qubit 1 as
the leftmost letter (and the most significant bit of computational-basis
indices).  Products track their scalar phase exactly as a power of i, never
as a float.

``ErrorBasis.action`` is the basis as a MarginalKernel: a word of weight < d
lies on a (d-1)-qubit subset S, so <psi_i|O|psi_j> is a linear read-off of
S's Gram block, the subset-marginal form of Rains' weight enumerators.
"""

import itertools
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
    """Sitewise product of two (phased) Pauli words with exact phase tracking.

    A word is i^{#Y} X^x Z^z over its masks, and Z^z X^x = (-1)^{|z & x|} X^x Z^z,
    so PQ = i^{#Y_P + #Y_Q - #Y_PQ} (-1)^{|z_P & x_Q|} X^{x_P ^ x_Q} Z^{z_P ^ z_Q}.
    """
    p, q = _as_phased(p), _as_phased(q)
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} vs {q.n}")
    a, b = p.word, q.word
    x, z = a.x_mask ^ b.x_mask, a.z_mask ^ b.z_mask
    k = (p.phase_exp + q.phase_exp + a.y_count + b.y_count - (x & z).bit_count()
         + 2 * (a.z_mask & b.x_mask).bit_count())
    letters = "".join("IXZY"[(x >> s & 1) + 2 * (z >> s & 1)] for s in reversed(range(a.n)))
    return PhasedPauli(k % 4, PauliString(letters))


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
        """The basis as a MarginalKernel on its (d-1)-qubit subsets.  On its
        subset a word is a signed permutation: row u has one entry, at column
        u ^ x for x its restricted x pattern."""
        letters = np.frombuffer("".join(op.letters for op in self.ops).encode(), np.uint8)
        letters = letters.reshape(len(self.ops), self.n)
        x, z = np.isin(letters, list(b"XY")), np.isin(letters, list(b"YZ"))
        subsets, index, sub = _subset_blocks(self.n, (x | z) @ _place(self.n))
        on_sub, k = (np.arange(len(self.ops))[:, None], subsets[sub]), subsets.shape[1]
        u = np.arange(2 ** k)
        v = u ^ (x[on_sub] @ _place(k))[:, None]
        odd = np.bitwise_count(v & (z[on_sub] @ _place(k))[:, None]) & 1
        phase = np.array(PHASES)[(letters == ord("Y")).sum(1) % 4]
        return MarginalKernel(index, (sub[:, None] << 2 * k) + (u << k) + v,
                              phase[:, None] * np.where(odd, -1.0, 1.0))


def _place(n):
    """Bit value of each of n qubits in a basis index."""
    return 1 << np.arange(n - 1, -1, -1)


def _subset_blocks(n, support):
    """For operators with these support bit masks: the (S, k) subsets of k
    qubits (k the largest support) in combination order, their subset_index,
    and for each operator the first subset that holds its support."""
    k = int(np.bitwise_count(support).max())
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
    outside = _place(n).sum() - _place(n)[subsets].sum(1)
    return subsets, subset_index(n, subsets), ((support[:, None] & outside) != 0).argmin(1)


def subset_index(n, subsets):
    """Basis-state indices of shape (S, 2^(n-k), 2^k) for (S, k) subsets of
    ascending 0-based qubits: entry [s, r, u] has subset s in state u and the
    other qubits in state r, each in qubit order."""
    subsets = np.asarray(subsets, dtype=np.intp)
    rest = np.array([[q for q in range(n) if q not in s] for s in subsets.tolist()], dtype=np.intp)

    def states(sites):  # (S, m) qubits -> (S, 2^m) basis indices of their joint states
        bits = (np.arange(2 ** sites.shape[1])[:, None] & _place(sites.shape[1])) != 0
        return _place(n)[sites] @ bits.T

    return states(rest.reshape(len(subsets), -1))[:, :, None] + states(subsets)[:, None, :]


class MarginalKernel:
    """Operator values <psi_i|O_a|psi_j> read off subset Gram blocks.

    ``index`` (S, R, D) gathers a dim x K isometry psi to one block
    psi[index[s]] per subset; operator a's values are
    sum_w coef[a, w] G[cols[a, w]], for G the blocks' Grams as rows (s, u, v)
    of K x K blocks.  ``inverse`` undoes the gather, and (cols_t, coef_t) are
    the read-off by column, padded with zero coefficients.
    """

    def __init__(self, index, cols, coef):
        S, R, D = index.shape
        self.index, self.cols, self.coef = index, cols, np.asarray(coef, dtype=complex)
        self.inverse = np.empty((S, R * D), dtype=np.intp)
        flat_position = np.arange(S * R * D).reshape(S, -1)
        self.inverse[np.arange(S)[:, None], index.reshape(S, -1)] = flat_position
        flat = cols.ravel()
        order = np.argsort(flat, kind="stable")
        counts = np.bincount(flat, minlength=S * D * D)
        slot = np.arange(flat.size) - (np.cumsum(counts) - counts)[flat[order]]
        self.cols_t = np.zeros((counts.size, counts.max()), dtype=np.intp)
        self.coef_t = np.zeros(self.cols_t.shape, dtype=complex)
        self.cols_t[flat[order], slot] = order // cols.shape[1]
        self.coef_t[flat[order], slot] = self.coef.ravel()[order]
        for arr in vars(self).values():
            arr.setflags(write=False)

    @classmethod
    def of_matrices(cls, mats):
        """Kernel of (n_ops, dim, dim) dense operators.  For dim = 2^n each is
        read from its nonzero entries on the first k-qubit subset that holds
        its support (k the largest support), so a Pauli word gets the row
        ErrorBasis.action builds.  Any other dim is one subset."""
        n_ops, dim, _ = mats.shape
        n = dim.bit_length() - 1
        index, sub = np.arange(dim).reshape(1, 1, dim), np.zeros(n_ops, dtype=np.intp)
        if 2 ** n == dim:
            acts = np.array([_acts_on(mats, n, q) for q in range(n)], dtype=bool).reshape(n, n_ops)
            _, index, sub = _subset_blocks(n, acts.T @ _place(n))
        corner = index[sub, 0]
        rows = mats[np.arange(n_ops)[:, None, None], corner[:, :, None], corner[:, None, :]]
        rows = rows.reshape(n_ops, -1)
        order = np.argsort(rows == 0, axis=1, kind="stable")
        order = order[:, : max(np.count_nonzero(rows, axis=1).max(), 1)]
        return cls(index, sub[:, None] * rows.shape[1] + order, np.take_along_axis(rows, order, 1))


def _acts_on(mats, n, q):
    """Per operator: not exactly the identity on qubit q (0-based)."""
    t = mats.reshape(len(mats), 2 ** q, 2, 2 ** (n - q - 1), 2 ** q, 2, 2 ** (n - q - 1))
    return (t != np.eye(2).reshape(2, 1, 1, 2, 1) * t[:, :, :1, :, :, :1]).any((1, 2, 3, 4, 5, 6))


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
    return ErrorBasis(n=n, d=d, ops=tuple(ops))


def pauli_action(p):
    """Signed-permutation form of a Pauli word: O|x> = amp[x] |perm[x]>.

    Returns (perm, amp) with perm[x] = x XOR x_mask and
    amp[x] = i^{#Y} (-1)^{popcount(x AND z_mask)}.  Exact in floating point.
    """
    p = _as_phased(p).word
    xs = np.arange(2 ** p.n, dtype=np.intp)
    perm = xs ^ p.x_mask
    # bitwise_count is uint8: take the sign with where, not 1 - 2 * parity
    odd = np.bitwise_count(xs & p.z_mask) & 1
    amp = PHASES[p.y_count % 4] * np.where(odd, -1.0, 1.0)
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
