"""Exact n-qubit Pauli string algebra.

Pauli words are stored as plain letter strings over ``IXYZ`` with qubit 1 as
the leftmost letter (and the most significant bit of computational-basis
indices).  The Y factors of a word's action are held exactly as powers of
i, never as floats.

Operators reach the KL contraction only as Pauli words, through a
``MarginalKernel`` (``ErrorBasis.action`` for an error basis): a word of
weight < d lies on a (d-1)-qubit subset S, so <psi_i|O|psi_j> is a linear
read-off of S's Gram block (the subset-marginal form of Rains' weight
enumerators), and the read-off of all words is one sparse matrix.  The
kernel owns that contraction (``values``) and its adjoint (``adjoint``).  No
2^n x 2^n matrix is formed; ``dense_matrix`` (a Kronecker product) is the
independent reference the tests compare against.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse

PAULI_LETTERS = "IXYZ"

# i^k for k = 0..3, as exact complex literals
PHASES = (1 + 0j, 1j, -1 + 0j, -1j)

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


def pauli_from_string(text):
    """Parse a letter string such as ``"YIZXXY"``; a PauliString passes through."""
    return text if isinstance(text, PauliString) else PauliString(str(text))


def commutes(p, q):
    """True when the two words commute (sitewise anticommutation parity even)."""
    p, q = pauli_from_string(p), pauli_from_string(q)
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

    @cached_property
    def index_of(self):
        return {op.letters: k for k, op in enumerate(self.ops)}

    @cached_property
    def action(self):
        """The basis as a MarginalKernel on its (d-1)-qubit subsets."""
        return MarginalKernel(self.ops)


def _place(n):
    """Bit value of each of n qubits in a basis index."""
    return 1 << np.arange(n - 1, -1, -1)


def _signed_rows(x, z, y, k):
    """Signed-permutation rows of k-qubit Pauli words with masks x, z and y
    Y letters (integers, or (m,) arrays for m words): row u holds
    i^y (-1)^|v & z| at column v = u ^ x.  Returns (v, coef), u the last axis."""
    x, z, y = (np.asarray(a)[..., None] for a in (x, z, y))
    v = np.arange(2 ** k) ^ x
    # bitwise_count is uint8: take the sign with where, not 1 - 2 * parity
    odd = np.bitwise_count(v & z) & 1
    return v, np.array(PHASES)[y % 4] * np.where(odd, -1.0, 1.0)


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
    """Values <psi_i|O_a|psi_j> of equal-length Pauli words O_a (letter
    strings or PauliStrings), read off Gram blocks on the k-qubit subsets, k
    the largest weight, in combination order.

    ``index`` (S, R, D) gathers a ``dim`` x K isometry psi to one block
    psi[index[s]] per subset, and ``inverse`` undoes the gather.  Each word
    is read on the first subset that holds its support, where it is a signed
    permutation, the rows of ``_signed_rows``: ``readoff`` is the (n_ops, S
    D^2) CSR matrix of those rows, applied to the blocks' Grams as rows (s,
    u, v) of K x K blocks, and ``readoff_t``, its transpose, also CSR, reads
    the adjoint.  Every array is read-only.
    """

    def __init__(self, words):
        words = [pauli_from_string(w) for w in words]
        if len({w.n for w in words}) != 1:
            raise ValueError("need one or more Pauli words of equal length, got lengths "
                             f"{sorted({w.n for w in words})}")
        n = words[0].n
        letters = np.frombuffer("".join(w.letters for w in words).encode(), np.uint8).reshape(-1, n)
        x, z = np.isin(letters, list(b"XY")), np.isin(letters, list(b"YZ"))
        support = (x | z) @ _place(n)
        k = int(np.bitwise_count(support).max())
        subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)
        outside = _place(n).sum() - _place(n)[subsets].sum(1)
        sub = ((support[:, None] & outside) != 0).argmin(1)
        on_sub = np.arange(len(words))[:, None], subsets[sub]
        v, coef = _signed_rows(x[on_sub] @ _place(k), z[on_sub] @ _place(k),
                               (letters == ord("Y")).sum(1), k)
        cols = (sub[:, None] << 2 * k) + (np.arange(2 ** k) << k) + v
        self.readoff = scipy.sparse.csr_array(
            (coef.ravel(), cols.ravel(), np.arange(0, cols.size + 1, 2 ** k)),
            shape=(len(words), len(subsets) << 2 * k))
        self.readoff_t = self.readoff.T.tocsr()
        self.index = subset_index(n, subsets)
        S, R, D = self.index.shape
        self.dim = R * D
        self.inverse = np.empty((S, self.dim), dtype=np.intp)
        flat_position = np.arange(S * self.dim).reshape(S, -1)
        self.inverse[np.arange(S)[:, None], self.index.reshape(S, -1)] = flat_position
        for arr in (self.index, self.inverse, self.readoff.data, self.readoff.indices,
                    self.readoff.indptr, self.readoff_t.data, self.readoff_t.indices,
                    self.readoff_t.indptr):
            arr.setflags(write=False)

    def values(self, psi):
        """(Y, values) for a ``dim`` x K isometry psi: Y are psi's subset
        blocks, shape (S, R, D * K), and values[a, i, j] = <psi_i|O_a|psi_j>
        is ``readoff`` times the blocks' Grams, formed by one batched matmul."""
        S, R, D = self.index.shape
        K = psi.shape[1]
        Y = np.take(psi, self.index, axis=0).reshape(S, R, D * K)
        gram = np.matmul(Y.conj().transpose(0, 2, 1), Y)
        gram = gram.reshape(S, D, K, D, K).transpose(0, 1, 3, 2, 4).reshape(S * D * D, K * K)
        return Y, (self.readoff @ gram).reshape(-1, K, K)

    def adjoint(self, Y, M):
        """sum_a O_a psi M_a for Y = values(psi)[0] and (n_ops, K, K) M:
        ``readoff_t`` times M, one batched matmul, the inverse gather."""
        S, R, D = self.index.shape
        K = M.shape[1]
        blocks = (self.readoff_t @ M.reshape(-1, K * K)).reshape(S, D, D, K, K)
        blocks = blocks.transpose(0, 2, 3, 1, 4).reshape(S, D * K, D * K)
        return np.take(np.matmul(Y, blocks).reshape(-1, K), self.inverse, axis=0).sum(0)


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


def apply_pauli(p, vec):
    """Apply a Pauli word to a state vector or to the columns of a matrix."""
    p = pauli_from_string(p)
    cols, coef = _signed_rows(p.x_mask, p.z_mask, p.y_count, p.n)
    v = np.asarray(vec)
    if v.ndim == 1:
        return coef * v[cols]
    return coef[:, None] * v[cols, :]


def dense_matrix(p):
    """Dense 2^n x 2^n matrix of a Pauli word (qubit 1 = most significant bit)."""
    p = pauli_from_string(p)
    if p.n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense matrix guard: n={p.n} exceeds {MAX_DENSE_QUBITS}")
    out = np.array([[1.0 + 0j]])
    for ch in p.letters:
        out = np.kron(out, _PAULI_MATS[ch])
    return out
