"""Code subspaces and their Knill-Laflamme data.

A code is a K-dimensional subspace of an n-qubit Hilbert space, held as a
2^n x K matrix with orthonormal columns.  From it we compute the KL tensor
<psi_i|O_a|psi_j>, the scalar KL violation, the signature vector of
deduplicated real coefficients, its norm lambda*, reduced density matrices,
purities, and local-unitary images.

The KL tensor comes from one contraction, ``MarginalKernel.values`` of the
error basis's kernel: the code is gathered into one block per (d-1)-qubit
subset, one batched matmul forms the subsets' Gram blocks, and one sparse
matrix reads the values off them.
"""

import json
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import ErrorBasis, subset_index

DEFAULT_KL_TOL = 1e-10

ISOMETRY_TOL = 1e-8
RANK_TOL = 1e-9  # orthonormalize: relative size of |R_kk| that counts a column independent

CODE_JSON_FORMAT = "klscope.code/1"


class NotACodeError(ValueError):
    """Raised when a subspace violates the KL conditions beyond tolerance."""

    def __init__(self, violation, tol):
        super().__init__(f"KL violation {violation:.3e} exceeds tolerance {tol:.1e}")
        self.violation = violation
        self.tol = tol


@dataclass(frozen=True, eq=False)
class CodeSubspace:
    n: int
    K: int
    basis: np.ndarray  # (2^n, K), orthonormal columns

    def __post_init__(self):
        b = np.array(self.basis, dtype=complex, order="C")
        if b.shape != (2 ** self.n, self.K):
            raise ValueError(f"basis shape {b.shape} != (2^{self.n}, {self.K})")
        deviation = float(np.abs(b.conj().T @ b - np.eye(self.K)).max())
        if not deviation <= ISOMETRY_TOL:  # also rejects NaN
            raise ValueError(
                f"basis columns are not orthonormal: max|B^dag B - I| = {deviation:.3e}"
            )
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @cached_property
    def projector(self):
        return self.basis @ self.basis.conj().T


def orthonormalize(mat):
    """Orthonormalize the columns of ``mat``, one matrix or a stack of them,
    by one QR; returns (q, rank).

    Column phases are fixed so that diag(R) > 0, the unique Gram-Schmidt result,
    so orthonormal input passes through up to round-off.  ``rank`` (an int, or
    an array over a stack) counts the leading columns with |R_kk| > RANK_TOL *
    max(column norm, 1).
    """
    mat = np.asarray(mat, dtype=complex)
    q, r = np.linalg.qr(mat)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    size = np.abs(diag)
    q = q * np.divide(diag, size, out=np.ones_like(diag), where=size > 0)[..., None, :]
    norms = np.linalg.norm(mat[..., : diag.shape[-1]], axis=-2)
    rank = np.cumprod(size > RANK_TOL * np.maximum(norms, 1.0), axis=-1).sum(axis=-1)
    return q, rank if mat.ndim > 2 else int(rank)


def new_code(n, vectors):
    """Build a CodeSubspace from linearly independent amplitude vectors."""
    mat = np.stack([np.asarray(v, dtype=complex).ravel() for v in vectors], axis=1)
    if mat.shape[0] != 2 ** n:
        raise ValueError(f"vectors have dimension {mat.shape[0]}, expected 2^{n}")
    q, rank = orthonormalize(mat)
    if rank < mat.shape[1]:
        raise ValueError(f"rank-deficient input: vector {rank + 1} is dependent")
    return CodeSubspace(n=n, K=rank, basis=q)


@dataclass(frozen=True, eq=False)
class SignatureVector:
    basis: ErrorBasis
    components: np.ndarray  # (n_ops,) real

    def component(self, word):
        """Component for a Pauli word given as letters or PauliString."""
        return self.components[self.basis.index_of[str(word)]]


def kl_residual(values):
    """KL residual of a (n_ops, K, K) block stack.

    Returns (residual, mean, dev): mean (n_ops,) is each operator's mean real
    diagonal, dev (n_ops, K, K) is values - mean I with the real spread
    Re values_ii - mean on its diagonal (dropping the round-off imaginary
    part), and the residual is |dev|_F^2.
    """
    idx = np.arange(values.shape[1])
    diag = values[:, idx, idx].real
    mean = diag.mean(axis=1)
    dev = values.copy()
    dev[:, idx, idx] = diag - mean[:, None]
    return float(np.vdot(dev, dev).real), mean, dev


def kl_tensor(code, basis):
    """KL tensor, the (n_ops, K, K) array values[a, i, j] = <psi_i|O_a|psi_j>
    over the error basis."""
    if basis.n != code.n:
        raise ValueError(f"basis on {basis.n} qubits, code on {code.n}")
    return basis.action.values(code.basis)[1]


def kl_violation(code, basis):
    """Scalar KL residual: off-diagonal mass plus per-operator diagonal spread."""
    return kl_residual(kl_tensor(code, basis))[0]


def signature_vector(code, basis, tol=DEFAULT_KL_TOL):
    """Signature vector of a valid code: one real mean-diagonal per word.

    Raises NotACodeError (carrying the violation) when the KL residual
    exceeds ``tol``, which must be non-negative and finite.
    """
    if not 0 <= tol < np.inf:  # also rejects NaN
        raise ValueError(f"tol must be non-negative and finite, got {tol}")
    values = kl_tensor(code, basis)
    violation, mean, _ = kl_residual(values)
    if violation > tol:
        raise NotACodeError(violation, tol)
    imag = float(np.abs(np.diagonal(values, axis1=1, axis2=2).imag).max())
    if imag > 1e-10:
        raise ValueError(f"KL diagonal has imaginary part {imag:.3e}")
    return SignatureVector(basis=basis, components=mean)


def lambda_star(sig):
    """Euclidean norm of the signature vector."""
    return float(np.linalg.norm(sig.components))


def reduced_density_matrix(code, codeword, qubits):
    """RDM of codeword 0..K-1 on distinct qubits (1-based, taken in ascending order)."""
    if (isinstance(codeword, bool) or not isinstance(codeword, (int, np.integer))
            or not 0 <= codeword < code.K):
        raise ValueError(f"codeword must be an integer in 0..{code.K - 1}, got {codeword!r}")
    qubits = sorted(qubits)
    if not qubits or len(qubits) >= code.n or len(set(qubits)) < len(qubits):
        raise ValueError(f"qubit subset must be nonempty, proper and distinct, got {qubits}")
    integral = all(isinstance(q, (int, np.integer)) and not isinstance(q, bool) for q in qubits)
    if not integral or qubits[0] < 1 or qubits[-1] > code.n:
        raise ValueError(f"qubit indices must be integers in 1..{code.n}, got {qubits}")
    m = code.basis[subset_index(code.n, [[q - 1 for q in qubits]])[0], codeword]
    return m.T @ m.conj()


def purity(rho):
    """Tr(rho^2) of a density matrix."""
    rho = np.asarray(rho)
    return float(np.einsum("ij,ji->", rho, rho).real)


def apply_local_unitary(code, factors):
    """Transform a code by a tensor product of single-qubit unitaries."""
    if len(factors) != code.n:
        raise ValueError(f"need {code.n} factors, got {len(factors)}")
    # qubit k + 1 is axis k of the (2,)*n + (K,) reshape; each factor acts on its axis
    psi = code.basis.reshape((2,) * code.n + (code.K,))
    for k, u in enumerate(factors):
        u = np.asarray(u, dtype=complex)
        if u.shape != (2, 2) or np.abs(u.conj().T @ u - np.eye(2)).max() > 1e-12:
            raise ValueError(f"factor {k + 1} is not a 2x2 unitary")
        psi = np.moveaxis(np.tensordot(u, psi, axes=(1, k)), 0, k)
    return CodeSubspace(n=code.n, K=code.K, basis=psi.reshape(2 ** code.n, code.K))


def code_to_json(code):
    """Serialize a code as JSON text (qubit-1-most-significant amplitudes)."""
    amplitudes = [
        [[float(z.real), float(z.imag)] for z in code.basis[:, k]]
        for k in range(code.K)
    ]
    return json.dumps(
        {"format": CODE_JSON_FORMAT, "n": code.n, "K": code.K, "amplitudes": amplitudes}
    )


def code_from_json(text):
    """Parse code JSON; malformed or non-isometric input raises ValueError."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"code JSON must be an object, got {type(data).__name__}")
    if data.get("format") != CODE_JSON_FORMAT:
        raise ValueError(f"unsupported code format: {data.get('format')!r}")
    for key in ("n", "K"):
        if isinstance(data.get(key), bool):  # operator.index would read true as 1
            raise ValueError(f"code JSON field {key!r} must be an integer, got {data[key]!r}")
    try:
        n, K = operator.index(data["n"]), operator.index(data["K"])
        cols = [[complex(re, im) for re, im in col] for col in data["amplitudes"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed code JSON: {exc!r}") from None
    basis = np.array(cols).T
    if basis.shape != (2 ** n, K):
        raise ValueError("amplitude block shape does not match n, K")
    return CodeSubspace(n=n, K=K, basis=basis)


def signature_to_csv(sig):
    """CSV text with rows (pauli_word, value)."""
    lines = ["pauli_word,value"]
    for op, val in zip(sig.basis.ops, sig.components):
        lines.append(f"{op.letters},{float(val)!r}")
    return "\n".join(lines) + "\n"
