"""Code subspaces and their Knill-Laflamme data.

A code is a K-dimensional subspace of an n-qubit Hilbert space, held as a
2^n x K matrix with orthonormal columns.  From it we compute the KL tensor
<psi_i|O_a|psi_j>, the scalar KL violation, the signature vector of
deduplicated real coefficients, its norm lambda*, reduced density matrices,
purities, and local-unitary images.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import ErrorBasis

DEFAULT_KL_TOL = 1e-10

ISOMETRY_TOL = 1e-8

CODE_JSON_FORMAT = "klscope.code/1"


class NotACodeError(ValueError):
    """Raised when a subspace violates the KL conditions beyond tolerance."""

    def __init__(self, violation, tol):
        super().__init__(f"KL violation {violation:.3e} exceeds tolerance {tol:.1e}")
        self.violation = violation
        self.tol = tol


@dataclass(frozen=True)
class CodeSubspace:
    n: int
    K: int
    basis: np.ndarray  # (2^n, K), orthonormal columns

    def __post_init__(self):
        b = np.array(self.basis, dtype=complex, order="C")
        if b.shape != (2 ** self.n, self.K):
            raise ValueError(f"basis shape {b.shape} != (2^{self.n}, {self.K})")
        deviation = float(np.abs(b.conj().T @ b - np.eye(self.K)).max())
        if deviation > ISOMETRY_TOL:
            raise ValueError(
                f"basis columns are not orthonormal: max|B^dag B - I| = {deviation:.3e}"
            )
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @cached_property
    def projector(self):
        return self.basis @ self.basis.conj().T


def orthonormalize(vectors, tol=1e-9):
    """Modified Gram-Schmidt with one reorthogonalization pass.

    Already-orthonormal inputs pass through unchanged up to round-off.
    Raises on rank deficiency.
    """
    cols = [np.asarray(v, dtype=complex).ravel() for v in vectors]
    dim = cols[0].size
    out = []
    for k, v in enumerate(cols):
        if v.size != dim:
            raise ValueError("inconsistent vector dimensions")
        scale = np.linalg.norm(v)
        for _ in range(2):
            for u in out:
                v = v - u * (u.conj() @ v)
        norm = np.linalg.norm(v)
        if norm <= tol * max(scale, 1.0):
            raise ValueError(f"rank-deficient input: vector {k + 1} is dependent")
        out.append(v / norm)
    return np.stack(out, axis=1)


def new_code(n, vectors):
    """Build a CodeSubspace from linearly independent amplitude vectors."""
    mat = orthonormalize(vectors)
    if mat.shape[0] != 2 ** n:
        raise ValueError(f"vectors have dimension {mat.shape[0]}, expected 2^{n}")
    return CodeSubspace(n=n, K=mat.shape[1], basis=mat)


@dataclass(frozen=True)
class KLTensor:
    basis: ErrorBasis
    values: np.ndarray  # (n_ops, K, K)


@dataclass(frozen=True)
class SignatureVector:
    basis: ErrorBasis
    components: np.ndarray  # (n_ops,) real

    def __len__(self):
        return len(self.components)

    def component(self, word):
        """Component for a Pauli word given as letters or PauliString."""
        return self.components[self.basis.index_of[str(word)]]


def kl_tensor(code, basis):
    """KL tensor values[a, i, j] = <psi_i|O_a|psi_j> over the error basis."""
    if basis.n != code.n:
        raise ValueError(f"basis on {basis.n} qubits, code on {code.n}")
    perms, amps = basis.action
    ops_psi = amps[:, :, None] * code.basis[perms, :]  # (n_ops, 2^n, K)
    values = np.einsum("mi,amj->aij", code.basis.conj(), ops_psi)
    return KLTensor(basis=basis, values=values)


def _violation_from_values(values):
    K = values.shape[1]
    diag = np.einsum("aii->ai", values).real
    off_mask = ~np.eye(K, dtype=bool)
    off = values[:, off_mask]
    spread = diag - diag.mean(axis=1, keepdims=True)
    return float(np.sum(np.abs(off) ** 2) + np.sum(spread ** 2))


def kl_violation(code, basis):
    """Scalar KL residual: off-diagonal mass plus per-operator diagonal spread."""
    return _violation_from_values(kl_tensor(code, basis).values)


def signature_vector(code, basis, tol=DEFAULT_KL_TOL):
    """Signature vector of a valid code: one real mean-diagonal per word.

    Raises NotACodeError (carrying the violation) when the KL residual
    exceeds ``tol``.
    """
    values = kl_tensor(code, basis).values
    violation = _violation_from_values(values)
    if violation > tol:
        raise NotACodeError(violation, tol)
    diag = np.einsum("aii->ai", values)
    imag = float(np.abs(diag.imag).max())
    if imag > 1e-10:
        raise ValueError(f"KL diagonal has imaginary part {imag:.3e}")
    return SignatureVector(basis=basis, components=diag.real.mean(axis=1))


def lambda_star(sig):
    """Euclidean norm of the signature vector."""
    return float(np.linalg.norm(sig.components))


def reduced_density_matrix(code, codeword, qubits):
    """RDM of one codeword on a qubit subset (1-based indices, ascending order)."""
    qubits = sorted(qubits)
    if not qubits or len(qubits) >= code.n:
        raise ValueError(f"qubit subset must be nonempty and proper, got {qubits}")
    if qubits[0] < 1 or qubits[-1] > code.n:
        raise ValueError(f"qubit indices out of range 1..{code.n}: {qubits}")
    psi = code.basis[:, codeword].reshape((2,) * code.n)
    keep = [q - 1 for q in qubits]
    rest = [ax for ax in range(code.n) if ax not in keep]
    m = psi.transpose(keep + rest).reshape(2 ** len(keep), -1)
    return m @ m.conj().T


def purity(rho):
    """Tr(rho^2) of a density matrix."""
    rho = np.asarray(rho)
    return float(np.einsum("ij,ji->", rho, rho).real)


def apply_local_unitary(code, factors):
    """Transform a code by a tensor product of single-qubit unitaries."""
    if len(factors) != code.n:
        raise ValueError(f"need {code.n} factors, got {len(factors)}")
    full = np.array([[1.0 + 0j]])
    for k, u in enumerate(factors):
        u = np.asarray(u, dtype=complex)
        if u.shape != (2, 2) or np.abs(u.conj().T @ u - np.eye(2)).max() > 1e-12:
            raise ValueError(f"factor {k + 1} is not a 2x2 unitary")
        full = np.kron(full, u)
    return CodeSubspace(n=code.n, K=code.K, basis=full @ code.basis)


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
    data = json.loads(text)
    if data.get("format") != CODE_JSON_FORMAT:
        raise ValueError(f"unsupported code format: {data.get('format')!r}")
    cols = [np.array([re + 1j * im for re, im in col]) for col in data["amplitudes"]]
    basis = np.stack(cols, axis=1)
    if basis.shape != (2 ** data["n"], data["K"]):
        raise ValueError("amplitude block shape does not match n, K")
    return CodeSubspace(n=data["n"], K=data["K"], basis=basis)


def signature_to_csv(sig):
    """CSV text with rows (pauli_word, value)."""
    lines = ["pauli_word,value"]
    for op, val in zip(sig.basis.ops, sig.components):
        lines.append(f"{op.letters},{float(val)!r}")
    return "\n".join(lines) + "\n"
