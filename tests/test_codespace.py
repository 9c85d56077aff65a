import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klscope.codespace import (
    CodeSubspace,
    NotACodeError,
    apply_local_unitary,
    code_from_json,
    code_to_json,
    kl_residual,
    kl_tensor,
    kl_violation,
    lambda_star,
    new_code,
    orthonormalize,
    purity,
    reduced_density_matrix,
    signature_to_csv,
    signature_vector,
)
from klscope.enumerators import weight_enumerators
from klscope.optimizer import LossSpec, gradient, loss
from klscope.pauli import (
    MarginalKernel,
    dense_matrix,
    enumerate_error_basis,
    pauli_from_string,
)
from klscope.stabilizer import builtin, codespace_from_stabilizer

np_rng = np.random.default_rng(7041)


def haar_unitary(size=2):
    z = (np_rng.standard_normal((size, size)) + 1j * np_rng.standard_normal((size, size)))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(dim):
    v = np_rng.standard_normal(dim) + 1j * np_rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_code(n, K):
    vecs = [np_rng.standard_normal(2 ** n) + 1j * np_rng.standard_normal(2 ** n) for _ in range(K)]
    return new_code(n, vecs)


def test_new_code_keeps_orthonormal_input():
    steane = codespace_from_stabilizer(builtin("steane"))
    rebuilt = new_code(7, [steane.basis[:, 0], steane.basis[:, 1]])
    assert np.abs(rebuilt.basis - steane.basis).max() <= 1e-14


def test_new_code_gram_schmidt_contract():
    v0 = np.zeros(4, dtype=complex)
    v0[0] = 1.0
    v1 = v0.copy()
    v1[3] = 1e-3
    code = new_code(2, [v0, v1])
    assert np.abs(code.basis.conj().T @ code.basis - np.eye(2)).max() <= 1e-12
    # span preserved: |11> component lives in the span
    target = np.zeros(4, dtype=complex)
    target[3] = 1.0
    proj = code.projector
    assert np.abs(proj @ target - target).max() <= 1e-9


def test_new_code_normalizes_single_vector():
    v = np.zeros(4, dtype=complex)
    v[1] = 2.0
    code = new_code(2, [v])
    assert abs(np.linalg.norm(code.basis[:, 0]) - 1) <= 1e-14


def test_new_code_rank_deficiency():
    v = random_state(8)
    with pytest.raises(ValueError, match="dependent"):
        new_code(3, [v, 1j * v])


def test_orthonormalize_stack_matches_each_matrix():
    rng = np.random.default_rng(8)
    mats = rng.standard_normal((5, 4, 3)) + 1j * rng.standard_normal((5, 4, 3))
    mats[2, :, 2] = mats[2, :, 0]  # one rank-deficient matrix in the stack
    q, rank = orthonormalize(mats)
    for k, mat in enumerate(mats):
        qk, rank_k = orthonormalize(mat)
        assert q[k].tobytes() == qk.tobytes()
        assert rank[k] == rank_k
    assert rank.tolist() == [3, 3, 2, 3, 3]


def test_kl_tensor_steane_slices_vanish():
    steane = codespace_from_stabilizer(builtin("steane"))
    t = kl_tensor(steane, enumerate_error_basis(7, 3))
    assert np.abs(t).max() <= 1e-12


def test_kl_tensor_shaw_z4z6_slice_is_identity():
    shaw = codespace_from_stabilizer(builtin("shaw623"))
    basis = enumerate_error_basis(6, 3)
    t = kl_tensor(shaw, basis)
    idx = basis.index_of["IIIZIZ"]
    assert np.abs(t[idx] - np.eye(2)).max() <= 1e-12


def test_kl_tensor_generic_subspace_not_scalar():
    code = random_code(2, 2)
    basis = enumerate_error_basis(2, 2)
    t = kl_tensor(code, basis)
    idx = basis.index_of["ZI"]
    slice_ = t[idx]
    off = abs(slice_[0, 1]) + abs(slice_[1, 0])
    spread = abs(slice_[0, 0] - slice_[1, 1])
    assert off + spread > 1e-3


def test_kl_tensor_slices_hermitian():
    code = random_code(3, 2)
    t = kl_tensor(code, enumerate_error_basis(3, 3))
    assert np.abs(t - t.conj().transpose(0, 2, 1)).max() <= 1e-12


def test_kl_tensor_matches_dense_reference():
    rng = np.random.default_rng(2718)
    for n in range(2, 5):
        basis = enumerate_error_basis(n, 3)
        for K in range(1, 4):
            vecs = rng.standard_normal((K, 2 ** n)) + 1j * rng.standard_normal((K, 2 ** n))
            code = new_code(n, vecs)
            B = code.basis
            reference = np.stack([B.conj().T @ dense_matrix(op) @ B for op in basis])
            assert np.abs(kl_tensor(code, basis) - reference).max() <= 1e-12


_KERNEL_CASES = st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(2, n + 1), st.integers(1, min(3, 2 ** n))))


@settings(database=None, derandomize=True, max_examples=30, deadline=None)
@given(_KERNEL_CASES, st.integers(0, 2 ** 32 - 1))
@example((4, 4, 2), 0)
@example((3, 4, 3), 1)
@example((5, 6, 2), 2)
def test_kernel_values_and_gradient_property(case, seed):
    n, d, K = case
    rng = np.random.default_rng(seed)
    basis = enumerate_error_basis(n, d)
    theta = rng.standard_normal((2 ** n, K)) + 1j * rng.standard_normal((2 ** n, K))
    code = new_code(n, theta.T)
    B = code.basis
    reference = np.stack([B.conj().T @ dense_matrix(op) @ B for op in basis])
    assert np.abs(kl_tensor(code, basis) - reference).max() <= 1e-12
    spec = LossSpec("maximize_length", mu=10.0)
    delta = rng.standard_normal(theta.shape) + 1j * rng.standard_normal(theta.shape)
    h = 1e-5
    analytic = float(np.real(np.vdot(gradient(theta, basis, spec), delta)))
    fd = (loss(theta + h * delta, basis, spec) - loss(theta - h * delta, basis, spec)) / (2 * h)
    # at d = n + 1 the loss is constant and fd is the round-off of the difference
    assert abs(analytic - fd) <= 1e-6 * abs(fd) + 1e-14 * abs(loss(theta, basis, spec)) / h


_SUBSPACE_CASES = st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, 2 ** (n - 1))))


@settings(database=None, derandomize=True, max_examples=30, deadline=None)
@given(_SUBSPACE_CASES, st.integers(0, 2 ** 32 - 1))
def test_signature_norm_is_enumerator_root_and_lu_invariant(case, seed):
    # |mean|^2 = A_1 + A_2 and its local-unitary invariance hold for any
    # subspace at d = 3, not only for codes
    n, K = case
    rng = np.random.default_rng(seed)
    basis = enumerate_error_basis(n, 3)
    code = new_code(n, rng.standard_normal((K, 2 ** n)) + 1j * rng.standard_normal((K, 2 ** n)))
    norm = np.linalg.norm(kl_residual(kl_tensor(code, basis))[1])
    A = weight_enumerators(code).A
    assert abs(norm - math.sqrt(A[1] + A[2])) <= 1e-10
    g = rng.standard_normal((n, 2, 2, 2))
    factors = orthonormalize(g[:, 0] + 1j * g[:, 1])[0]
    moved = apply_local_unitary(code, factors)
    assert abs(np.linalg.norm(kl_residual(kl_tensor(moved, basis))[1]) - norm) <= 1e-10


def test_word_kernel_matches_direct_contraction():
    # mixed supports with the identity among them, identities alone, one qubit
    cases = [
        ["IXI", "ZZI", "IYX", "III"],
        ["XIIY", "IIII", "YZXI", "IIZI", "ZIIZ"],
        ["II", "II"],
        ["Y", "I", "Z"],
    ]
    for words in cases:
        kernel = MarginalKernel(words)
        mats = np.array([dense_matrix(pauli_from_string(w)) for w in words])
        K = min(2, mats.shape[1])
        psi = haar_unitary(mats.shape[1])[:, :K]
        shape = (len(mats), K, K)
        M = np_rng.standard_normal(shape) + 1j * np_rng.standard_normal(shape)
        Y, values = kernel.values(psi)
        assert kernel.dim == mats.shape[1]
        assert np.abs(values - psi.conj().T @ mats @ psi).max() <= 1e-12
        assert np.abs(kernel.adjoint(Y, M) - (mats @ psi @ M).sum(0)).max() <= 1e-12
    # three-qubit words of weight at most two: pairs, not one 8-dim block
    words = [pauli_from_string(w) for w in cases[0]]
    assert MarginalKernel(words).index.shape == (3, 2, 4)
    for words, match in (([], r"got lengths \[\]"), (["XI", "XIZ"], r"got lengths \[2, 3\]"),
                         (["XQ"], "invalid Pauli letter 'Q' at position 2")):
        with pytest.raises(ValueError, match=match):
            MarginalKernel(words)


def test_cached_kernel_is_read_only():
    basis = enumerate_error_basis(6, 3)
    kernel = basis.action
    S, _, D = kernel.index.shape
    assert kernel.readoff.format == kernel.readoff_t.format == "csr"
    assert kernel.readoff.shape == kernel.readoff_t.shape[::-1] == (len(basis), S * D * D)
    arrays = [kernel.index, kernel.inverse]
    for mat in (kernel.readoff, kernel.readoff_t):
        arrays += [mat.data, mat.indices, mat.indptr]
    for arr in arrays:
        first = (0,) * arr.ndim
        with pytest.raises(ValueError, match="read-only"):
            arr[first] = arr[first]


def test_kl_violation_stabilizer_codes_at_round_off():
    assert kl_violation(codespace_from_stabilizer(builtin("steane")),
                        enumerate_error_basis(7, 3)) <= 1e-20
    assert kl_violation(codespace_from_stabilizer(builtin("shaw623")),
                        enumerate_error_basis(6, 3)) <= 1e-20


def test_kl_violation_computational_span_large():
    n = 4
    v0 = np.zeros(2 ** n, dtype=complex)
    v0[0] = 1.0
    v1 = np.zeros(2 ** n, dtype=complex)
    v1[2 ** (n - 1)] = 1.0  # |10...0>
    code = new_code(n, [v0, v1])
    assert kl_violation(code, enumerate_error_basis(n, 3)) >= 0.5


def test_signature_vector_requires_valid_code():
    n = 3
    v0 = np.zeros(8, dtype=complex)
    v0[0] = 1.0
    v1 = np.zeros(8, dtype=complex)
    v1[4] = 1.0
    code = new_code(3, [v0, v1])
    with pytest.raises(NotACodeError) as exc:
        signature_vector(code, enumerate_error_basis(3, 3))
    assert exc.value.violation >= 0.5


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
def test_signature_vector_rejects_bad_tolerance(tol):
    # a NaN tolerance used to pass every subspace, a negative one to fail every code
    span = new_code(5, np.eye(32)[:2])
    with pytest.raises(ValueError, match="tol must be non-negative and finite"):
        signature_vector(span, enumerate_error_basis(5, 3), tol=tol)


def test_signature_examples():
    shaw = codespace_from_stabilizer(builtin("shaw623"))
    basis = enumerate_error_basis(6, 3)
    sig = signature_vector(shaw, basis)
    assert abs(sig.component("IIIZIZ") - 1.0) <= 1e-10
    others = [v for op, v in zip(basis.ops, sig.components) if op.letters != "IIIZIZ"]
    assert np.abs(others).max() <= 1e-10
    assert abs(lambda_star(sig) - 1.0) <= 1e-9

    steane = codespace_from_stabilizer(builtin("steane"))
    sig7 = signature_vector(steane, enumerate_error_basis(7, 3))
    assert lambda_star(sig7) <= 1e-9


def test_signature_projector_invariance():
    code = codespace_from_stabilizer(builtin("shaw623"))
    basis = enumerate_error_basis(6, 3)
    sig = signature_vector(code, basis)
    for _ in range(5):
        u = haar_unitary(2)
        remixed = type(code)(n=code.n, K=code.K, basis=code.basis @ u)
        sig2 = signature_vector(remixed, basis)
        assert np.abs(sig.components - sig2.components).max() <= 1e-10


def test_rdm_product_state():
    n = 3
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    code = new_code(n, [v])
    rho = reduced_density_matrix(code, 0, [1, 2])
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    assert np.abs(rho - expect).max() <= 1e-14


def test_rdm_contract_and_errors():
    code = random_code(3, 1)
    rho = reduced_density_matrix(code, 0, [2])
    assert abs(np.trace(rho) - 1) <= 1e-10
    assert np.abs(rho - rho.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-10
    with pytest.raises(ValueError):
        reduced_density_matrix(code, 0, [])
    with pytest.raises(ValueError):
        reduced_density_matrix(code, 0, [1, 2, 3])


@pytest.mark.parametrize("codeword, qubits, named", [
    (-1, [1], "got -1"),
    (2, [1], "got 2"),
    (True, [1], "got True"),
    (0, [1, 1], r"got \[1, 1\]"),
    (0, [2.9], r"got \[2\.9\]"),
    (0, [True, 3], r"got \[True, 3\]"),
], ids=["negative", "past_K", "bool", "repeated_qubit", "float_qubit", "bool_qubit"])
def test_rdm_rejects_bad_codeword_and_qubits(codeword, qubits, named):
    code = random_code(3, 2)
    with pytest.raises(ValueError, match=named):
        reduced_density_matrix(code, codeword, qubits)


def test_purity_examples():
    assert abs(purity(np.eye(2) / 2) - 0.5) <= 1e-12
    v = random_state(2)
    assert abs(purity(np.outer(v, v.conj())) - 1.0) <= 1e-10


def purity_chain_single(code, codeword, qubit):
    rho = reduced_density_matrix(code, codeword, [qubit])
    vec = [np.trace(rho @ dense_matrix(pauli_from_string(p))).real for p in "XYZ"]
    return float(np.dot(vec, vec)), purity(rho)


def test_purity_chain_identities_random_states():
    # norm^2 of the one-body correlation vector equals 2 purity - 1;
    # the two-body vector satisfies the 4 purity - 1 - singles relation
    for _ in range(5):
        code = random_code(4, 1)
        for q in range(1, 5):
            nsq, p = purity_chain_single(code, 0, q)
            assert abs(nsq - (2 * p - 1)) <= 1e-10
        for i, j in [(1, 2), (2, 4), (3, 4)]:
            rho = reduced_density_matrix(code, 0, [i, j])
            pairs = [a + b for a in "IXYZ" for b in "IXYZ" if (a, b) != ("I", "I")
                     and a != "I" and b != "I"]
            vec2 = [np.trace(rho @ dense_matrix(pauli_from_string(w))).real for w in pairs]
            nsq_i, _ = purity_chain_single(code, 0, i)
            nsq_j, _ = purity_chain_single(code, 0, j)
            lhs = float(np.dot(vec2, vec2))
            rhs = 4 * purity(rho) - 1 - nsq_i - nsq_j
            assert abs(lhs - rhs) <= 1e-10


def test_apply_local_unitary_identity():
    code = random_code(3, 2)
    same = apply_local_unitary(code, [np.eye(2)] * 3)
    assert np.abs(same.basis - code.basis).max() == 0


def test_apply_local_unitary_matches_kron_reference():
    rng = np.random.default_rng(1229)  # own stream: later tests keep their draws

    def unitary_columns(rows, cols):
        z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(z)[0]

    for n in range(1, 7):
        for K in range(1, min(3, 2 ** n) + 1):
            code = CodeSubspace(n=n, K=K, basis=unitary_columns(2 ** n, K))
            factors = [unitary_columns(2, 2) for _ in range(n)]
            full = np.array([[1.0 + 0j]])
            for u in factors:
                full = np.kron(full, u)
            moved = apply_local_unitary(code, factors)
            assert np.abs(moved.basis - full @ code.basis).max() <= 1e-12, (n, K)


def test_apply_local_unitary_validates():
    code = random_code(2, 1)
    with pytest.raises(ValueError, match="unitary"):
        apply_local_unitary(code, [np.eye(2), np.array([[1, 1], [0, 1]])])


def test_lambda_star_lu_invariance_named_codes():
    shaw = codespace_from_stabilizer(builtin("shaw623"))
    basis = enumerate_error_basis(6, 3)
    base = lambda_star(signature_vector(shaw, basis))
    for _ in range(10):
        factors = [haar_unitary() for _ in range(6)]
        moved = apply_local_unitary(shaw, factors)
        lam = lambda_star(signature_vector(moved, basis, tol=1e-9))
        assert abs(lam - base) <= 1e-9


def test_shaw_invariant_under_z_rotations():
    shaw = codespace_from_stabilizer(builtin("shaw623"))
    basis = enumerate_error_basis(6, 3)
    thetas = np_rng.uniform(0, 2 * np.pi, size=6)
    factors = [np.diag([1, np.exp(1j * t)]) for t in thetas]
    moved = apply_local_unitary(shaw, factors)
    lam = lambda_star(signature_vector(moved, basis, tol=1e-9))
    assert abs(lam - 1.0) <= 1e-9


def _code_json(amplitudes, fmt="klscope.code/1", n=1, K=1):
    return json.dumps({"format": fmt, "n": n, "K": K, "amplitudes": amplitudes})


@pytest.mark.parametrize("call, message", [
    (lambda: code_from_json(_code_json([[[1, 0], [0, 0]]], fmt="klscope.code/0")),
     "unsupported code format: 'klscope.code/0'"),
    (lambda: code_from_json(_code_json([[[1, 0]]])), "amplitude block shape does not match n, K"),
    # operator.index(True) is 1: a boolean must not load as a 1-qubit code
    (lambda: code_from_json(_code_json([[[1, 0], [0, 0]]], n=True)), "field 'n' must be an integer"),
    (lambda: code_from_json(_code_json([[[1, 0], [0, 0]]], K=True)), "field 'K' must be an integer"),
    (lambda: CodeSubspace(n=2, K=1, basis=np.eye(2)[:, :1]), r"basis shape \(2, 1\) != \(2\^2, 1\)"),
    (lambda: new_code(2, [np.eye(8)[0]]), r"vectors have dimension 8, expected 2\^2"),
    (lambda: kl_tensor(random_code(2, 1), enumerate_error_basis(3, 2)), "basis on 3 qubits, code on 2"),
    (lambda: apply_local_unitary(random_code(2, 1), [np.eye(2)]), "need 2 factors, got 1"),
], ids=["json-format", "json-shape", "json-bool-n", "json-bool-K", "basis-shape",
        "new-code-dimension", "kl-tensor-qubits", "lu-factor-count"])
def test_entry_checks_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_json_round_trip():
    code = random_code(3, 2)
    again = code_from_json(code_to_json(code))
    assert again.n == 3 and again.K == 2
    assert np.abs(again.basis - code.basis).max() == 0


def test_signature_csv():
    shaw = codespace_from_stabilizer(builtin("shaw623"))
    basis = enumerate_error_basis(6, 3)
    text = signature_to_csv(signature_vector(shaw, basis))
    lines = text.strip().splitlines()
    assert lines[0] == "pauli_word,value"
    assert len(lines) == 1 + len(basis)
    row = dict(ln.split(",") for ln in lines[1:])
    assert abs(float(row["IIIZIZ"]) - 1.0) <= 1e-10
