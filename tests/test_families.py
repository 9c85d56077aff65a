import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from klscope.codespace import (
    kl_violation,
    lambda_star,
    purity,
    reduced_density_matrix,
    signature_vector,
)
from klscope.families import (
    CYCLIC_ORBIT_PATTERNS,
    SO4_GENERATORS,
    OrthoFrame,
    appendix_b_residuals,
    block_eigenvalues,
    code_623,
    cyclic_basis_723,
    cyclic_code_723,
    cyclic_coeffs_from_lambda,
    cyclic_constraint_residuals,
    dicke,
    frame_from_abcd,
    frame_with_e,
    hamiltonian_ground_check,
    lambda_star_sq_623,
    perm_code_723,
    predicted_signature_623,
    random_frame,
    s_basis_623,
    single_param_frame_623,
    so4_check,
)
from klscope.pauli import dense_matrix, enumerate_error_basis, pauli_from_string

np_rng = np.random.default_rng(99)

SQRT7 = math.sqrt(7)


def two_qubit_op(a, b):
    return dense_matrix(pauli_from_string(a + b))


# ---------------------------------------------------------------------------
# the paired-support basis on q2..q6


def test_s_basis_orthonormal():
    states = s_basis_623()
    G = np.array([[si.conj() @ sj for sj in states] for si in states])
    assert np.abs(G - np.eye(5)).max() <= 1e-14


def test_s_basis_single_qubit_rdms_maximally_mixed():
    from klscope.codespace import new_code

    for si in s_basis_623():
        code = new_code(5, [si])
        for q in range(1, 6):
            rho = reduced_density_matrix(code, 0, [q])
            assert np.abs(rho - np.eye(2) / 2).max() <= 1e-12


def test_s_basis_two_qubit_rdms():
    # tracing out the three qubits q2 q3 q4 of the first basis state leaves
    # (I - ZZ)/4 on (q5, q6); tracing out q2 q3 q6 leaves (I + ZZ)/4 on (q4, q5)
    from klscope.codespace import new_code

    code = new_code(5, [s_basis_623()[0]])
    zz = two_qubit_op("Z", "Z")
    rho56 = reduced_density_matrix(code, 0, [4, 5])
    assert np.abs(rho56 - (np.eye(4) - zz) / 4).max() <= 1e-12
    rho45 = reduced_density_matrix(code, 0, [3, 4])
    assert np.abs(rho45 - (np.eye(4) + zz) / 4).max() <= 1e-12
    # every 2-RDM of every basis state has the (I +- ZZ)/4 form
    for si in s_basis_623():
        c = new_code(5, [si])
        for i in range(1, 6):
            for j in range(i + 1, 6):
                rho = reduced_density_matrix(c, 0, [i, j])
                dev = min(
                    np.abs(rho - (np.eye(4) + zz) / 4).max(),
                    np.abs(rho - (np.eye(4) - zz) / 4).max(),
                )
                assert dev <= 1e-12


# ---------------------------------------------------------------------------
# frames


def test_frame_completion_examples():
    cols = np.eye(5) / 2
    fr = frame_from_abcd(cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3])
    assert np.abs(fr.e - cols[:, 4]).max() <= 1e-12

    fr2 = single_param_frame_623(0.4)
    redone = frame_from_abcd(fr2.a, fr2.b, fr2.c, fr2.d)
    assert np.abs(np.abs(redone.e) - np.abs(fr2.e)).max() <= 1e-12


@pytest.mark.parametrize("matrix, match", [
    (np.eye(5)[:, :4] / 2, "5x5"),
    (np.eye(5), "I/4"),
    (np.full((5, 5), np.nan), "I/4"),
])
def test_ortho_frame_rejects_bad_matrix(matrix, match):
    with pytest.raises(ValueError, match=match):
        OrthoFrame(matrix)


def test_ortho_frame_columns_are_the_matrix():
    fr = random_frame(np.random.default_rng(4))
    assert np.array_equal(np.column_stack([fr.a, fr.b, fr.c, fr.d, fr.e]), fr.matrix)
    with pytest.raises(ValueError):
        fr.matrix[0, 0] = 1.0


@pytest.mark.parametrize("call, message", [
    (lambda: frame_from_abcd(*np.eye(4) / 2), "a, b, c, d must be real 5-vectors"),
    (lambda: perm_code_723("x"), "variant must be 'plus' or 'minus', got 'x'"),
    (lambda: cyclic_coeffs_from_lambda(1.0, 0, 1), r"branches must be \+1 or -1"),
    (lambda: hamiltonian_ground_check("h999"), "unknown Hamiltonian 'h999'"),
], ids=["frame-shape", "perm-variant", "cyclic-branch", "hamiltonian-name"])
def test_entry_checks_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_frame_rejects_non_orthogonal_input():
    with pytest.raises(ValueError):
        frame_from_abcd(*(np_rng.standard_normal((4, 5))))


def test_single_param_frame():
    fr0 = single_param_frame_623(0.0)
    assert np.abs(fr0.e - np.array([0, 0, 0, 0, 0.5])).max() <= 1e-14
    for theta in np_rng.uniform(0, np.pi, size=5):
        A = single_param_frame_623(theta).matrix
        assert np.abs((2 * A) @ (2 * A).T - np.eye(5)).max() <= 1e-12
    lam2 = lambda_star_sq_623(single_param_frame_623(math.acos(1 / math.sqrt(5))).e)
    assert abs(lam2 - 0.6) <= 1e-12


def test_lambda_star_sq_formula_values():
    assert abs(lambda_star_sq_623(np.ones(5) / (2 * math.sqrt(5))) - 0.6) <= 1e-12
    assert abs(lambda_star_sq_623(np.array([0, 0, 0, 0, 0.5])) - 1.0) <= 1e-12
    theta = 0.3
    expect = 0.5 + 0.5 * (math.sin(theta) ** 4 / 4 + math.cos(theta) ** 4)
    assert abs(lambda_star_sq_623(single_param_frame_623(theta).e) - expect) <= 1e-12


# ---------------------------------------------------------------------------
# the codes themselves


def test_code_623_endpoint_values():
    basis = enumerate_error_basis(6, 3)
    rng = np.random.default_rng(5)

    uniform = np.ones(5) / (2 * math.sqrt(5))
    fr = frame_with_e(uniform, rng)
    lam2 = lambda_star(signature_vector(code_623(fr), basis)) ** 2
    assert abs(lam2 - 0.6) <= 1e-10

    fr1 = single_param_frame_623(0.0)
    lam2 = lambda_star(signature_vector(code_623(fr1), basis)) ** 2
    assert abs(lam2 - 1.0) <= 1e-10


def test_code_623_qubit1_rdm_maximally_mixed():
    fr = random_frame(np_rng)
    code = code_623(fr)
    for k in (0, 1):
        rho = reduced_density_matrix(code, k, [1])
        assert np.abs(rho - np.eye(2) / 2).max() <= 1e-12


def test_family_exactness_random_frames():
    basis = enumerate_error_basis(6, 3)
    for _ in range(10):
        fr = random_frame(np_rng)
        code = code_623(fr)
        assert kl_violation(code, basis) <= 1e-10
        sig = signature_vector(code, basis)
        pred = predicted_signature_623(fr.e, basis)
        assert np.abs(sig.components - pred.components).max() <= 1e-9
        assert abs(lambda_star(sig) ** 2 - lambda_star_sq_623(fr.e)) <= 1e-9


def test_lambda_star_frame_independence():
    # fixed e, random (a,b,c,d) completions: lambda* must not move
    basis = enumerate_error_basis(6, 3)
    e = single_param_frame_623(0.7).e
    rng = np.random.default_rng(123)
    values = []
    for _ in range(8):
        fr = frame_with_e(e, rng)
        values.append(lambda_star(signature_vector(code_623(fr), basis)))
    assert max(values) - min(values) <= 1e-9


@pytest.mark.parametrize("e", [[0.5, 0, 0], np.full((5, 1), 0.5 / math.sqrt(5))])
def test_frame_with_e_rejects_wrong_shape(e):
    with pytest.raises(ValueError, match="5 components"):
        frame_with_e(e, np.random.default_rng(0))


def test_frame_with_e_returns_the_given_e():
    # the first entry is negative: a sign-fixed completion would flip e
    e = np.array([-0.3, 0.2, 0.1, -0.2, math.sqrt(0.25 - 0.18)])
    for seed in range(4):
        assert np.array_equal(frame_with_e(e, np.random.default_rng(seed)).e, e)


_E = np.ones(5) / (2 * math.sqrt(5))


@pytest.mark.parametrize("call, match", [
    (lambda: predicted_signature_623([np.nan, 0, 0, 0, 0.5]), "finite"),
    (lambda: predicted_signature_623([0.5, 0, 0]), "5 components"),
    (lambda: predicted_signature_623([0.5, 0, 0, 0, np.inf]), "finite"),
    (lambda: lambda_star_sq_623([1, 2, 3]), "5 components"),
    (lambda: lambda_star_sq_623([1.0, 0, 0, 0, 0]), "squared norm 1/4"),
    (lambda: lambda_star_sq_623([np.nan] * 5), "finite"),
    (lambda: frame_with_e([np.inf, 0, 0, 0, 0], np.random.default_rng(0)), "finite"),
    (lambda: predicted_signature_623(_E, enumerate_error_basis(5, 3)), "n=5"),
    (lambda: predicted_signature_623(_E, enumerate_error_basis(6, 2)), "d=2"),
], ids=["nan", "short", "inf", "lambda-short", "lambda-norm", "lambda-nan",
        "frame-inf", "basis-n5", "basis-d2"])
def test_completion_vector_and_basis_checked(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_predicted_signature_structure():
    # e along the last axis: only Z-type pairs touching qubit 2 survive, each 1/2
    e = np.array([0, 0, 0, 0, 0.5])
    basis = enumerate_error_basis(6, 3)
    sig = predicted_signature_623(e, basis)
    nonzero = {op.letters: v for op, v in zip(basis.ops, sig.components) if abs(v) > 1e-14}
    expected = {}
    for j in (3, 4, 5, 6):
        word = ["I"] * 6
        word[1] = "Z"
        word[j - 1] = "Z"
        expected["".join(word)] = 0.5
    assert nonzero == pytest.approx(expected)
    assert abs(np.linalg.norm(sig.components) - 1.0) <= 1e-12


def test_predicted_signature_component_formula():
    fr = random_frame(np_rng)
    basis = enumerate_error_basis(6, 3)
    sig = predicted_signature_623(fr.e, basis)
    e = fr.e
    idx = lambda q: 7 - q - 1  # qubit q -> 0-based index into e
    # lambda_{X2X3} = -2 e4 e5 (1-based e indices)
    assert abs(sig.component("IXXIII") - (-2 * e[idx(2)] * e[idx(3)])) <= 1e-14
    assert abs(sig.component("IZIZII") - (2 * e[idx(2)] ** 2 + 2 * e[idx(4)] ** 2)) <= 1e-14
    assert abs(np.linalg.norm(sig.components) ** 2 - lambda_star_sq_623(e)) <= 1e-12


@settings(database=None, derandomize=True, max_examples=25, deadline=None)
@given(st.lists(st.floats(-1, 1), min_size=5, max_size=5), st.integers(0, 2 ** 32 - 1))
def test_frame_with_e_property(raw, seed):
    raw = np.array(raw)
    norm = np.linalg.norm(raw)
    assume(norm >= 0.1)
    e = raw / (2 * norm)
    fr = frame_with_e(e, np.random.default_rng(seed))
    assert np.array_equal(fr.e, e)
    basis = enumerate_error_basis(6, 3)
    sig = signature_vector(code_623(fr), basis)
    assert abs(lambda_star(sig) ** 2 - lambda_star_sq_623(e)) <= 1e-9
    assert np.abs(sig.components - predicted_signature_623(e, basis).components).max() <= 1e-9


def test_block_eigenvalues():
    assert np.abs(block_eigenvalues(0, 0) - np.ones(5)).max() == 0
    vals = block_eigenvalues(0.5, 0.0)
    assert sorted(np.round(vals, 12)) == [0.0, 1.0, 1.0, 1.0, 2.0]
    # numeric cross-check against a dense eigensolve
    for _ in range(10):
        r, s = np_rng.uniform(-0.5, 0.5, size=2)
        B = np.full((5, 5), s)
        B[0, 1:] = B[1:, 0] = r
        np.fill_diagonal(B, 1.0)
        assert np.abs(np.sort(block_eigenvalues(r, s)) - np.linalg.eigvalsh(B)).max() <= 1e-12


def test_block_full_rank_inside_interval():
    for theta in (0.3, 0.6, 1.0):
        s_x = -2 * (math.sin(theta) / 4) ** 2
        r_x = -math.sin(theta) * math.cos(theta) / 4
        assert np.abs(block_eigenvalues(r_x, s_x)).min() > 1e-3
        r_z = 2 * (math.sin(theta) / 4) ** 2 + 2 * (math.cos(theta) / 2) ** 2
        s_z = 4 * (math.sin(theta) / 4) ** 2
        assert np.abs(block_eigenvalues(r_z, s_z)).min() > 1e-3


def test_block_matches_measured_signature():
    # the X-type correlation block of the theta-family signature has the
    # arrow-plus-constant shape; its closed-form eigenvalues match a direct solve
    theta = 0.5
    basis = enumerate_error_basis(6, 3)
    sig = signature_vector(code_623(single_param_frame_623(theta)), basis)
    B = np.eye(5)
    for i in range(2, 7):
        for j in range(i + 1, 7):
            word = ["I"] * 6
            word[i - 1] = "X"
            word[j - 1] = "X"
            B[i - 2, j - 2] = B[j - 2, i - 2] = sig.component("".join(word))
    r = -math.sin(theta) * math.cos(theta) / 4
    s = -2 * (math.sin(theta) / 4) ** 2
    assert np.abs(np.sort(block_eigenvalues(r, s)) - np.linalg.eigvalsh(B)).max() <= 1e-12


def test_two_rdm_form_623_family():
    # every 2-RDM on qubit pairs i, j >= 2 of a family codeword has the
    # I/4 + alpha (XX + YY) + beta ZZ shape
    fr = random_frame(np_rng)
    code = code_623(fr)
    xx = two_qubit_op("X", "X")
    yy = two_qubit_op("Y", "Y")
    zz = two_qubit_op("Z", "Z")
    for k in (0, 1):
        for i in range(2, 7):
            for j in range(i + 1, 7):
                rho = reduced_density_matrix(code, k, [i, j])
                alpha = np.trace(rho @ xx).real / 4
                beta = np.trace(rho @ zz).real / 4
                model = np.eye(4) / 4 + alpha * (xx + yy) + beta * zz
                assert np.abs(rho - model).max() <= 1e-10, (k, i, j)


def test_logical_overlap_identities():
    # code_623's codewords are sum_i |x_i>|S_i> and sum_i |y_i>|S_i>: their
    # qubit-1 spinors, read back on the S basis, overlap as the frame says
    s_states = np.array(s_basis_623())
    for _ in range(5):
        fr = random_frame(np_rng)
        basis = code_623(fr).basis
        xs, ys = (s_states.conj() @ basis[:, k].reshape(2, 32).T for k in (0, 1))
        Mxx, Mxy, Myy = xs.conj() @ xs.T, xs.conj() @ ys.T, ys.conj() @ ys.T
        assert np.abs(np.diag(Mxy)).max() <= 1e-12
        assert np.abs(np.diag(Mxx) - np.diag(Myy)).max() <= 1e-12
        assert np.abs(Mxy + Mxy.T).max() <= 1e-12
        assert np.abs(Mxx - Myy.T).max() <= 1e-12
        gam = np.concatenate([fr.a + 1j * fr.b, fr.c + 1j * fr.d])
        for i in range(5):
            for j in range(5):
                expect = gam[i].conj() * gam[j] + gam[i + 5].conj() * gam[j + 5]
                assert abs(Mxx[i, j] - expect) <= 1e-12


def test_so4_correspondences():
    fr = random_frame(np_rng)
    rep = so4_check(fr, "K4", 0.0)
    assert rep.projector_deviation <= 1e-12
    for gen in ("K1", "K2", "K3", "K4", "K5", "K6"):
        for theta in (0.3, 1.1):
            rep = so4_check(fr, gen, theta)
            assert rep.projector_deviation <= 1e-10, (gen, theta)
            assert rep.state_deviation <= 1e-10, (gen, theta)


@pytest.mark.parametrize("name", sorted(SO4_GENERATORS))
def test_so4_generators_square_to_minus_identity(name):
    # so4_check's closed form exp(t K) = cos t I + sin t K rests on this
    K = SO4_GENERATORS[name]
    assert np.array_equal(K @ K, -np.eye(4))
    assert np.array_equal(K.T, -K)


def test_so4_unknown_generator():
    with pytest.raises(ValueError):
        so4_check(random_frame(np_rng), "K7", 0.1)


# ---------------------------------------------------------------------------
# seven qubits


def test_dicke_examples():
    d0 = dicke(7, 0)
    assert abs(d0[0] - 1) <= 1e-14 and abs(np.linalg.norm(d0) - 1) <= 1e-14
    d1 = dicke(2, 1)
    assert np.abs(d1 - np.array([0, 1, 1, 0]) / math.sqrt(2)).max() <= 1e-14
    d72 = dicke(7, 2)
    assert abs(np.linalg.norm(d72) - 1) <= 1e-12
    assert int(np.count_nonzero(d72)) == 21
    with pytest.raises(ValueError):
        dicke(7, 8)


def test_perm_codes():
    basis = enumerate_error_basis(7, 3)
    for variant in ("plus", "minus"):
        code = perm_code_723(variant)
        assert kl_violation(code, basis) <= 1e-10
        sig = signature_vector(code, basis)
        assert abs(lambda_star(sig) - SQRT7) <= 1e-9
        two_body = {
            op.letters: v
            for op, v in zip(basis.ops, sig.components)
            if abs(v) > 1e-10
        }
        assert len(two_body) == 63
        assert np.abs(np.array(list(two_body.values())) - 1 / 3).max() <= 1e-10


def test_cyclic_basis():
    states = cyclic_basis_723()
    assert len(states) == 10
    assert abs(states[0][0] - 1) <= 1e-14
    v = states[1]  # the 0000011 orbit
    support = np.nonzero(np.abs(v) > 1e-14)[0]
    assert len(support) == 7
    assert np.abs(v[support] - 1 / math.sqrt(7)).max() <= 1e-14
    G = np.array([[si.conj() @ sj for sj in states] for si in states])
    assert np.abs(G - np.eye(10)).max() <= 1e-14


def test_cyclic_orbits_partition_even_weights():
    total = sum(
        np.count_nonzero(np.abs(v) > 1e-14) for v in cyclic_basis_723()
    )
    assert total == 1 + 21 + 35 + 7
    assert len(CYCLIC_ORBIT_PATTERNS) == 10


def test_cyclic_coeffs_closed_form_values():
    c = cyclic_coeffs_from_lambda(0.0, -1, -1)
    assert np.abs(c.as_array - np.array([1 / math.sqrt(8), 0, math.sqrt(7 / 8), 0, 0])).max() <= 1e-12

    c7 = cyclic_coeffs_from_lambda(SQRT7, -1, -1)
    assert abs(c7.c0 - math.sqrt(15) / 8) <= 1e-12
    # the c3 discriminant closes at the right endpoint: both branches coincide
    c7b = cyclic_coeffs_from_lambda(SQRT7, -1, +1)
    assert np.abs(c7.as_array - c7b.as_array).max() <= 1e-9

    with pytest.raises(ValueError):
        cyclic_coeffs_from_lambda(SQRT7 + 0.01)


def test_cyclic_code_grid():
    basis = enumerate_error_basis(7, 3)
    for lam in (0.0, 0.4, 1.0, 2.0, SQRT7):
        for b1 in (-1, 1):
            for b3 in (-1, 1):
                coeffs = cyclic_coeffs_from_lambda(lam, b1, b3)
                assert np.abs(cyclic_constraint_residuals(coeffs)).max() <= 1e-12
                code = cyclic_code_723(coeffs)
                assert kl_violation(code, basis) <= 1e-10
                measured = lambda_star(signature_vector(code, basis))
                assert abs(measured - lam) <= 1e-8


def test_cyclic_branches_grouping():
    keys = [(b1, b3) for b1 in (-1, 1) for b3 in (-1, 1)]

    def shared(lam):  # the pairs of sign branches whose codes have one projector
        proj = {k: cyclic_code_723(cyclic_coeffs_from_lambda(lam, *k)).projector for k in keys}
        return {(k, m) for k in keys for m in keys
                if k < m and np.abs(proj[k] - proj[m]).max() <= 1e-10}

    # generic lambda*: c1 != 0 and the two c3 roots differ -> four distinct codes
    assert shared(1.0) == set()
    # lambda* = 0: c1 = c4 = 0, the c1 sign is irrelevant -> two pairs
    assert shared(0.0) == {((-1, -1), (1, -1)), ((-1, 1), (1, 1))}
    # lambda* = sqrt(7): the c3 discriminant closes -> branches pair up over c3
    assert shared(SQRT7) == {((-1, -1), (-1, 1)), ((1, -1), (1, 1))}


def test_cyclic_code_rejects_bad_coefficients():
    from klscope.families import CyclicCoeffs

    bad = CyclicCoeffs(c0=0.9, c1=0.1, c2=0.1, c3=0.1, c4=0.1)
    with pytest.raises(ValueError, match="residuals"):
        cyclic_code_723(bad)


def test_cyclic_steane_matches_permuted_steane_enumetrics():
    # lambda* = 0 cyclic code is a Steane relabeling: same zero signature
    basis = enumerate_error_basis(7, 3)
    code = cyclic_code_723(cyclic_coeffs_from_lambda(0.0, -1, -1))
    assert lambda_star(signature_vector(code, basis)) <= 1e-10


def test_cyclic_code_matches_perm_code_at_max():
    cyc = cyclic_code_723(cyclic_coeffs_from_lambda(SQRT7, -1, -1))
    perm = perm_code_723("plus")
    assert np.abs(cyc.projector - perm.projector).max() <= 1e-10


def test_cyclic_two_body_components():
    basis = enumerate_error_basis(7, 3)
    for lam in (0.4, 1.5):
        code = cyclic_code_723(cyclic_coeffs_from_lambda(lam, +1, -1))
        sig = signature_vector(code, basis)
        expect = lam / (3 * SQRT7)
        for letters in ("XXIIIII", "IIYYIII", "ZIIIIIZ"):
            assert abs(sig.component(letters) - expect) <= 1e-9


def test_two_rdm_form_723():
    lam = 1.2
    code = cyclic_code_723(cyclic_coeffs_from_lambda(lam, -1, +1))
    s = lam / (3 * SQRT7)
    expect = np.eye(4) / 4 + s / 4 * sum(two_qubit_op(a, a) for a in "XYZ")
    for pair in ((1, 2), (3, 6), (5, 7)):
        for k in (0, 1):
            rho = reduced_density_matrix(code, k, list(pair))
            assert np.abs(rho - expect).max() <= 1e-10
    # purity by direct trace matches the closed form 1/4 + 3 s^2 / 4
    p = purity(expect)
    assert abs(p - (0.25 + 0.75 * s ** 2)) <= 1e-12


def test_correlation_block_spectrum_723():
    # (1-s) I + s J on 7 sites: six eigenvalues 1-s, one eigenvalue 1+6s
    for s in (0.0, 1 / 3, 0.1):
        M = (1 - s) * np.eye(7) + s * np.ones((7, 7))
        vals = np.sort(np.linalg.eigvalsh(M))
        expect = np.sort(np.array([1 - s] * 6 + [1 + 6 * s]))
        assert np.abs(vals - expect).max() <= 1e-12


def test_appendix_residuals_closed_form_sets():
    for lam in (0.0, 0.4, 1.0, 2.0, SQRT7):
        for b1 in (-1, 1):
            for b3 in (-1, 1):
                rep = appendix_b_residuals(cyclic_coeffs_from_lambda(lam, b1, b3))
                assert rep.max_abs <= 1e-11
                assert abs(rep.linear_factor) <= 1e-12


def test_appendix_residuals_reject_random_point():
    from klscope.families import CyclicCoeffs

    x = np_rng.uniform(-1, 1, size=5)
    x /= np.linalg.norm(x)
    rep = appendix_b_residuals(CyclicCoeffs(*x))
    assert np.abs(rep.constraint_residuals[1]) >= 1e-2


def test_hamiltonian_ground_623():
    rep = hamiltonian_ground_check("h623")
    assert rep.degeneracy == 16
    assert rep.codeword_residual <= 1e-9
    assert abs(rep.ground_energy - (-4.0)) <= 1e-12


def test_hamiltonian_ground_623_span():
    # ground space is exactly the span of the sixteen listed basis states
    from klscope.families import hamiltonian_623

    h = hamiltonian_623()
    diag = np.real(np.diag(h))
    ground_idx = set(np.nonzero(diag <= diag.min() + 1e-9)[0])
    patterns = [
        "000001", "000010", "000100", "001000",
        "011110", "011101", "011011", "010111",
        "100001", "100010", "100100", "101000",
        "111110", "111101", "111011", "110111",
    ]
    assert ground_idx == {int(p, 2) for p in patterns}


def test_hamiltonian_ground_723():
    rep = hamiltonian_ground_check("h723")
    assert rep.degeneracy == 8
    assert rep.codeword_residual <= 1e-9
    assert rep.reference_subspace_deviation <= 1e-10
