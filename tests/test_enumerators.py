import itertools
import math

import numpy as np
import pytest

from klscope.codespace import kl_violation, lambda_star, new_code, signature_vector
from klscope.enumerators import (
    closed_form_623,
    closed_form_723,
    enumerator_to_csv,
    lambda_star_sq_from_enumerator,
    weight_enumerators,
)
from klscope.families import (
    code_623,
    cyclic_code_723,
    cyclic_coeffs_from_lambda,
    perm_code_723,
    single_param_frame_623,
)
from klscope.pauli import dense_matrix, enumerate_error_basis, pauli_from_string
from klscope.stabilizer import builtin, codespace_from_stabilizer

np_rng = np.random.default_rng(2718)

SQRT7 = math.sqrt(7)


def brute_force_enumerator(code):
    """Direct dense-matrix trace sums over every Pauli word (small n only)."""
    n, K = code.n, code.K
    P = code.projector
    A = np.zeros(n + 1)
    B = np.zeros(n + 1)
    for letters in itertools.product("IXYZ", repeat=n):
        O = dense_matrix(pauli_from_string("".join(letters)))
        weight = sum(ch != "I" for ch in letters)
        A[weight] += abs(np.trace(O @ P)) ** 2
        B[weight] += np.trace(O @ P @ O.conj().T @ P).real
    return A / K ** 2, B / K


def test_against_brute_force_small_n():
    for n, K in [(2, 1), (2, 2)] + [(n, K) for n in (3, 4) for K in (1, 2, 3)]:
        dim = 2 ** n
        vecs = [np_rng.standard_normal(dim) + 1j * np_rng.standard_normal(dim) for _ in range(K)]
        code = new_code(n, vecs)
        A, B = brute_force_enumerator(code)
        we = weight_enumerators(code)
        assert np.abs(we.A - A).max() <= 1e-12
        assert np.abs(we.B - B).max() <= 1e-12
        assert abs(we.A[0] - 1) <= 1e-10
        assert abs(we.B[0] - 1) <= 1e-10
        assert abs(we.A.sum() - dim / K) <= 1e-10


def test_steane_exact_enumerator():
    we = weight_enumerators(codespace_from_stabilizer(builtin("steane")))
    assert np.abs(we.A - np.array([1, 0, 0, 0, 21, 0, 42, 0])).max() <= 1e-10
    assert np.abs(we.B - np.array([1, 0, 0, 21, 21, 126, 42, 45])).max() <= 1e-10


def test_perm_code_enumerator_values():
    we = weight_enumerators(perm_code_723("plus"))
    assert abs(we.A[2] - 7) <= 1e-8
    assert abs(we.A[4] - 7) <= 1e-8
    assert abs(we.A[6] - 49) <= 1e-8


def test_closed_form_723_examples():
    assert abs(closed_form_723(0.0).A[4] - 21) == 0
    assert abs(closed_form_723(SQRT7).A[4] - 7) <= 1e-12
    assert abs(closed_form_723(1.0).B[3] - 24) == 0
    with pytest.raises(ValueError):
        closed_form_723(3.0)


def test_closed_form_623_examples():
    we = closed_form_623(0.0)
    assert abs(we.A[2] - 1) <= 1e-12
    assert abs(we.A[3]) <= 1e-12
    assert abs(we.A[6] - 3) == 0
    assert abs(closed_form_623(0.7).A[0] - 1) == 0


@pytest.mark.parametrize("closed_form, value, name", [
    (closed_form_723, math.nan, "lambda"),
    (closed_form_723, math.inf, "lambda"),
    (closed_form_623, math.nan, "theta"),
    (closed_form_623, math.inf, "theta"),
    (closed_form_623, -math.inf, "theta"),
])
def test_closed_forms_reject_non_finite_parameters(closed_form, value, name):
    with pytest.raises(ValueError, match=name):
        closed_form(value)


def test_computed_matches_closed_form_723():
    for lam in (0.0, 1.0, SQRT7):
        code = cyclic_code_723(cyclic_coeffs_from_lambda(lam, -1, -1))
        we = weight_enumerators(code)
        cf = closed_form_723(lam)
        assert np.abs(we.A - cf.A).max() <= 1e-8
        assert np.abs(we.B - cf.B).max() <= 1e-8


def test_computed_matches_closed_form_623():
    for theta in (0.0, 0.4, math.acos(1 / math.sqrt(5))):
        code = code_623(single_param_frame_623(theta))
        we = weight_enumerators(code)
        cf = closed_form_623(theta)
        assert np.abs(we.A - cf.A).max() <= 1e-8
        assert np.abs(we.B - cf.B).max() <= 1e-8


def test_lambda_sq_equals_a1_plus_a2():
    cases = [
        (codespace_from_stabilizer(builtin("steane")), enumerate_error_basis(7, 3)),
        (codespace_from_stabilizer(builtin("shaw623")), enumerate_error_basis(6, 3)),
        (perm_code_723("minus"), enumerate_error_basis(7, 3)),
        (code_623(single_param_frame_623(0.6)), enumerate_error_basis(6, 3)),
        (cyclic_code_723(cyclic_coeffs_from_lambda(1.3, +1, -1)), enumerate_error_basis(7, 3)),
    ]
    for code, basis in cases:
        assert kl_violation(code, basis) <= 1e-10
        lam_sq = lambda_star(signature_vector(code, basis)) ** 2
        we = weight_enumerators(code)
        assert abs(lambda_star_sq_from_enumerator(we) - lam_sq) <= 1e-8


def test_b_dominates_a_on_codes():
    for code in (
        codespace_from_stabilizer(builtin("steane")),
        codespace_from_stabilizer(builtin("shaw623")),
        perm_code_723("plus"),
    ):
        we = weight_enumerators(code)
        assert (we.B - we.A).min() >= -1e-9


def test_enumerator_guard():
    vecs = [np_rng.standard_normal(2 ** 13) + 0j]
    code = new_code(13, vecs)
    with pytest.raises(ValueError, match="guard"):
        weight_enumerators(code)


def test_shor_code_enumerator():
    we = weight_enumerators(codespace_from_stabilizer(builtin("shor913")))
    assert abs(lambda_star_sq_from_enumerator(we) - 9) <= 1e-10
    assert np.abs(we.B[:3] - we.A[:3]).max() <= 1e-10
    assert np.abs(we.A[:3] - [1, 0, 9]).max() <= 1e-10


def test_random_ten_qubit_sums():
    n, K = 10, 4
    vecs = [np_rng.standard_normal(2 ** n) + 1j * np_rng.standard_normal(2 ** n)
            for _ in range(K)]
    we = weight_enumerators(new_code(n, vecs))
    assert abs(we.A.sum() - 2 ** n / K) <= 1e-9
    assert abs(we.B.sum() - 2 ** n * K) <= 1e-9


def test_enumerator_csv():
    we = weight_enumerators(codespace_from_stabilizer(builtin("steane")))
    text = enumerator_to_csv(we)
    lines = text.strip().splitlines()
    assert lines[0] == "j,A_j,B_j"
    assert len(lines) == 9
    assert float(lines[5].split(",")[1]) == pytest.approx(21.0, abs=1e-9)  # A_4
