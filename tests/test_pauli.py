import itertools
import math

import numpy as np
import pytest

from klscope.pauli import (
    apply_pauli,
    commutes,
    dense_matrix,
    enumerate_error_basis,
    pauli_from_string,
)

np_rng = np.random.default_rng(20240601)


def random_word(n):
    return "".join(np_rng.choice(list("IXYZ"), size=n))


def test_parse_examples():
    p = pauli_from_string("YIZXXY")
    assert p.n == 6 and (p.x_mask, p.z_mask) == (0b100111, 0b101001)
    identity = pauli_from_string("IIIIII")
    assert identity.n == 6 and identity.x_mask == identity.z_mask == 0
    q = pauli_from_string("XZZXI")
    assert q.n == 5 and (q.x_mask, q.z_mask) == (0b10010, 0b01100)


def test_parse_invalid_character_names_position():
    with pytest.raises(ValueError, match="position 3"):
        pauli_from_string("XIQZ")
    with pytest.raises(ValueError):
        pauli_from_string("")


SINGLE_QUBIT_PRODUCTS = {  # ab = phase * c
    ("X", "Y"): (1j, "Z"), ("Y", "Z"): (1j, "X"), ("Z", "X"): (1j, "Y"),
    ("Y", "X"): (-1j, "Z"), ("Z", "Y"): (-1j, "X"), ("X", "Z"): (-1j, "Y"),
}


def letter_product(a, b):
    if a == b:
        return 1, "I"
    if "I" in (a, b):
        return 1, a if b == "I" else b
    return SINGLE_QUBIT_PRODUCTS[a, b]


def word_product(a, b):
    # letter-wise: the word of PQ and its phase in {1, i, -1, -i}
    phase, letters = 1, ""
    for x, y in zip(a, b):
        f, c = letter_product(x, y)
        phase, letters = phase * f, letters + c
    return phase, letters


def assert_product_against_dense(a, b):
    p, q = pauli_from_string(a), pauli_from_string(b)
    phase, letters = word_product(a, b)
    rhs = dense_matrix(p) @ dense_matrix(q)
    assert np.abs(phase * dense_matrix(pauli_from_string(letters)) - rhs).max() == 0.0
    assert np.abs(apply_pauli(p, dense_matrix(q)) - rhs).max() == 0.0


def test_single_qubit_products_against_dense():
    for a, b in itertools.product("IXYZ", repeat=2):
        assert_product_against_dense(a, b)


def test_product_phase_matches_dense_up_to_n6():
    for _ in range(50):
        n = int(np_rng.integers(1, 7))
        assert_product_against_dense(random_word(n), random_word(n))


def test_commutation_phase_relation():
    # PQ = QP exactly when the words commute, and PQ = -QP otherwise
    pairs = list(itertools.product("IXYZ", repeat=2))
    pairs += [(random_word(n), random_word(n)) for n in np_rng.integers(1, 7, size=50)]
    for a, b in pairs:
        p, q = dense_matrix(a), dense_matrix(b)
        assert np.abs(p @ q - (1 if commutes(a, b) else -1) * (q @ p)).max() == 0.0
    with pytest.raises(ValueError, match="mismatch"):
        commutes("XX", "X")


def test_dense_examples():
    assert np.abs(dense_matrix(pauli_from_string("Z")) - np.diag([1, -1])).max() == 0
    xx = dense_matrix(pauli_from_string("XX"))
    assert np.abs(xx - np.fliplr(np.eye(4))).max() == 0
    m = dense_matrix(pauli_from_string("XIZXXY"))
    assert abs(np.trace(m @ m) - 2 ** 6) < 1e-12


def test_dense_bit_order_qubit1_most_significant():
    zi = dense_matrix(pauli_from_string("ZI"))
    assert np.abs(zi - np.diag([1, 1, -1, -1])).max() == 0
    iz = dense_matrix(pauli_from_string("IZ"))
    assert np.abs(iz - np.diag([1, -1, 1, -1])).max() == 0


def test_dense_guard():
    with pytest.raises(ValueError, match="guard"):
        dense_matrix(pauli_from_string("I" * 13))


def test_action_matches_dense():
    for _ in range(20):
        n = int(np_rng.integers(1, 7))
        w = pauli_from_string(random_word(n))
        assert np.abs(apply_pauli(w, np.eye(2 ** n)) - dense_matrix(w)).max() == 0
        v = np_rng.standard_normal(2 ** n) + 1j * np_rng.standard_normal(2 ** n)
        assert np.abs(apply_pauli(w, v) - dense_matrix(w) @ v).max() <= 1e-14
    # the kernel of a full error basis, read on the identity isometry: word a's matrix
    for n in range(1, 5):
        basis = enumerate_error_basis(n, n + 1)
        _, values = basis.action.values(np.eye(2 ** n, dtype=complex))
        for a, op in enumerate(basis):
            assert np.abs(values[a] - dense_matrix(op)).max() == 0


def brute_force_basis(n, d):
    words = [
        "".join(w)
        for w in itertools.product("IXYZ", repeat=n)
        if 0 < sum(c != "I" for c in w) < d
    ]
    words.sort(key=lambda w: (sum(c != "I" for c in w), w))
    return words


def test_error_basis_counts_and_order():
    b = enumerate_error_basis(6, 3)
    assert len(b) == 153
    weights = [sum(ch != "I" for ch in op.letters) for op in b]
    assert weights.count(1) == 18 and weights.count(2) == 135
    assert len(enumerate_error_basis(7, 3)) == 210
    b2 = enumerate_error_basis(2, 2)
    assert {op.letters for op in b2} == {"XI", "YI", "ZI", "IX", "IY", "IZ"}


def test_error_basis_against_brute_force():
    for n in range(2, 9):
        for d in range(2, 5):
            if d > n + 1:
                continue
            basis = enumerate_error_basis(n, d)
            assert [op.letters for op in basis] == brute_force_basis(n, d)
            assert len({op.letters for op in basis}) == len(basis)


def test_error_basis_validation():
    with pytest.raises(ValueError):
        enumerate_error_basis(4, 1)
    with pytest.raises(ValueError):
        enumerate_error_basis(2, 4)
    with pytest.raises(ValueError):
        enumerate_error_basis(0, 2)


def test_error_basis_count_closed_form():
    for n in range(1, 7):
        for d in range(2, n + 2):
            closed_form = sum(math.comb(n, w) * 3 ** w for w in range(1, d))
            assert len(enumerate_error_basis(n, d)) == closed_form
    assert len(enumerate_error_basis(7, 3)) == 210
