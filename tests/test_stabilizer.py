import numpy as np
import pytest

from klscope.codespace import kl_violation, lambda_star, signature_vector
from klscope.pauli import apply_pauli, enumerate_error_basis
from klscope.stabilizer import (
    BUILTIN_GENERATORS,
    builtin,
    codespace_from_stabilizer,
    parse_generators,
)


def stabilizer_projector(code):
    """Dense product of (I + g)/2 over the generators, the reference projector."""
    proj = np.eye(2 ** code.n, dtype=complex)
    for g in code.generators:
        proj = (proj + {"+": 1, "-": -1}[g[0]] * apply_pauli(g[1:], proj)) / 2
    return proj


def test_builtin_tables():
    steane = builtin("steane")
    assert steane.n == 7 and len(steane.generators) == 6 and steane.K == 2
    shaw = builtin("shaw623")
    assert shaw.n == 6 and len(shaw.generators) == 5 and shaw.K == 2
    for name, n, K in (("code513", 5, 2), ("gottesman833", 8, 8), ("shor913", 9, 2)):
        stab = builtin(name)
        assert (stab.n, stab.K) == (n, K)
    assert shaw.generators[0] == "+YIZXXY"
    with pytest.raises(ValueError, match="unknown"):
        builtin("unknown")


def test_parse_spaced_rows_and_signs():
    code = parse_generators(["X X", "+ Z Z"])
    assert code.n == 2 and code.K == 1
    signed = parse_generators(["- Z I", "I Z"])
    assert signed.generators == ("-ZI", "+IZ")
    assert parse_generators(["\u2212Z I", "I Z"]).generators == ("-ZI", "+IZ")  # unicode minus


def test_parse_rejects_imaginary_phase():
    for row in ("+iZ", "-iXX", "+ i X X"):
        with pytest.raises(ValueError, match="generator phase must be \\+1 or -1"):
            parse_generators([row])


def test_parse_errors():
    with pytest.raises(ValueError, match="anticommute"):
        parse_generators(["XX", "ZI"])
    with pytest.raises(ValueError, match="dependent"):
        parse_generators(["XI", "IX", "XX"])
    with pytest.raises(ValueError, match="mismatch"):
        parse_generators(["XX", "ZZZ"])


def test_bell_state_code():
    code = codespace_from_stabilizer(parse_generators(["XX", "ZZ"]))
    assert code.K == 1
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    overlap = abs(bell.conj() @ code.basis[:, 0])
    assert abs(overlap - 1) <= 1e-12


def test_zz_generators_select_00():
    code = codespace_from_stabilizer(parse_generators(["ZI", "IZ"]))
    assert code.K == 1
    assert abs(abs(code.basis[0, 0]) - 1) <= 1e-12


def test_signed_generator_selects_flipped_state():
    code = codespace_from_stabilizer(parse_generators(["- Z I", "I Z"]))
    # -Z1 stabilizes |1> on qubit 1
    assert abs(abs(code.basis[2, 0]) - 1) <= 1e-12


def test_shaw_code_lambda():
    code = codespace_from_stabilizer(builtin("shaw623"))
    basis = enumerate_error_basis(6, 3)
    assert kl_violation(code, basis) <= 1e-12
    assert abs(lambda_star(signature_vector(code, basis)) - 1.0) <= 1e-9


def test_steane_code_lambda():
    code = codespace_from_stabilizer(builtin("steane"))
    basis = enumerate_error_basis(7, 3)
    assert kl_violation(code, basis) <= 1e-12
    assert lambda_star(signature_vector(code, basis)) <= 1e-9


def test_projector_identity():
    for stab in map(builtin, BUILTIN_GENERATORS):
        code = codespace_from_stabilizer(stab)
        assert code.K == stab.K
        assert np.abs(code.basis.conj().T @ code.basis - np.eye(code.K)).max() <= 1e-12
        assert np.abs(code.projector - stabilizer_projector(stab)).max() <= 1e-12
        assert np.array_equal(code.basis, codespace_from_stabilizer(stab).basis)  # seeded


def test_stabilizer_signature_integrality():
    # every built-in code has components of magnitude 0 or 1, integer lambda*^2
    for name, n in (("steane", 7), ("shaw623", 6)):
        code = codespace_from_stabilizer(builtin(name))
        sig = signature_vector(code, enumerate_error_basis(n, 3))
        mags = np.abs(sig.components)
        assert np.minimum(mags, np.abs(mags - 1)).max() <= 1e-10
        lam_sq = lambda_star(sig) ** 2
        assert abs(lam_sq - round(lam_sq)) <= 1e-9


def test_empty_eigenspace_guard():
    # contradictory or repeated generators are rejected where the group is
    # built, so no group reaches the projection with an eigenspace other than K
    from klscope.stabilizer import StabilizerCode

    with pytest.raises(ValueError, match="dependent"):
        parse_generators(["ZI", "- Z I"])
    with pytest.raises(ValueError, match="dependent"):
        StabilizerCode(n=1, generators=("+Z", "-Z"))
    with pytest.raises(ValueError, match="dependent"):
        StabilizerCode(n=2, generators=("+ZI", "+ZI"))
    with pytest.raises(ValueError, match="length mismatch: \\+ZI has n=2, expected 3"):
        StabilizerCode(n=3, generators=("ZI",))
    # an unsigned hand-built generator reads as +1
    unsigned = StabilizerCode(n=2, generators=("ZI",))
    assert unsigned.generators == ("+ZI",)
    code = codespace_from_stabilizer(unsigned)
    assert code.K == 2
    assert np.abs(code.projector - stabilizer_projector(unsigned)).max() <= 1e-12
