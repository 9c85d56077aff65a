import numpy as np
import pytest

from klscope.codespace import kl_violation, lambda_star, signature_vector
from klscope.pauli import enumerate_error_basis
from klscope.stabilizer import (
    builtin,
    codespace_from_stabilizer,
    parse_generators,
    stabilizer_projector,
)

from literature_codes import CODE_513, GOTTESMAN_833, SHOR_913


def test_builtin_tables():
    steane = builtin("steane")
    assert steane.n == 7 and len(steane.generators) == 6 and steane.K == 2
    shaw = builtin("shaw623")
    assert shaw.n == 6 and len(shaw.generators) == 5 and shaw.K == 2
    assert shaw.generators[0].word.letters == "YIZXXY"
    with pytest.raises(ValueError, match="unknown"):
        builtin("unknown")


def test_parse_spaced_rows_and_signs():
    code = parse_generators(["X X", "+ Z Z"])
    assert code.n == 2 and code.K == 1
    signed = parse_generators(["- Z I", "I Z"])
    assert signed.generators[0].phase == -1


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
    codes = [builtin("steane"), builtin("shaw623")]
    codes += [parse_generators(rows) for rows in (CODE_513, GOTTESMAN_833, SHOR_913)]
    for stab in codes:
        code = codespace_from_stabilizer(stab)
        assert code.K == stab.K
        assert np.abs(code.basis.conj().T @ code.basis - np.eye(code.K)).max() <= 1e-12
        assert np.abs(code.projector - stabilizer_projector(stab)).max() <= 1e-12


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
    # contradictory generators only arise from invalid input; the dependent
    # pair is rejected at parse time, and the projection guard catches a
    # hand-built inconsistent group
    from klscope.pauli import PauliString, PhasedPauli
    from klscope.stabilizer import StabilizerCode

    with pytest.raises(ValueError, match="dependent"):
        parse_generators(["ZI", "- Z I"])
    bad = StabilizerCode(n=1, generators=(
        PhasedPauli(0, PauliString("Z")), PhasedPauli(2, PauliString("Z"))))
    with pytest.raises(ValueError, match="empty"):
        codespace_from_stabilizer(bad)
