"""Frozen dataclasses with array fields compare and hash by identity: a
generated field-wise ``__eq__`` would compare arrays and raise."""

import numpy as np
import pytest

from klscope.codespace import new_code, signature_vector
from klscope.enumerators import closed_form_723, weight_enumerators
from klscope.families import (
    appendix_b_residuals,
    cyclic_coeffs_from_lambda,
    random_frame,
)
from klscope.optimizer import LossSpec
from klscope.pauli import MarginalKernel, enumerate_error_basis
from klscope.stabilizer import builtin, codespace_from_stabilizer


def _values():
    steane = codespace_from_stabilizer(builtin("steane"))
    basis = enumerate_error_basis(7, 3)
    return {
        "OrthoFrame": lambda: random_frame(np.random.default_rng(0)),
        "EliminationReport": lambda: appendix_b_residuals(cyclic_coeffs_from_lambda(1.0)),
        "CodeSubspace": lambda: new_code(1, [[1, 0]]),
        "SignatureVector": lambda: signature_vector(steane, basis),
        "WeightEnumerator": lambda: weight_enumerators(steane),
        "WeightEnumerator (closed form)": lambda: closed_form_723(1.0),
        "LossSpec": lambda: LossSpec("target_vector", target_vector=np.zeros(3)),
        "MarginalKernel": lambda: MarginalKernel(basis.ops),
    }


@pytest.mark.parametrize("name", list(_values()))
def test_array_dataclasses_compare_and_hash(name):
    make = _values()[name]
    a, b = make(), make()
    assert type(a).__name__ == name.split(" ")[0]
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
