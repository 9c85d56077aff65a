"""Characterize quantum error-correcting codes by their error-correlation
signature: the vector of deduplicated Knill-Laflamme coefficients and its
local-unitary-invariant norm lambda*.

Subpackages: exact Pauli algebra, code subspaces and KL data, stabilizer
codes, exact six- and seven-qubit code families, quantum weight enumerators,
Stiefel-manifold code search, and a sweep/CLI driver.
"""

from .codespace import (
    CodeSubspace,
    NotACodeError,
    SignatureVector,
    apply_local_unitary,
    code_from_json,
    code_to_json,
    kl_tensor,
    kl_violation,
    lambda_star,
    new_code,
    purity,
    reduced_density_matrix,
    signature_vector,
)
from .enumerators import (
    WeightEnumerator,
    closed_form_623,
    closed_form_723,
    lambda_star_sq_from_enumerator,
    weight_enumerators,
)
from .families import (
    CyclicCoeffs,
    OrthoFrame,
    appendix_b_residuals,
    block_eigenvalues,
    code_623,
    cyclic_basis_723,
    cyclic_code_723,
    cyclic_coeffs_from_lambda,
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
from .optimizer import (
    LossSpec,
    OptimizationResult,
    OptimizerConfig,
    gradient,
    jnr_feasibility,
    loss,
    optimize,
    stiefel_map,
)
from .pauli import (
    ErrorBasis,
    PauliString,
    dense_matrix,
    enumerate_error_basis,
    pauli_from_string,
)
from .stabilizer import StabilizerCode, builtin, codespace_from_stabilizer, parse_generators

__version__ = "0.1.0"
