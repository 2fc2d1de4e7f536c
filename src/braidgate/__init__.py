"""Braiding operators as two-qubit gates: Yang-Baxter checks, braid-group
representations, exact link invariants, Temperley-Lieb brackets, and
entangled-measurement protocols."""

import types as _types

from .braid import (
    BraidWord,
    ClosureInfo,
    braid_to_json,
    closure_info,
    free_reduce,
    markov_conjugate,
    markov_stabilize,
    parse_braid,
    permutation,
)
from .errors import GuardError, SingularBracketError, ZeroProbabilityError
from .gates import (
    CNOT,
    D,
    E,
    H,
    MOD_X,
    MOD_Y,
    MOD_Z,
    Q,
    R,
    R0,
    SWAP,
    CnotClass,
    EntanglingVerdict,
    P,
    R_dprime,
    R_prime,
    U1,
    U2,
    catalog_names,
    check_ybe_algebraic,
    check_ybe_braided,
    cnot_count_class,
    is_entangling,
    resolve_gate,
    state_is_entangled,
    verify_mrn_decomposition,
    verify_qdq,
    verify_r0_decomposition,
)
from .invariants import (
    BracketParams,
    TauValue,
    bracket3,
    bracket_oracle,
    link_names,
    link_word,
    linking_state_sum,
    skein_check,
    tau,
    tau_equivalent,
    tl_rep3,
)
from .quantum import (
    ProjectionResult,
    basis_orthogonality,
    branch_state,
    exact_trace_probability,
    ghz_state,
    make_delta,
    measure_apply,
    project_qubit,
    sample_trace_probability,
    teleport_protocol,
    trace_amplitude,
)
from .rep import (
    BraidItem,
    ExactScaledMatrix,
    ExtendedCircuit,
    LocalItem,
    circuit_from_json,
    circuit_matrix,
    circuit_to_json,
    exact_equal,
    rep_exact,
    rep_matrix,
)
from .tensor import (
    EXACT_EPS,
    PHASE_EPS,
    dagger,
    equal_up_to_phase,
    is_unitary,
    kron,
    matrix_from_json,
    matrix_to_json,
    partial_trace_last,
    residual,
)

__version__ = "0.1.0"

# the public names imported above; submodules are not exported
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
