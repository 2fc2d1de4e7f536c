"""The package's public names."""

import braidgate

PUBLIC_NAMES = {
    "BraidItem", "BraidWord", "BracketParams", "CNOT", "ClosureInfo", "CnotClass", "D", "E",
    "EXACT_EPS", "EntanglingVerdict", "ExactScaledMatrix", "ExtendedCircuit", "GuardError", "H",
    "LocalItem", "MOD_X", "MOD_Y", "MOD_Z", "P", "PHASE_EPS", "ProjectionResult", "Q", "R", "R0",
    "R_dprime", "R_prime", "SWAP", "SingularBracketError", "TauValue", "U1", "U2",
    "ZeroProbabilityError", "basis_orthogonality", "bracket3", "bracket_oracle", "braid_to_json",
    "branch_state", "catalog_names", "check_ybe_algebraic", "check_ybe_braided",
    "circuit_from_json", "circuit_matrix", "circuit_to_json", "closure_info", "cnot_count_class",
    "dagger", "equal_up_to_phase", "exact_equal", "exact_trace_probability", "free_reduce",
    "ghz_state", "is_entangling", "is_unitary", "kron", "link_names", "link_word",
    "linking_state_sum", "make_delta", "markov_conjugate", "markov_stabilize", "matrix_from_json",
    "matrix_to_json", "measure_apply", "parse_braid", "partial_trace_last", "permutation",
    "project_qubit", "rep_exact", "rep_matrix", "resolve_gate", "residual",
    "sample_trace_probability", "skein_check", "state_is_entangled", "tau", "tau_equivalent",
    "teleport_protocol", "tl_rep3", "trace_amplitude", "verify_mrn_decomposition", "verify_qdq",
    "verify_r0_decomposition",
}


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 82
    assert braidgate.__all__ == sorted(PUBLIC_NAMES)
    assert all(hasattr(braidgate, name) for name in braidgate.__all__)
