"""Gate catalog, Yang-Baxter checks, entanglement decisions, CNOT counting."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from braidgate import (
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
    P,
    R_dprime,
    R_prime,
    U1,
    U2,
    catalog_names,
    check_ybe_algebraic,
    check_ybe_braided,
    cnot_count_class,
    equal_up_to_phase,
    is_entangling,
    kron,
    residual,
    resolve_gate,
    state_is_entangled,
    verify_mrn_decomposition,
    verify_qdq,
    verify_r0_decomposition,
)
from braidgate.gates import ALPHA, BETA, DELTA2, GAMMA2, I2, I4

seeds = st.integers(0, 2**32 - 1)


def _unit_phases(rng, count=4):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


def _haar2(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ---------------------------------------------------------------------------
# Frozen catalog entries
# ---------------------------------------------------------------------------


def test_r_matrix_entries():
    expected = np.array(
        [
            [1, 0, 0, 1],
            [0, 1, -1, 0],
            [0, 1, 1, 0],
            [-1, 0, 0, 1],
        ],
        dtype=complex,
    ) / np.sqrt(2.0)
    assert residual(R, expected) == 0.0


def test_fixed_gate_goldens():
    assert residual(D, np.diag([1, 1, 1, -1])) == 0.0
    assert residual(E, np.fliplr(np.diag([1, -1, -1, 1]))) == 0.0
    assert residual(Q, kron(I2, H)) < 1e-15
    assert residual(R0, R_prime(1, 1, 1, -1)) == 0.0
    assert residual(MOD_X, np.diag([1, -1])) == 0.0
    assert residual(MOD_Y, [[0, 1], [1, 0]]) == 0.0
    assert residual(MOD_Z, [[0, 1], [-1, 0]]) == 0.0
    assert residual(SWAP @ SWAP, I4) == 0.0
    assert residual(Q @ Q, I4) < 1e-15  # involution, so Q D Q is a conjugation


def test_parametric_placements():
    m = R_prime(1, 1j, -1j, -1)
    assert m[0, 0] == 1 and m[1, 2] == 1j and m[2, 1] == -1j and m[3, 3] == -1
    assert np.count_nonzero(m) == 4
    m = R_dprime(1, 1j, -1j, -1)
    assert m[0, 3] == 1 and m[1, 1] == 1j and m[2, 2] == -1j and m[3, 0] == -1
    assert np.count_nonzero(m) == 4
    assert residual(P(1, 1j, -1, -1j), np.diag([1, 1j, -1, -1j])) == 0.0


def test_parametric_families_reject_non_unit_moduli():
    with pytest.raises(ValueError):
        R_prime(2, 1, 1, 1)
    with pytest.raises(ValueError):
        P(1, 1, 0.5, 1)
    # the escape hatch used by matrix-entry parsing
    m = P(2, 1, 1, 1, require_unit=False)
    assert m[0, 0] == 2


# ---------------------------------------------------------------------------
# Yang-Baxter
# ---------------------------------------------------------------------------


def test_braided_ybe_fixed_solutions():
    assert check_ybe_braided(R) < 1e-12
    assert check_ybe_braided(SWAP) < 1e-12


def test_algebraic_ybe_fixed_solutions():
    assert check_ybe_algebraic(D) < 1e-12
    assert check_ybe_algebraic(SWAP @ R) < 1e-12


@given(seeds)
def test_braided_ybe_parametric_solutions(seed):
    rng = np.random.default_rng(seed)
    a, b, c, d = _unit_phases(rng)
    assert check_ybe_braided(R_prime(a, b, c, d)) < 1e-12
    assert check_ybe_braided(R_dprime(a, b, b, d)) < 1e-12


@given(seeds)
def test_algebraic_ybe_parametric_solutions(seed):
    rng = np.random.default_rng(seed)
    assert check_ybe_algebraic(P(*_unit_phases(rng))) < 1e-12
    assert check_ybe_algebraic(SWAP @ R_prime(*_unit_phases(rng))) < 1e-12


def test_ybe_negative_controls():
    """Known non-solutions pin the checks at their exact failure sizes."""
    assert abs(check_ybe_algebraic(R) - np.sqrt(0.5)) < 1e-12
    assert check_ybe_braided(D) == 2.0
    perturbed = R.copy()
    perturbed[0, 0] += 0.05
    assert abs(check_ybe_braided(perturbed) - 0.05) < 1e-12


@given(seeds)
def test_antidiagonal_family_needs_equal_inner_phases(seed):
    """R_dprime solves the braided relation iff its two middle phases agree."""
    rng = np.random.default_rng(seed)
    a, b, d = _unit_phases(rng, 3)
    assert check_ybe_braided(R_dprime(a, b, b, d)) < 1e-12
    assert check_ybe_braided(R_dprime(a, b, -b, d)) == pytest.approx(2.0)


def test_ybe_rejects_wrong_shape():
    with pytest.raises(ValueError):
        check_ybe_braided(H)
    with pytest.raises(ValueError):
        check_ybe_algebraic(np.eye(8))


# ---------------------------------------------------------------------------
# Entanglement
# ---------------------------------------------------------------------------


def test_state_is_entangled_cases():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert state_is_entangled(bell) is True
    assert state_is_entangled([1, 0, 0, 0]) is False
    assert state_is_entangled(np.kron([1, 1j], [3, 4j]) / 5.0) is False
    with pytest.raises(ValueError):
        state_is_entangled([1, 0])
    with pytest.raises(ValueError):
        state_is_entangled([0, 0, 0, 0])


def test_is_entangling_verdicts():
    for g in (R, R0, CNOT):
        v = is_entangling(g)
        assert v.entangling
        assert v.witness is not None
        assert state_is_entangled(g @ v.witness, eps=1e-9)
    v = is_entangling(R, eps=1.0)  # no unit state has |ad - bc| above 1/2
    assert v.entangling and v.witness is None
    v = is_entangling(SWAP)
    assert not v.entangling and v.witness is None
    assert min(v.schmidt_ranks) == 1
    assert not is_entangling(kron(MOD_X, H)).entangling
    assert not is_entangling(kron(H, MOD_Z) @ SWAP).entangling


def test_is_entangling_rejects_bad_input():
    with pytest.raises(ValueError):
        is_entangling(np.diag([1, 2, 1, 1]))
    with pytest.raises(ValueError):
        is_entangling(H)


@given(seeds)
def test_phase_swap_family_entangling_iff_determinant_like(seed):
    """R_prime(a,b,c,d) entangles iff ad - bc != 0; d = bc/a sits exactly
    on the non-entangling locus."""
    rng = np.random.default_rng(seed)
    a, b, c = _unit_phases(rng, 3)
    d = _unit_phases(rng, 1)[0]
    verdict = is_entangling(R_prime(a, b, c, d))
    assert verdict.entangling == (abs(a * d - b * c) > 1e-9)
    assert not is_entangling(R_prime(a, b, c, b * c / a)).entangling


# ---------------------------------------------------------------------------
# CNOT counting
# ---------------------------------------------------------------------------


def test_cnot_class_goldens():
    assert cnot_count_class(I4).cls == 0
    assert cnot_count_class(kron(MOD_X, H)).cls == 0
    one = cnot_count_class(R)
    assert one.cls == 1 and abs(one.gamma_trace) < 1e-12
    assert one.gamma_sq_residual < 1e-12
    assert cnot_count_class(CNOT).cls == 1
    assert cnot_count_class(R0).cls == 2
    assert cnot_count_class(R_dprime(1, 1, 1, -1)).cls == 2
    swapped = cnot_count_class(SWAP)
    assert swapped.cls == "more"
    assert abs(swapped.gamma_trace - (-4j)) < 1e-12


@given(seeds)
def test_cnot_class_on_phase_swap_family(seed):
    """Generic members need more than two CNOTs; the two-CNOT members are
    exactly the ad = -bc sub-family.  R_dprime = R_prime.(X (x) X) shares
    the classes."""
    rng = np.random.default_rng(seed)
    a, b, c, d = _unit_phases(rng)
    for family in (R_prime, R_dprime):
        assert cnot_count_class(family(a, b, c, -b * c / a)).cls == 2
        assert cnot_count_class(family(a, b, c, b * c / a)).cls == "more"
        if abs(a * d + b * c) > 1e-6:
            assert cnot_count_class(family(a, b, c, d)).cls == "more"


@given(seeds)
def test_cnot_class_invariant_under_local_gates(seed):
    rng = np.random.default_rng(seed)
    locals_before = kron(_haar2(rng), _haar2(rng))
    locals_after = kron(_haar2(rng), _haar2(rng))
    for g in (R, CNOT, R0, SWAP):
        dressed = cnot_count_class(locals_before @ g @ locals_after)
        assert dressed.cls == cnot_count_class(g).cls


def test_cnot_class_rejects_bad_input():
    with pytest.raises(ValueError):
        cnot_count_class(np.diag([1, 1, 1, 2]))
    with pytest.raises(ValueError):
        cnot_count_class(H)


# ---------------------------------------------------------------------------
# CNOT decompositions
# ---------------------------------------------------------------------------


def test_decomposition_verifiers():
    qdq = verify_qdq()
    assert qdq["ok"] and qdq["residual"] < 1e-15
    for report in (verify_r0_decomposition(), verify_mrn_decomposition()):
        assert report["ok"]
        assert report["residual"] < 1e-12
        assert abs(abs(report["phase"]) - 1.0) < 1e-12


def test_swap_in_place_of_r_breaks_the_product():
    """The middle factor matters: the same local dressing around SWAP does
    not produce CNOT, so the decomposition check cannot pass vacuously."""
    impostor = kron(ALPHA, BETA) @ SWAP @ kron(GAMMA2, DELTA2)
    ok, _ = equal_up_to_phase(impostor, CNOT)
    assert not ok


# ---------------------------------------------------------------------------
# Loop-weight generator matrices
# ---------------------------------------------------------------------------


@given(st.floats(-2.0, 2.0).filter(lambda d: abs(d) > 1e-3))
def test_loop_generator_identities(d):
    u1, u2 = U1(d), U2(d)
    assert residual(u1 @ u1, d * u1) < 1e-9
    assert residual(u2 @ u2, d * u2) < 1e-9
    assert residual(u1 @ u2 @ u1, u1) < 1e-9
    assert residual(u2 @ u1 @ u2, u2) < 1e-9
    assert abs(np.trace(u2) - d) < 1e-12


def test_loop_generator_singular_weight():
    with pytest.raises(ZeroDivisionError):
        U2(0.0)


# ---------------------------------------------------------------------------
# Name resolution
# ---------------------------------------------------------------------------


def test_resolve_fixed_gates():
    assert residual(resolve_gate("R"), R) == 0.0
    assert residual(resolve_gate("X"), MOD_X) == 0.0
    got = resolve_gate("CNOT")
    got[0, 0] = 99.0  # resolver hands out copies, not the catalog entries
    assert CNOT[0, 0] == 1.0


def test_resolve_parametric_gates():
    m = resolve_gate("Rprime:1,0,1,0,1,0,-1,0")
    assert residual(m, R0) == 0.0
    m = resolve_gate("P:0,1,1,0,1,0,1,0")
    assert m[0, 0] == 1j
    m = resolve_gate("U2:-2,0")
    assert abs(np.trace(m) - (-2)) < 1e-12


def test_resolve_gate_errors():
    with pytest.raises(KeyError):
        resolve_gate("nope")
    with pytest.raises(KeyError):
        resolve_gate("Nope:1,0")
    with pytest.raises(ValueError):
        resolve_gate("Rprime:1,0")
    with pytest.raises(ValueError):
        resolve_gate("U1:abc,0")


def test_catalog_names_cover_the_resolver():
    names = catalog_names()
    assert "R" in names and "SWAP" in names
    assert "Rprime:..." in names and "U2:..." in names
    for name in names:
        if not name.endswith(":..."):
            assert resolve_gate(name).ndim == 2
