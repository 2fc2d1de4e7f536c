"""Cup/cap state machinery: trace evaluation, functional measurements,
state teleportation and single-qubit projections."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidgate import (
    CNOT,
    GuardError,
    H,
    MOD_X,
    MOD_Z,
    R,
    ZeroProbabilityError,
    basis_orthogonality,
    branch_state,
    exact_trace_probability,
    ghz_state,
    kron,
    make_delta,
    measure_apply,
    project_qubit,
    sample_trace_probability,
    teleport_protocol,
    trace_amplitude,
)
from quantum_oracles import (
    contract_functional,
    cup_trace,
    t_unitary,
    teleport_all_branches,
)

seeds = st.integers(0, 2**32 - 1)


def _haar(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ---------------------------------------------------------------------------
# Cup states and trace evaluation
# ---------------------------------------------------------------------------


def test_delta_state_goldens():
    d1 = make_delta(1)
    assert np.array_equal(d1, np.array([1, 0, 0, 1], dtype=complex))
    d2 = make_delta(2)
    assert d2.shape == (16,)
    assert sorted(np.nonzero(d2)[0].tolist()) == [0, 5, 10, 15]
    assert np.all(d2[[0, 5, 10, 15]] == 1.0)
    normalized = make_delta(3, normalized=True)
    assert abs(np.linalg.norm(normalized) - 1.0) < 1e-12


def test_delta_guard():
    with pytest.raises(GuardError):
        make_delta(0)
    with pytest.raises(GuardError):
        make_delta(11)


def test_trace_amplitude_goldens():
    assert trace_amplitude(np.eye(4)) == pytest.approx(4.0)
    assert trace_amplitude(R) == pytest.approx(2.0 * np.sqrt(2.0))
    assert trace_amplitude(CNOT) == pytest.approx(2.0)
    assert exact_trace_probability(R) == pytest.approx(0.5)
    assert exact_trace_probability(np.eye(2)) == pytest.approx(1.0)
    assert exact_trace_probability(MOD_Z) == pytest.approx(0.0)


@given(seeds)
@settings(max_examples=25)
def test_trace_amplitude_matches_trace(seed):
    """The closed-form trace against the literal cup contraction."""
    rng = np.random.default_rng(seed)
    dim = 2 ** int(rng.integers(1, 7))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    oracle = cup_trace(g)
    assert abs(trace_amplitude(g) - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_trace_amplitude_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        trace_amplitude(np.eye(3))
    with pytest.raises(GuardError):
        trace_amplitude(np.eye(2**11))


def test_sampling_degenerate_probabilities():
    est, err = sample_trace_probability(np.eye(4), shots=1000, seed=5)
    assert est == 1.0 and err == 0.0
    est, err = sample_trace_probability(MOD_Z, shots=1000, seed=5)
    assert est == 0.0 and err == 0.0


def test_sampling_concentrates_on_the_exact_value():
    p = exact_trace_probability(R)
    est, err = sample_trace_probability(R, shots=100_000, seed=11)
    assert err > 0.0
    assert abs(est - p) <= 3.0 * err


def test_sampling_is_deterministic_per_seed():
    a = sample_trace_probability(R, shots=5000, seed=3)
    b = sample_trace_probability(R, shots=5000, seed=3)
    c = sample_trace_probability(R, shots=5000, seed=4)
    assert a == b
    assert a != c


def test_sampling_input_validation():
    with pytest.raises(ValueError):
        sample_trace_probability(np.diag([1.0, 2.0]), shots=10, seed=0)
    with pytest.raises(ValueError):
        sample_trace_probability(np.eye(2), shots=0, seed=0)


# ---------------------------------------------------------------------------
# Functional measurements
# ---------------------------------------------------------------------------


def test_measure_apply_golden():
    out, prob = measure_apply(MOD_X, np.array([1, 0], dtype=complex))
    assert np.allclose(out, [1, 0])
    assert prob == pytest.approx(0.5)
    out, prob = measure_apply(np.eye(2), np.array([0, 1], dtype=complex))
    assert np.allclose(out, [0, 1])
    assert prob == pytest.approx(0.5)


def test_measure_apply_is_transpose_action():
    m = np.array([[1, 2j], [0, 1]], dtype=complex)
    psi = np.array([1, 1j], dtype=complex)
    out, _ = measure_apply(m, psi)
    assert np.allclose(out, m.T @ psi)


@given(seeds)
@settings(max_examples=25)
def test_measure_apply_weights_sum_over_a_basis(seed):
    """The outcome weights of the four functionals built from an orthogonal
    operator basis total 2^n; rescaled by the cup norm they are Born
    probabilities summing to 1."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    basis = [
        np.eye(2, dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, 1], [-1, 0]], dtype=complex),
    ]
    total = sum(measure_apply(m, psi)[1] for m in basis)
    assert abs(total - 2.0) < 1e-12
    assert abs(total / 2.0 - 1.0) < 1e-12  # Born normalization


@given(seeds, st.integers(2, 16))
@settings(max_examples=50)
def test_measure_apply_matches_the_literal_contraction(seed, dim):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    out, prob = measure_apply(m, psi)
    oracle = contract_functional(m, psi)
    assert np.max(np.abs(out - oracle)) <= 1e-12 * max(1.0, float(np.max(np.abs(oracle))))
    expected = float(np.vdot(oracle, oracle).real) / (float(np.vdot(psi, psi).real) * dim)
    assert abs(prob - expected) <= 1e-12 * expected


def test_measure_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        measure_apply(np.eye(2), np.array([1, 0, 0], dtype=complex))


def test_basis_orthogonality_verdicts():
    ok, gram = basis_orthogonality(np.eye(2))
    assert ok and gram.shape == (4, 4)
    assert np.allclose(np.diag(gram), 2.0)  # each family member has norm^2 = 2
    family = np.array([[0.6, 0.8j], [0.8j, 0.6]], dtype=complex)
    ok, _ = basis_orthogonality(family)
    assert ok
    ok, _ = basis_orthogonality(np.diag([1.0, 2.0]))
    assert not ok
    with pytest.raises(ValueError):
        basis_orthogonality(np.eye(4))


@given(seeds)
@settings(max_examples=25)
def test_basis_orthogonality_tracks_unitarity(seed):
    """The four modified functionals are orthogonal exactly when the seed
    matrix has proportional orthonormal columns."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    ok, _ = basis_orthogonality(m)
    scaled = m.conj().T @ m
    unitary_like = abs(scaled[0, 0] - scaled[1, 1]) < 1e-9 and abs(scaled[0, 1]) < 1e-9
    assert ok == unitary_like


# ---------------------------------------------------------------------------
# Teleportation
# ---------------------------------------------------------------------------


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_teleportation_recovers_the_gate_action(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 3))
    dim = 2**n
    u = _haar(rng, dim)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    received, bits = teleport_protocol(u, psi, seed=seed)
    assert len(bits) == 2 * n
    assert all(b in (0, 1) for b in bits)
    target = u @ (psi / np.linalg.norm(psi))
    overlap = abs(np.vdot(received, target))
    assert overlap == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_teleport_born_weights_are_uniform(n):
    """Every functional <T_ab U| / sqrt(2^n) measured against
    psi (x) delta / sqrt(2^n) has Born weight exactly 1/4^n for unitary
    U, which is what lets teleport_protocol draw the outcome first."""
    rng = np.random.default_rng(n)
    dim = 2**n
    for _ in range(10):
        u = _haar(rng, dim)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = psi / np.linalg.norm(psi)
        weights = []
        for bits in product((0, 1), repeat=2 * n):
            out = contract_functional(t_unitary(bits[:n], bits[n:]) @ u, psi) / dim
            weights.append(float(np.vdot(out, out).real))
        assert len(weights) == 4**n
        assert np.max(np.abs(np.array(weights) * 4**n - 1.0)) <= 1e-13


def test_teleportation_matches_the_all_branch_oracle():
    """Drawing the outcome first gives the same bits and bitwise the same
    received state as building all 4^n branches and sampling by weight."""
    for n in (1, 2, 3):
        dim = 2**n
        for seed in range(300):
            rng = np.random.default_rng((seed, n))
            u = _haar(rng, dim)
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            received, bits = teleport_protocol(u, psi, seed=seed)
            want, want_bits = teleport_all_branches(u, psi, seed)
            assert bits == want_bits, (n, seed)
            assert np.array_equal(received, want), (n, seed)


def test_teleportation_golden_identity():
    psi = np.array([0.6, 0.8j], dtype=complex)
    received, bits = teleport_protocol(np.eye(2), psi, seed=0)
    assert abs(abs(np.vdot(received, psi)) - 1.0) < 1e-12
    assert len(bits) == 2


def test_teleportation_guards():
    with pytest.raises(GuardError):
        teleport_protocol(np.eye(16), np.ones(16), seed=0)
    with pytest.raises(ValueError):
        teleport_protocol(np.diag([1.0, 2.0]), np.array([1, 0]), seed=0)
    with pytest.raises(ZeroProbabilityError):
        teleport_protocol(np.eye(2), np.zeros(2), seed=0)
    with pytest.raises(ValueError):
        teleport_protocol(np.eye(4), np.array([1, 0]), seed=0)


def test_teleportation_is_deterministic_per_seed():
    u = kron(H, MOD_X)
    psi = np.array([1, 2, 3, 4], dtype=complex)
    r1, b1 = teleport_protocol(u, psi, seed=9)
    r2, b2 = teleport_protocol(u, psi, seed=9)
    assert b1 == b2
    assert np.array_equal(r1, r2)


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def test_branch_state_projections():
    psi = branch_state()
    zero = project_qubit(psi, 1, 0)
    one = project_qubit(psi, 1, 1)
    assert zero.prob == pytest.approx(0.5)
    assert one.prob == pytest.approx(0.5)
    assert zero.entangled is False
    assert one.entangled is True


def test_ghz_projections_are_unentangled():
    psi = ghz_state()
    for qubit in (1, 2, 3):
        for bit in (0, 1):
            r = project_qubit(psi, qubit, bit)
            assert r.prob == pytest.approx(0.5)
            assert r.entangled is False


def test_projection_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    psi = rng.normal(size=8) + 1j * rng.normal(size=8)
    for qubit in (1, 2, 3):
        probs = [project_qubit(psi, qubit, bit).prob for bit in (0, 1)]
        assert sum(probs) == pytest.approx(1.0)


def test_projection_validation():
    psi = ghz_state()
    with pytest.raises(ValueError):
        project_qubit(psi, 0, 0)
    with pytest.raises(ValueError):
        project_qubit(psi, 4, 0)
    with pytest.raises(ValueError):
        project_qubit(psi, 1, 2)
    with pytest.raises(ValueError):
        project_qubit(np.zeros(8), 1, 0)


def test_projection_zero_probability_branch():
    psi = np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=complex)
    with pytest.raises(ZeroProbabilityError):
        project_qubit(psi, 1, 1)


def test_projection_entanglement_classified_only_for_three_qubits():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    r = project_qubit(np.kron(bell, np.array([1, 0])), 3, 0)
    assert r.entangled is True  # the surviving pair is still the bell state
    two = project_qubit(bell, 1, 0)
    assert two.entangled is None  # only 3-qubit inputs are classified
