"""Braid representations: dense evaluation, the exact integer backend, and
extended circuits with interleaved local gates."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from braidgate import (
    CNOT,
    R,
    BraidItem,
    BraidWord,
    ExactScaledMatrix,
    ExtendedCircuit,
    GuardError,
    LocalItem,
    circuit_from_json,
    circuit_matrix,
    circuit_to_json,
    equal_up_to_phase,
    exact_equal,
    is_unitary,
    kron,
    rep_exact,
    rep_matrix,
    residual,
)
from braidgate.gates import ALPHA, BETA, DELTA2, GAMMA2

seeds = st.integers(0, 2**32 - 1)


def _random_word(rng, n, max_len):
    length = int(rng.integers(1, max_len + 1))
    letters = []
    for _ in range(length):
        g = int(rng.integers(1, n))
        letters.append(g if rng.integers(2) else -g)
    return BraidWord(n, tuple(letters))


def test_single_letter_is_the_operator():
    assert residual(rep_matrix(BraidWord(2, (1,)), R), R) == 0.0
    assert residual(rep_matrix(BraidWord(2, (-1,)), R), R.conj().T) < 1e-15


def test_generator_placement():
    m = rep_matrix(BraidWord(3, (2,)), R)
    assert residual(m, kron(np.eye(2), R)) < 1e-15
    m = rep_matrix(BraidWord(3, (1,)), R)
    assert residual(m, kron(R, np.eye(2))) < 1e-15


def test_braid_relation_and_far_commutation():
    lhs = rep_matrix(BraidWord(3, (1, 2, 1)), R)
    rhs = rep_matrix(BraidWord(3, (2, 1, 2)), R)
    assert residual(lhs, rhs) < 1e-12
    lhs = rep_matrix(BraidWord(4, (1, 3)), R)
    rhs = rep_matrix(BraidWord(4, (3, 1)), R)
    assert residual(lhs, rhs) < 1e-12


@given(seeds)
def test_representation_is_a_homomorphism(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    w1 = _random_word(rng, n, 6)
    w2 = _random_word(rng, n, 6)
    joint = BraidWord(n, w1.letters + w2.letters)
    assert residual(
        rep_matrix(joint, R), rep_matrix(w1, R) @ rep_matrix(w2, R)
    ) < 1e-12


@given(seeds)
def test_representation_is_unitary(seed):
    rng = np.random.default_rng(seed)
    b = _random_word(rng, int(rng.integers(2, 5)), 10)
    assert is_unitary(rep_matrix(b, R))


@given(seeds)
def test_exact_backend_matches_float(seed):
    rng = np.random.default_rng(seed)
    b = _random_word(rng, int(rng.integers(2, 5)), 10)
    exact = rep_exact(b)
    assert exact.scale_exp == len(b.letters)
    assert residual(exact.to_float(), rep_matrix(b, R)) < 1e-12


def test_non_unitary_operator_uses_true_inverse():
    g = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    m = rep_matrix(BraidWord(2, (1, -1)), g)
    assert residual(m, np.eye(4)) < 1e-12


def test_eighth_power_is_exactly_the_identity():
    eight = rep_exact(BraidWord(2, (1,) * 8))
    assert np.array_equal(eight.ints, 16 * np.eye(4, dtype=np.int64))
    assert exact_equal(eight, ExactScaledMatrix(4, np.eye(4, dtype=np.int64), 0))


def test_letter_plus_inverse_is_twice_identity():
    plus = rep_exact(BraidWord(2, (1,)))
    minus = rep_exact(BraidWord(2, (-1,)))
    assert np.array_equal(plus.ints + minus.ints, 2 * np.eye(4, dtype=np.int64))


def test_exact_equal_cases():
    eye = np.eye(4, dtype=np.int64)
    a = ExactScaledMatrix(4, eye, 0)
    assert exact_equal(a, ExactScaledMatrix(4, 2 * eye, 2))
    assert not exact_equal(a, ExactScaledMatrix(4, eye, 2))
    # odd exponent gaps can only match on the zero matrix
    zero = ExactScaledMatrix(4, np.zeros((4, 4), dtype=np.int64), 1)
    assert not exact_equal(a, ExactScaledMatrix(4, eye, 1))
    assert exact_equal(zero, ExactScaledMatrix(4, np.zeros((4, 4), dtype=np.int64), 4))
    assert not exact_equal(a, ExactScaledMatrix(8, np.eye(8, dtype=np.int64), 0))


def test_exact_matrices_are_frozen():
    m = rep_exact(BraidWord(2, (1,)))
    with pytest.raises(ValueError):
        m.ints[0, 0] = 7


def test_trace_int():
    assert rep_exact(BraidWord(2, ())).trace_int() == 4
    assert rep_exact(BraidWord(2, (1,))).trace_int() == 4  # trace of sqrt2 * R


def test_strand_guard():
    with pytest.raises(GuardError):
        rep_matrix(BraidWord(13, (1,)), R)
    with pytest.raises(GuardError):
        rep_exact(BraidWord(13, (1,)))


def test_exact_length_guard():
    with pytest.raises(GuardError):
        rep_exact(BraidWord(2, (1,) * 61))
    rep_exact(BraidWord(2, (1,) * 60))  # boundary is allowed


def test_operator_shape_check():
    with pytest.raises(ValueError):
        rep_matrix(BraidWord(2, (1,)), np.eye(2))


# ---------------------------------------------------------------------------
# Kronecker oracle: every letter's full placement, multiplied out
# ---------------------------------------------------------------------------

_R_INT = np.array([[1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0], [-1, 0, 0, 1]])


def _placed(n, gate, strand):
    """I_{2^(strand-1)} (x) gate (x) I_{...} as a full 2^n x 2^n matrix."""
    width = gate.shape[0].bit_length() - 1
    left = np.eye(2 ** (strand - 1), dtype=gate.dtype)
    right = np.eye(2 ** (n - strand - width + 1), dtype=gate.dtype)
    return np.kron(np.kron(left, gate), right)


def _kron_product(n, factors, dtype):
    m = np.eye(2**n, dtype=dtype)
    for gate, strand in factors:
        m = m @ _placed(n, gate, strand)
    return m


def _random_unitary(rng, dim):
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


@st.composite
def _circuits(draw):
    """An extended circuit on n <= 6 strands; local gates are random unitaries."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(seeds))
    letter = st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g)))
    items = draw(
        st.lists(
            st.one_of(
                letter.map(BraidItem),
                st.integers(1, n).map(lambda k: LocalItem(k, _random_unitary(rng, 2))),
            ),
            max_size=14,
        )
    )
    return ExtendedCircuit(n, tuple(items))


@settings(deadline=None)
@given(_circuits(), seeds)
def test_builders_match_the_kronecker_oracle(c, seed):
    r = _random_unitary(np.random.default_rng(seed), 4)
    letters = tuple(item.letter for item in c.items if isinstance(item, BraidItem))
    b = BraidWord(c.n, letters)

    cores = ((_R_INT if g > 0 else _R_INT.T, abs(g)) for g in letters)
    assert np.array_equal(rep_exact(b).ints, _kron_product(c.n, cores, np.int64))

    for op in (R, r):
        inv = op.conj().T
        dense = _kron_product(c.n, ((op if g > 0 else inv, abs(g)) for g in letters), complex)
        assert residual(rep_matrix(b, op), dense) <= 1e-12
        factors = (
            (op if item.letter > 0 else inv, abs(item.letter))
            if isinstance(item, BraidItem)
            else (item.gate, item.strand)
            for item in c.items
        )
        assert residual(circuit_matrix(c, op), _kron_product(c.n, factors, complex)) <= 1e-12


# ---------------------------------------------------------------------------
# Extended circuits
# ---------------------------------------------------------------------------


def test_empty_circuit_is_identity():
    c = ExtendedCircuit(2, ())
    assert residual(circuit_matrix(c, R), np.eye(4)) == 0.0


def test_braid_only_circuit_matches_rep_matrix():
    b = BraidWord(3, (1, -2, 1))
    c = ExtendedCircuit(3, tuple(BraidItem(g) for g in b.letters))
    assert residual(circuit_matrix(c, R), rep_matrix(b, R)) < 1e-15


def test_local_dressing_of_one_crossing_gives_cnot():
    """A single braiding letter conjugated by one-strand gates reproduces
    CNOT up to global phase."""
    c = ExtendedCircuit(
        2,
        (
            LocalItem(1, ALPHA),
            LocalItem(2, BETA),
            BraidItem(1),
            LocalItem(1, GAMMA2),
            LocalItem(2, DELTA2),
        ),
    )
    ok, phase = equal_up_to_phase(circuit_matrix(c, R), CNOT)
    assert ok and abs(abs(phase) - 1.0) < 1e-12


def test_local_items_act_on_their_strand_only():
    g = np.array([[0, 1], [1, 0]], dtype=complex)
    c = ExtendedCircuit(2, (LocalItem(2, g),))
    assert residual(circuit_matrix(c, R), kron(np.eye(2), g)) < 1e-15


def test_circuit_validation():
    with pytest.raises(ValueError):
        ExtendedCircuit(2, (BraidItem(0),))
    with pytest.raises(ValueError):
        ExtendedCircuit(2, (BraidItem(2),))
    with pytest.raises(ValueError):
        ExtendedCircuit(2, (LocalItem(3, np.eye(2)),))
    with pytest.raises(ValueError):
        LocalItem(1, np.eye(4))
    with pytest.raises(TypeError):
        ExtendedCircuit(2, ("junk",))


def test_circuit_json_round_trip():
    c = ExtendedCircuit(
        3, (BraidItem(1), LocalItem(2, np.array([[0, 1j], [1, 0]])), BraidItem(-2))
    )
    obj = circuit_to_json(c)
    back = circuit_from_json(obj)
    assert back.n == 3
    assert residual(circuit_matrix(back, R), circuit_matrix(c, R)) == 0.0
    with pytest.raises(ValueError):
        circuit_from_json({"n": 2, "items": [{"mystery": 1}]})
