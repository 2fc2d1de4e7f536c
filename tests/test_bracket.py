"""Two-dimensional representation of 3-strand braids and the bracket
state sum it computes."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from braidgate import (
    BracketParams,
    BraidWord,
    GuardError,
    SingularBracketError,
    bracket3,
    bracket_oracle,
    is_unitary,
    parse_braid,
    residual,
    tl_rep3,
)
from statesum_oracles import ORACLE_RTOL, bracket_enumerated, bracket_terms, random_weight

seeds = st.integers(0, 2**32 - 1)

angles = st.floats(-np.pi / 6, np.pi / 6).filter(
    lambda t: abs(abs(t) - np.pi / 4) > 1e-6
)


def _random_word3(rng, max_len):
    length = int(rng.integers(1, max_len + 1))
    letters = [int(rng.choice([-2, -1, 1, 2])) for _ in range(length)]
    return BraidWord(3, tuple(letters))


def _random_word(rng, n, max_len):
    length = int(rng.integers(0, max_len + 1))
    letters = [int(rng.integers(1, n)) * int(rng.choice([-1, 1])) for _ in range(length)]
    return BraidWord(n, tuple(letters))


def test_parameter_constructors_agree():
    for theta in (0.1, -0.4, np.pi / 6):
        p = BracketParams.from_theta(theta)
        q = BracketParams.from_A(np.exp(1j * theta))
        assert abs(p.A - q.A) < 1e-15
        assert abs(p.d - q.d) < 1e-12
        assert abs(p.d - (-2.0 * np.cos(2.0 * theta))) < 1e-12
    with pytest.raises(ValueError):
        BracketParams.from_A(0.0)


def test_generator_image_golden():
    p = BracketParams.from_A(1.3 - 0.2j)
    phi = tl_rep3(BraidWord(3, (1,)), p)
    expected = np.diag([-p.A ** (-3), p.A])
    assert residual(phi, expected) < 1e-12


@given(seeds)
def test_braid_relation_in_the_representation(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal() + 1j * rng.normal()
    if abs(a) < 0.3:
        a = a + 1.0
    p = BracketParams.from_A(a)
    if abs(p.d) < 1e-6:
        p = BracketParams.from_A(a + 0.5)
    lhs = tl_rep3(parse_braid("n=3; 1 2 1"), p)
    rhs = tl_rep3(parse_braid("n=3; 2 1 2"), p)
    assert residual(lhs, rhs) < 1e-9 * max(1.0, np.abs(lhs).max())


@given(angles, seeds)
def test_representation_unitary_inside_the_window(theta, seed):
    """For real angles with |theta| <= pi/6 the loop weight satisfies
    |d| >= 1 and every word maps to a unitary matrix."""
    rng = np.random.default_rng(seed)
    p = BracketParams.from_theta(theta)
    assert is_unitary(tl_rep3(_random_word3(rng, 8), p), 1e-9)


def test_representation_not_unitary_outside_the_window():
    p = BracketParams.from_theta(0.6)
    assert not is_unitary(tl_rep3(BraidWord(3, (2,)), p), 1e-6)


def test_singular_loop_weight():
    with pytest.raises(SingularBracketError):
        tl_rep3(BraidWord(3, (1,)), BracketParams.from_theta(np.pi / 4))


def test_strand_count_is_fixed():
    with pytest.raises(ValueError):
        tl_rep3(BraidWord(2, (1,)), BracketParams.from_theta(0.1))


def test_identity_braid_value():
    p = BracketParams.from_A(0.9 + 0.4j)
    ident = BraidWord(3, ())
    assert abs(bracket3(ident, p) - p.d**2) < 1e-12
    assert abs(bracket_oracle(ident, p) - p.d**2) < 1e-12


def test_single_letter_value():
    p = BracketParams.from_A(1.1 - 0.3j)
    b = BraidWord(3, (1,))
    expected = p.A * p.d**2 + p.d / p.A
    assert abs(bracket3(b, p) - expected) < 1e-12
    assert abs(bracket_oracle(b, p) - expected) < 1e-12


def test_oracle_curl_value():
    """A single negative curl on two strands closes to an unknot carrying
    the -A^(-3) writhe factor."""
    p = BracketParams.from_A(0.8 + 0.1j)
    assert abs(bracket_oracle(BraidWord(2, (-1,)), p) - (-p.A ** (-3))) < 1e-12
    assert abs(bracket_oracle(BraidWord(2, (1,)), p) - (-p.A**3)) < 1e-12


@given(seeds)
def test_bracket_matches_the_state_sum(seed):
    """bracket3 is ill-conditioned near d = 0 (U2 has 1/d entries), so its
    error is bounded relative to |d|^-2; the state sum has no division."""
    rng = np.random.default_rng(seed)
    b = _random_word3(rng, 8)
    theta = rng.uniform(-1.0, 1.0)
    if abs(abs(theta) - np.pi / 4) < 1e-3:
        theta = 0.3
    p = BracketParams.from_theta(theta)
    tol = 1e-12 * max(1.0, abs(p.d) ** -2)
    assert abs(bracket3(b, p) - bracket_oracle(b, p)) <= tol


def test_oracle_diagram_guard():
    """The transfer sum refuses only when min(2^L, Catalan(n)) passes 2^16:
    at n = 12 there are 208,012 diagrams, so 17 letters are refused."""
    p = BracketParams.from_theta(0.2)
    with pytest.raises(GuardError):
        bracket_oracle(BraidWord(12, (1,) * 17), p)
    bracket_oracle(BraidWord(12, (1,) * 16), p)


def test_oracle_long_three_strand_word():
    """At n = 3 at most Catalan(3) = 5 diagrams are live, so the transfer
    sum takes words far past the 2^L enumeration; inside the unitary
    window bracket3 stays accurate at 200 letters."""
    rng = np.random.default_rng(200)
    b = BraidWord(3, tuple(int(g) for g in rng.choice([-2, -1, 1, 2], 200)))
    p = BracketParams.from_theta(0.2)
    assert abs(bracket3(b, p) - bracket_oracle(b, p)) <= 1e-12


@given(seeds, st.booleans())
def test_transfer_sum_matches_the_enumeration(seed, unit):
    """The transfer sum against the 2^L smoothing enumeration, n <= 5 and
    L <= 10, A on and off the unit circle.  Both round only in products and
    sums, so their gap is bounded relative to the sum of |term|."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    b = _random_word(rng, n, 10)
    p = BracketParams.from_A(random_weight(rng, unit))
    scale = sum(abs(t) for t in bracket_terms(b, p))
    assert abs(bracket_oracle(b, p) - bracket_enumerated(b, p)) <= ORACLE_RTOL * scale


def test_mirror_words_are_conjugate_values():
    """Reversing all crossings inverts A: bracket(mirror, A) equals
    bracket(b, 1/A)."""
    b = parse_braid("n=3; 1 1 -2 1")
    mirror = BraidWord(3, tuple(-g for g in b.letters))
    A = 0.9 + 0.35j
    lhs = bracket3(mirror, BracketParams.from_A(A))
    rhs = bracket3(b, BracketParams.from_A(1 / A))
    assert abs(lhs - rhs) < 1e-10
