"""Trace invariant, skein relation, Markov moves, and the two-weight
linking state sum."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from braidgate import (
    BraidWord,
    GuardError,
    TauValue,
    closure_info,
    link_names,
    link_word,
    linking_state_sum,
    markov_conjugate,
    markov_stabilize,
    parse_braid,
    skein_check,
    tau,
    tau_equivalent,
)
from statesum_oracles import ORACLE_RTOL, linking_enumerated, linking_terms, random_weight

seeds = st.integers(0, 2**32 - 1)


def _random_word(rng, n, max_len, min_len=1):
    length = int(rng.integers(min_len, max_len + 1))
    letters = []
    for _ in range(length):
        g = int(rng.integers(1, n))
        letters.append(g if rng.integers(2) else -g)
    return BraidWord(n, tuple(letters))


# ---------------------------------------------------------------------------
# Exact scaled values
# ---------------------------------------------------------------------------


def test_tau_value_canonicalization():
    assert TauValue.make(4, 0) == TauValue(1, 4)
    assert TauValue.make(-6, 1) == TauValue(-3, 3)
    assert TauValue.make(0, 5) == TauValue(0, 0)
    assert TauValue.make(7, -2) == TauValue(7, -2)


def test_tau_value_arithmetic_and_rendering():
    v = TauValue.make(-1, 3)
    assert v.to_float() == pytest.approx(-2.0 * np.sqrt(2.0))
    assert v.scaled_sqrt2() == TauValue(-1, 4)
    assert v.scaled_sqrt2(2) == TauValue(-1, 5)
    assert TauValue(0, 0).scaled_sqrt2(3) == TauValue(0, 0)
    assert str(v) == "-1*sqrt2^3"
    assert TauValue(1, 4).to_float() == 4.0


def test_golden_link_values():
    expected = {
        "unknot": TauValue(1, 2),
        "unlink2": TauValue(1, 4),
        "unlink3": TauValue(1, 6),
        "hopf": TauValue(0, 0),
        "trefoil": TauValue(-1, 3),
        "figure8": TauValue(-1, 4),
        "whitehead": TauValue(-1, 5),
        "borromean": TauValue(-1, 6),
    }
    for name, value in expected.items():
        assert tau(link_word(name)) == value, name
    assert tau(link_word("borromean")).to_float() == -8.0
    assert tau(link_word("unlink3")).to_float() == 8.0


def test_tau_powers_of_the_generator():
    table = [
        TauValue(1, 4),
        TauValue(1, 3),
        TauValue(0, 0),
        TauValue(-1, 3),
        TauValue(-1, 4),
        TauValue(-1, 3),
        TauValue(0, 0),
        TauValue(1, 3),
    ]
    for k, expected in enumerate(table):
        assert tau(BraidWord(2, (1,) * k)) == expected, k


@given(st.integers(0, 12))
def test_tau_is_eight_periodic(k):
    assert tau(BraidWord(2, (1,) * (k + 8))) == tau(BraidWord(2, (1,) * k))


def test_tau_equivalence_classes():
    assert tau_equivalent(tau(link_word("trefoil")), tau(link_word("figure8")))
    assert tau_equivalent(tau(link_word("hopf")), tau(BraidWord(2, (1, 1))))
    assert not tau_equivalent(tau(link_word("trefoil")), tau(link_word("unlink3")))
    assert not tau_equivalent(tau(link_word("unknot")), tau(link_word("hopf")))


# ---------------------------------------------------------------------------
# Markov moves
# ---------------------------------------------------------------------------


@given(seeds)
def test_conjugation_preserves_tau(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    b = _random_word(rng, n, 6)
    g = _random_word(rng, n, 3)
    assert tau(markov_conjugate(b, g)) == tau(b)


@given(seeds)
def test_stabilization_scales_tau_by_sqrt2(seed):
    rng = np.random.default_rng(seed)
    b = _random_word(rng, int(rng.integers(2, 5)), 6)
    for sign in (1, -1):
        up = markov_stabilize(b, sign)
        assert up.n == b.n + 1
        assert tau(up) == tau(b).scaled_sqrt2(1)


# ---------------------------------------------------------------------------
# Skein relation
# ---------------------------------------------------------------------------


@given(seeds)
def test_skein_relation_at_random_sites(seed):
    rng = np.random.default_rng(seed)
    b = _random_word(rng, int(rng.integers(2, 5)), 8)
    site = int(rng.integers(len(b.letters)))
    assert skein_check(b, site)["holds"]


def test_skein_relation_full_sweep():
    b = parse_braid("1 1 -2 1 -2")
    for site in range(len(b.letters)):
        report = skein_check(b, site)
        assert report["holds"]
        assert isinstance(report["tau"], TauValue)


def test_skein_site_bounds():
    b = parse_braid("1 1")
    with pytest.raises(IndexError):
        skein_check(b, 2)
    with pytest.raises(IndexError):
        skein_check(b, -1)


# ---------------------------------------------------------------------------
# Linking state sum
# ---------------------------------------------------------------------------


def test_unlink_state_sum():
    sigma, z = linking_state_sum(parse_braid("n=2;"), 0.3 + 0.1j, -2.0)
    assert sigma == 4.0 and z == 4.0


@given(seeds)
def test_hopf_state_sum(seed):
    rng = np.random.default_rng(seed)
    a, c = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    sigma, z = linking_state_sum(link_word("hopf"), a, c)
    assert abs(sigma - 2 * (a**2 + c**2)) < 1e-12
    assert abs(z - 2 * (1 + (c / a) ** 2)) < 1e-12


@given(seeds, st.integers(0, 5))
def test_torus_family_state_sum(seed, k):
    """The closure of (s1)^(2k) in B2 links its two components k times."""
    rng = np.random.default_rng(seed)
    a, c = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    b = BraidWord(2, (1,) * (2 * k))
    _, z = linking_state_sum(b, a, c)
    assert abs(z - 2 * (1 + (c**2 / a**2) ** k)) < 1e-12


def test_knot_state_sum_is_two():
    """Single-component closures carry no inter-component crossings, so the
    normalized sum collapses to the number of labelings."""
    for name in ("unknot", "trefoil", "figure8"):
        _, z = linking_state_sum(link_word(name), 0.7j, 1.3)
        assert abs(z - 2.0) < 1e-12


def test_state_sum_guards():
    with pytest.raises(ValueError):
        linking_state_sum(link_word("hopf"), 0.0, 1.0)
    with pytest.raises(ValueError):
        linking_state_sum(link_word("hopf"), 1.0, 0.0)
    with pytest.raises(GuardError):
        linking_state_sum(BraidWord(21, ()), 1.0, 1.0)


@given(seeds, st.booleans())
def test_histogram_matches_the_labeling_loop(seed, unit):
    """The cut-count histogram against the per-labeling loop over all 2^k
    labelings, k <= 10, with unit and with general nonzero weights."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    b = _random_word(rng, n, 24, min_len=0) if n > 1 else BraidWord(1, ())
    a, c = random_weight(rng, unit), random_weight(rng, unit)
    scale = sum(abs(t) for t in linking_terms(b, a, c))
    sigma, z = linking_state_sum(b, a, c)
    sigma_loop, z_loop = linking_enumerated(b, a, c)
    assert abs(sigma - sigma_loop) <= ORACLE_RTOL * scale
    assert abs(z - z_loop) <= ORACLE_RTOL * abs(a ** -b.writhe) * scale


def test_state_sum_matches_linking_numbers():
    """Z recovers sum of (c/a)^(2 lk) over labelings; cross-check against
    the combinatorial linking numbers on a three-component example."""
    b = link_word("borromean")
    info = closure_info(b)
    assert all(v == 0 for v in info.linking.values())
    _, z = linking_state_sum(b, np.exp(0.4j), np.exp(-0.9j))
    assert abs(z - 8.0) < 1e-12  # all-zero linking: every labeling weighs 1


# ---------------------------------------------------------------------------
# Named links
# ---------------------------------------------------------------------------


def test_link_catalog():
    names = link_names()
    assert "hopf" in names and "borromean" in names
    assert link_word("trefoil").letters == (1, 1, 1)
    assert link_word("whitehead").letters == (1, 1, -2, 1, -2)
    with pytest.raises(KeyError):
        link_word("unknown-link")
