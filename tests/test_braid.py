import numpy as np
import pytest
from hypothesis import given, strategies as st

from braidgate import GuardError
from braidgate.braid import (
    MAX_BRAID_STRANDS,
    BraidWord,
    braid_to_json,
    closure_info,
    free_reduce,
    markov_conjugate,
    markov_stabilize,
    parse_braid,
    permutation,
)


def words(max_n=5, max_len=10):
    """Random braid words as (n, letters) pairs."""
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.integers(1, n - 1).flatmap(lambda g: st.sampled_from([g, -g])),
                max_size=max_len,
            ),
        )
    )


def test_validation():
    with pytest.raises(ValueError):
        BraidWord(0)
    with pytest.raises(ValueError):
        BraidWord(2, (0,))
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    BraidWord(2, (1, -1))  # fine


def test_parse():
    b = parse_braid("1 -2 1 -2")
    assert b.n == 3 and b.letters == (1, -2, 1, -2)
    b = parse_braid("n=2; 1 1 1")
    assert b.n == 2 and b.letters == (1, 1, 1)
    b = parse_braid("n=5;")
    assert b.n == 5 and b.letters == ()
    assert parse_braid(" n = 4 ; 1 ").n == 4


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_braid("")  # empty word needs a strand count
    with pytest.raises(ValueError):
        parse_braid("n=2 1 1")  # missing semicolon
    with pytest.raises(ValueError):
        parse_braid("n=x; 1")
    with pytest.raises(ValueError):
        parse_braid("1 q 1")
    with pytest.raises(ValueError):
        parse_braid("n=2; 0")


def test_parse_strand_guard():
    assert parse_braid(f"n={MAX_BRAID_STRANDS};").n == MAX_BRAID_STRANDS
    assert parse_braid(f"{MAX_BRAID_STRANDS - 1}").n == MAX_BRAID_STRANDS
    for text in (f"n={MAX_BRAID_STRANDS + 1};", f"1 {MAX_BRAID_STRANDS}", "n=10000000000; 1"):
        with pytest.raises(GuardError):
            parse_braid(text)


def test_as_text_round_trip():
    b = parse_braid("n=4; 1 -3 2")
    assert parse_braid(b.as_text()) == b
    assert parse_braid(BraidWord(3).as_text()) == BraidWord(3)


def test_word_algebra():
    b = parse_braid("1 2")
    assert (b * b.inverse()).letters == (1, 2, -2, -1)
    assert free_reduce(b * b.inverse()) == BraidWord(3)
    assert b.writhe == 2
    assert parse_braid("1 -2").writhe == 0
    with pytest.raises(ValueError):
        BraidWord(2, (1,)) * BraidWord(3, (1,))


def test_free_reduce_nested():
    assert free_reduce(parse_braid("n=3; 2 1 -1 -2 1")).letters == (1,)
    assert free_reduce(parse_braid("1 1 -1")).letters == (1,)


def test_permutation_values():
    assert permutation(BraidWord(3)) == (0, 1, 2)
    assert permutation(parse_braid("1")) == (1, 0)
    # s1 then s2 in B3: strand starting at 0 ends at 2
    assert permutation(parse_braid("1 2")) == (2, 0, 1)
    # sign does not matter for the underlying permutation
    assert permutation(parse_braid("-1")) == (1, 0)


def test_closure_components():
    assert closure_info(parse_braid("n=3;")).component_count == 3
    assert closure_info(parse_braid("1 1")).component_count == 2
    assert closure_info(parse_braid("n=2; 1 1 1")).component_count == 1
    assert closure_info(parse_braid("1 -2 1 -2")).component_count == 1  # figure-eight
    assert closure_info(parse_braid("1 -2 1 -2 1 -2")).component_count == 3
    assert closure_info(parse_braid("1 1 -2 1 -2")).component_count == 2


def test_linking_goldens():
    hopf = closure_info(parse_braid("1 1"))
    assert hopf.linking == {(1, 2): 1}
    negative_hopf = closure_info(parse_braid("-1 -1"))
    assert negative_hopf.linking == {(1, 2): -1}
    solomon = closure_info(parse_braid("1 1 1 1"))
    assert solomon.linking == {(1, 2): 2}
    whitehead = closure_info(parse_braid("1 1 -2 1 -2"))
    assert whitehead.linking == {(1, 2): 0}
    borromean = closure_info(parse_braid("1 -2 1 -2 1 -2"))
    assert borromean.component_count == 3
    assert borromean.linking == {(1, 2): 0, (1, 3): 0, (2, 3): 0}


def test_writhe_vs_linking():
    info = closure_info(parse_braid("1 1"))
    assert info.writhe == 2
    assert closure_info(parse_braid("1 1 -2 1 -2")).writhe == 1


def test_markov_moves_shapes():
    b = parse_braid("1 2")
    g = parse_braid("n=3; 2")
    assert markov_conjugate(b, g).letters == (2, 1, 2, -2)
    with pytest.raises(ValueError):
        markov_conjugate(b, parse_braid("1"))
    up = markov_stabilize(b, +1)
    assert up.n == 4 and up.letters == (1, 2, 3)
    down = markov_stabilize(b, -1)
    assert down.letters == (1, 2, -3)
    with pytest.raises(ValueError):
        markov_stabilize(b, 2)


def test_braid_to_json_shape():
    obj = braid_to_json(parse_braid("1 1"))
    assert obj == {
        "n": 2,
        "letters": [1, 1],
        "components": 2,
        "writhe": 2,
        "linking": [[1, 2, 1]],
    }


@given(words())
def test_permutation_is_a_permutation(nw):
    n, letters = nw
    perm = permutation(BraidWord(n, tuple(letters)))
    assert sorted(perm) == list(range(n))


@given(words())
def test_closure_invariant_under_conjugation(nw):
    """Conjugation is a Markov move: the closure keeps its component
    structure and linking numbers."""
    n, letters = nw
    b = BraidWord(n, tuple(letters))
    g = BraidWord(n, (1,) if n >= 2 else ())
    before = closure_info(b)
    after = closure_info(markov_conjugate(b, g))
    assert before.component_count == after.component_count
    assert sorted(before.linking.values()) == sorted(after.linking.values())
    assert before.writhe == after.writhe


@given(words())
def test_closure_invariant_under_stabilization(nw):
    n, letters = nw
    b = BraidWord(n, tuple(letters))
    for sign in (+1, -1):
        up = markov_stabilize(b, sign)
        assert closure_info(up).component_count == closure_info(b).component_count
        assert sorted(closure_info(up).linking.values()) == sorted(
            closure_info(b).linking.values()
        )


@given(words())
def test_free_reduce_preserves_closure(nw):
    n, letters = nw
    b = BraidWord(n, tuple(letters))
    reduced = free_reduce(b)
    assert permutation(reduced) == permutation(b)
    assert closure_info(reduced).component_count == closure_info(b).component_count
    assert closure_info(reduced).linking == closure_info(b).linking


@given(words(max_n=4, max_len=8))
def test_linking_against_independent_count(nw):
    """Recount pairwise linking by brute force: walk the word, track which
    closure component occupies each position, and sum half-signs."""
    n, letters = nw
    b = BraidWord(n, tuple(letters))
    info = closure_info(b)
    strand_at = list(range(n))  # strand id occupying each position
    totals: dict[tuple[int, int], float] = {}
    for g in letters:
        i = abs(g) - 1
        sa, sb = strand_at[i], strand_at[i + 1]
        ca, cb = info.component_of_strand[sa], info.component_of_strand[sb]
        if ca != cb:
            key = (min(ca, cb), max(ca, cb))
            totals[key] = totals.get(key, 0.0) + (0.5 if g > 0 else -0.5)
        strand_at[i], strand_at[i + 1] = sb, sa
    recount = {k: v for k, v in totals.items() if v != 0}
    expected = {k: v for k, v in info.linking.items() if v != 0}
    assert recount == expected
