"""One test per release criterion, at the stated tolerances.

The conftest prints one PASS/FAIL line per criterion at the end of the
run.  Criteria 04 and 06 pin the exact facts about the parametric
braiding families:

- criterion 04: the anti-diagonal family R_dprime(a, b, c, d) solves the
  braided Yang-Baxter equation iff b = c, and its residual is |b - c|;
- criterion 06: the phase-swap family R_prime and the anti-diagonal
  family R_dprime = R_prime.(X (x) X) are two-CNOT gates exactly on the
  locus ad = -bc; elsewhere tr gamma is purely imaginary with modulus
  2|ad + bc|, so they need more than two CNOTs.
"""

import numpy as np

from braidgate.braid import BraidWord, markov_conjugate, markov_stabilize, parse_braid
from braidgate.errors import SingularBracketError
from braidgate.gates import (
    CNOT,
    D,
    E,
    H,
    Q,
    R,
    R0,
    SWAP,
    P,
    R_dprime,
    R_prime,
    U1,
    U2,
    check_ybe_algebraic,
    check_ybe_braided,
    cnot_count_class,
    is_entangling,
    verify_mrn_decomposition,
    verify_qdq,
    verify_r0_decomposition,
)
from braidgate.invariants import (
    BracketParams,
    TauValue,
    bracket3,
    bracket_oracle,
    link_word,
    linking_state_sum,
    skein_check,
    tau,
    tl_rep3,
)
from braidgate.quantum import (
    basis_orthogonality,
    branch_state,
    exact_trace_probability,
    ghz_state,
    project_qubit,
    sample_trace_probability,
    teleport_protocol,
    trace_amplitude,
)
from braidgate.rep import rep_exact
from braidgate.tensor import is_unitary, partial_trace_last, residual
from quantum_oracles import cup_trace

RT2 = np.sqrt(2.0)


def _haar(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _random_word(rng, n, max_len, min_len=1):
    length = int(rng.integers(min_len, max_len + 1))
    letters = tuple(
        int(rng.integers(1, n)) * (1 if rng.random() < 0.5 else -1) for _ in range(length)
    )
    return BraidWord(n, letters)


def _unit_params(rng, count=4):
    return tuple(np.exp(1j * rng.uniform(0, 2 * np.pi, count)))


def test_criterion_01_golden_tau_values():
    """Exact golden values of the braid-trace invariant."""
    golden = {
        "n=3;": TauValue(1, 6),          # unlink of three components: 8
        "1 1": TauValue(0, 0),           # Hopf link: 0
        "n=2; 1 1 1": TauValue(-1, 3),   # trefoil: -2 sqrt2
        "1 -2 1 -2": TauValue(-1, 4),    # figure-eight: -4
        "1 -2 1 -2 1 -2": TauValue(-1, 6),  # Borromean rings: -8
        "1 1 -2 1 -2": TauValue(-1, 5),  # Whitehead link: -4 sqrt2
    }
    for text, expected in golden.items():
        value = tau(parse_braid(text))
        assert value == expected, f"tau({text!r}) = {value}, expected {expected}"
    # the catalog names agree with the words
    for name, text in (
        ("unlink3", "n=3;"),
        ("hopf", "1 1"),
        ("trefoil", "n=2; 1 1 1"),
        ("figure8", "1 -2 1 -2"),
        ("borromean", "1 -2 1 -2 1 -2"),
        ("whitehead", "1 1 -2 1 -2"),
    ):
        assert tau(link_word(name)) == golden[text]
    assert tau(link_word("unlink3")).to_float() == 8.0
    assert tau(link_word("figure8")).to_float() == -4.0
    assert tau(link_word("borromean")).to_float() == -8.0


def test_criterion_02_single_generator_table():
    """tau(s^k) table for the 2-strand generator, exact, with period 8."""
    table = [
        TauValue(1, 4),    # 4
        TauValue(1, 3),    # 2 sqrt2
        TauValue(0, 0),    # 0
        TauValue(-1, 3),   # -2 sqrt2
        TauValue(-1, 4),   # -4
        TauValue(-1, 3),   # -2 sqrt2
        TauValue(0, 0),    # 0
        TauValue(1, 3),    # 2 sqrt2
    ]
    for k, expected in enumerate(table):
        assert tau(BraidWord(2, (1,) * k)) == expected, f"tau(s^{k})"
    for k in range(9):
        assert tau(BraidWord(2, (1,) * (k + 8))) == tau(BraidWord(2, (1,) * k))


def test_criterion_03_markov_and_skein_exact():
    """Conjugation/stabilization invariance and the three-term relation."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        b = _random_word(rng, n, 6, min_len=0)
        g = _random_word(rng, n, 6)
        assert tau(markov_conjugate(b, g)) == tau(b)
        for sign in (+1, -1):
            stabilized = tau(markov_stabilize(b, sign))
            assert stabilized == tau(b).scaled_sqrt2(1)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        b = _random_word(rng, n, 6)
        for site in range(len(b.letters)):
            report = skein_check(b, site)
            assert report["holds"], (b, site, report)


def test_criterion_04_ybe_residuals():
    """Braided YBE for R, SWAP, the phase-swap family and the b = c
    anti-diagonal family, with residual |b - c| off it; algebraic YBE for
    D, P, SWAP.R.  All residuals at 1e-12."""
    rng = np.random.default_rng(41)
    assert check_ybe_braided(R) <= 1e-12
    assert check_ybe_braided(SWAP) <= 1e-12
    for _ in range(10):
        assert check_ybe_braided(R_prime(*_unit_params(rng))) <= 1e-12
    assert check_ybe_algebraic(D) <= 1e-12
    for _ in range(10):
        assert check_ybe_algebraic(P(*_unit_params(rng))) <= 1e-12
    assert check_ybe_algebraic(SWAP @ R) <= 1e-12
    for _ in range(10):
        a, b, _, d = _unit_params(rng)
        res = check_ybe_braided(R_dprime(a, b, b, d))
        assert res <= 1e-12, f"braided YBE residual {res:.3g} for R_dprime{(a, b, b, d)}"
    for _ in range(10):
        a, b, c, d = _unit_params(rng)
        assert abs(b - c) > 1e-6, "draw too close to the b = c subfamily"
        res = check_ybe_braided(R_dprime(a, b, c, d))
        assert abs(res - abs(b - c)) <= 1e-12, (
            f"braided YBE residual {res:.3g} for R_dprime{(a, b, c, d)}, "
            f"expected |b - c| = {abs(b - c):.3g}"
        )


def test_criterion_05_gate_identities():
    """The CNOT decompositions and the printed properties of R."""
    assert verify_qdq()["residual"] <= 1e-12
    r0 = verify_r0_decomposition()
    assert r0["ok"] and r0["residual"] <= 1e-9
    mrn = verify_mrn_decomposition()
    assert mrn["ok"] and mrn["residual"] <= 1e-9
    assert residual(Q @ D @ Q, CNOT) <= 1e-12

    eight = rep_exact(BraidWord(2, (1,) * 8))
    identity = rep_exact(BraidWord(2))
    assert eight.scale_exp == 8
    assert np.array_equal(eight.ints, 16 * identity.ints)  # R^8 = I exactly
    assert residual(np.linalg.matrix_power(R, 8), np.eye(4)) <= 1e-12

    assert residual(R + np.linalg.inv(R), RT2 * np.eye(4)) <= 1e-12
    assert residual(partial_trace_last(R, 2), RT2 * np.eye(2)) <= 1e-12
    assert residual(partial_trace_last(np.linalg.inv(R), 2), RT2 * np.eye(2)) <= 1e-12

    bell = {
        (0, 0): [(1 / RT2, (0, 0)), (-1 / RT2, (1, 1))],
        (0, 1): [(1 / RT2, (0, 1)), (1 / RT2, (1, 0))],
        (1, 0): [(-1 / RT2, (0, 1)), (1 / RT2, (1, 0))],
        (1, 1): [(1 / RT2, (0, 0)), (1 / RT2, (1, 1))],
    }
    for (i, j), terms in bell.items():
        target = np.zeros(4, dtype=complex)
        for coeff, (a, b) in terms:
            target[2 * a + b] += coeff
        image = R @ np.eye(4)[:, 2 * i + j]
        assert residual(image, target) <= 1e-12, f"R|{i}{j}> is not the printed Bell image"


def test_criterion_06_classifiers():
    """Entangling verdicts and CNOT-count classes."""
    rng = np.random.default_rng(6)
    assert is_entangling(R).entangling
    assert is_entangling(R0).entangling
    assert not is_entangling(SWAP).entangling
    for _ in range(50):
        a, b, c, d = _unit_params(rng)
        verdict = is_entangling(R_prime(a, b, c, d))
        assert verdict.entangling == (abs(a * d - b * c) > 1e-9), (a, b, c, d)

    for _ in range(5):
        u = _haar(rng, 2)
        v = _haar(rng, 2)
        assert cnot_count_class(np.kron(u, v)).cls == 0
    assert cnot_count_class(R).cls == 1

    for family in (R_prime, R_dprime):
        for _ in range(5):
            a, b, c, d = _unit_params(rng)
            on_locus = cnot_count_class(family(a, b, c, -b * c / a)).cls
            assert on_locus == 2, (family.__name__, a, b, c, on_locus)
            swap_like = cnot_count_class(family(a, b, c, b * c / a)).cls
            assert swap_like == "more", (family.__name__, a, b, c, swap_like)
            assert abs(a * d + b * c) > 1e-6, "draw too close to the ad = -bc locus"
            generic = cnot_count_class(family(a, b, c, d))
            tr = generic.gamma_trace
            assert generic.cls == "more", (family.__name__, a, b, c, d, generic)
            assert abs(abs(tr) - 2 * abs(a * d + b * c)) <= 1e-12, (family.__name__, tr)
            assert abs(tr.real) <= 1e-12, (family.__name__, tr)


def test_criterion_07_linking_state_sum():
    """Hopf-link weights and the T(2,2k) family."""
    rng = np.random.default_rng(7)
    hopf = parse_braid("1 1")
    for _ in range(5):
        a, c = _unit_params(rng, 2)
        sigma, z = linking_state_sum(hopf, a, c)
        assert abs(sigma - 2 * (a**2 + c**2)) <= 1e-12
        assert abs(z - 2 * (1 + (c / a) ** 2)) <= 1e-12
    a, c = _unit_params(rng, 2)
    for k in range(6):
        _, z = linking_state_sum(BraidWord(2, (1,) * (2 * k)), a, c)
        assert abs(z - 2 * (1 + (c**2 / a**2) ** k)) <= 1e-12, f"T(2,{2*k})"


def test_criterion_08_bracket_representation():
    """Temperley-Lieb representation and the two bracket routes."""
    rng = np.random.default_rng(8)
    lhs_word = parse_braid("n=3; 1 2 1")
    rhs_word = parse_braid("n=3; 2 1 2")
    for theta in np.linspace(-np.pi / 6, np.pi / 6, 13):
        p = BracketParams.from_theta(float(theta))
        assert residual(tl_rep3(lhs_word, p), tl_rep3(rhs_word, p)) <= 1e-12
        for g in (1, 2):
            assert is_unitary(tl_rep3(BraidWord(3, (g,)), p), eps=1e-9)
        d = p.d
        assert abs(np.trace(U1(d)) - d) <= 1e-12
        assert abs(np.trace(U2(d)) - d) <= 1e-12
        assert abs(np.trace(U1(d) @ U2(d)) - 1) <= 1e-12
    try:
        tl_rep3(BraidWord(3, (2,)), BracketParams.from_theta(np.pi / 4))
        raised = False
    except SingularBracketError:
        raised = True
    assert raised, "theta = pi/4 must report the singular loop weight"

    for _ in range(50):
        b = _random_word(rng, 3, 8, min_len=0)
        for _ in range(3):
            p = BracketParams.from_theta(float(rng.uniform(-np.pi / 6, np.pi / 6)))
            assert abs(bracket3(b, p) - bracket_oracle(b, p)) <= 1e-9, (b, p)


def test_criterion_09_quantum_processes():
    """Trace estimation, teleportation, and the measurement-basis lemma."""
    rng = np.random.default_rng(9)
    for _ in range(20):
        dim = 2 ** int(rng.integers(1, 7))
        u = _haar(rng, dim)
        amp = trace_amplitude(u)
        oracle = cup_trace(u)
        assert abs(amp - oracle) <= 1e-12 * max(1.0, abs(oracle))

    for u in (R, _haar(rng, 8)):
        p = exact_trace_probability(u)
        est, stderr = sample_trace_probability(u, shots=100000, seed=17)
        assert abs(est - p) <= 3 * max(stderr, np.sqrt(p * (1 - p) / 100000))

    for trial in range(20):
        n = 1 if trial % 2 == 0 else 2
        dim = 2**n
        u = _haar(rng, dim)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi = psi / np.linalg.norm(psi)
        received, bits = teleport_protocol(u, psi, seed=trial)
        target = u @ psi
        anchor = int(np.argmax(np.abs(target)))
        phase = received[anchor] / target[anchor]
        assert abs(abs(phase) - 1) <= 1e-9
        assert np.max(np.abs(received - phase * target)) <= 1e-9
        assert len(bits) == 2 * n

    for _ in range(10):
        z, w = rng.normal(size=2) + 1j * rng.normal(size=2)
        m = np.array([[z, w], [-np.conj(w), np.conj(z)]])
        ok, _ = basis_orthogonality(m)
        assert ok, (z, w)
    ok, _ = basis_orthogonality(np.diag([1.0, 2.0]).astype(complex))
    assert not ok


def test_criterion_10_projection_suite():
    """First-qubit branching of the four-term state, and GHZ."""
    psi = branch_state()
    r0 = project_qubit(psi, 1, 0)
    r1 = project_qubit(psi, 1, 1)
    assert abs(r0.prob - 0.5) <= 1e-12 and r0.entangled is False
    assert abs(r1.prob - 0.5) <= 1e-12 and r1.entangled is True
    ghz = ghz_state()
    for qubit in (1, 2, 3):
        for bit in (0, 1):
            result = project_qubit(ghz, qubit, bit)
            assert result.entangled is False, (qubit, bit)
