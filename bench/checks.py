"""The benchmark's own reference computations and output checks.

Nothing here calls braidgate: every reference is recomputed from the
generated inputs with plain numpy and Python, so a check compares the
program against a computation made apart from it (or against a property
the method must have).  Each ``check_*`` function returns a list of
problems; an empty list means the outputs passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

# sqrt(2) * R, the integer core of the Bell-basis braiding operator.
R_CORE = np.array(
    [[1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0], [-1, 0, 0, 1]], dtype=float
)

# Tail probability of a 6-sigma deviation of a normal variable, two-sided.
SIX_SIGMA_TAIL = math.erfc(6.0 / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# closure structure, recomputed from the letters
# ---------------------------------------------------------------------------


def strand_components(n: int, letters) -> list[int]:
    """0-based component id of each strand (by starting position), from the
    cycles of the word's endpoint permutation."""
    pos = list(range(n))  # pos[p] = strand currently at position p
    for g in letters:
        i = abs(g) - 1
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    # the strand that ends at position p continues as the strand starting at p
    nxt = [0] * n
    for p, s in enumerate(pos):
        nxt[s] = p
    comp = [-1] * n
    k = 0
    for s in range(n):
        if comp[s] < 0:
            while comp[s] < 0:
                comp[s] = k
                s = nxt[s]
            k += 1
    return comp


def pair_crossings(n: int, letters) -> tuple[list[int], np.ndarray, int]:
    """(component of each strand, signed crossing counts between distinct
    components as a k x k symmetric matrix, signed count of crossings
    inside one component)."""
    comp = strand_components(n, letters)
    k = max(comp) + 1
    counts = np.zeros((k, k), dtype=np.int64)
    inner = 0
    pos = list(range(n))
    for g in letters:
        i = abs(g) - 1
        sign = 1 if g > 0 else -1
        ca, cb = comp[pos[i]], comp[pos[i + 1]]
        if ca == cb:
            inner += sign
        else:
            counts[ca, cb] += sign
            counts[cb, ca] += sign
        pos[i], pos[i + 1] = pos[i + 1], pos[i]
    return comp, counts, inner


def tau_vanishes(n: int, letters) -> bool:
    """Whether some component has odd total linking number with the rest,
    the condition under which the trace of the R representation is 0."""
    _, counts, _ = pair_crossings(n, letters)
    totals = counts.sum(axis=1) // 2  # each linking number is half a count
    return bool(np.any(totals % 2))


def own_linking_sigma(n: int, letters, a: complex, c: complex) -> complex:
    """Sum over all labelings of the components with one bit each of the
    product of crossing weights: a^sign on equal labels, c^sign otherwise."""
    _, counts, inner = pair_crossings(n, letters)
    k = counts.shape[0]
    labelings = np.arange(2**k)
    # per labeling: a^(counts on equal-label pairs) * c^(counts on the others),
    # accumulated one pair at a time so that only vectors of 2^k are held
    equal = np.zeros(2**k, dtype=np.int64)
    for i in range(k):
        for j in range(i + 1, k):
            if counts[i, j]:
                equal += counts[i, j] * ((((labelings >> i) ^ (labelings >> j)) & 1) == 0)
    total = int(np.triu(counts, 1).sum())
    log_a, log_c = np.log(complex(a)), np.log(complex(c))
    terms = np.exp(log_a * (inner + equal) + log_c * (total - equal))
    return complex(terms.sum())


# ---------------------------------------------------------------------------
# dense references: placements, state vectors and monomial propagation
# ---------------------------------------------------------------------------


def place(gate: np.ndarray, first: int, width: int, n: int) -> np.ndarray:
    """Explicit Kronecker placement I (x) gate (x) I; ``first`` is the
    1-based strand where the gate's ``width`` strands begin."""
    left = np.eye(2 ** (first - 1))
    right = np.eye(2 ** (n - first - width + 1))
    return np.kron(np.kron(left, gate), right)


def exact_trace_by_placements(n: int, letters) -> int:
    """Trace of the product of the placed integer cores (transposed for
    inverse letters), in float64.  Entries of a k-letter product are at most
    2^(k/2) in size, so for the word lengths used here every partial sum is
    an integer below 2^53 and the result is exact.

    Each placement I (x) core (x) I acts on the running product's column
    index, so only the product itself is held, never a placed matrix."""
    dim = 2**n
    m = np.eye(dim)
    for g in letters:
        core = R_CORE if g > 0 else R_CORE.T
        m = np.einsum("rapb,pq->raqb", m.reshape(dim, 2 ** (abs(g) - 1), 4, -1), core)
        m = m.reshape(dim, dim)
    return int(round(float(np.trace(m))))


def apply_items(vec: np.ndarray, n: int, items, r: np.ndarray) -> np.ndarray:
    """Act with a circuit on a state vector.

    ``items`` are ("braid", letter) or ("local", strand, 2x2 gate).  The
    circuit's matrix is the product of its items taken left to right, so on
    a vector the last item acts first.  Inverse letters use r's conjugate
    transpose (every operator drawn here is unitary).
    """
    r_inv = r.conj().T
    v = np.asarray(vec, dtype=complex)
    for item in reversed(items):
        if item[0] == "braid":
            g = item[1]
            gate, first, width = (r if g > 0 else r_inv), abs(g), 2
        else:
            gate, first, width = item[2], item[1], 1
        d = 2**width
        v = v.reshape(2 ** (first - 1), d, -1)
        v = np.einsum("pq,aqc->apc", gate, v).reshape(-1)
    return v


def monomial_trace(n: int, letters, r: np.ndarray) -> complex:
    """Trace of a word in a monomial operator (one nonzero entry per
    column, as for the phase-swap family and diagonal gates), by
    propagating every basis state through the letters at once."""
    cols = {}
    for op, key in ((r, 1), (r.conj().T, -1)):
        rows = np.argmax(np.abs(op), axis=0)
        cols[key] = (rows, op[rows, np.arange(4)])
    dim = 2**n
    state = np.arange(dim)
    phase = np.ones(dim, dtype=complex)
    for g in reversed(letters):
        rows, vals = cols[1 if g > 0 else -1]
        shift = n - abs(g) - 1  # bit offset of the lower strand of the pair
        pair = (state >> shift) & 3
        phase = phase * vals[pair]
        state = state & ~(3 << shift) | (rows[pair] << shift)
    return complex(phase[state == np.arange(dim)].sum())


def binomial_tail_ok(hits: int, shots: int, p: float) -> bool:
    """Whether ``hits`` successes in ``shots`` Bernoulli(p) draws lie within
    the 6-sigma band, judged by exact binomial tail probability so that the
    test stays valid when p * shots is small."""
    if p <= 0.0:
        return hits == 0
    if p >= 1.0:
        return hits == shots
    k = np.arange(shots + 1)
    logpmf = (
        np.array([math.lgamma(shots + 1)])
        - np.vectorize(math.lgamma)(k + 1)
        - np.vectorize(math.lgamma)(shots - k + 1)
        + k * math.log(p)
        + (shots - k) * math.log1p(-p)
    )
    pmf = np.exp(logpmf)
    lower, upper = pmf[: hits + 1].sum(), pmf[hits:].sum()
    return bool(min(lower, upper) >= SIX_SIGMA_TAIL / 2)


def same_up_to_phase(a: np.ndarray, b: np.ndarray, eps: float = 1e-9) -> bool:
    a, b = np.asarray(a).reshape(-1), np.asarray(b).reshape(-1)
    inner = np.vdot(b, a)
    if abs(inner) == 0.0:
        return False
    return bool(np.max(np.abs(a - inner / abs(inner) * b)) <= eps)


def entangled_amplitudes(v: np.ndarray, eps: float = 1e-9) -> bool:
    return bool(abs(v[0] * v[3] - v[1] * v[2]) > eps)


# ---------------------------------------------------------------------------
# exact arithmetic in Z[sqrt 2]
# ---------------------------------------------------------------------------


def sqrt2_times(mantissa: int, exponent: int, shift: int) -> tuple[int, int]:
    """mantissa * sqrt(2)^(exponent + shift) as (x, y) meaning x + y sqrt 2;
    ``shift`` must make the total exponent nonnegative."""
    e = exponent + shift
    if e < 0:
        raise ValueError("shift too small")
    return (mantissa * 2 ** (e // 2), 0) if e % 2 == 0 else (0, mantissa * 2 ** (e // 2))


# ---------------------------------------------------------------------------
# per-workload checks
# ---------------------------------------------------------------------------


def _tau_pair(v) -> tuple[int, int]:
    return int(v.mantissa), int(v.exponent)


def check_tau_value(n: int, letters, value, placed: bool = True) -> list[str]:
    """Mantissa in {0, +-1} and zero exactly on the odd-linking condition;
    with ``placed``, also equal to the exact trace of the explicitly placed
    product."""
    m, e = _tau_pair(value)
    out = []
    if m not in (0, 1, -1):
        out.append(f"tau mantissa {m} not in {{0, 1, -1}}")
    if (m == 0) != tau_vanishes(n, letters):
        out.append(f"tau mantissa {m} disagrees with the linking-parity rule")
    if not placed:
        return out
    trace = exact_trace_by_placements(n, letters)
    L = len(letters)
    if m == 0:
        if trace != 0:
            out.append(f"tau is 0 but the placed product has trace {trace}")
    elif (e + L) % 2 or trace != m * 2 ** ((e + L) // 2):
        out.append(f"tau {m}*sqrt2^{e} != placed trace {trace} / sqrt2^{L}")
    return out


def check_skein(letters, site: int, result: dict) -> list[str]:
    """The three-term relation tau(b) + tau(b') = sqrt2 tau(b'') recomputed
    in Z[sqrt 2] from the three returned values."""
    out = []
    if result["holds"] is not True:
        out.append(f"skein_check reports holds={result['holds']!r}")
    shift = len(letters) + 2
    t_b = sqrt2_times(*_tau_pair(result["tau"]), shift)
    t_f = sqrt2_times(*_tau_pair(result["tau_flipped"]), shift)
    t_d = sqrt2_times(*_tau_pair(result["tau_deleted"]), shift + 1)
    if (t_b[0] + t_f[0], t_b[1] + t_f[1]) != t_d:
        out.append(f"skein identity fails at site {site}: {t_b} + {t_f} != {t_d}")
    return out


def check_closure(n: int, letters, info) -> list[str]:
    """Components, writhe and linking numbers against the benchmark's own
    count, matching components through the strands they contain."""
    comp, counts, _ = pair_crossings(n, letters)
    out = []
    k = counts.shape[0]
    if info.component_count != k:
        out.append(f"closure_info has {info.component_count} components, expected {k}")
        return out
    theirs = {}
    for s, c in enumerate(info.component_of_strand):
        if theirs.setdefault(c, comp[s]) != comp[s]:
            out.append("closure_info groups strands into other components")
            return out
    if info.writhe != sum(1 if g > 0 else -1 for g in letters):
        out.append(f"closure_info writhe {info.writhe} is wrong")
    for (ca, cb), lk in info.linking.items():
        if 2 * lk != counts[theirs[ca], theirs[cb]]:
            out.append(f"linking of components {ca},{cb} is {lk}")
    return out


def check_bracket(oracle: complex, value: complex, tol: float = 1e-9) -> list[str]:
    if not abs(complex(oracle) - complex(value)) <= tol:
        return [f"bracket_oracle {oracle} != bracket3 {value}"]
    return []


def check_linking(n: int, letters, a: complex, c: complex, sigma, z) -> list[str]:
    own = own_linking_sigma(n, letters, a, c)
    scale = max(1.0, abs(own))
    out = []
    if not abs(complex(sigma) - own) <= 1e-9 * scale:
        out.append(f"linking Sigma {sigma} != own sum {own}")
    writhe = sum(1 if g > 0 else -1 for g in letters)
    if not abs(complex(z) - complex(a) ** (-writhe) * own) <= 1e-9 * scale:
        out.append(f"linking Z {z} != a^-writhe * Sigma")
    return out


def check_rep_action(u: np.ndarray, n: int, items, r, probe: np.ndarray) -> list[str]:
    """The returned matrix acts on a random vector as the benchmark's own
    state-vector simulation of the same circuit does."""
    own = apply_items(probe, n, items, r)
    err = float(np.max(np.abs(u @ probe - own)))
    return [] if err <= 1e-9 else [f"matrix action differs from simulation by {err:.3g}"]


def check_sampled(estimate: float, stderr: float, shots: int, p: float) -> list[str]:
    hits = int(round(estimate * shots))
    out = []
    if abs(hits / shots - estimate) > 1e-12:
        out.append(f"estimate {estimate} is not a count over {shots} shots")
    elif not binomial_tail_ok(hits, shots, p):
        out.append(f"estimate {estimate} is beyond 6 sigma of {p}")
    if abs(stderr - math.sqrt(estimate * (1 - estimate) / shots)) > 1e-12:
        out.append(f"standard error {stderr} is inconsistent with the estimate")
    return out


def check_teleport(received: np.ndarray, bits, target: np.ndarray, n: int) -> list[str]:
    out = []
    if len(bits) != 2 * n or any(b not in (0, 1) for b in bits):
        out.append(f"teleport outcome bits {bits!r} are malformed")
    if not same_up_to_phase(received, target / np.linalg.norm(target)):
        out.append("teleported state differs from U psi beyond a global phase")
    return out


def check_gate_facts(kind: str, phases, ybe: float, verdict, cnot) -> list[str]:
    """Facts about the drawn operator: R and the phase-swap family solve
    the braided Yang-Baxter equation (the diagonal D does not, and its
    residual must match the benchmark's own placements); R and D are
    one-CNOT gates; the phase-swap family
    is a two-CNOT gate exactly on ad = -bc; every entangling verdict comes
    with a product state whose image the benchmark finds entangled."""
    out = []
    op = op_of(kind, phases)
    a12, a23 = place(op, 1, 2, 3), place(op, 2, 2, 3)
    own = float(np.max(np.abs(a12 @ a23 @ a12 - a23 @ a12 @ a23)))
    if kind != "D" and not ybe <= 1e-12:
        out.append(f"{kind}: braided Yang-Baxter residual {ybe}")
    if not abs(ybe - own) <= 1e-12:
        out.append(f"{kind}: braided Yang-Baxter residual {ybe}, own placements give {own}")
    if kind == "R_prime":
        a, b, c, d = phases
        expected = "more" if abs(a * d + b * c) > 1e-6 else 2
        should_entangle = abs(a * d - b * c) > 1e-6
    else:
        expected, should_entangle = 1, True
    if cnot.cls != expected:
        out.append(f"{kind}: cnot_count_class {cnot.cls!r}, expected {expected!r}")
    if verdict.entangling != should_entangle:
        out.append(f"{kind}: entangling verdict {verdict.entangling}")
    if verdict.entangling:
        w = np.asarray(verdict.witness).reshape(-1)
        if entangled_amplitudes(w, 1e-12) or not entangled_amplitudes(op @ w):
            out.append(f"{kind}: entangling witness is not certified")
    return out


def op_of(kind: str, phases) -> np.ndarray:
    """The benchmark's own copy of each drawn operator."""
    if kind == "R":
        return R_CORE.astype(complex) / math.sqrt(2.0)
    if kind == "D":
        return np.diag([1, 1, 1, -1]).astype(complex)
    a, b, c, d = phases
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 2], m[2, 1], m[3, 3] = a, b, c, d
    return m


# ---------------------------------------------------------------------------
# CLI replies
# ---------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def parse_reply(stdout: bytes) -> dict:
    """One strict-JSON object on one line, or ValueError."""
    text = stdout.decode("utf-8")
    if not text.endswith("\n") or "\n" in text[:-1]:
        raise ValueError("stdout is not exactly one line")
    obj = json.loads(text, parse_constant=_reject_constant)
    if not isinstance(obj, dict):
        raise ValueError("stdout is not a JSON object")
    return obj
