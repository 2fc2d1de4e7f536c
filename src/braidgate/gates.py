"""Two-qubit gate catalog, Yang-Baxter verifiers, and gate classifiers.

The catalog collects every named matrix used elsewhere in the package:

* ``R`` — the real orthogonal change of basis from the standard basis to
  the Bell basis; the central braiding operator of the package.
* ``R_prime(a,b,c,d)`` — the phase-swap family (a diagonal phase gate
  composed with SWAP); a braided Yang-Baxter solution for every choice of
  nonzero parameters.
* ``R_dprime(a,b,c,d)`` — the anti-diagonal phase family as usually
  printed with four free unit parameters.  Note: the braided Yang-Baxter
  equation actually forces b = c; see ``check_ybe_braided`` tests.
* ``D``, ``P(a,b,c,d)`` — diagonal phase gates (algebraic YBE solutions).
* ``SWAP``, ``CNOT``, ``H``, ``Q`` — standard gates; Q = I (x) H is the
  involution with Q CNOT-conjugates D.
* ``E`` — the magic bilinear form entering the minimal-CNOT classifier.
* ``MOD_X/MOD_Y/MOD_Z`` — the "modified Pauli" trio used by the
  teleportation protocol (MOD_X is the conventional sigma_z, MOD_Y the
  conventional sigma_x, MOD_Z = -i sigma_y; the names follow the
  teleportation convention, not textbook Pauli naming).
* local 2x2 factors ``SIGMA/LAM/MU`` (the R0 route to CNOT) and
  ``ALPHA/BETA/GAMMA2/DELTA2`` (the single-R route CNOT = M R N).
* ``U1(d)``, ``U2(d)`` — the symmetric non-unitary Temperley-Lieb pair
  behind the 3-strand bracket representation.

Classifiers: ``state_is_entangled`` (ad - bc test on amplitudes),
``is_entangling`` (operator-Schmidt rank of the gate's realignment, with
the swap route so SWAP-like gates count as non-entangling), and
``cnot_count_class`` (minimal CNOT count 0/1/2/more from the invariant
gamma(U) = U E U^T E on the determinant-normalized gate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    EXACT_EPS,
    PHASE_EPS,
    as_matrix,
    equal_up_to_phase,
    is_unitary,
    kron,
    max_norm,
    residual,
)

_RT2 = np.sqrt(2.0)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)

# Bell-basis change: columns are the images of |00>, |01>, |10>, |11>.
R = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, -1, 0],
        [0, 1, 1, 0],
        [-1, 0, 0, 1],
    ],
    dtype=complex,
) / _RT2

D = np.diag([1, 1, 1, -1]).astype(complex)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / _RT2

# Q is the 4x4 involution with Q D Q = CNOT.  As a Kronecker product it is
# I (x) H (Hadamard on the *second* qubit) in the big-endian basis order.
Q = np.array(
    [[1, 1, 0, 0], [1, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1]], dtype=complex
) / _RT2

# Magic bilinear form for the minimal-CNOT classifier.
E = np.array(
    [[0, 0, 0, 1], [0, 0, -1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], dtype=complex
)

# Modified Pauli trio used by the teleportation operator basis.
MOD_X = np.array([[1, 0], [0, -1]], dtype=complex)
MOD_Y = np.array([[0, 1], [1, 0]], dtype=complex)
MOD_Z = np.array([[0, 1], [-1, 0]], dtype=complex)

# Local factors for the R0 route to CNOT:
# CNOT = (LAM (x) MU) (R0 (I (x) SIGMA) R0) (H (x) H).
SIGMA = np.array([[1, 1j], [1j, 1]], dtype=complex) / _RT2
LAM = np.array([[1, 1], [1j, -1j]], dtype=complex) / _RT2
MU = np.array(
    [[(1 - 1j) / 2, (1 + 1j) / 2], [(1 - 1j) / 2, (-1 - 1j) / 2]], dtype=complex
)

# Local factors for the single-R route: CNOT = (ALPHA (x) BETA) R (GAMMA2 (x) DELTA2).
ALPHA = np.array([[1, 1], [1, -1]], dtype=complex) / _RT2
BETA = np.array([[-1, 1], [1j, 1j]], dtype=complex) / _RT2
GAMMA2 = np.array([[1, 1j], [1, -1j]], dtype=complex) / _RT2
DELTA2 = np.array([[-1, 0], [0, -1j]], dtype=complex)


def _check_params(params, require_unit):
    for name, value in zip("abcd", params):
        if require_unit and abs(abs(value) - 1.0) > 1e-9:
            raise ValueError(f"parameter {name}={value!r} must have unit modulus")
        if value == 0:
            raise ValueError(f"parameter {name} must be nonzero")


def R_prime(a, b, c, d, require_unit: bool = True) -> np.ndarray:
    """Phase-swap family: |00>->a|00>, |01>->c|10>, |10>->b|01>, |11>->d|11>."""
    _check_params((a, b, c, d), require_unit)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0], m[1, 2], m[2, 1], m[3, 3] = a, b, c, d
    return m


def R_dprime(a, b, c, d, require_unit: bool = True) -> np.ndarray:
    """Anti-diagonal phase family: |00>->d|11>, |01>->b|01>, |10>->c|10>,
    |11>->a|00>.  Solves the braided Yang-Baxter equation iff b = c."""
    _check_params((a, b, c, d), require_unit)
    m = np.zeros((4, 4), dtype=complex)
    m[0, 3], m[1, 1], m[2, 2], m[3, 0] = a, b, c, d
    return m


def P(a, b, c, d, require_unit: bool = True) -> np.ndarray:
    """Diagonal phase gate diag(a, b, c, d)."""
    _check_params((a, b, c, d), require_unit)
    return np.diag([a, b, c, d]).astype(complex)


R0 = R_prime(1, 1, 1, -1)


def U1(d) -> np.ndarray:
    """First Temperley-Lieb generator matrix [[d, 0], [0, 0]]."""
    return np.array([[d, 0], [0, 0]], dtype=complex)


def U2(d) -> np.ndarray:
    """Second Temperley-Lieb generator matrix; requires d != 0.

    [[1/d, s], [s, d - 1/d]] with s = sqrt(1 - 1/d^2), symmetric with
    trace d and U2^2 = d U2.
    """
    d = complex(d)
    if abs(d) < 1e-14:
        raise ZeroDivisionError("U2 is undefined at loop weight d = 0")
    s = np.sqrt(1.0 - 1.0 / d**2 + 0j)
    return np.array([[1.0 / d, s], [s, d - 1.0 / d]], dtype=complex)


# ---------------------------------------------------------------------------
# Yang-Baxter verifiers
# ---------------------------------------------------------------------------


def check_ybe_braided(r) -> float:
    """Residual of (r x I)(I x r)(r x I) = (I x r)(r x I)(I x r) on V^3."""
    r = as_matrix(r)
    if r.shape[0] != 4:
        raise ValueError("braided YBE check needs a 4x4 matrix")
    a = kron(r, I2)
    b = kron(I2, r)
    return residual(a @ b @ a, b @ a @ b)


_SWAP_MIDDLE = kron(I2, SWAP.real).astype(complex)  # swaps factors 2 and 3 of V^3


def check_ybe_algebraic(r) -> float:
    """Residual of r12 r13 r23 = r23 r13 r12, with r13 built by
    conjugating the (1,2) placement with the middle swap."""
    r = as_matrix(r)
    if r.shape[0] != 4:
        raise ValueError("algebraic YBE check needs a 4x4 matrix")
    r12, r23 = kron(r, I2), kron(I2, r)
    r13 = _SWAP_MIDDLE @ r12 @ _SWAP_MIDDLE
    return residual(r12 @ r13 @ r23, r23 @ r13 @ r12)


# ---------------------------------------------------------------------------
# Entanglement and CNOT-count classifiers
# ---------------------------------------------------------------------------


def state_is_entangled(psi, eps: float = EXACT_EPS) -> bool:
    """A two-qubit pure state (a, b, c, d) is entangled iff ad - bc != 0."""
    v = np.asarray(psi, dtype=complex).ravel()
    if v.shape != (4,):
        raise ValueError("expected a 4-amplitude state")
    if max_norm(v) == 0.0:
        raise ValueError("zero vector is not a state")
    return bool(abs(v[0] * v[3] - v[1] * v[2]) > eps)


def _realign(g):
    """Reshuffle g[(i,k),(j,l)] -> G[(i,j),(k,l)]; rank 1 iff g = A (x) B."""
    return g.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)


def _schmidt_rank(g, rel_tol: float = 1e-9) -> int:
    s = np.linalg.svd(_realign(g), compute_uv=False)
    return int(np.sum(s > rel_tol * s[0]))


@dataclass(frozen=True)
class EntanglingVerdict:
    entangling: bool
    witness: np.ndarray | None
    schmidt_ranks: tuple[int, int]  # ranks of the realignments of g and g.SWAP


def is_entangling(g, eps: float = PHASE_EPS, seed: int = 0) -> EntanglingVerdict:
    """Decide whether a two-qubit unitary maps some product state to an
    entangled state.

    The decision is deterministic: g is non-entangling iff g or g.SWAP has
    operator-Schmidt rank 1 (the unitaries preserving all product states
    are the local products and local products composed with SWAP).  When
    entangling, a witness product state is attached: the 16 products of
    basis/diagonal-basis single-qubit states are scanned first and random
    product states are drawn only if none of those certifies.  The witness
    is None when no image clears ``eps``; none can once eps >= 1/2, the
    largest |ad - bc| of a unit state.
    """
    g = as_matrix(g)
    if g.shape[0] != 4:
        raise ValueError("expected a two-qubit gate")
    if not is_unitary(g, 1e-9):
        raise ValueError("gate is not unitary")
    ranks = (_schmidt_rank(g), _schmidt_rank(g @ SWAP))
    if min(ranks) == 1:
        return EntanglingVerdict(False, None, ranks)

    single = [
        np.array([1, 0], dtype=complex),
        np.array([0, 1], dtype=complex),
        np.array([1, 1], dtype=complex) / _RT2,
        np.array([1, -1], dtype=complex) / _RT2,
    ]
    candidates = [np.kron(u, v) for u in single for v in single]
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        for prod in candidates:
            img = g @ prod
            if abs(img[0] * img[3] - img[1] * img[2]) > eps:
                return EntanglingVerdict(True, prod, ranks)
        phases = rng.uniform(0, 2 * np.pi, 4)
        u = np.array([np.cos(phases[0]), np.exp(1j * phases[1]) * np.sin(phases[0])])
        v = np.array([np.cos(phases[2]), np.exp(1j * phases[3]) * np.sin(phases[2])])
        candidates = [np.kron(u, v)]
    return EntanglingVerdict(True, None, ranks)


@dataclass(frozen=True)
class CnotClass:
    cls: int | str  # 0, 1, 2 or "more"
    gamma_trace: complex
    gamma_sq_residual: float


def cnot_count_class(u, eps: float = 1e-9) -> CnotClass:
    """Minimal number of CNOTs (plus local unitaries) needed to simulate a
    two-qubit gate: one of 0, 1, 2 or "more".

    Uses the invariant gamma(U) = U E U^T E of the determinant-normalized
    gate.  The fourth root of det leaves a sign ambiguity in gamma, so the
    zero-CNOT test is gamma = +/- I; the other conditions (tr gamma = 0
    with gamma^2 = -I for one CNOT, tr gamma real for two) are invariant
    under that sign.
    """
    u = as_matrix(u)
    if u.shape[0] != 4:
        raise ValueError("expected a two-qubit gate")
    if not is_unitary(u, 1e-9):
        raise ValueError("gate is not unitary")
    su = u / np.linalg.det(u) ** 0.25
    gamma = su @ E @ su.T @ E
    tr = complex(np.trace(gamma))
    sq_res = residual(gamma @ gamma, -I4)
    if min(residual(gamma, I4), residual(gamma, -I4)) <= eps:
        cls: int | str = 0
    elif abs(tr) <= eps and sq_res <= eps:
        cls = 1
    elif abs(tr.imag) <= eps:
        cls = 2
    else:
        cls = "more"
    return CnotClass(cls, tr, sq_res)


# ---------------------------------------------------------------------------
# Decomposition verifiers
# ---------------------------------------------------------------------------


def verify_qdq() -> dict:
    """CNOT = Q D Q (exact identity; Q is an involution)."""
    res = residual(Q @ D @ Q, CNOT)
    return {"residual": res, "ok": res <= EXACT_EPS}


def verify_r0_decomposition() -> dict:
    """CNOT = (LAM (x) MU) (R0 (I (x) SIGMA) R0) (H (x) H) up to phase."""
    expr = kron(LAM, MU) @ (R0 @ kron(I2, SIGMA) @ R0) @ kron(H, H)
    ok, phase = equal_up_to_phase(expr, CNOT, PHASE_EPS)
    return {"residual": residual(expr, phase * CNOT), "phase": phase, "ok": ok}


def verify_mrn_decomposition() -> dict:
    """CNOT = M R N with M = ALPHA (x) BETA and N = GAMMA2 (x) DELTA2."""
    expr = kron(ALPHA, BETA) @ R @ kron(GAMMA2, DELTA2)
    ok, phase = equal_up_to_phase(expr, CNOT, PHASE_EPS)
    return {"residual": residual(expr, phase * CNOT), "phase": phase, "ok": ok}


DECOMPOSITIONS = {
    "qdq": verify_qdq,
    "r0": verify_r0_decomposition,
    "mrn": verify_mrn_decomposition,
}


# ---------------------------------------------------------------------------
# Name resolution for the CLI ("R", "Rprime:re,im,...", "U1:re,im", ...)
# ---------------------------------------------------------------------------

_FIXED_GATES = {
    "R": R,
    "R0": R0,
    "D": D,
    "SWAP": SWAP,
    "CNOT": CNOT,
    "H": H,
    "Q": Q,
    "E": E,
    "I2": I2,
    "I4": I4,
    "X": MOD_X,
    "Y": MOD_Y,
    "Z": MOD_Z,
    "sigma": SIGMA,
    "lambda": LAM,
    "mu": MU,
    "alpha": ALPHA,
    "beta": BETA,
    "gamma": GAMMA2,
    "delta": DELTA2,
}

_PARAM_GATES = {
    "Rprime": (R_prime, 4),
    "Rdprime": (R_dprime, 4),
    "P": (P, 4),
    "U1": (U1, 1),
    "U2": (U2, 1),
}


def catalog_names() -> list[str]:
    return sorted(_FIXED_GATES) + [f"{k}:..." for k in sorted(_PARAM_GATES)]


def resolve_gate(name: str) -> np.ndarray:
    """Resolve a catalog name, e.g. "R" or "Rprime:1,0,1,0,1,0,-1,0".

    Parameterized entries take complex parameters flattened as re,im
    pairs, comma-separated.
    """
    head, sep, tail = name.partition(":")
    if not sep:
        if head in _FIXED_GATES:
            return _FIXED_GATES[head].copy()
        raise KeyError(f"unknown gate {name!r}")
    if head not in _PARAM_GATES:
        raise KeyError(f"unknown parameterized gate {head!r}")
    builder, nparams = _PARAM_GATES[head]
    parts = tail.split(",")
    if len(parts) != 2 * nparams:
        raise ValueError(
            f"{head} takes {nparams} complex parameters "
            f"({2 * nparams} comma-separated numbers), got {len(parts)}"
        )
    vals = [float(p) for p in parts]
    params = [complex(vals[2 * i], vals[2 * i + 1]) for i in range(nparams)]
    if head in ("Rprime", "Rdprime", "P"):
        return builder(*params, require_unit=False)
    return builder(*params)
