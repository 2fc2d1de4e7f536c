"""Measurement protocols built on the maximally entangled pair state.

The n-qubit cup state |delta> = sum_x |x>|x> ties two n-qubit registers
together.  Applying a gate to one side and closing with <delta| gives
the matrix trace (trace_amplitude); measuring the first two registers
of psi (x) delta against the functional <M| = sum M[a,b] <a|<b| leaves
M^T psi on the third register (measure_apply), which is the engine of
the gate-teleportation protocol (teleport_protocol).  Each protocol is
evaluated through these closed forms; the literal contractions on the
doubled registers are the test suite's oracles.  The measurement
bases there are the sets {M, X M, Y M, Z M} built from the modified
Pauli triple

    X = diag(1, -1)     Y = [[0, 1], [1, 0]]     Z = [[0, 1], [-1, 0]]

whose members stay mutually orthogonal under the trace inner product
whenever M = [[z, w], [-conj(w), conj(z)]] (basis_orthogonality checks
the Gram matrix of any candidate M).

project_qubit performs a projective single-qubit measurement on a pure
state and reports whether the residual state of the other qubits is
entangled; branch_state is a three-qubit state whose two first-qubit
outcomes leave an unentangled and an entangled residue with equal
probability, unlike the GHZ state where every single-qubit outcome
disentangles the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GuardError, ZeroProbabilityError
from .gates import MOD_X, MOD_Y, MOD_Z
from .tensor import PHASE_EPS, as_matrix, equal_up_to_phase, is_unitary

MAX_DELTA_QUBITS = 10
MAX_TELEPORT_QUBITS = 3

T_PAIR = {
    (0, 0): np.eye(2, dtype=complex),
    (0, 1): MOD_X,
    (1, 0): MOD_Y,
    (1, 1): MOD_Z,
}


def _qubit_count(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def make_delta(n: int, normalized: bool = False) -> np.ndarray:
    """The 2n-qubit cup state sum_x |x>|x> as a flat vector.

    Unnormalized by default (<delta|delta> = 2^n); pass
    ``normalized=True`` to divide by sqrt(2^n).
    """
    if not 1 <= n <= MAX_DELTA_QUBITS:
        raise GuardError(f"delta state supports 1..{MAX_DELTA_QUBITS} qubits, got {n}")
    dim = 2**n
    delta = np.eye(dim, dtype=complex).reshape(-1)
    if normalized:
        delta = delta / np.sqrt(dim)
    return delta


def trace_amplitude(u: np.ndarray) -> complex:
    """<delta| (U (x) I) |delta>, which is the matrix trace of U: the cup
    pairs each basis vector of the first register with its copy."""
    u = as_matrix(u)
    dim = u.shape[0]
    n = _qubit_count(dim)
    if n > MAX_DELTA_QUBITS:
        raise GuardError(f"dimension {dim} exceeds the delta-state guard")
    return complex(np.trace(u))


def exact_trace_probability(u: np.ndarray) -> float:
    """Success probability |tr U|^2 / 4^n of projecting (U (x) I)|delta>
    back onto |delta>, both cups normalized."""
    u = as_matrix(u)
    dim = u.shape[0]
    return float(abs(trace_amplitude(u)) ** 2 / dim**2)


def sample_trace_probability(u: np.ndarray, shots: int, seed: int) -> tuple[float, float]:
    """Bernoulli-sample the trace-measurement event for a unitary gate.

    Returns (estimate, standard error) with the standard error
    sqrt(p_hat (1 - p_hat) / shots).
    """
    u = as_matrix(u)
    if not is_unitary(u, eps=PHASE_EPS):
        raise ValueError("trace sampling is defined for unitary gates")
    if shots <= 0:
        raise ValueError("shots must be positive")
    p = exact_trace_probability(u)
    rng = np.random.default_rng(seed)
    hits = int(rng.binomial(shots, p))
    est = hits / shots
    return est, float(np.sqrt(est * (1.0 - est) / shots))


def measure_apply(m: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, float]:
    """Apply the functional <M| = sum M[a,b] <a|<b| to the first two
    registers of psi (x) delta.

    Returns the (unnormalized) residual state of the last register,
    M^T @ psi, and the outcome weight ||out||^2 / (||psi||^2 2^n), which
    is the Born probability when M has unit Frobenius norm and psi is
    normalized.
    """
    m = as_matrix(m)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    dim = m.shape[0]
    if psi.shape[0] != dim:
        raise ValueError(f"state dimension {psi.shape[0]} != matrix dimension {dim}")
    out = m.T @ psi
    norm2 = float(np.vdot(psi, psi).real)
    prob = float(np.vdot(out, out).real) / (norm2 * dim) if norm2 > 0 else 0.0
    return out, prob


def basis_orthogonality(m: np.ndarray, eps: float = PHASE_EPS) -> tuple[bool, np.ndarray]:
    """Whether {M, XM, YM, ZM} is an orthogonal set under <A, B> = tr(A^dag B).

    Returns the verdict and the full 4x4 Gram matrix.
    """
    m = as_matrix(m)
    if m.shape != (2, 2):
        raise ValueError("basis check is defined for 2x2 seeds")
    family = [m, MOD_X @ m, MOD_Y @ m, MOD_Z @ m]
    gram = np.array(
        [[np.trace(np.conjugate(a.T) @ b) for b in family] for a in family],
        dtype=complex,
    )
    off = gram - np.diag(np.diag(gram))
    return bool(np.max(np.abs(off)) <= eps), gram


def _t_unitary(alpha: tuple[int, ...], beta: tuple[int, ...]) -> np.ndarray:
    t = np.array([[1.0 + 0j]])
    for a, b in zip(alpha, beta):
        t = np.kron(t, T_PAIR[(a, b)])
    return t


def teleport_protocol(
    u: np.ndarray, psi: np.ndarray, seed: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Teleport psi through the cup while applying the gate U.

    The sender measures the first two registers of psi (x) delta in the
    basis of functionals <T_ab U| (orthogonal by the modified-Pauli
    structure), broadcasts the 2n outcome bits, and the receiver applies
    the correction U (T_ab U)^(-T).  The outcome is drawn from its exact
    Born distribution, uniform 1/4^n for unitary U, and only that branch
    is computed.  Returns the corrected state, checked equal to U psi up
    to global phase, and the outcome bits (alpha_1..alpha_n,
    beta_1..beta_n).
    """
    u = as_matrix(u)
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    dim = u.shape[0]
    n = _qubit_count(dim)
    if n > MAX_TELEPORT_QUBITS:
        raise GuardError(f"teleportation supports up to {MAX_TELEPORT_QUBITS} qubits")
    if not is_unitary(u, eps=PHASE_EPS):
        raise ValueError("teleportation is defined for unitary gates")
    if psi.shape[0] != dim:
        raise ValueError("state and gate dimensions differ")
    nrm = np.linalg.norm(psi)
    if nrm < 1e-15:
        raise ZeroProbabilityError("cannot teleport the zero vector")
    psi = psi / nrm

    # T_ab U is unitary, so ||out|| = ||psi|| = 1 on every branch; with the
    # functional's and the cup's norms (sqrt(2^n) each) every one of the
    # 4^n outcomes has Born weight exactly 1/4^n.  Draw first, then build
    # only the drawn branch.
    rng = np.random.default_rng(seed)
    k = int(rng.choice(4**n, p=np.full(4**n, 4.0**-n)))
    bits = tuple((k >> (2 * n - 1 - i)) & 1 for i in range(2 * n))
    w = _t_unitary(bits[:n], bits[n:]) @ u
    out, _ = measure_apply(w, psi)
    correction = u @ np.linalg.inv(w.T)
    received = correction @ out
    received = received / np.linalg.norm(received)

    same, _ = equal_up_to_phase(
        received.reshape(-1, 1), (u @ psi).reshape(-1, 1), eps=PHASE_EPS
    )
    if not same:
        raise AssertionError("corrected state does not match the gate action")
    return received, bits


@dataclass(frozen=True)
class ProjectionResult:
    """Residual state after a single-qubit projective measurement."""

    residual: np.ndarray
    prob: float
    entangled: bool | None


def ghz_state(n: int = 3) -> np.ndarray:
    """(|0...0> + |1...1>) / sqrt(2)."""
    if n < 2:
        raise ValueError("need at least two qubits")
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1.0 / np.sqrt(2.0)
    return psi


def branch_state() -> np.ndarray:
    """(|000> + |001> + |101> + |110>) / 2: measuring the first qubit
    leaves an unentangled pair on 0 and an entangled pair on 1."""
    psi = np.zeros(8, dtype=complex)
    for idx in (0b000, 0b001, 0b101, 0b110):
        psi[idx] = 0.5
    return psi


def project_qubit(psi: np.ndarray, qubit: int, bit: int) -> ProjectionResult:
    """Project qubit ``qubit`` (1-based, leftmost = 1) of a pure state
    onto |bit> and renormalize the rest.

    The residual two-qubit state of a three-qubit input is classified as
    entangled or not; other sizes report ``entangled=None``.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    dim = psi.shape[0]
    n = _qubit_count(dim)
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit index {qubit} out of range 1..{n}")
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    norm2 = float(np.vdot(psi, psi).real)
    if norm2 < 1e-30:
        raise ValueError("cannot measure the zero vector")
    cube = psi.reshape((2,) * n)
    residual = np.take(cube, bit, axis=qubit - 1).reshape(-1)
    prob = float(np.vdot(residual, residual).real) / norm2
    if prob < 1e-15:
        raise ZeroProbabilityError(
            f"outcome {bit} on qubit {qubit} has probability {prob}"
        )
    residual = residual / np.linalg.norm(residual)
    entangled: bool | None = None
    if n == 3:
        from .gates import state_is_entangled

        entangled = state_is_entangled(residual)
    return ProjectionResult(residual, prob, entangled)
