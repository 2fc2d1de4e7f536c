"""Dense complex linear algebra on spaces of dimension 2^k.

Matrices are plain numpy complex128 arrays.  The two-qubit basis order is
big-endian: |00>, |01>, |10>, |11>.  All residuals are measured in the
max-absolute-entry norm, which is cheap and reads directly as entrywise
error.  Two default tolerances are used package-wide: ``EXACT_EPS`` for
identities that are supposed to hold exactly up to rounding, and
``PHASE_EPS`` for comparisons after fitting a global phase.
"""

from __future__ import annotations

import numpy as np

EXACT_EPS = 1e-12
PHASE_EPS = 1e-9


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product; (a kron b)[(i*db+k),(j*db+l)] = a[i,j] * b[k,l]."""
    return np.kron(as_matrix(a), as_matrix(b))


def dagger(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def max_norm(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def residual(a, b) -> float:
    """Max-entry distance between two same-shaped arrays."""
    return max_norm(np.asarray(a) - np.asarray(b))


def partial_trace_last(a, sub_dim: int) -> np.ndarray:
    """Trace out the last tensor factor of the given dimension.

    result[i, j] = sum_k a[(i,k), (j,k)] where the column/row index splits
    as (outer, inner) with inner running over the traced factor.
    """
    a = as_matrix(a)
    dim = a.shape[0]
    if sub_dim < 1 or dim % sub_dim != 0:
        raise ValueError(f"dimension {dim} not divisible by {sub_dim}")
    keep = dim // sub_dim
    return np.einsum("ikjk->ij", a.reshape(keep, sub_dim, keep, sub_dim))


def is_unitary(a, eps: float = EXACT_EPS) -> bool:
    a = as_matrix(a)
    return residual(a @ a.conj().T, np.eye(a.shape[0])) <= eps


def equal_up_to_phase(a, b, eps: float = PHASE_EPS) -> tuple[bool, complex]:
    """Test a = lam * b for some unit-modulus lam; return (verdict, lam).

    Works for state vectors and matrices alike.  lam is fitted from the
    largest-magnitude entry pair and normalized to unit modulus, so a
    genuine rescaling (|lam| != 1) is rejected.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("non-finite entries")
    idx = np.unravel_index(np.argmax(np.abs(a) + np.abs(b)), a.shape)
    if abs(b[idx]) <= eps:
        # Largest pair is (near) zero on both sides iff both matrices vanish.
        return residual(a, b) <= eps, 1.0 + 0.0j
    lam = a[idx] / b[idx]
    if abs(lam) == 0.0:
        return False, lam
    lam = lam / abs(lam)
    return residual(a, lam * b) <= eps, lam


def matrix_to_json(a) -> dict:
    """{"dim": k, "entries": [[re, im], ...]} with row-major entries."""
    a = as_matrix(a)
    entries = [[float(z.real), float(z.imag)] for z in a.ravel()]
    return {"dim": int(a.shape[0]), "entries": entries}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Inverse of :func:`matrix_to_json`; ``dim`` must be a positive int."""
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    entries = obj["entries"]
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return as_matrix(flat.reshape(dim, dim))
