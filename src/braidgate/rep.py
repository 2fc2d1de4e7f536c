"""Braid-group representations on qubit spaces.

``rep_matrix`` places a 4x4 braiding operator r on adjacent tensor
factors: generator s_i acts as I^(i-1) (x) r (x) I^(n-i-1) on (C^2)^n.
A word maps to the product of its letters' matrices taken left to right
(the first letter is the leftmost factor), which makes the map a group
homomorphism; traces and relation checks do not depend on that choice.

``rep_exact`` is an exact backend for the specific Bell-basis operator R:
sqrt(2) * R is an integer matrix, so the product over a word of length L
is an integer matrix divided by sqrt(2)^L.  ``ExactScaledMatrix`` stores
exactly that: int64 entries plus the global exponent.  sqrt(2) * R is
sqrt(2) times an orthogonal matrix, so the integer core of an L-letter
product is sqrt(2)^L times an orthogonal matrix and its entries are
bounded by 2^(L/2).  The guard L <= 60 (``MAX_EXACT_LETTERS``) is
therefore far inside int64; it is kept as is until a backend that needs
no dense product lifts it.

``circuit_matrix`` evaluates interleaved words of braiding letters and
single-strand local gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .braid import BraidWord
from .errors import GuardError
from .tensor import as_matrix, is_unitary

MAX_STRANDS = 12
MAX_EXACT_LETTERS = 60

# sqrt(2) * R: the integer core of the Bell-basis braiding operator.
_R_INT = np.array(
    [
        [1, 0, 0, 1],
        [0, 1, -1, 0],
        [0, 1, 1, 0],
        [-1, 0, 0, 1],
    ],
    dtype=np.int64,
)


def _apply(m: np.ndarray, gate: np.ndarray, strand: int) -> np.ndarray:
    """Return m @ placement(gate), where the placement is
    I^(strand-1) (x) gate (x) I^(...) on (C^2)^n, without forming it.

    The gate is 2x2 (one strand) or 4x4 (strands strand, strand+1).  On
    the view m[row, left, k, right] only the k axis is contracted, which
    is one batched matmul: gate^T @ m.reshape(dim * left, k, right).
    """
    dim, k = m.shape[0], gate.shape[0]
    cols = m.reshape(dim * 2 ** (strand - 1), k, -1)
    return (gate.T @ cols).reshape(dim, dim)


def _product(n: int, factors, dtype) -> np.ndarray:
    """The product, left to right, of the placed (gate, strand) factors
    on n strands, starting from the identity."""
    if n > MAX_STRANDS:
        raise GuardError(f"{n} strands exceed the dense-matrix guard ({MAX_STRANDS})")
    m = np.eye(2**n, dtype=dtype)
    for gate, strand in factors:
        m = _apply(m, gate, strand)
    return m


def _braiding_pair(r) -> tuple[np.ndarray, np.ndarray]:
    """A 4x4 braiding operator and the matrix used for its inverse
    letters: the conjugate transpose when r is unitary, the matrix
    inverse otherwise."""
    r = as_matrix(r)
    if r.shape[0] != 4:
        raise ValueError("braiding operator must be 4x4")
    return r, (r.conj().T if is_unitary(r, 1e-9) else np.linalg.inv(r))


def rep_matrix(b: BraidWord, r) -> np.ndarray:
    """Representation matrix of a braid word for the braiding operator r.

    Inverse letters use r's conjugate transpose when r is unitary and the
    matrix inverse otherwise.
    """
    r, r_inv = _braiding_pair(r)
    return _product(b.n, ((r if g > 0 else r_inv, abs(g)) for g in b.letters), complex)


@dataclass(frozen=True)
class ExactScaledMatrix:
    """An integer matrix with a global scale: ints * sqrt(2)^(-scale_exp)."""

    dim: int
    ints: np.ndarray
    scale_exp: int

    def __post_init__(self):
        a = np.array(self.ints, dtype=np.int64, copy=True)
        a.flags.writeable = False
        object.__setattr__(self, "ints", a)

    def to_float(self) -> np.ndarray:
        return self.ints.astype(complex) * 2.0 ** (-self.scale_exp / 2.0)

    def trace_int(self) -> int:
        return int(np.trace(self.ints))


def exact_equal(m1: ExactScaledMatrix, m2: ExactScaledMatrix) -> bool:
    """Exact equality of the represented values.

    Rescaling to a common exponent multiplies entries by sqrt(2)^k; for
    odd k that only stays integral when the matrix vanishes, so matrices
    at odd exponent distance are equal only if both are zero.
    """
    if m1.dim != m2.dim:
        return False
    lo, hi = sorted((m1, m2), key=lambda m: m.scale_exp)
    diff = hi.scale_exp - lo.scale_exp
    if diff % 2 == 1:
        return not lo.ints.any() and not hi.ints.any()
    return bool(np.array_equal(lo.ints * np.int64(2 ** (diff // 2)), hi.ints))


def rep_exact(b: BraidWord) -> ExactScaledMatrix:
    """Exact representation of a word for the fixed operator R.

    The result has scale_exp = word length; inverse letters contribute the
    transpose of the integer core (R is real orthogonal).
    """
    if len(b.letters) > MAX_EXACT_LETTERS:
        raise GuardError(
            f"word length {len(b.letters)} exceeds the exact-backend guard "
            f"({MAX_EXACT_LETTERS})"
        )
    factors = ((_R_INT if g > 0 else _R_INT.T, abs(g)) for g in b.letters)
    return ExactScaledMatrix(2**b.n, _product(b.n, factors, np.int64), len(b.letters))


# ---------------------------------------------------------------------------
# Extended circuits: braiding letters mixed with single-strand local gates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BraidItem:
    letter: int


@dataclass(frozen=True)
class LocalItem:
    strand: int  # 1-based
    gate: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gate", as_matrix(self.gate))
        if self.gate.shape != (2, 2):
            raise ValueError("local gates must be 2x2")


@dataclass(frozen=True)
class ExtendedCircuit:
    n: int
    items: tuple

    def __post_init__(self):
        for item in self.items:
            if isinstance(item, BraidItem):
                if item.letter == 0 or abs(item.letter) > self.n - 1:
                    raise ValueError(f"braid letter {item.letter} out of range")
            elif isinstance(item, LocalItem):
                if not 1 <= item.strand <= self.n:
                    raise ValueError(f"strand {item.strand} out of range")
            else:
                raise TypeError(f"unexpected circuit item {item!r}")


def circuit_matrix(c: ExtendedCircuit, r) -> np.ndarray:
    """Evaluate an extended circuit: items compose in order, with the same
    leftmost-first convention as rep_matrix."""
    r, r_inv = _braiding_pair(r)
    factors = (
        (r if item.letter > 0 else r_inv, abs(item.letter))
        if isinstance(item, BraidItem)
        else (item.gate, item.strand)
        for item in c.items
    )
    return _product(c.n, factors, complex)


def circuit_to_json(c: ExtendedCircuit) -> dict:
    items = []
    for item in c.items:
        if isinstance(item, BraidItem):
            items.append({"braid": item.letter})
        else:
            items.append(
                {
                    "local": {
                        "strand": item.strand,
                        "gate": [
                            [float(z.real), float(z.imag)] for z in item.gate.ravel()
                        ],
                    }
                }
            )
    return {"n": c.n, "items": items}


def circuit_from_json(obj: dict) -> ExtendedCircuit:
    items = []
    for entry in obj["items"]:
        if "braid" in entry:
            items.append(BraidItem(int(entry["braid"])))
        elif "local" in entry:
            loc = entry["local"]
            flat = [complex(re, im) for re, im in loc["gate"]]
            items.append(LocalItem(int(loc["strand"]), np.array(flat).reshape(2, 2)))
        else:
            raise ValueError(f"unrecognized circuit item {entry!r}")
    return ExtendedCircuit(int(obj["n"]), tuple(items))
