"""Link invariants computed from braid closures.

tau
    The trace of the exact braid representation.  Every value is an
    integer multiple of a power of sqrt(2); ``TauValue`` stores the pair
    (mantissa, exponent) meaning mantissa * sqrt(2)^exponent, and the
    canonical form keeps the mantissa odd (or zero), folding factors of
    two into the exponent.  Conjugation preserves tau exactly; adding or
    removing a final stabilizing letter scales it by exactly sqrt(2), so
    the odd mantissa (with its sign) is a well-defined label of the
    closure's equivalence class.

skein_check
    tau obeys a three-term relation at any crossing site: flipping the
    site and deleting it give words b' and b'' with
    tau(b) + tau(b') = sqrt(2) * tau(b'').  After clearing denominators
    this is an integer identity between representation traces, and it is
    asserted exactly.

linking_state_sum
    The two-weight vertex state sum over component labelings: a positive
    crossing contributes weight ``a`` when its two arcs carry equal
    component labels and ``c`` otherwise (reciprocals for negative
    crossings).  Sigma is the sum over all 2^components labelings, and
    Z = a^(-writhe) * Sigma.  For a 2-component closure,
    Z = 2 (1 + (c^2/a^2)^lk) with lk the linking number.  A labeling's
    term depends only on its signed count of crossings between unequally
    labelled components, so Sigma is evaluated from an exact integer
    histogram of that count over the 2^(components-1) labelings that fix
    one label (flipping every label changes no term).

tl_rep3 / bracket3 / bracket_oracle
    The 2x2 Temperley-Lieb representation of 3-strand braids,
    Phi(s_i) = A I + A^(-1) U_i with loop weight d = -A^2 - A^(-2); the
    closed-braid bracket evaluation tr(Phi(b)) + A^writhe (d^2 - 2); and
    an independent bracket state sum over crossing smoothings on any
    number of strands, with planar-diagram composition counting closed
    loops.  The state sum is a transfer sum: one map from each planar
    diagram to its summed weight, updated letter by letter, so it holds
    at most min(2^L, Catalan(n)) diagrams and never uses the 2x2
    representation.  Both evaluations normalize the 3-strand identity
    braid to d^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .braid import BraidWord, closure_info, parse_braid
from .errors import GuardError, SingularBracketError
from .gates import U1, U2
from .rep import rep_exact

MAX_LABEL_COMPONENTS = 20
MAX_ORACLE_DIAGRAMS = 2**16


@lru_cache(maxsize=1)
def _link_catalog() -> dict[str, str]:
    text = resources.files("braidgate.data").joinpath("links.txt").read_text()
    catalog = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, word = line.partition(":")
        if not sep:
            raise ValueError(f"malformed catalog line {line!r}")
        catalog[name.strip()] = word.strip()
    return catalog


def link_names() -> tuple[str, ...]:
    """Names available to :func:`link_word`, in catalog order."""
    return tuple(_link_catalog())


def link_word(name: str) -> BraidWord:
    """Look up a named link and return a braid word closing to it."""
    catalog = _link_catalog()
    try:
        text = catalog[name]
    except KeyError:
        known = ", ".join(catalog)
        raise KeyError(f"unknown link {name!r} (known: {known})") from None
    return parse_braid(text)


# ---------------------------------------------------------------------------
# tau: the exact braid-trace invariant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TauValue:
    """An exact value mantissa * sqrt(2)^exponent with odd (or zero) mantissa."""

    mantissa: int
    exponent: int

    @classmethod
    def make(cls, mantissa: int, exponent: int) -> "TauValue":
        m, e = int(mantissa), int(exponent)
        if m == 0:
            return cls(0, 0)
        while m % 2 == 0:
            m //= 2
            e += 2
        return cls(m, e)

    def scaled_sqrt2(self, k: int = 1) -> "TauValue":
        """The value times sqrt(2)^k."""
        if self.mantissa == 0:
            return self
        return TauValue(self.mantissa, self.exponent + k)

    def to_float(self) -> float:
        return float(self.mantissa) * 2.0 ** (self.exponent / 2.0)

    def __str__(self):
        return f"{self.mantissa}*sqrt2^{self.exponent}"


def tau(b: BraidWord) -> TauValue:
    """Trace of the exact representation of the word, canonicalized."""
    m = rep_exact(b)
    return TauValue.make(m.trace_int(), -m.scale_exp)


def tau_equivalent(v1: TauValue, v2: TauValue) -> bool:
    """Equality up to an integer power of sqrt(2): both zero, or equal
    canonical mantissas (sign included)."""
    return v1.mantissa == v2.mantissa


def skein_check(b: BraidWord, site: int) -> dict:
    """Verify the three-term relation at one site of the word, exactly.

    Builds b' (sign flipped at ``site``) and b'' (letter deleted) and
    asserts tau(b) + tau(b') = sqrt(2) * tau(b'') by comparing integer
    traces at a common sqrt(2) scale.  Returns the three values and the
    verdict.
    """
    if not 0 <= site < len(b.letters):
        raise IndexError(f"site {site} out of range for word of length {len(b.letters)}")
    letters = list(b.letters)
    flipped = letters.copy()
    flipped[site] = -flipped[site]
    deleted = letters[:site] + letters[site + 1 :]
    b_flip = BraidWord(b.n, tuple(flipped))
    b_del = BraidWord(b.n, tuple(deleted))

    t_b = rep_exact(b).trace_int()
    t_flip = rep_exact(b_flip).trace_int()
    t_del = rep_exact(b_del).trace_int()
    # All three traces over sqrt(2)^L, with the deleted word one letter
    # short: the relation reduces to t_b + t_flip == 2 * t_del.
    L = len(letters)
    return {
        "holds": (t_b + t_flip) == 2 * t_del,
        "tau": TauValue.make(t_b, -L),
        "tau_flipped": TauValue.make(t_flip, -L),
        "tau_deleted": TauValue.make(t_del, -(L - 1)),
    }


# ---------------------------------------------------------------------------
# Linking-number state sum
# ---------------------------------------------------------------------------


def linking_state_sum(b: BraidWord, a: complex, c: complex) -> tuple[complex, complex]:
    """Evaluate the two-weight state sum on the closure of b.

    Returns (Sigma, Z) where Sigma sums over all component labelings and
    Z = a^(-writhe) * Sigma.  A labeling's term is a^(writhe - D) * c^D,
    where its cut value D is the signed count of crossings between
    differently labelled components, so Sigma is a sum over the histogram
    of D.  Flipping every label keeps D, so half the labelings suffice.
    """
    a, c = complex(a), complex(c)
    if a == 0 or c == 0:
        raise ValueError("vertex weights must be nonzero")
    info = closure_info(b)
    k = info.component_count
    if k > MAX_LABEL_COMPONENTS:
        raise GuardError(f"{k} components exceed the labeling guard")
    between = np.zeros((k, k), dtype=np.int64)  # signed crossing counts, 2 * lk
    for (ci, cj), lk in info.linking.items():
        between[ci - 1, cj - 1] = between[cj - 1, ci - 1] = 2 * lk
    cut = _cut_values(between)
    low = int(cut.min())
    sigma = 2 * sum(
        int(count) * a ** (info.writhe - d) * c**d
        for d, count in enumerate(np.bincount(cut - low).tolist(), low)
        if count
    )
    z = a ** (-info.writhe) * sigma
    return sigma, z


def _cut_values(between: np.ndarray) -> np.ndarray:
    """The cut value of every labeling that gives component 0 label 0.

    Entry x holds the sum of ``between[i, j]`` over pairs i < j with
    different labels, where bit j - 1 of x is the label of component j.
    Components join one at a time: the labelings of components 0..m-1
    extend by label 0 for m (cutting m from the components labelled 1)
    and by label 1 (cutting it from those labelled 0).
    """
    cut = np.zeros(1, dtype=np.int64)
    for m in range(1, len(between)):
        ones = np.zeros(1, dtype=np.int64)  # entry x: between[j, m] summed over j labelled 1
        for j in range(1, m):
            ones = np.concatenate((ones, ones + between[j, m]))
        cut = np.concatenate((cut + ones, cut + (between[:m, m].sum() - ones)))
    return cut


# ---------------------------------------------------------------------------
# Temperley-Lieb representation of 3-braids and the bracket
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BracketParams:
    """Bracket variable A with loop weight d = -A^2 - A^(-2)."""

    A: complex
    d: complex
    theta: float | None = None

    @classmethod
    def from_A(cls, A: complex) -> "BracketParams":
        A = complex(A)
        if A == 0:
            raise ValueError("A must be nonzero")
        return cls(A, -(A**2) - A ** (-2))

    @classmethod
    def from_theta(cls, theta: float) -> "BracketParams":
        A = np.exp(1j * theta)
        return cls(complex(A), complex(-2.0 * np.cos(2.0 * theta)), float(theta))


def tl_rep3(b: BraidWord, p: BracketParams) -> np.ndarray:
    """The 2x2 representation Phi of a 3-strand braid word.

    Phi(s_i) = A I + A^(-1) U_i; inverse letters use the matrix inverse.
    Raises SingularBracketError when the loop weight vanishes (U2 has a
    1/d entry, so the representation has no finite matrix there).
    """
    if b.n != 3:
        raise ValueError("the 2x2 representation is defined for 3-strand words")
    if abs(p.d) < 1e-12:
        raise SingularBracketError(
            f"loop weight d = {p.d} vanishes; the representation is singular"
        )
    eye = np.eye(2, dtype=complex)
    phi = {
        1: p.A * eye + U1(p.d) / p.A,
        2: p.A * eye + U2(p.d) / p.A,
    }
    for g in {g for g in b.letters if g < 0}:
        phi[g] = np.linalg.inv(phi[-g])
    m = eye
    for g in b.letters:
        m = m @ phi[g]
    return m


def bracket3(b: BraidWord, p: BracketParams) -> complex:
    """Bracket value of the closure of a 3-strand braid:
    tr(Phi(b)) + A^writhe (d^2 - 2), normalized so the identity braid
    gives d^2.

    The value is ill-conditioned near d = 0: U2 has 1/d entries, so the
    rounding error grows like 1/|d|^2.  In double precision it stays
    below 1e-12 * max(1, |d|^-2) for words of up to 8 letters.
    """
    m = tl_rep3(b, p)
    return complex(np.trace(m) + p.A**b.writhe * (p.d**2 - 2.0))


# --- planar-diagram state sum oracle ---------------------------------------
#
# A Temperley-Lieb n-diagram is a planar pairing of n top points (0..n-1)
# and n bottom points (n..2n-1).  Composition stitches d1's bottom row to
# d2's top row and absorbs each fully internal loop as a factor d.


def _identity_diagram(n: int) -> tuple[int, ...]:
    pair = [0] * (2 * n)
    for i in range(n):
        pair[i] = n + i
        pair[n + i] = i
    return tuple(pair)


def _cupcap_diagram(n: int, i: int) -> tuple[int, ...]:
    """The hook diagram e_i (0-based i): top i ~ top i+1, bottom i ~ bottom i+1."""
    pair = list(_identity_diagram(n))
    pair[i], pair[i + 1] = i + 1, i
    pair[n + i], pair[n + i + 1] = n + i + 1, n + i
    return tuple(pair)


def _compose(d1: tuple[int, ...], d2: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """Stack d1 above d2; return the composed pairing and the number of
    closed loops created at the interface.

    Composite point labels: 0..n-1 external tops (d1's tops), n..2n-1
    interface (d1's bottoms glued to d2's tops), 2n..3n-1 external
    bottoms (d2's bottoms).  Each interface point carries one d1-edge
    and one d2-edge, so strands alternate between the two pairings.
    """

    def d1_edge(p: int) -> int:  # p in 0..2n-1, d1's own labels
        return d1[p]

    def d2_edge(p: int) -> int:  # p in n..3n-1, d2's labels shifted by n
        return d2[p - n] + n

    iface_seen = [False] * n  # interface point n+i -> slot i
    new_pair = [0] * (2 * n)
    assigned = [False] * (2 * n)

    def walk(start: int) -> int:
        """Trace from an external point to the other external end."""
        pos, in_d1 = start, start < n
        while True:
            nxt = d1_edge(pos) if in_d1 else d2_edge(pos)
            if nxt < n or nxt >= 2 * n:
                return nxt
            iface_seen[nxt - n] = True
            pos, in_d1 = nxt, not in_d1

    for ext in list(range(n)) + list(range(2 * n, 3 * n)):
        out = ext if ext < n else ext - n  # composite -> output labels
        if assigned[out]:
            continue
        other = walk(ext)
        out2 = other if other < n else other - n
        new_pair[out], new_pair[out2] = out2, out
        assigned[out] = assigned[out2] = True

    loops = 0
    for i in range(n):
        if iface_seen[i]:
            continue
        loops += 1
        pos, in_d1 = n + i, True
        while True:
            iface_seen[pos - n] = True
            nxt = d1_edge(pos) if in_d1 else d2_edge(pos)
            pos, in_d1 = nxt, not in_d1
            if pos == n + i and in_d1:
                break
    return tuple(new_pair), loops


def _closure_loops(diag: tuple[int, ...], n: int) -> int:
    """Number of loops after joining top i to bottom i for every i."""
    seen = [False] * (2 * n)
    loops = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        pos = start
        while not seen[pos]:
            seen[pos] = True
            mate = diag[pos]
            seen[mate] = True
            pos = mate + n if mate < n else mate - n  # closure arc
        loops += 1
    return loops


def bracket_oracle(b: BraidWord, p: BracketParams) -> complex:
    """Bracket state sum of the braid closure, as a transfer sum.

    Every positive letter resolves to the identity diagram with weight A
    or the hook e_i with weight A^(-1) (weights swapped for negative
    letters).  Smoothings that compose to the same planar diagram are
    summed as they arise, so a map from diagram to summed weight replaces
    the 2^L states; at the end each closure contributes
    weight * d^(loops - 1), matching the convention that the n-strand
    identity braid evaluates to d^(n-1).
    """
    n, L = b.n, len(b.letters)
    # min(2^L, Catalan(n)) diagrams at most are live; Catalan(n) < 4^n, so
    # capping L at 2n keeps the minimum and keeps 2^L small for long words
    bound = min(1 << min(L, 2 * n), math.comb(2 * n, n) // (n + 1))
    if bound > MAX_ORACLE_DIAGRAMS:
        raise GuardError(
            f"{bound} planar diagrams exceed the state-sum guard ({MAX_ORACLE_DIAGRAMS})"
        )
    hooks = {i: _cupcap_diagram(n, i) for i in range(n - 1)}
    inv_A = 1 / p.A
    weights = {_identity_diagram(n): 1.0 + 0j}
    for g in b.letters:
        keep, hook = (p.A, inv_A) if g > 0 else (inv_A, p.A)
        piece = hooks[abs(g) - 1]
        step: dict[tuple[int, ...], complex] = {}
        for diag, w in weights.items():
            step[diag] = step.get(diag, 0j) + w * keep
            joined, loops = _compose(diag, piece, n)
            step[joined] = step.get(joined, 0j) + w * hook * p.d**loops
        weights = step
    total = 0j
    for diag, w in weights.items():
        total += w * p.d ** (_closure_loops(diag, n) - 1)
    return complex(total)
