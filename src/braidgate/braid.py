"""Braid words and their closures.

A braid on ``n`` strands is a word in the generators s_1 .. s_{n-1}; we
write it as a sequence of nonzero signed integers, where letter ``g``
crosses the adjacent strand positions (|g|, |g|+1) with crossing sign
sign(g).  Words compose by concatenation (stacking diagrams top to
bottom).  The closure joins each bottom endpoint to the top endpoint at
the same position, turning the braid into a link; everything this module
computes (components, writhe, linking numbers) refers to that closure.

Text syntax: whitespace-separated signed integers, optionally prefixed
by ``n=K;`` to fix the strand count (needed for identity braids or for
padding with unused strands).  Without the prefix the strand count is
max|g| + 1.  Parsed words have at most ``MAX_BRAID_STRANDS`` strands,
because the closure's linking table grows as the square of the strand
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GuardError

MAX_BRAID_STRANDS = 256


@dataclass(frozen=True)
class BraidWord:
    """A braid group element given as a word in the standard generators."""

    n: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"strand count must be >= 1, got {self.n}")
        object.__setattr__(self, "letters", tuple(int(g) for g in self.letters))
        for g in self.letters:
            if g == 0:
                raise ValueError("letter 0 is not a generator")
            if abs(g) > self.n - 1:
                raise ValueError(
                    f"letter {g} needs at least {abs(g) + 1} strands, word has {self.n}"
                )

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise ValueError("strand-count mismatch")
        return BraidWord(self.n, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.n, tuple(-g for g in reversed(self.letters)))

    @property
    def writhe(self) -> int:
        """Sum of crossing signs (the exponent sum of the word)."""
        return sum(1 if g > 0 else -1 for g in self.letters)

    def as_text(self) -> str:
        body = " ".join(str(g) for g in self.letters)
        return f"n={self.n}; {body}".rstrip()


@dataclass(frozen=True)
class ClosureInfo:
    """Component structure of a braid closure.

    ``component_of_strand[p]`` is the 1-based component id of the strand
    that starts at (0-based) top position ``p``.  ``linking`` maps each
    unordered pair of distinct component ids (ci, cj), ci < cj, to the
    linking number: half the signed count of crossings between the two
    components, always an integer for closed components.
    """

    component_count: int
    component_of_strand: tuple[int, ...]
    writhe: int
    linking: dict = field(default_factory=dict)


def parse_braid(text: str) -> BraidWord:
    """Parse the ``[n=K;] g1 g2 ...`` braid syntax."""
    body = text.strip()
    n_fixed = None
    if body.startswith("n"):
        head, sep, rest = body.partition(";")
        if not sep:
            raise ValueError("expected ';' after strand-count prefix")
        head = head.replace(" ", "")
        if not head.startswith("n="):
            raise ValueError(f"malformed strand-count prefix {head!r}")
        try:
            n_fixed = int(head[2:])
        except ValueError:
            raise ValueError(f"malformed strand count {head[2:]!r}") from None
        body = rest
    tokens = body.split()
    letters = []
    for tok in tokens:
        try:
            letters.append(int(tok))
        except ValueError:
            raise ValueError(f"malformed letter {tok!r}") from None
    if n_fixed is None:
        if not letters:
            raise ValueError("empty word needs an explicit strand count (use 'n=K;')")
        n_fixed = max(abs(g) for g in letters) + 1
    if n_fixed > MAX_BRAID_STRANDS:
        raise GuardError(f"{n_fixed} strands exceed the braid guard ({MAX_BRAID_STRANDS})")
    return BraidWord(n_fixed, tuple(letters))


def permutation(b: BraidWord) -> tuple[int, ...]:
    """Endpoint permutation: entry p is the bottom position reached by the
    strand starting at top position p (positions 0-based).  Each letter
    contributes the transposition of its two positions."""
    ids = list(range(b.n))  # ids[position] = strand currently there
    for g in b.letters:
        i = abs(g) - 1
        ids[i], ids[i + 1] = ids[i + 1], ids[i]
    perm = [0] * b.n
    for p, s in enumerate(ids):
        perm[s] = p
    return tuple(perm)


def _crossings(b: BraidWord) -> list[tuple[int, int, int]]:
    """Enumerate crossings as (sign, strand_a, strand_b) with strand ids
    given by 0-based starting positions, via forward propagation."""
    ids = list(range(b.n))
    out = []
    for g in b.letters:
        i = abs(g) - 1
        sign = 1 if g > 0 else -1
        out.append((sign, ids[i], ids[i + 1]))
        ids[i], ids[i + 1] = ids[i + 1], ids[i]
    return out


def closure_info(b: BraidWord) -> ClosureInfo:
    """Components, writhe and pairwise linking numbers of the closure.

    Strand identities are tracked by forward propagation through the word;
    the closure merges the strand ending at position p with the strand
    starting there.  Each crossing is attributed to the two strand ids
    present at its positions, and inter-component signed counts are halved
    to give linking numbers (integrality is asserted: a failure would mean
    broken bookkeeping, not bad input).
    """
    parent = list(range(b.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    ids = list(range(b.n))
    for g in b.letters:
        i = abs(g) - 1
        ids[i], ids[i + 1] = ids[i + 1], ids[i]
    for p in range(b.n):
        union(ids[p], p)

    roots = sorted({find(p) for p in range(b.n)})
    comp_id = {r: k + 1 for k, r in enumerate(roots)}
    comp_of = tuple(comp_id[find(p)] for p in range(b.n))

    ncomp = len(roots)
    doubled = {
        (ca, cb): 0
        for ca in range(1, ncomp + 1)
        for cb in range(ca + 1, ncomp + 1)
    }
    for sign, sa, sb in _crossings(b):
        ca, cb = comp_of[sa], comp_of[sb]
        if ca != cb:
            doubled[(min(ca, cb), max(ca, cb))] += sign
    linking = {}
    for key, total in doubled.items():
        if total % 2 != 0:
            raise AssertionError(
                f"odd inter-component crossing count {total} for pair {key}"
            )
        linking[key] = total // 2

    return ClosureInfo(
        component_count=len(roots),
        component_of_strand=comp_of,
        writhe=b.writhe,
        linking=linking,
    )


def markov_conjugate(b: BraidWord, g: BraidWord) -> BraidWord:
    """Replace b by g * b * g^{-1} (closure type is unchanged)."""
    if b.n != g.n:
        raise ValueError("strand-count mismatch")
    return g * b * g.inverse()


def markov_stabilize(b: BraidWord, sign: int) -> BraidWord:
    """Embed b in one more strand and append s_n^{+1} or s_n^{-1}."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return BraidWord(b.n + 1, b.letters + (sign * b.n,))


def free_reduce(b: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs s_i s_i^{-1}.  No braid-relation
    rewriting is attempted."""
    stack: list[int] = []
    for g in b.letters:
        if stack and stack[-1] == -g:
            stack.pop()
        else:
            stack.append(g)
    return BraidWord(b.n, tuple(stack))


def braid_to_json(b: BraidWord) -> dict:
    info = closure_info(b)
    return {
        "n": b.n,
        "letters": list(b.letters),
        "components": info.component_count,
        "writhe": info.writhe,
        "linking": [[ci, cj, lk] for (ci, cj), lk in sorted(info.linking.items())],
    }
