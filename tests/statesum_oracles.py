"""State sums by enumeration, one state at a time.

braidgate.invariants evaluates the bracket as a transfer sum over planar
Temperley-Lieb diagrams and the linking state sum as a histogram of cut
values.  These helpers visit every one of the 2^L smoothings and 2^k
component labelings instead and serve as the tests' oracles.  Each
``*_terms`` generator yields the per-state terms in enumeration order, so
a test can bound rounding by the sum of their magnitudes.
"""

from itertools import product

import numpy as np

from braidgate import BracketParams, BraidWord, closure_info
from braidgate.braid import _crossings
from braidgate.invariants import _closure_loops, _compose, _cupcap_diagram, _identity_diagram


def random_weight(rng, unit: bool) -> complex:
    """A random nonzero complex weight: on the unit circle, or with
    modulus in [1/e, e]."""
    modulus = 0.0 if unit else rng.uniform(-1.0, 1.0)
    return complex(np.exp(modulus + 1j * rng.uniform(-np.pi, np.pi)))


def bracket_terms(b: BraidWord, p: BracketParams):
    """weight * d^(loops - 1) for each of the 2^L crossing smoothings.

    Every positive letter resolves to the identity diagram with weight A
    or the hook e_i with weight A^(-1) (weights swapped for negative
    letters).
    """
    L = len(b.letters)
    n = b.n
    hooks = {i: _cupcap_diagram(n, i) for i in range(n - 1)}
    ident = _identity_diagram(n)
    for bits in product((0, 1), repeat=L):
        diag = ident
        extra_loops = 0
        weight = 1.0 + 0j
        for g, bit in zip(b.letters, bits):
            i = abs(g) - 1
            if bit == 0:
                piece, w = ident, (p.A if g > 0 else 1 / p.A)
            else:
                piece, w = hooks[i], (1 / p.A if g > 0 else p.A)
            weight *= w
            diag, loops = _compose(diag, piece, n)
            extra_loops += loops
        loops = extra_loops + _closure_loops(diag, n)
        yield weight * p.d ** (loops - 1)


def bracket_enumerated(b: BraidWord, p: BracketParams) -> complex:
    total = 0j
    for term in bracket_terms(b, p):
        total += term
    return complex(total)


def linking_terms(b: BraidWord, a: complex, c: complex):
    """The product of vertex weights for each of the 2^k component
    labelings: ``a`` on a positive crossing whose arcs carry equal labels
    and ``c`` otherwise, reciprocals for negative crossings."""
    a, c = complex(a), complex(c)
    info = closure_info(b)
    k = info.component_count
    crossings = [
        (sign, info.component_of_strand[sa], info.component_of_strand[sb])
        for sign, sa, sb in _crossings(b)
    ]
    for labels in product((0, 1), repeat=k):
        term = 1.0 + 0j
        for sign, ca, cb in crossings:
            same = labels[ca - 1] == labels[cb - 1]
            w = a if same else c
            term *= w if sign > 0 else 1.0 / w
        yield term


def linking_enumerated(b: BraidWord, a: complex, c: complex) -> tuple[complex, complex]:
    """(Sigma, Z) with Sigma the sum over all labelings and
    Z = a^(-writhe) * Sigma."""
    sigma = 0j
    for term in linking_terms(b, a, c):
        sigma += term
    z = complex(a) ** (-b.writhe) * sigma
    return sigma, z


# Both routes round only in products of at most L weights and in sums of
# at most 2^10 terms.  Recursive summation of N terms errs by at most
# (N - 1) * 2^-53 * sum |term|, 1.1e-13 * sum |term| at N = 2^10, and each
# product by about L units in the last place; on 6,000 seeded draws of
# the tests' inputs the largest gap was 1.3e-14 * sum |term|.
ORACLE_RTOL = 2e-13
