"""Literal contractions on the doubled registers.

braidgate.quantum evaluates each protocol through its closed form: the
trace for the cup closure, M^T psi for a functional measurement, and a
uniform draw of one branch for teleportation.  These helpers compute the
same quantities the long way and serve as the tests' oracles.
"""

from itertools import product

import numpy as np

from braidgate import MOD_X, MOD_Y, MOD_Z, make_delta

T_PAIR = {
    (0, 0): np.eye(2, dtype=complex),
    (0, 1): MOD_X,
    (1, 0): MOD_Y,
    (1, 1): MOD_Z,
}


def cup_trace(u: np.ndarray) -> complex:
    """<delta| (U (x) I) |delta>: U acts on the left index of the cup,
    reshaped into a matrix, and the result is paired with the cup again."""
    dim = u.shape[0]
    delta = make_delta(dim.bit_length() - 1)
    acted = (u @ delta.reshape(dim, dim)).reshape(-1)
    return complex(np.vdot(delta, acted))


def contract_functional(m: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<M| = sum M[a,b] <a|<b| paired against the first two registers of
    psi (x) delta, with psi (x) delta built as a three-index array."""
    dim = m.shape[0]
    full = np.einsum("a,bc->abc", psi, np.eye(dim, dtype=complex))
    return np.einsum("ab,abc->c", m, full)


def t_unitary(alpha: tuple[int, ...], beta: tuple[int, ...]) -> np.ndarray:
    """T_ab = T_(a1 b1) (x) ... (x) T_(an bn) over the modified Paulis."""
    t = np.array([[1.0 + 0j]])
    for a, b in zip(alpha, beta):
        t = np.kron(t, T_PAIR[(a, b)])
    return t


def teleport_all_branches(
    u: np.ndarray, psi: np.ndarray, seed: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Teleportation that computes every one of the 4^n branches and
    their Born weights, checks the weights sum to 1, and samples an
    outcome by those weights before correcting the drawn branch."""
    dim = u.shape[0]
    n = dim.bit_length() - 1
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    psi = psi / np.linalg.norm(psi)
    outcomes = list(product((0, 1), repeat=2 * n))
    outs = []
    born = []
    for bits in outcomes:
        w = t_unitary(bits[:n], bits[n:]) @ u
        out = w.T @ psi
        outs.append(out)
        born.append(float(np.vdot(out, out).real) / dim**2)
    total = float(sum(born))
    assert abs(total - 1.0) <= 1e-12, total
    rng = np.random.default_rng(seed)
    k = int(rng.choice(len(outcomes), p=np.array(born) / total))
    bits = outcomes[k]
    w = t_unitary(bits[:n], bits[n:]) @ u
    correction = u @ np.linalg.inv(w.T)
    received = correction @ outs[k]
    return received / np.linalg.norm(received), bits
