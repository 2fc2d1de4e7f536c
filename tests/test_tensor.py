import numpy as np
import pytest
from hypothesis import given, strategies as st

from braidgate.tensor import (
    as_matrix,
    dagger,
    equal_up_to_phase,
    is_unitary,
    kron,
    matrix_from_json,
    matrix_to_json,
    max_norm,
    partial_trace_last,
    residual,
)

seeds = st.integers(0, 2**32 - 1)


def _rand(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0], [0, 1]]))


def test_kron_index_convention():
    """kron(a, b)[(i*db+k), (j*db+l)] = a[i,j] * b[k,l]."""
    rng = np.random.default_rng(0)
    a, b = _rand(rng, 2), _rand(rng, 3)
    k = kron(a, b)
    assert k.shape == (6, 6)
    for i in range(2):
        for j in range(2):
            for p in range(3):
                for q in range(3):
                    # not ``==``: numpy may round the complex product differently
                    assert abs(k[3 * i + p, 3 * j + q] - a[i, j] * b[p, q]) < 1e-14


@given(seeds)
def test_kron_associative(seed):
    rng = np.random.default_rng(seed)
    a, b, c = _rand(rng, 2), _rand(rng, 2), _rand(rng, 2)
    assert residual(kron(kron(a, b), c), kron(a, kron(b, c))) < 1e-10


@given(seeds)
def test_kron_mixed_product(seed):
    """(a kron b)(c kron d) = ac kron bd."""
    rng = np.random.default_rng(seed)
    a, b, c, d = (_rand(rng, 2) for _ in range(4))
    assert residual(kron(a, b) @ kron(c, d), kron(a @ c, b @ d)) < 1e-10


@given(seeds)
def test_partial_trace_of_kron(seed):
    """Tracing out the second factor of a kron b gives trace(b) * a."""
    rng = np.random.default_rng(seed)
    a, b = _rand(rng, 2), _rand(rng, 2)
    assert residual(partial_trace_last(kron(a, b), 2), np.trace(b) * a) < 1e-10


def test_partial_trace_dimension_check():
    with pytest.raises(ValueError):
        partial_trace_last(np.eye(4), 3)


def test_dagger():
    a = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert residual(dagger(a), np.array([[1, 3], [-2j, 4]])) == 0.0
    assert residual(dagger(dagger(a)), a) == 0.0


def test_max_norm():
    assert max_norm(np.array([])) == 0.0
    assert max_norm(np.array([[1, -3j], [2, 0]])) == 3.0


def test_is_unitary():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert is_unitary(h, eps=1e-12)
    assert not is_unitary(np.diag([1.0, 2.0]), eps=1e-12)


@given(seeds, st.floats(0, 2 * np.pi))
def test_equal_up_to_phase_fits_the_phase(seed, angle):
    rng = np.random.default_rng(seed)
    a = _rand(rng, 3)
    same, lam = equal_up_to_phase(np.exp(1j * angle) * a, a, eps=1e-9)
    assert same
    assert abs(lam - np.exp(1j * angle)) < 1e-6


def test_equal_up_to_phase_rejects_rescaling():
    a = np.eye(3, dtype=complex)
    same, _ = equal_up_to_phase(2 * a, a, eps=1e-9)
    assert not same


def test_equal_up_to_phase_zero_matrices():
    z = np.zeros((2, 2), dtype=complex)
    same, lam = equal_up_to_phase(z, z)
    assert same and lam == 1
    same, _ = equal_up_to_phase(np.eye(2, dtype=complex), z)
    assert not same


def test_equal_up_to_phase_vectors():
    v = np.array([1.0, 1j, -2.0])
    same, lam = equal_up_to_phase(1j * v, v)
    assert same and abs(lam - 1j) < 1e-12
    with pytest.raises(ValueError):
        equal_up_to_phase(v, v[:2])


def test_matrix_json_round_trip():
    rng = np.random.default_rng(5)
    a = _rand(rng, 4)
    obj = matrix_to_json(a)
    assert obj["dim"] == 4 and len(obj["entries"]) == 16
    assert residual(matrix_from_json(obj), a) < 1e-15


def test_matrix_from_json_length_check():
    with pytest.raises(ValueError):
        matrix_from_json({"dim": 2, "entries": [[1.0, 0.0]] * 3})


@pytest.mark.parametrize(
    "dim, count", [(0, 0), (2.5, 4), (True, 1), ("4", 16), (-1, 1), (4.0, 16)]
)
def test_matrix_from_json_rejects_a_dim_that_is_not_a_positive_int(dim, count):
    """A dim that int() would coerce (2.5 -> 2, true -> 1, "4" -> 4) or that
    names an empty matrix is refused, whatever the entries."""
    with pytest.raises(ValueError):
        matrix_from_json({"dim": dim, "entries": [[1.0, 0.0]] * count})
