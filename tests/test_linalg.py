"""Kernel tests: every routine is checked against a naive reference."""
import numpy as np
import pytest

from kgmix import linalg


def test_as_matrix_rejects_other_ranks():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        linalg.as_matrix(np.ones((2, 2, 2)))


def test_numerical_rank_trivials():
    assert linalg.numerical_rank(np.zeros((4, 5))) == 0
    assert linalg.numerical_rank(np.eye(7)) == 7
    v = np.arange(1.0, 5.0)[:, None]
    assert linalg.numerical_rank(v @ v.T) == 1
    assert linalg.numerical_rank(np.zeros((0, 3))) == 0


def test_numerical_rank_tolerance_cut():
    m = np.diag([1.0, 1e-3, 1e-12])
    assert linalg.numerical_rank(m) == 2  # default rel_tol 1e-8
    assert linalg.numerical_rank(m, rel_tol=1e-15) == 3
    assert linalg.numerical_rank(m, rel_tol=1e-2) == 1


def test_numerical_rank_matches_exact_on_random_binary():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        m = int(rng.integers(1, 11))
        a = (rng.random((n, m)) < 0.4).astype(np.int64)
        assert linalg.numerical_rank(a.astype(float)) == linalg.exact_rank_binary(a)


def test_numerical_rank_low_rank_products():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        h = rng.standard_normal((12, d))
        e = rng.standard_normal((9, d))
        assert linalg.numerical_rank(h @ e.T) == d


def test_exact_rank_values():
    assert linalg.exact_rank(np.eye(4, dtype=np.int64)) == 4
    assert linalg.exact_rank(np.array([[1, 2], [2, 4]])) == 1
    assert linalg.exact_rank(np.array([[0, 0], [0, 0]])) == 0
    # fractions keep this exact where floats could waffle
    assert linalg.exact_rank(np.array([[0.5, 0.25], [0.25, 0.125]])) == 1


def test_exact_rank_binary_validates_entries():
    with pytest.raises(ValueError):
        linalg.exact_rank_binary(np.array([[0, 2]]))
    with pytest.raises(ValueError):
        linalg.exact_rank_binary(np.array([[0.5, 1.0]]))


def test_exact_rank_cell_cap():
    with pytest.raises(ValueError):
        linalg.exact_rank(np.zeros((70, 70)))
