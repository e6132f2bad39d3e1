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


def test_numerical_rank_rejects_non_finite_entries():
    """A NaN or infinite entry would otherwise end the elimination at once
    and read as rank 0."""
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="not finite"):
            linalg.numerical_rank(m)


def test_numerical_rank_checks_rel_tol_on_empty_matrices():
    for m in (np.zeros((0, 3)), np.zeros((3, 0)), np.eye(2)):
        with pytest.raises(ValueError, match="rel_tol"):
            linalg.numerical_rank(m, rel_tol=-1)


def test_numerical_rank_rejects_non_finite_rel_tol():
    """A NaN rel_tol made the cutoff NaN, so no pivot counted and the rank
    read 0; an infinite one does the same."""
    for rel_tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="rel_tol"):
            linalg.numerical_rank(np.eye(2), rel_tol=rel_tol)


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
        assert linalg.numerical_rank(a.astype(float)) == linalg.exact_rank(a)


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
    # rows scaled to integers keep this exact where floats could waffle
    assert linalg.exact_rank(np.array([[0.5, 0.25], [0.25, 0.125]])) == 1
    assert linalg.exact_rank(np.eye(3, dtype=bool)) == 3
    # entries of the eliminated rows outgrow int64: Python ints hold them
    assert linalg.exact_rank(np.array([[2**62, 1], [1, 2**62]])) == 2


def test_exact_rank_binary_validates_entries():
    # the exact rank of a 0/1 target is taken by dr_obstruction_check, which
    # rejects any other entry before exact_rank sees the matrix
    from kgmix.theory import dr_obstruction_check
    for bad in ([[0, 2]], [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="0 or 1"):
            dr_obstruction_check(np.array(bad), 1)


def _random_exact_matrix(rng, kind):
    n, m = (int(x) for x in rng.integers(0, 9, size=2))
    if kind == "int":
        a = rng.integers(-3, 4, size=(n, m))
    elif kind == "binary":
        a = rng.integers(0, 2, size=(n, m))
    else:  # dyadic rationals, exact in float64
        a = rng.integers(-8, 9, size=(n, m)) / 2.0 ** rng.integers(0, 6, size=(n, m))
    if n and m and rng.random() < 0.4:  # low rank, the case elimination can get wrong
        r = int(rng.integers(1, min(n, m) + 1))
        a = a[:, :r] @ rng.integers(-2, 3, size=(r, m))
    return a


def test_exact_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")

    def oracle(a):
        cells = [sympy.Rational(*x.as_integer_ratio()) for x in a.ravel().tolist()]
        m = sympy.Matrix(*a.shape, cells)
        # Matrix.rank did not finish a 64 x 64 0/1 matrix in 100 s; its
        # DomainMatrix form takes the same exact rank in under a second
        return m.rank() if a.size <= 400 else m.to_DM().rank()

    rng = np.random.default_rng(2025)
    cases = [_random_exact_matrix(rng, kind) for _ in range(70)
             for kind in ("int", "binary", "dyadic")]
    cases += [np.zeros((0, 5), np.int64), np.zeros((5, 0)), np.ones((12, 3), np.int64),
              rng.integers(0, 2, size=(3, 12)), rng.integers(0, 2, size=(64, 64)),
              np.tile(rng.integers(-3, 4, size=(8, 64)), (8, 1))]
    assert len(cases) >= 200 and max(a.size for a in cases) == linalg.EXACT_RANK_CELL_CAP
    for a in cases:
        assert linalg.exact_rank(a) == oracle(a), a


def test_exact_rank_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ValueError, match=r"entry \(1, 2\) is not finite"):
            linalg.exact_rank(m)


def test_exact_rank_cell_cap():
    with pytest.raises(ValueError):
        linalg.exact_rank(np.zeros((70, 70)))
