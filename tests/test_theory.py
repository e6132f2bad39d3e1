"""Sign decompositions, feasible sign/ranking enumeration, and rank
obstructions, each checked against frozen worked examples, closed-form
chamber counts, or an independent symbolic oracle."""
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from kgmix import theory
from kgmix.mos import head_log_probs, init_mos, mixture_states
from kgmix.autodiff import Tape
from kgmix.theory import (
    MAX_RANKING_DIM,
    MAX_RANKING_ROWS,
    MAX_SIGN_ROWS,
    RowSignPoly,
    check_general_position_rankings,
    check_general_position_signs,
    dr_obstruction_check,
    enumerate_feasible_rankings,
    enumerate_feasible_signs,
    feasible_ordering_bound,
    feasible_sign_bound,
    logprob_rank_probe,
    random_adjacency,
    sign_decompose,
    verify_sign_decomposition,
)

# ---- sign decomposition ----


def test_sign_decompose_worked_example():
    """Row (0,0,1,0,1,0): two isolated neighbor columns at grid points 3
    and 5, roots straddling each at distance 1/2, overall minus sign."""
    adj = np.array([[0, 0, 1, 0, 1, 0]])
    dec = sign_decompose(adj, epsilon=Fraction(1, 2))
    assert dec.degree_cap == 2 and dec.width == 5
    row = dec.rows[0]
    assert row.sigma == -1
    assert row.roots == [
        Fraction(5, 2), Fraction(7, 2), Fraction(9, 2), Fraction(11, 2)
    ]
    values = [row.eval_float(t) for t in range(1, 7)]
    assert values == pytest.approx(
        [-59.0625, -6.5625, 0.9375, -0.5625, 0.9375, -6.5625], abs=1e-12
    )
    ver = verify_sign_decomposition(adj, dec)
    assert ver.ok and ver.rational_checked
    assert ver.min_margin == pytest.approx(0.5625, abs=1e-12)
    assert ver.mismatches == []


def test_sign_decompose_merges_consecutive_columns():
    adj = np.array([[0, 1, 1, 1, 0]])
    merged = sign_decompose(adj, Fraction(1, 2))
    assert merged.rows[0].roots == [Fraction(3, 2), Fraction(9, 2)]
    split = sign_decompose(adj, Fraction(1, 2), merge_blocks=False)
    assert len(split.rows[0].roots) == 6  # one root pair per column
    for dec in (merged, split):
        assert verify_sign_decomposition(adj, dec).ok
        assert dec.width == 2 * 3 + 1


def test_sign_decompose_constant_rows():
    adj = np.array([[0, 0, 0], [1, 1, 1], [1, 0, 1]])
    dec = sign_decompose(adj)
    assert dec.rows[0].sigma == -1 and dec.rows[0].roots == []
    assert dec.rows[1].sigma == 1 and dec.rows[1].roots == []
    assert verify_sign_decomposition(adj, dec).ok
    assert np.array_equal(dec.sign_matrix(), 2 * adj - 1)


def test_sign_decompose_row_degree_never_exceeds_2c():
    rng = np.random.default_rng(0)
    adj = random_adjacency(8, 9, 4, rng)
    dec = sign_decompose(adj)
    c = int(adj.sum(axis=1).max())
    assert dec.degree_cap == c
    assert all(len(r.roots) <= 2 * c for r in dec.rows)
    assert dec.width == 2 * c + 1


def test_coefficient_matrix_reproduces_factored_values():
    """X @ V^T, with V the grid v[t - 1, j] = t**j, must equal the factored
    evaluations, so the decomposition really is a rank-(2c+1)
    factorization of the sign pattern."""
    adj = np.array([[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 0, 0]])
    dec = sign_decompose(adj)
    x = np.array(dec.coefficient_matrix_exact(), dtype=np.float64)
    v = np.arange(1.0, 5.0)[:, None] ** np.arange(dec.width)
    z = x @ v.T
    for i, row in enumerate(dec.rows):
        want = [row.eval_float(t) for t in range(1, 5)]
        assert z[i] == pytest.approx(want, abs=1e-9)
    assert np.array_equal(np.sign(z).astype(np.int64), 2 * adj - 1)


def test_row_poly_coefficients_closed_form():
    # -(t - 1/2)(t - 3/2) = -3/4 + 2t - t^2
    poly = RowSignPoly(sigma=-1, roots=[Fraction(1, 2), Fraction(3, 2)])
    assert poly.coefficients(3) == [Fraction(-3, 4), Fraction(2), Fraction(-1)]
    assert poly.coefficients(5)[3:] == [Fraction(0), Fraction(0)]
    with pytest.raises(ValueError, match="width"):
        poly.coefficients(2)
    # p(1) = -(1/2)(-1/2) = 1/4, the sum of the coefficients
    assert sum(poly.coefficients(3)) == Fraction(1, 4)
    assert poly.eval_float(1.0) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("epsilon", [Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)])
@pytest.mark.parametrize("merge", [True, False])
def test_sign_decompose_random_adjacencies(epsilon, merge):
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        adj = random_adjacency(n, m, int(rng.integers(0, 5)), rng)
        dec = sign_decompose(adj, epsilon, merge_blocks=merge)
        ver = verify_sign_decomposition(adj, dec)
        assert ver.ok and ver.rational_checked, (adj, ver.mismatches)
        assert ver.min_margin > 0


def test_verify_detects_tampering():
    adj = np.array([[0, 1, 0]])
    dec = sign_decompose(adj)
    dec.rows[0].roots[0] += 2  # move a root past the neighbor column
    ver = verify_sign_decomposition(adj, dec)
    assert not ver.ok and ver.mismatches


# ---- the vectorized float pass and the integer check against scalar loops ----


def _loop_coefficients(poly, width):
    """Dense Fraction coefficients, one root at a time (low degree first)."""
    coeffs = [Fraction(poly.sigma)]
    for r in poly.roots:
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= c * r
        coeffs = nxt
    if len(coeffs) > width:
        raise ValueError("polynomial degree exceeds the requested width")
    return coeffs + [Fraction(0)] * (width - len(coeffs))


def _loop_verify(adj, dec, rational):
    """The per-cell reference: eval_float at every cell, then the dense
    Fraction coefficients evaluated at every cell.  Returns (ok, min_margin,
    mismatches)."""
    target = 2 * np.asarray(adj) - 1
    mismatches = []
    min_margin = math.inf
    for i, row in enumerate(dec.rows):
        for t in range(1, dec.n_cols + 1):
            v = row.eval_float(t)
            min_margin = min(min_margin, abs(v))
            if (1 if v > 0 else (-1 if v < 0 else 0)) != target[i, t - 1]:
                mismatches.append((i, t - 1))
    if rational:
        for i, row in enumerate(dec.rows):
            coeffs = _loop_coefficients(row, dec.width)
            for t in range(1, dec.n_cols + 1):
                acc, power = Fraction(0), Fraction(1)
                for cf in coeffs:
                    acc += cf * power
                    power *= t
                if (1 if acc > 0 else (-1 if acc < 0 else 0)) != target[i, t - 1]:
                    mismatches.append((i, t - 1))
    return not mismatches, min_margin, sorted(set(mismatches))


def _loop_sign_matrix(dec):
    return np.array(
        [[1 if row.eval_float(t) > 0 else -1 for t in range(1, dec.n_cols + 1)]
         for row in dec.rows],
        dtype=np.int64,
    ).reshape(len(dec.rows), dec.n_cols)


def _float_only(adj, dec, monkeypatch):
    """verify_sign_decomposition with its exact check cut off by a cap of
    zero cells: the vectorized float pass alone."""
    with monkeypatch.context() as m:
        m.setattr(theory, "RATIONAL_CHECK_CELL_CAP", 0)
        ver = verify_sign_decomposition(adj, dec)
    assert not ver.rational_checked
    return ver


def _assert_matches_loops(adj, dec):
    ver = verify_sign_decomposition(adj, dec)
    ok, margin, mismatches = _loop_verify(adj, dec, rational=True)
    assert ver.rational_checked
    assert ver.ok == ok
    assert ver.mismatches == mismatches
    assert ver.min_margin == margin  # bitwise, not approximately
    assert np.array_equal(dec.sign_matrix(), _loop_sign_matrix(dec))
    assert dec.coefficient_matrix_exact() == [
        _loop_coefficients(row, dec.width) for row in dec.rows
    ]
    return ver


@pytest.mark.parametrize(
    "epsilon", [Fraction(1, 2), Fraction(1, 3), Fraction(9, 10), Fraction(2, 7)]
)
@pytest.mark.parametrize("merge", [True, False])
def test_verify_matches_scalar_loops(epsilon, merge):
    rng = np.random.default_rng(31)
    for _ in range(40):
        n, m = int(rng.integers(1, 10)), int(rng.integers(1, 13))
        adj = random_adjacency(n, m, int(rng.integers(0, 6)), rng)
        adj[0] = 1  # one constant +1 row and, below, one constant -1 row
        if n > 1:
            adj[-1] = 0
        dec = sign_decompose(adj, epsilon, merge_blocks=merge)
        ver = _assert_matches_loops(adj, dec)
        assert ver.ok and ver.min_margin > 0


@pytest.mark.parametrize(
    "epsilon", [Fraction(1, 2), Fraction(1, 3), Fraction(9, 10), Fraction(2, 7)]
)
def test_tampered_roots_are_flagged_by_both_branches(epsilon, monkeypatch):
    rng = np.random.default_rng(5)
    flagged = 0
    for _ in range(30):
        adj = random_adjacency(int(rng.integers(1, 7)), int(rng.integers(3, 12)), 4, rng)
        dec = sign_decompose(adj, epsilon)
        i = int(np.flatnonzero([bool(r.roots) for r in dec.rows] + [True])[0])
        if i == len(dec.rows):
            continue
        # push the block's right root left past its own column: that
        # column's sign flips, whatever branch evaluates it
        row = dec.rows[i]
        lo = row.roots[0] + epsilon
        row.roots[1] = lo - Fraction(1, 5)
        float_only = _float_only(adj, dec, monkeypatch)
        assert (i, int(lo) - 1) in float_only.mismatches
        ver = _assert_matches_loops(adj, dec)
        assert not ver.ok and (i, int(lo) - 1) in ver.mismatches
        flagged += 1
    assert flagged >= 20


def test_exact_branch_flags_what_the_float_pass_misses():
    """A float value of the wrong sign cannot hide from the integer
    check: a root exactly on a grid point makes the exact value 0."""
    adj = np.array([[0, 1, 0, 0]])
    dec = sign_decompose(adj)
    dec.rows[0].roots[0] = Fraction(2)  # p(2) = 0 exactly
    ver = _assert_matches_loops(adj, dec)
    assert ver.mismatches == [(0, 1)]
    assert ver.min_margin == 0.0


def test_exact_check_flags_a_wrong_coefficient_row(monkeypatch):
    """Integer coefficients that disagree with the row's roots pass the
    float pass, which reads the roots; the exact product flags exactly the
    cells where the coefficients take the wrong sign."""
    adj = np.array([[0, 1, 0, 0, 1, 0, 0], [1, 0, 0, 1, 1, 0, 0], [0, 0, 1, 0, 0, 0, 1]])
    dec = sign_decompose(adj)
    assert dec.rows[1].roots == [Fraction(1, 2), Fraction(3, 2), Fraction(7, 2), Fraction(11, 2)]
    # the block [4, 5] shrunk to [5, 5]: negative at t = 4 only
    wrong = RowSignPoly(sigma=-1, roots=[
        Fraction(1, 2), Fraction(3, 2), Fraction(9, 2), Fraction(11, 2)
    ]).integer_coefficients(dec.width)
    monkeypatch.setattr(dec.rows[1], "integer_coefficients", lambda width: wrong)
    assert _float_only(adj, dec, monkeypatch).ok
    ver = verify_sign_decomposition(adj, dec)
    assert ver.rational_checked and not ver.ok
    assert ver.mismatches == [(1, 3)]


def test_integer_coefficients_with_mixed_denominators():
    # roots over 2, 3, 5 and 4, one pair around each of t = 1 and t = 3: q = 60
    poly = RowSignPoly(sigma=-1, roots=[
        Fraction(1, 2), Fraction(4, 3), Fraction(14, 5), Fraction(13, 4)
    ])
    coeffs, scale = poly.integer_coefficients(6)
    assert scale == 60**4
    assert all(type(c) is int for c in coeffs) and coeffs[5] == 0
    assert poly.coefficients(6) == _loop_coefficients(poly, 6)
    for t in range(-3, 8):
        value = sum(c * t**k for k, c in enumerate(coeffs))
        assert Fraction(value, scale) == poly.sigma * math.prod(
            Fraction(t) - r for r in poly.roots
        )
    dec = theory.SignDecomposition(
        n_rows=1, n_cols=6, degree_cap=2, epsilon=Fraction(1, 2), rows=[poly]
    )
    ver = _assert_matches_loops(np.array([[1, 0, 1, 0, 0, 0]]), dec)
    assert ver.ok


def test_degree_above_width_still_raises(monkeypatch):
    adj = np.array([[0, 1, 0, 0, 0]])
    dec = sign_decompose(adj)
    dec.rows[0].roots += [Fraction(7, 2), Fraction(9, 2)]  # degree 4, width 3
    with pytest.raises(ValueError, match="width"):
        dec.coefficient_matrix_exact()
    with pytest.raises(ValueError, match="width"):
        verify_sign_decomposition(adj, dec)
    # the float pass alone needs no dense form
    float_only = _float_only(adj, dec, monkeypatch)
    ok, margin, mismatches = _loop_verify(adj, dec, rational=False)
    assert (float_only.ok, float_only.min_margin, float_only.mismatches) == (ok, margin, mismatches)


def test_verify_rejects_a_row_count_other_than_n_rows():
    adj = np.array([[0, 1], [1, 0]])
    dec = sign_decompose(adj)
    dec.rows.pop()
    with pytest.raises(ValueError, match="shape"):
        verify_sign_decomposition(adj, dec)


def test_verify_and_sign_matrix_scale_to_the_cli_cap():
    """130 x 15,000 cells, under the CLI's DECOMPOSE_CELL_CAP; the scalar
    loops took over 20 s each here."""
    from kgmix.cli import DECOMPOSE_CELL_CAP

    adj = random_adjacency(130, 15_000, 20, np.random.default_rng(0))
    assert adj.size <= DECOMPOSE_CELL_CAP
    dec = sign_decompose(adj)
    t0 = time.perf_counter()
    ver = verify_sign_decomposition(adj, dec)
    t1 = time.perf_counter()
    signs = dec.sign_matrix()
    t2 = time.perf_counter()
    assert ver.ok and not ver.rational_checked and ver.min_margin > 0
    assert np.array_equal(signs, 2 * adj - 1)
    assert t1 - t0 < 5.0, f"verify took {t1 - t0:.1f} s"
    assert t2 - t1 < 5.0, f"sign_matrix took {t2 - t1:.1f} s"


def test_sign_decompose_validation():
    with pytest.raises(ValueError, match="0 or 1"):
        sign_decompose(np.array([[0, 2]]))
    with pytest.raises(ValueError, match="2-D"):
        sign_decompose(np.array([0, 1]))
    for eps in (0, 1, Fraction(-1, 2), Fraction(3, 2)):
        with pytest.raises(ValueError, match="epsilon"):
            sign_decompose(np.array([[1, 0]]), eps)
    dec = sign_decompose(np.array([[1, 0]]))
    with pytest.raises(ValueError, match="shape"):
        verify_sign_decomposition(np.array([[1, 0, 0]]), dec)


def test_random_adjacency_respects_caps():
    rng = np.random.default_rng(3)
    adj = random_adjacency(20, 11, 3, rng)
    assert adj.shape == (20, 11)
    assert set(np.unique(adj)) <= {0, 1}
    assert adj.sum(axis=1).max() <= 3
    same = random_adjacency(20, 11, 3, np.random.default_rng(3))
    assert np.array_equal(adj, same)
    with pytest.raises(ValueError):
        random_adjacency(0, 3, 2, rng)
    with pytest.raises(ValueError):
        random_adjacency(3, 3, -1, rng)


# ---- feasible sign bound ----


def test_feasible_sign_bound_values():
    assert feasible_sign_bound(4, 2) == 8
    assert feasible_sign_bound(3, 1) == 2
    assert feasible_sign_bound(1, 1) == 2
    assert feasible_sign_bound(6, 2) == 12
    assert feasible_sign_bound(5, 5) == 32  # saturated: every pattern
    assert feasible_sign_bound(5, 9) == 32
    for n in range(1, 8):
        assert feasible_sign_bound(n, n) == 2**n
        for d in range(1, n):
            assert feasible_sign_bound(n, d) < 2**n
            assert feasible_sign_bound(n, d) <= feasible_sign_bound(n, d + 1)
    with pytest.raises(ValueError):
        feasible_sign_bound(0, 1)
    with pytest.raises(ValueError):
        feasible_sign_bound(3, 0)


def test_feasible_ordering_bound_values():
    """Cover 1967 against the counts the enumerators reach."""
    for (n, d), want in {(4, 2): 12, (5, 2): 20, (5, 3): 72, (6, 2): 30,
                         (6, 3): 172, (7, 2): 42, (7, 3): 352}.items():
        assert feasible_ordering_bound(n, d) == want, (n, d)
    for n in range(1, 9):
        assert feasible_ordering_bound(n, 1) == min(n, 2)  # a line: 2 ways
        for d in range(max(n - 1, 1), n + 4):
            assert feasible_ordering_bound(n, d) == math.factorial(n), (n, d)
    with pytest.raises(ValueError):
        feasible_ordering_bound(0, 1)
    with pytest.raises(ValueError):
        feasible_ordering_bound(3, 0)


# ---- sign enumeration ----


def test_enumerate_signs_dim1():
    enum = enumerate_feasible_signs(np.array([[1.0], [2.0], [-3.0]]))
    assert enum.patterns == [(-1, -1, 1), (1, 1, -1)]
    assert enum.count == enum.bound == 2


def test_enumerate_signs_counts_match_bound():
    """Rows in general position realize exactly the closed-form count."""
    rng = np.random.default_rng(42)
    for n, d in [(4, 2), (5, 2), (5, 3), (6, 3), (6, 2), (3, 3), (2, 3)]:
        e = rng.standard_normal((n, d))
        enum = enumerate_feasible_signs(e)
        assert enum.count == enum.bound == feasible_sign_bound(n, d), (n, d)


def test_enumerate_signs_witnesses_certify():
    rng = np.random.default_rng(1)
    e = rng.standard_normal((5, 2))
    enum = enumerate_feasible_signs(e)
    for pattern, h in enum.witnesses.items():
        s = e @ h
        assert (np.abs(s) > 0).all()
        assert tuple(1 if x > 0 else -1 for x in s) == pattern


def test_enumerate_signs_patterns_come_in_antipodal_pairs():
    rng = np.random.default_rng(2)
    e = rng.standard_normal((6, 3))
    enum = enumerate_feasible_signs(e)
    have = set(enum.patterns)
    for p in enum.patterns:
        assert tuple(-x for x in p) in have


def test_enumerate_signs_rejects_degenerate_rows():
    with pytest.raises(ValueError, match="zero row"):
        enumerate_feasible_signs(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="coincident"):
        enumerate_feasible_signs(np.array([[1.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(ValueError, match="coincident"):
        enumerate_feasible_signs(np.array([[1.0, 1.0], [-3.0, -3.0]]))
    e = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                  [0.3, 0.4, 1.0]])
    with pytest.raises(ValueError, match=r"rows \(0, 1, 2\) are numerically dependent"):
        enumerate_feasible_signs(e)  # rows 0, 1, 2 are coplanar


def _with_entry(value):
    e = np.random.default_rng(1).standard_normal((5, 3))
    e[2, 1] = value
    return e


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_enumerate_signs_rejects_non_finite_rows(bad):
    with pytest.raises(ValueError, match="sign enumeration: row 2 is not finite"):
        enumerate_feasible_signs(_with_entry(bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_enumerate_rankings_rejects_non_finite_rows(bad):
    """An infinite entry used to surface as dependent difference vectors."""
    with pytest.raises(ValueError, match="ranking enumeration: row 2 is not finite"):
        enumerate_feasible_rankings(_with_entry(bad))


def test_enumerators_reject_empty_shapes():
    for enumerate_ in (enumerate_feasible_signs, enumerate_feasible_rankings):
        for shape in ((0, 2), (3, 0), (0, 0)):
            with pytest.raises(ValueError, match="need n >= 1 and d >= 1"):
                enumerate_(np.zeros(shape))


def test_enumerate_signs_row_cap():
    e = np.random.default_rng(0).standard_normal((MAX_SIGN_ROWS + 1, 2))
    with pytest.raises(ValueError, match="capped"):
        enumerate_feasible_signs(e)


def test_check_general_position_signs_accepts_generic():
    rng = np.random.default_rng(9)
    check_general_position_signs(rng.standard_normal((8, 3)))


def test_check_general_position_signs_rejects_zero_rows():
    with pytest.raises(ValueError, match="sign enumeration: needs at least one row"):
        check_general_position_signs(np.zeros((0, 3)))


# ---- ranking enumeration ----


def test_enumerate_rankings_dim1():
    e = np.array([[2.0], [-1.0], [5.0]])
    enum = enumerate_feasible_rankings(e)
    # one direction sorts by value, the other reverses it
    assert enum.rankings == [(1, 0, 2), (2, 0, 1)]
    assert enum.count == 2


def test_enumerate_rankings_witnesses_certify():
    rng = np.random.default_rng(4)
    e = rng.standard_normal((4, 2))
    enum = enumerate_feasible_rankings(e)
    for perm, h in enum.witnesses.items():
        scores = e @ h
        assert tuple(np.argsort(-scores)) == perm
        assert len(set(np.round(scores, 12))) == len(scores)  # strict order


def test_enumerate_rankings_plane_counts():
    """In the plane the pairwise-difference arrangement has one line per
    pair, so exactly n(n-1) of the n! orderings are feasible."""
    rng = np.random.default_rng(42)
    for n in (3, 4, 5):
        e = rng.standard_normal((n, 2))
        enum = enumerate_feasible_rankings(e)
        assert enum.count == n * (n - 1), n


def test_enumerate_rankings_reversal_closure():
    rng = np.random.default_rng(5)
    e = rng.standard_normal((5, 2))
    enum = enumerate_feasible_rankings(e)
    have = set(enum.rankings)
    for perm in enum.rankings:
        assert perm[::-1] in have  # negate the witness direction


def test_enumerate_rankings_saturates_in_high_dim():
    rng = np.random.default_rng(6)
    e = rng.standard_normal((4, 3))
    enum = enumerate_feasible_rankings(e)
    assert enum.count <= 24
    e3 = rng.standard_normal((3, 3))
    assert enumerate_feasible_rankings(e3).count == 6  # all of 3!


def test_enumerate_rankings_rejects_degenerate():
    with pytest.raises(ValueError, match="coincide"):
        enumerate_feasible_rankings(np.array([[1.0, 2.0], [1.0, 2.0]]))
    # equally spaced collinear rows give parallel difference vectors
    e = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match=r"\[\(0, 1\), \(0, 2\)\] are numerically dependent"):
        enumerate_feasible_rankings(e)


def test_enumerate_rankings_caps():
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="capped"):
        enumerate_feasible_rankings(rng.standard_normal((MAX_RANKING_ROWS + 1, 2)))
    with pytest.raises(ValueError, match="capped"):
        enumerate_feasible_rankings(rng.standard_normal((3, MAX_RANKING_DIM + 1)))


def test_check_general_position_rankings_accepts_generic():
    rng = np.random.default_rng(8)
    check_general_position_rankings(rng.standard_normal((5, 3)))


def test_check_general_position_rankings_rejects_zero_rows():
    with pytest.raises(ValueError, match="ranking enumeration: needs at least one row"):
        check_general_position_rankings(np.zeros((0, 3)))


def test_counts_equal_closed_forms_on_random_instances():
    """Both enumerators raise RuntimeError unless their count equals the
    closed form; the counts and strict witnesses are checked here too."""
    rng = np.random.default_rng(11)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        e = rng.standard_normal((n, d))
        enum = enumerate_feasible_signs(e)
        assert enum.count == enum.bound == feasible_sign_bound(n, d), (n, d)
        assert _signs_certified(e, enum)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 3))
        e = rng.standard_normal((n, d))
        renum = enumerate_feasible_rankings(e)
        assert renum.count == feasible_ordering_bound(n, d), (n, d)
        assert _rankings_certified(e, renum)


def _signs_certified(e, enum):
    return all(((e @ enum.witnesses[p]) * np.array(p) > 0).all()
               for p in enum.patterns)


def _rankings_certified(e, enum):
    for perm in enum.rankings:
        s = (e @ enum.witnesses[perm])[list(perm)]
        if not (s[:-1] > s[1:]).all():
            return False
    return True


@pytest.mark.parametrize("kind, n, d, seed, want", [
    ("rankings", 5, 3, 11, 72),  # a thin chamber that direction sampling missed
    ("rankings", 6, 3, 0, 172),
    ("rankings", 7, 2, 0, 42),
    ("rankings", 7, 3, 0, 352),
    ("signs", 10, 3, 0, 92),
    ("signs", 16, 3, 0, 242),
    ("signs", 16, 8, 0, 32768),  # 2.9 million candidate points, deduplicated
])
def test_enumeration_regressions(kind, n, d, seed, want):
    e = np.random.default_rng(seed).standard_normal((n, d))
    t0 = time.perf_counter()
    if kind == "signs":
        enum = enumerate_feasible_signs(e)
        certified = _signs_certified(e, enum)
    else:
        enum = enumerate_feasible_rankings(e)
        certified = _rankings_certified(e, enum)
    assert time.perf_counter() - t0 < 5.0
    assert enum.count == want
    assert certified


def test_enumerate_rankings_single_row():
    for d in (1, 2, 3):
        enum = enumerate_feasible_rankings(np.ones((1, d)))
        assert enum.rankings == [(0,)]
        assert enum.witnesses[(0,)].shape == (d,)


def test_enumerations_are_deterministic():
    e = np.random.default_rng(3).standard_normal((6, 3))
    for fn in (enumerate_feasible_signs, enumerate_feasible_rankings):
        first, second = fn(e), fn(e)
        assert first.witnesses.keys() == second.witnesses.keys()
        for key, h in first.witnesses.items():
            assert np.array_equal(h, second.witnesses[key])


def test_chamber_points_on_a_non_generic_arrangement():
    """The 13 planes with normals in {-1, 0, 1}^3 meet up to four at a ray.
    A rank-3 arrangement has 2 (1 + sum over rays of (planes on it - 1))
    chambers (Zaslavsky); the rays come from exact integer cross products."""
    normals = np.array([v for v in itertools.product((-1, 0, 1), repeat=3)
                        if v > (0, 0, 0)])
    rays = {}
    for i, j in itertools.combinations(range(len(normals)), 2):
        c = np.cross(normals[i], normals[j])
        c //= np.gcd.reduce(np.abs(c))
        rays.setdefault(tuple(c) if tuple(c) > (0, 0, 0) else tuple(-c),
                        set()).update((i, j))
    assert max(len(on) for on in rays.values()) == 4
    want = 2 * (1 + sum(len(on) - 1 for on in rays.values()))
    unit = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    margins = theory._chamber_points(unit) @ unit.T
    assert (np.abs(margins) > 1e-6).all()
    assert len({tuple(row) for row in margins > 0}) == len(margins) == want


def _dict_chamber_points(a):
    """The per-point dictionary dedup that theory._chamber_points replaced,
    kept as the reference for the points and their order."""
    m, dim = a.shape
    if m == 0:
        return np.zeros((1, dim))
    tol = theory._ON_HYPERPLANE_TOL
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    r = int((sv > tol).sum())
    q = vt[:r]
    b = a @ q.T
    if r == 1:
        return np.array([[1.0], [-1.0]]) @ q
    if r == m:
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=r)))
        return signs @ np.linalg.inv(b).T @ q
    subsets = np.array(list(itertools.combinations(range(m), r - 1)))
    _, ssv, svt = np.linalg.svd(b[subsets])
    rays = svt[ssv[:, -1] > tol, -1]
    through = np.abs(rays @ b.T) <= tol
    _, first = np.unique(through, axis=0, return_index=True)
    points = {}
    for k in np.sort(first):
        v, on = rays[k], through[k]
        w = _dict_chamber_points(b[on])
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        step = 0.5 * np.abs(b[~on] @ v).min()
        y = np.concatenate([v + step * w, -v + step * w])
        for key, point in zip(np.packbits(y @ b.T > 0, axis=1), y):
            points.setdefault(key.tobytes(), point)
    return np.array(list(points.values())) @ q


@pytest.mark.parametrize("block", [None, 5])
def test_chamber_points_equal_the_per_point_dedup(monkeypatch, block):
    """Bitwise the same points in the same order, on generic, ranking and
    non-generic arrangements, also when deduplicated in small blocks."""
    if block is not None:
        monkeypatch.setattr(theory, "_DEDUP_BLOCK", block)
    rng = np.random.default_rng(5)
    cases = [rng.standard_normal(shape) for shape in ((6, 3), (9, 4), (11, 5), (7, 2))]
    e = rng.standard_normal((6, 3))
    i, j = np.triu_indices(6, 1)
    cases.append(e[i] - e[j])
    cases.append(np.array([v for v in itertools.product((-1, 0, 1), repeat=3)
                           if v > (0, 0, 0)], dtype=float))
    # four levels deep: rank-3 local arrangements that recurse into triangles
    e = rng.standard_normal((6, 4))
    cases.append(e[i] - e[j])
    for a in cases:
        a = a / np.linalg.norm(a, axis=1, keepdims=True)
        got, want = theory._chamber_points(a), _dict_chamber_points(a)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_sign_keys_dedup_like_the_rows():
    """One int64 key per (owner, sign row) picks the same first rows as
    the rows; keys that would not fit an int64 are refused."""
    rng = np.random.default_rng(5)
    owner = rng.integers(0, 3, 400)
    sign = rng.random((400, 5)) < 0.5
    sign[:, 3:] = sign[0, 3:]  # few distinct rows, so duplicates occur
    rows = {}
    for i, row in enumerate(zip(owner.tolist(), map(bytes, sign))):
        rows.setdefault(row, i)
    keys = theory._sign_keys(owner, sign, 3)
    assert theory._first_rows(keys).tolist() == sorted(rows.values())
    with pytest.raises(ValueError, match="overflow an int64 key"):
        theory._sign_keys(owner, sign, (1 << 58) + 1)


def test_enumerations_raise_below_the_closed_form(monkeypatch):
    """Chambers left without a point are reported, with both counts."""
    full = theory._chamber_points
    monkeypatch.setattr(theory, "_chamber_points", lambda a: full(a)[1:])
    e = np.random.default_rng(0).standard_normal((5, 2))
    with pytest.raises(RuntimeError, match=r"found \d+ .*, closed form 10 "):
        enumerate_feasible_signs(e)
    with pytest.raises(RuntimeError, match=r"found \d+ .*, closed form 20 "):
        enumerate_feasible_rankings(e)


# ---- rank obstructions ----


def test_dr_obstruction_identity():
    check = dr_obstruction_check(np.eye(5, dtype=int), dim=2)
    assert check.target_rank == 5
    assert check.capacity == 3
    assert check.excluded and check.verdict == "excluded"


def test_dr_obstruction_low_rank_target():
    check = dr_obstruction_check(np.ones((4, 4), dtype=int), dim=1)
    assert check.target_rank == 1
    assert not check.excluded and check.verdict == "not-excluded"


def test_dr_obstruction_boundary():
    # rank d+1 exactly is still representable: not excluded
    adj = np.eye(4, dtype=int)
    assert dr_obstruction_check(adj, dim=3).excluded is False
    assert dr_obstruction_check(adj, dim=2).excluded is True


def test_dr_obstruction_rank_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 8))
        adj = (rng.random((n, m)) < 0.4).astype(int)
        want = sympy.Matrix(adj.tolist()).rank()
        got = dr_obstruction_check(adj, dim=3).target_rank
        assert got == want, adj


def test_dr_obstruction_validation():
    with pytest.raises(ValueError, match="0 or 1"):
        dr_obstruction_check(np.array([[2]]), 1)
    with pytest.raises(ValueError, match="positive"):
        dr_obstruction_check(np.array([[1]]), 0)


# ---- log-probability rank probes ----


def _plain_logp(rng, b, n, d):
    h = rng.standard_normal((b, d))
    e = rng.standard_normal((n, d))
    z = h @ e.T
    return z - np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1,
                      keepdims=True)) - z.max(axis=1, keepdims=True), h, e


def _mixture_logp(mix, h, e):
    t = Tape()
    log_pi, states = mixture_states(mix, t.constant(h), t)
    return head_log_probs([s.value for s in states], e, log_pi.value)


def test_logprob_rank_probe_single_softmax_stays_within_capacity():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        logp, _, _ = _plain_logp(rng, 12, 9, 3)
        probe = logprob_rank_probe(logp, dim=3)
        assert probe.rank <= probe.capacity == 4
        assert probe.within_single_softmax
        assert probe.sigma_after_capacity <= 1e-12


def test_logprob_rank_probe_mixture_exceeds_capacity():
    d, n, b = 2, 8, 10
    rng = np.random.default_rng(0)
    h = rng.standard_normal((b, d))
    e = rng.standard_normal((n, d))
    mix = init_mos(4, d, np.random.default_rng(100))
    lp = _mixture_logp(mix, h, e)
    probe = logprob_rank_probe(lp, dim=d)
    assert probe.rank > probe.capacity
    assert not probe.within_single_softmax
    assert probe.sigma_after_capacity > 1e-6


def test_logprob_rank_probe_rejects_non_finite_entries():
    logp = np.log(np.full((8, 4), 0.25))
    logp[3, 0] = -np.inf
    with pytest.raises(ValueError, match="not finite"):
        logprob_rank_probe(logp, dim=2)


def test_logprob_rank_probe_needs_rows():
    with pytest.raises(ValueError, match="dim \\+ 3"):
        logprob_rank_probe(np.zeros((4, 6)), dim=2)


def test_logprob_rank_probe_rejects_non_positive_dim():
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dim must be positive"):
            logprob_rank_probe(np.zeros((2, 5)), dim=dim)


# ---- additive log-ratio view and spectrum ----


def test_alr_flattens_single_softmax_to_rank_d():
    """Log-ratios cancel the normalizer, leaving h . (e_j - e_ref): linear
    in the query state, so the centred log-ratio matrix has rank at most d."""
    rng = np.random.default_rng(21)
    d, n, b = 3, 10, 16
    logp, _, _ = _plain_logp(rng, b, n, d)
    assert logprob_rank_probe(logp, dim=d).centered_alr_rank <= d


def test_alr_mixture_exceeds_rank_d():
    d, n, b = 2, 8, 12
    rng = np.random.default_rng(3)
    h = rng.standard_normal((b, d))
    e = rng.standard_normal((n, d))
    mix = init_mos(4, d, np.random.default_rng(103))
    lp = _mixture_logp(mix, h, e)
    assert logprob_rank_probe(lp, dim=d).centered_alr_rank > d


def test_probe_reads_peaked_softmax_below_exp_range():
    """An entity table scaled x400 puts entries of L below -745, where exp
    underflows to 0; the log-ratios come from L itself, so the centred ALR
    rank is still d and the spectrum finite."""
    rng = np.random.default_rng(0)
    d, n, b = 2, 8, 12
    h = rng.standard_normal((b, d))
    z = h @ (400 * rng.standard_normal((n, d))).T
    top = z.max(axis=1, keepdims=True)
    logp = z - top - np.log(np.exp(z - top).sum(axis=1, keepdims=True))
    assert logp.min() < -745 and (np.exp(logp) == 0).any()
    probe = logprob_rank_probe(logp, dim=d)
    assert probe.centered_alr_rank == d
    assert probe.rank <= probe.capacity
    assert np.isfinite(probe.spectrum).all() and probe.spectrum[0] == 1.0
    assert np.all(np.diff(probe.spectrum) <= 0)


def test_probe_of_all_zero_logprobs_has_zero_spectrum():
    """One entity: every log-probability is 0, so sigma_1 = 0 and the
    spectrum stays 0 instead of 0 / 0."""
    probe = logprob_rank_probe(np.zeros((5, 1)), dim=2)
    assert probe.rank == probe.centered_alr_rank == 0
    assert probe.spectrum.tolist() == [0.0]
    assert probe.sigma_after_capacity is None
