"""Matrix rank, numeric and exact, for certifying rank claims.

Both routines take plain 2-D arrays: numerical_rank is a complete-pivoting
float elimination, exact_rank a fractions.Fraction elimination.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

# rows*cols limit for exact rational elimination; Fraction pivots grow fast
EXACT_RANK_CELL_CAP = 4096


def as_matrix(values) -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting other ranks."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def numerical_rank(m, rel_tol: float = 1e-8) -> int:
    """Rank estimate via Gaussian elimination with complete pivoting.

    Runs the elimination to exhaustion, collects the pivot magnitudes, and
    counts those exceeding rel_tol times the largest pivot seen.  Complete
    pivoting keeps element growth tame, so the pivot sequence separates
    cleanly at the numerical rank for the matrices this package produces.
    A NaN or infinite entry raises ValueError: no pivot would compare
    above it, and the rank would read 0.
    """
    a = as_matrix(m).copy()
    n, k = a.shape
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0].tolist()
        raise ValueError(f"numerical_rank: entry ({i}, {j}) is not finite")
    if rel_tol < 0:
        raise ValueError("rel_tol must be non-negative")
    if n == 0 or k == 0:
        return 0
    pivots = []
    for r in range(min(n, k)):
        sub = np.abs(a[r:, r:])
        flat = int(sub.argmax())
        pi, pj = divmod(flat, k - r)
        pmax = sub[pi, pj]
        if pmax == 0.0:
            break
        a[[r, r + pi], :] = a[[r + pi, r], :]
        a[:, [r, r + pj]] = a[:, [r + pj, r]]
        pivots.append(pmax)
        if r + 1 < n:
            factors = a[r + 1 :, r] / a[r, r]
            a[r + 1 :, r:] -= np.outer(factors, a[r, r:])
    if not pivots:
        return 0
    cutoff = rel_tol * max(pivots)
    return int(sum(1 for p in pivots if p > cutoff))


def _fraction_rows(m) -> list[list[Fraction]]:
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    rows = []
    for r in a:
        rows.append([Fraction(x) for x in r.tolist()])
    return rows


def exact_rank(m) -> int:
    """Exact rank over the rationals: Gaussian elimination on
    fractions.Fraction entries, taking the first nonzero entry of each
    column as its pivot.

    Entries must be exactly representable (ints, bools, or floats that are
    already rational, e.g. 0.5).  Capped at EXACT_RANK_CELL_CAP cells since
    Fraction pivots grow quickly.
    """
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size > EXACT_RANK_CELL_CAP:
        raise ValueError(
            f"matrix has {a.size} cells, exact elimination capped at "
            f"{EXACT_RANK_CELL_CAP}"
        )
    rows = _fraction_rows(a)
    n = len(rows)
    k = len(rows[0]) if n else 0
    rank = 0
    col = 0
    while rank < n and col < k:
        pivot_row = None
        for i in range(rank, n):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, n):
            f = rows[i][col] / pv
            if f != 0:
                ri, rp = rows[i], rows[rank]
                for j in range(col, k):
                    ri[j] -= f * rp[j]
        rank += 1
        col += 1
    return rank


def exact_rank_binary(m) -> int:
    """Exact rational rank of a 0/1 matrix (validates entries first)."""
    a = np.asarray(m)
    if not np.isin(a, (0, 1)).all():
        raise ValueError("matrix entries must all be 0 or 1")
    return exact_rank(a)
