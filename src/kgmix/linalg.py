"""Matrix rank, numeric and exact, for certifying rank claims.

Both routines take plain 2-D arrays: numerical_rank is a complete-pivoting
float elimination, exact_rank a fraction-free (Bareiss) elimination on
Python ints.
"""
from __future__ import annotations

import math

import numpy as np

# rows*cols limit for exact elimination: its Python-int work grows with the
# cube of the side (a 64 x 64 0/1 matrix takes tens of milliseconds)
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
    A NaN or infinite entry, or rel_tol, raises ValueError: no pivot would
    compare above it, and the rank would read 0.
    """
    a = as_matrix(m).copy()
    n, k = a.shape
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0].tolist()
        raise ValueError(f"numerical_rank: entry ({i}, {j}) is not finite")
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"rel_tol must be finite and non-negative, got {rel_tol}")
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


def exact_rank(m) -> int:
    """Exact rank over the rationals: fraction-free (Bareiss) Gaussian
    elimination on Python ints, taking the first nonzero entry of each
    column as its pivot.

    Entries must be exactly representable: ints, bools, or floats (already
    rational, e.g. 0.5), which are scaled to integers row by row; a NaN or
    infinite entry raises ValueError.  After each step every entry below
    the pivots is a minor of the input, so dividing by the previous pivot
    is exact.  Capped at EXACT_RANK_CELL_CAP cells.
    """
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.size > EXACT_RANK_CELL_CAP:
        raise ValueError(
            f"matrix has {a.size} cells, exact elimination capped at "
            f"{EXACT_RANK_CELL_CAP}"
        )
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0].tolist()
        raise ValueError(f"exact_rank: entry ({i}, {j}) is not finite")
    rows = a.tolist()
    if a.dtype.kind not in "biu":  # each row times the lcm of its denominators
        for i, row in enumerate(rows):
            ratios = [x.as_integer_ratio() for x in row]
            q = math.lcm(*(den for _, den in ratios))
            rows[i] = [num * (q // den) for num, den in ratios]
    a = np.array(rows, dtype=object).reshape(a.shape)
    n, k = a.shape
    rank, prev = 0, 1
    for col in range(k):
        if rank == n:
            break
        nonzero = np.flatnonzero(a[rank:, col])
        if nonzero.size == 0:
            continue
        p = rank + int(nonzero[0])
        a[[rank, p]] = a[[p, rank]]
        pivot = a[rank, col]
        below, right = slice(rank + 1, None), slice(col + 1, None)
        a[below, right] = (
            pivot * a[below, right] - np.multiply.outer(a[below, col], a[rank, right])
        ) // prev
        prev = pivot
        rank += 1
    return rank
