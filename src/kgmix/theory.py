"""Constructive capacity analysis for bilinear scorers and softmax outputs.

Three families of checks live here, all certificate-producing:

* Sign decomposition: any 0/1 adjacency with max out-degree c can be
  written as sign(X @ V^T) where V is the 2c+1-column integer Vandermonde
  grid v[t, j] = t^j and row i of X holds the coefficients of a polynomial
  that is positive exactly on i's neighbor columns.  This realizes every
  sign pattern of the adjacency in dimension 2c+1.  The check takes every
  sign exactly from the parity of the roots above each grid point, and
  small grids also evaluate the dense coefficient form in exact integer
  arithmetic.

* Feasible sign/ranking enumeration: which of the 2^N sign patterns (or N!
  score orderings) over N fixed embedding rows are realized by some query
  vector h.  One deterministic routine puts a point in every chamber of
  the hyperplane arrangement (rows, or pairwise row differences); each
  point is a witness checked strictly, and the count of distinct results
  must equal Cover's closed form for general position.

* Rank probes: exact rational rank of a target adjacency versus the d+1
  ceiling of single-softmax log-probability matrices, and one probe that
  turns a sampled log-probability matrix into its numerical rank, the rank
  of its centred additive log-ratios (at most d for a single softmax), and
  its normalised singular values.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg

# cells past which verify_sign_decomposition skips the exact cross-check: its
# product multiplies Python ints, one per cell and coefficient
RATIONAL_CHECK_CELL_CAP = 256

MAX_SIGN_ROWS = 16  # up to 2^N chambers, each with a stored witness
MAX_RANKING_ROWS = 7  # N(N-1)/2 difference hyperplanes, up to N! chambers
MAX_RANKING_DIM = 3


def _validate_binary(adj) -> np.ndarray:
    a = np.asarray(adj)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("adjacency must be a non-empty 2-D matrix")
    if not np.isin(a, (0, 1)).all():
        raise ValueError("adjacency entries must be 0 or 1")
    return a.astype(np.int64)


@dataclass
class RowSignPoly:
    """sigma * prod_j (t - roots[j]), kept in factored form with rational
    roots."""

    sigma: int
    roots: list[Fraction]

    def integer_coefficients(self, width: int) -> tuple[list[int], int]:
        """Integer coefficients c (low degree first, zero-padded to width)
        and a positive scale with scale * p(t) = sum_k c[k] t^k.

        With q the lcm of the root denominators, the scale is
        den(sigma) * q^D and the coefficients are those of
        num(sigma) * prod_j (q t - q r_j), all integers.
        """
        roots = [Fraction(r) for r in self.roots]
        q = math.lcm(*(r.denominator for r in roots))
        sigma = Fraction(self.sigma)
        coeffs = [sigma.numerator]
        for r in roots:
            qr = r.numerator * (q // r.denominator)
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c * q
                nxt[i] -= c * qr
            coeffs = nxt
        if len(coeffs) > width:
            raise ValueError("polynomial degree exceeds the requested width")
        return coeffs + [0] * (width - len(coeffs)), sigma.denominator * q ** len(roots)

    def coefficients(self, width: int) -> list[Fraction]:
        """Dense coefficient list (low degree first), zero-padded."""
        coeffs, scale = self.integer_coefficients(width)
        return [Fraction(c, scale) for c in coeffs]


@dataclass
class SignDecomposition:
    n_rows: int
    n_cols: int
    degree_cap: int  # c: max row sum of the adjacency
    epsilon: Fraction
    rows: list[RowSignPoly]

    @property
    def width(self) -> int:
        return 2 * self.degree_cap + 1

    def coefficient_matrix_exact(self) -> list[list[Fraction]]:
        return [row.coefficients(self.width) for row in self.rows]

    def sign_matrix(self) -> np.ndarray:
        """Exact signs in {-1, 0, +1} at the grid t = 1..n_cols.

        At an integer t the sign of sigma * prod_j (t - r_j) is
        sign(sigma) * (-1)**#{j : r_j > t}, and 0 where some r_j = t.  A
        rational r is at most t exactly when ceil(r) <= t, so each row's
        root ceilings, clipped to [0, n_cols + 1], are counted per grid
        point and summed along the grid.  A row of degree width or more
        raises ValueError naming the row.
        """
        for i, row in enumerate(self.rows):
            if len(row.roots) >= self.width:
                raise ValueError(f"row {i}: polynomial degree {len(row.roots)} "
                                 f"exceeds the requested width {self.width}")
        n, m = len(self.rows), self.n_cols
        degree = np.array([len(row.roots) for row in self.rows], dtype=np.int64)
        roots = [r for row in self.rows for r in row.roots]
        num = np.array([r.numerator for r in roots], dtype=object)
        den = np.array([r.denominator for r in roots], dtype=object)
        ceil = np.clip(-(-num // den), 0, m + 1).astype(np.int64)
        which = np.repeat(np.arange(n), degree)
        counts = np.bincount(which * (m + 2) + ceil, minlength=n * (m + 2))
        at_or_below = np.cumsum(counts.reshape(n, m + 2), axis=1)[:, 1 : m + 1]
        sigma = np.array([int(row.sigma > 0) - int(row.sigma < 0) for row in self.rows])
        signs = sigma[:, None] * (1 - 2 * ((degree[:, None] - at_or_below) & 1))
        on_grid = (den == 1) & (ceil >= 1) & (ceil <= m)
        signs[which[on_grid], ceil[on_grid] - 1] = 0
        return signs


def sign_decompose(adj, epsilon=Fraction(1, 2), merge_blocks: bool = True) -> SignDecomposition:
    """Build per-row polynomials whose integer-grid signs equal 2*adj - 1.

    Row i gets a pair of roots a - eps, b + eps around each block [a, b] of
    consecutive neighbor columns (each single column is its own block when
    merge_blocks is False), and an overall minus sign, so the polynomial is
    positive exactly inside the blocks.  All-zero rows use the constant -1,
    all-one rows the constant +1.  Total width is always 2c + 1.
    """
    a = _validate_binary(adj)
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    n, m = a.shape
    c = int(a.sum(axis=1).max())
    rows = []
    for i in range(n):
        ones = np.flatnonzero(a[i]) + 1  # 1-based grid positions
        if ones.size == 0:
            rows.append(RowSignPoly(sigma=-1, roots=[]))
            continue
        if ones.size == m:
            rows.append(RowSignPoly(sigma=1, roots=[]))
            continue
        blocks = []
        start = prev = int(ones[0])
        for t in ones[1:]:
            t = int(t)
            if t == prev + 1 and merge_blocks:
                prev = t
                continue
            blocks.append((start, prev))
            start = prev = t
        blocks.append((start, prev))
        roots: list[Fraction] = []
        for lo, hi in blocks:
            roots.append(Fraction(lo) - eps)
            roots.append(Fraction(hi) + eps)
        if len(roots) > 2 * c:
            raise AssertionError("row degree exceeded 2c")
        rows.append(RowSignPoly(sigma=-1, roots=roots))
    return SignDecomposition(
        n_rows=n, n_cols=m, degree_cap=c, epsilon=eps, rows=rows
    )


@dataclass
class SignVerification:
    ok: bool
    mismatches: list[tuple[int, int]]
    rational_checked: bool


def verify_sign_decomposition(adj, dec: SignDecomposition) -> SignVerification:
    """Check sign(p_i(t)) against 2*adj - 1 on the whole grid.

    SignDecomposition.sign_matrix decides every sign exactly from the
    roots; a zero is a mismatch.  A grid of at most RATIONAL_CHECK_CELL_CAP
    cells is also checked against the dense form: the rows' integer
    coefficients (RowSignPoly.integer_coefficients, whose positive scale
    leaves the signs unchanged) times the powers t**j, as one product of
    Python ints, must have the target sign in every cell.
    """
    a = _validate_binary(adj)
    if a.shape != (dec.n_rows, dec.n_cols) or len(dec.rows) != dec.n_rows:
        raise ValueError("decomposition shape does not match the adjacency")
    target = 2 * a - 1
    bad = dec.sign_matrix() != target
    rational = a.size <= RATIONAL_CHECK_CELL_CAP
    if rational:
        coeffs = [row.integer_coefficients(dec.width)[0] for row in dec.rows]
        t = np.arange(1, dec.n_cols + 1).astype(object)
        exact = np.array(coeffs, dtype=object) @ np.vander(t, dec.width, increasing=True).T
        bad |= ~np.where(target > 0, exact > 0, exact < 0)
    mismatches = list(map(tuple, np.argwhere(bad).tolist()))
    return SignVerification(
        ok=not mismatches, mismatches=mismatches, rational_checked=rational
    )


def random_adjacency(
    n_rows: int, n_cols: int, max_degree: int, rng: np.random.Generator
) -> np.ndarray:
    """Random 0/1 matrix with every row sum <= max_degree."""
    if min(n_rows, n_cols) < 1 or max_degree < 0:
        raise ValueError("bad adjacency shape or degree cap")
    out = np.zeros((n_rows, n_cols), dtype=np.int64)
    cap = min(max_degree, n_cols)
    for i in range(n_rows):
        k = int(rng.integers(0, cap + 1))
        if k:
            out[i, rng.choice(n_cols, size=k, replace=False)] = 1
    return out


# ---- feasible sign patterns / rankings ----


def feasible_sign_bound(n: int, d: int) -> int:
    """Count of sign patterns over n generic hyperplanes realizable in R^d:
    2 * sum_{i<d} C(n-1, i).  Saturates at 2^n once d >= n."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    return 2 * sum(math.comb(n - 1, i) for i in range(d))


def feasible_ordering_bound(n: int, d: int) -> int:
    """Count of score orderings of n generic points induced by directions
    in R^d (Cover 1967): 2 * sum_{i<d, i = d-1 mod 2} c(n, n-i), with c the
    unsigned Stirling numbers of the first kind.  Reaches n! once d >= n-1;
    a single point has its one ordering."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if n == 1:
        return 1
    c = [1]  # c(m, k) for k = 0..m, starting at m = 0
    for m in range(n):
        c = [(c[k - 1] if k else 0) + (m * c[k] if k < len(c) else 0)
             for k in range(len(c) + 1)]
    return 2 * sum(c[n - i] for i in range(d - 1, -1, -2) if i <= n)


def _unit_rows(e: np.ndarray, tol: float, what: str) -> np.ndarray:
    norms = np.linalg.norm(e, axis=1)
    if (norms <= tol).any():
        raise ValueError(f"{what}: zero row (norm <= {tol})")
    return e / norms[:, None]


def _require_rows(e: np.ndarray, what: str) -> None:
    """At least one row, and every row finite."""
    if e.shape[0] < 1:
        raise ValueError(f"{what}: needs at least one row")
    bad = ~np.isfinite(e).all(axis=1)
    if bad.any():
        raise ValueError(f"{what}: row {int(np.argmax(bad))} is not finite")


def _combinations(n: int, k: int) -> np.ndarray:
    """(C(n, k), k) index array in itertools.combinations order."""
    subsets = itertools.combinations(range(n), k)
    return np.array(list(subsets), dtype=np.int64).reshape(math.comb(n, k), k)


def _first_dependent(sub: np.ndarray, tol: float) -> int | None:
    """Index of the first stacked (k, d) matrix, k <= d, whose rows are
    numerically dependent (|det|, or the smallest singular value when
    k < d, at or below tol), or None."""
    k, d = sub.shape[1:]
    if k == d:
        bad = np.abs(np.linalg.det(sub)) <= tol
    else:
        bad = np.linalg.svd(sub, compute_uv=False)[:, -1] <= tol
    return int(np.argmax(bad)) if bad.any() else None


def check_general_position_signs(e, tol: float = 1e-9) -> None:
    """Reject non-finite and zero rows, coincident directions, and
    degenerate d-subsets; the first degenerate subset in combinations order
    is named."""
    e = linalg.as_matrix(e)
    n, d = e.shape
    _require_rows(e, "sign enumeration")
    en = _unit_rows(e, tol, "sign enumeration")
    if d >= 2:
        gram = np.abs(en @ en.T)
        np.fill_diagonal(gram, 0.0)
        if (gram > 1.0 - 1e-12).any():
            raise ValueError("sign enumeration: coincident row directions")
    subsets = _combinations(n, min(n, d))
    bad = _first_dependent(en[subsets], tol)
    if bad is not None:
        raise ValueError(
            f"sign enumeration: rows {tuple(subsets[bad].tolist())} are "
            "numerically dependent"
        )


def _forests(edges: np.ndarray, n: int) -> np.ndarray:
    """Which of the stacked edge lists (subsets, k, 2) on n vertices are
    acyclic: each edge must join two components, which are then merged."""
    label = np.tile(np.arange(n), (len(edges), 1))
    acyclic = np.ones(len(edges), dtype=bool)
    at = np.arange(len(edges))
    for u, v in edges.transpose(1, 2, 0):
        lu, lv = label[at, u], label[at, v]
        acyclic &= lu != lv
        label = np.where(label == lv[:, None], lu[:, None], label)
    return acyclic


def check_general_position_rankings(e, tol: float = 1e-9) -> None:
    """Genericity for score orderings: all rows finite and distinct, and
    every acyclic (forest) subset of pairwise difference vectors has full
    rank; the first degenerate forest in combinations order is named.

    Subsets whose index pairs contain a cycle are structurally dependent
    ((e1-e2) + (e2-e3) - (e1-e3) = 0 identically), so only forests carry
    genericity information.
    """
    e = linalg.as_matrix(e)
    n, d = e.shape
    _require_rows(e, "ranking enumeration")
    pairs = _combinations(n, 2)
    diffs = e[pairs[:, 0]] - e[pairs[:, 1]]
    if diffs.size == 0:
        return
    norms = np.linalg.norm(diffs, axis=1)
    if (norms <= tol).any():
        i, j = pairs[int(np.argmin(norms))].tolist()
        raise ValueError(f"ranking enumeration: rows {i} and {j} coincide")
    dn = diffs / norms[:, None]
    subsets = _combinations(len(pairs), min(d, n - 1))  # a forest has <= n - 1 edges
    subsets = subsets[_forests(pairs[subsets], n)]
    bad = _first_dependent(dn[subsets], tol)
    if bad is not None:
        edges = list(map(tuple, pairs[subsets[bad]].tolist()))
        raise ValueError(
            f"ranking enumeration: difference vectors {edges} are "
            "numerically dependent"
        )


# |a . v| at or below this (unit normal a, unit ray v) puts v on a's
# hyperplane; the general-position checks keep every other hyperplane above
# their 1e-9 determinant tolerance
_ON_HYPERPLANE_TOL = 1e-10


def _chamber_points(a: np.ndarray) -> np.ndarray:
    """One interior point of every chamber of the central arrangement
    {x : a_i . x = 0}, as rows; the rows of a are unit normals.

    The lineality space is quotiented out first (rank r).  Independent
    normals cut out every sign vector, solved for directly.  Otherwise every
    chamber is a pointed cone, so it touches a ray cut out by r - 1
    independent normals.  Near that ray the chambers are those of the
    hyperplanes through it, a local arrangement of lower rank; stepping off
    +-ray by half the smallest |a . v| of the other hyperplanes keeps their
    signs.  The candidate points are deduplicated by their sign rows,
    keeping the first point of each chamber in ray order.

    The arrangement is walked level by level (_chamber_level), with no
    loop over rays: the local arrangements of all rays of one level are
    the next level, and those of one shape go through each svd, inv and
    matmul as one stack.  A level takes its rays in blocks of about
    _DEDUP_BLOCK candidate points, and each block computes the steps,
    points and sign rows of all its rays at once.  Every stacked call runs
    the LAPACK or BLAS routine that one call per arrangement or per ray
    would, on a matrix of the same shape, so the points are the same bits.
    Deterministic: no sampling and no iteration cap.
    """
    m, dim = a.shape
    if m == 0:
        return np.zeros((1, dim))
    [(_, points)] = _chamber_level(a[None])  # one node, so one group
    return points[0]


def _chamber_level(a: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Chamber points of a stack of arrangements (nodes, m, dim) with unit
    rows, as (node indices, (nodes, points, dim) stack) groups, one group
    for each count of points."""
    m = a.shape[1]
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    rank = (sv > _ON_HYPERPLANE_TOL).sum(axis=1)
    groups = []
    for r in np.unique(rank).tolist():
        ids = np.flatnonzero(rank == r)
        q = vt[ids, :r]  # orthonormal rows spanning the normals
        if r == 1:
            groups.append((ids, np.array([[1.0], [-1.0]]) @ q))
            continue
        b = a[ids] @ q.transpose(0, 2, 1)  # the same unit normals in R^r
        if r == m:
            inv_t = np.linalg.inv(b).transpose(0, 2, 1)
            groups.append((ids, _orthant_signs(r) @ inv_t @ q))
        else:
            groups += [(ids[k], y) for k, y in _ray_level(b, q)]
    return groups


def _ray_level(b: np.ndarray, q: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """_chamber_level for the nodes (nodes, m, r) of rank r, 2 <= r < m,
    whose rows q (nodes, r, dim) map back: the rays of every node, their
    candidate points in blocks of about _DEDUP_BLOCK, each node's first
    point of each sign row, and those points mapped by q."""
    g, m, r = b.shape
    tol = _ON_HYPERPLANE_TOL
    _, ssv, svt = np.linalg.svd(b[:, _combinations(m, r - 1)])
    null = svt[..., -1, :]  # null directions of the (r - 1)-subsets
    node, sub = np.nonzero(ssv[..., -1] > tol)  # the independent subsets
    through = (np.abs(null @ b.transpose(0, 2, 1)) <= tol)[node, sub]
    first = _first_rows(_sign_keys(node, through, g))
    node, rays, on = node[first], null[node[first], sub[first]], through[first]
    # a ray on c hyperplanes gives at most twice as many candidates as c
    # generic hyperplanes of rank r - 1 have chambers
    width, inverse = np.unique(on.sum(axis=1), return_inverse=True)
    cost = np.array([2 * feasible_sign_bound(c, r - 1) for c in width.tolist()])[inverse]
    block = (np.cumsum(cost) - cost) // _DEDUP_BLOCK
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), len(rays)]
    kept = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        owner, sign, points = _ray_candidates(b, node[lo:hi], rays[lo:hi], on[lo:hi])
        kept = [_first_points(*kept, (owner, _sign_keys(owner, sign, g), points))]
    owner, _, points = kept[0]
    count = np.bincount(owner, minlength=g)
    start = np.cumsum(count) - count
    groups = []
    for p in np.unique(count).tolist():
        ids = np.flatnonzero(count == p)
        groups.append((ids, points[start[ids, None] + np.arange(p)] @ q[ids]))
    return groups


def _ray_candidates(b: np.ndarray, node: np.ndarray, rays: np.ndarray, on: np.ndarray):
    """(owner node, sign row, point) of the candidates of the given rays,
    rows in ray order: for a ray v with local chamber points w (unit rows)
    and step s, the points v + s w, then -v + s w.  Rays are stacked by
    their count of hyperplanes and of local points, so every product has
    the shape it has for one ray."""
    m, r = b.shape[1:]
    width = on.sum(axis=1)
    ray_of, points, signs = [], [], []
    for c in np.unique(width).tolist():
        sel = np.flatnonzero(width == c)
        owner = node[sel, None]
        local = b[owner, np.nonzero(on[sel])[1].reshape(len(sel), c)]
        off = b[owner, np.nonzero(~on[sel])[1].reshape(len(sel), m - c)]
        step = 0.5 * np.abs(off @ rays[sel, :, None]).min(axis=(1, 2))
        for k, w in _chamber_level(local):
            w = w / np.linalg.norm(w, axis=2, keepdims=True)
            w *= step[k, None, None]
            v, p = rays[sel[k], None], w.shape[1]
            y = np.empty((len(k), 2 * p, r))
            np.add(w, v, out=y[:, :p])
            np.subtract(w, v, out=y[:, p:])  # w - v is -v + w, bit for bit
            ray_of.append(np.repeat(sel[k], 2 * p))
            points.append(y.reshape(-1, r))
            signs.append((y @ b[owner[k, 0]].transpose(0, 2, 1) > 0).reshape(-1, m))
    # one group (as for generic sign rows) is in ray order already: return
    # it without the two copies that reordering makes
    if len(points) == 1:
        return node[ray_of[0]], signs[0], points[0]
    order = np.argsort(np.concatenate(ray_of), kind="stable")
    return (node[np.concatenate(ray_of)[order]], np.concatenate(signs)[order],
            np.concatenate(points)[order])


def _orthant_signs(r: int) -> np.ndarray:
    """Every +-1 row of length r, in itertools.product((1.0, -1.0)) order."""
    return 1.0 - 2.0 * (np.arange(2**r)[:, None] >> np.arange(r - 1, -1, -1) & 1)


# candidate points are deduplicated once per this many, so memory holds at
# most a block of them plus one point per chamber
_DEDUP_BLOCK = 1 << 16


def _sign_keys(owner: np.ndarray, sign: np.ndarray, nodes: int) -> np.ndarray:
    """One int64 per row, equal exactly where the rows (owner, sign row)
    are: the owner (below nodes) above the m sign bits.  The enumerators'
    caps keep m <= 21, and every level far below 2^(63 - m) nodes."""
    m = sign.shape[1]
    if (nodes - 1).bit_length() + m > 63:
        raise ValueError(f"{nodes} arrangements of {m} hyperplanes overflow an int64 key")
    return owner << m | sign @ (1 << np.arange(m, dtype=np.int64))


def _first_points(*parts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Of the (owner, key, point) row blocks, in their order, the rows whose
    key occurs first, as one block."""
    owner, keys, points = (np.concatenate(x) for x in zip(*parts))
    first = _first_rows(keys)
    return owner[first], keys[first], points[first]


def _first_rows(keys: np.ndarray) -> np.ndarray:
    """The ascending indices of the first occurrence of each distinct key."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    # faster than a stable sort, but it leaves equal keys in any order: keep
    # their least index
    return np.sort(np.minimum.reduceat(order, np.flatnonzero(new)))


def _require_closed_form(what: str, found: int, closed_form: int) -> None:
    if found != closed_form:
        raise RuntimeError(
            f"{what}: found {found} with strict witnesses, closed form "
            f"{closed_form} for rows in general position"
        )


@dataclass
class SignEnumeration:
    n: int
    dim: int
    patterns: list[tuple[int, ...]]  # entries +-1, sorted
    bound: int
    witnesses: dict[tuple[int, ...], np.ndarray]

    @property
    def count(self) -> int:
        return len(self.patterns)


def enumerate_feasible_signs(e) -> SignEnumeration:
    """All sign patterns sign(E @ h) realized by some h, with witnesses.

    Takes one point in every chamber of the arrangement {h : e_i . h = 0}
    and keeps each pattern its point realizes strictly.  The count must
    equal feasible_sign_bound (Cover 1965), or a RuntimeError is raised.
    """
    e = linalg.as_matrix(e)
    n, d = e.shape
    if n > MAX_SIGN_ROWS:
        raise ValueError(f"sign enumeration capped at {MAX_SIGN_ROWS} rows")
    bound = feasible_sign_bound(n, d)  # rejects n < 1 and d < 1
    check_general_position_signs(e)
    points = _chamber_points(_unit_rows(e, 1e-9, "sign enumeration"))
    s = points @ e.T
    strict = (s != 0).all(axis=1)
    found = {}
    patterns = map(tuple, np.where(s[strict] > 0, 1, -1).tolist())
    for p, h in zip(patterns, points[strict]):
        found.setdefault(p, h)
    _require_closed_form("sign enumeration", len(found), bound)
    return SignEnumeration(
        n=n, dim=d, patterns=sorted(found), bound=bound, witnesses=found
    )


@dataclass
class RankingEnumeration:
    n: int
    dim: int
    rankings: list[tuple[int, ...]]  # permutations, best-scoring entity first
    witnesses: dict[tuple[int, ...], np.ndarray]

    @property
    def count(self) -> int:
        return len(self.rankings)


def enumerate_feasible_rankings(e) -> RankingEnumeration:
    """All total score orderings argsort(E @ h) realized by some h.

    Takes one point in every chamber of the arrangement of pairwise
    difference hyperplanes {h : (e_i - e_j) . h = 0} and keeps each
    ordering its point realizes strictly.  The count must equal
    feasible_ordering_bound (Cover 1967), or a RuntimeError is raised.
    """
    e = linalg.as_matrix(e)
    n, d = e.shape
    if n > MAX_RANKING_ROWS:
        raise ValueError(f"ranking enumeration capped at {MAX_RANKING_ROWS} rows")
    if d > MAX_RANKING_DIM:
        raise ValueError(f"ranking enumeration capped at dim {MAX_RANKING_DIM}")
    bound = feasible_ordering_bound(n, d)  # rejects n < 1 and d < 1
    check_general_position_rankings(e)
    i, j = np.triu_indices(n, 1)
    points = _chamber_points(_unit_rows(e[i] - e[j], 1e-9, "ranking enumeration"))
    s = points @ e.T
    order = np.argsort(-s, axis=1)
    ranked = np.take_along_axis(s, order, axis=1)
    strict = (ranked[:, :-1] > ranked[:, 1:]).all(axis=1)
    found = {}
    for p, h in zip(map(tuple, order[strict].tolist()), points[strict]):
        found.setdefault(p, h)
    _require_closed_form("ranking enumeration", len(found), bound)
    return RankingEnumeration(n=n, dim=d, rankings=sorted(found), witnesses=found)


# ---- rank obstructions and probes ----


@dataclass
class DrCheck:
    target_rank: int
    dim: int
    capacity: int  # d + 1: max rank a single softmax's log-probs can reach
    excluded: bool

    @property
    def verdict(self) -> str:
        return "excluded" if self.excluded else "not-excluded"


def dr_obstruction_check(target, dim: int) -> DrCheck:
    """Can a width-dim single-softmax model put its argmax-graph equal to
    the 0/1 target?  Exact rational rank > dim + 1 rules it out."""
    a = _validate_binary(target)
    if dim < 1:
        raise ValueError("dim must be positive")
    rank = linalg.exact_rank(a)
    return DrCheck(
        target_rank=rank, dim=dim, capacity=dim + 1, excluded=rank > dim + 1
    )


@dataclass
class RankProbe:
    rank: int  # numerical rank of L
    centered_alr_rank: int  # numerical rank of L's column-centred log-ratios
    spectrum: np.ndarray  # singular values of L over the largest (all 0 if L is)
    dim: int
    capacity: int

    @property
    def within_single_softmax(self) -> bool:
        return self.rank <= self.capacity

    @property
    def sigma_after_capacity(self) -> float | None:
        """sigma_{d+2} / sigma_1, or None when L has at most d + 1 of them."""
        s = self.spectrum
        return float(s[self.capacity]) if s.size > self.capacity else None


def logprob_rank_probe(logp: np.ndarray, dim: int, rel_tol: float = 1e-8) -> RankProbe:
    """Rank numbers of a sampled log-probability matrix L versus dim + 1.

    rank counts the complete-pivoting pivots of L.  The log-ratios
    A = L[:, 1:] - L[:, :1] cancel each row's normaliser, so a single
    softmax makes A = H (E[1:] - E[0])^T: centring A's columns leaves
    rank at most dim.  Both ranks use numerical_rank with rel_tol, and A is
    taken from L directly, so rows far below exp's range (L < -745) count.
    The spectrum, from an SVD, separates a saturated softmax from a mixture
    where the pivot counts cannot.  Needs at least dim + 3 rows so a rank
    above dim + 1 is observable with headroom.
    """
    m = linalg.as_matrix(logp)
    if dim < 1:
        raise ValueError("dim must be positive")
    if m.shape[0] < dim + 3:
        raise ValueError(f"need at least dim + 3 = {dim + 3} query rows")
    rank = linalg.numerical_rank(m, rel_tol)
    alr = m[:, 1:] - m[:, :1]
    alr_rank = linalg.numerical_rank(alr - alr.mean(axis=0), rel_tol)
    s = np.linalg.svd(m, compute_uv=False)
    if s.size and s[0] > 0:
        s = s / s[0]
    return RankProbe(
        rank=rank,
        centered_alr_rank=alr_rank,
        spectrum=s,
        dim=dim,
        capacity=dim + 1,
    )
