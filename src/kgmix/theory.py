"""Constructive capacity analysis for bilinear scorers and softmax outputs.

Three families of checks live here, all certificate-producing:

* Sign decomposition: any 0/1 adjacency with max out-degree c can be
  written as sign(X @ V^T) where V is the 2c+1-column integer Vandermonde
  grid v[t, j] = t^j and row i of X holds the coefficients of a polynomial
  that is positive exactly on i's neighbor columns.  This realizes every
  sign pattern of the adjacency in dimension 2c+1.  The check evaluates
  the factored polynomials over the whole grid in one vectorized float
  pass, and small grids also evaluate the dense coefficient form in exact
  integer arithmetic.

* Feasible sign/ranking enumeration: which of the 2^N sign patterns (or N!
  score orderings) over N fixed embedding rows are realized by some query
  vector h.  One deterministic routine puts a point in every chamber of
  the hyperplane arrangement (rows, or pairwise row differences); each
  point is a witness checked strictly, and the count of distinct results
  must equal Cover's closed form for general position.

* Rank probes: exact rational rank of a target adjacency versus the d+1
  ceiling of single-softmax log-probability matrices, numerical rank of
  sampled log-probability matrices, and the ALR view that flattens a
  single softmax to an affine map.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg

# cells past which verify_sign_decomposition skips the exact cross-check by
# default: its integer Horner loop is Python, one cell at a time
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
    """sigma * prod_j (t - roots[j]); evaluated in factored form so the
    sign at integer grid points is exact in float arithmetic."""

    sigma: int
    roots: list[Fraction]

    def eval_float(self, t: float) -> float:
        out = float(self.sigma)
        for r in self.roots:
            out *= t - float(r)
        return out

    def eval_exact(self, t) -> Fraction:
        out = Fraction(self.sigma)
        for r in self.roots:
            out *= Fraction(t) - r
        return out

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


def _grid_values(rows: list[RowSignPoly], n_cols: int) -> np.ndarray:
    """(len(rows), n_cols) values sigma * prod_j (t - float(r_j)) at
    t = 1..n_cols, multiplied in RowSignPoly.eval_float's order, so every
    value is bitwise eval_float's.

    Rows are sorted by degree, so the rows that still have a j-th root are
    a prefix and each root multiplies one slice in place.
    """
    degree = np.array([len(r.roots) for r in rows], dtype=np.int64)
    order = np.argsort(-degree, kind="stable")
    roots = np.zeros((len(rows), int(degree.max(initial=0))))
    for k, i in enumerate(order.tolist()):
        roots[k, : degree[i]] = [float(r) for r in rows[i].roots]
    t = np.arange(1, n_cols + 1, dtype=np.float64)
    vals = np.empty((len(rows), n_cols))
    vals[:] = np.array([float(rows[i].sigma) for i in order.tolist()])[:, None]
    factor = np.empty_like(vals)
    live = np.sum(degree[:, None] > np.arange(roots.shape[1]), axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for j, k in enumerate(live.tolist()):
            np.subtract(t, roots[:k, j, None], out=factor[:k])
            vals[:k] *= factor[:k]
    out = np.empty_like(vals)
    out[order] = vals
    return out


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

    def vandermonde(self) -> np.ndarray:
        """(n_cols, width) grid with v[t-1, j] = t**j for t = 1..n_cols."""
        t = np.arange(1, self.n_cols + 1, dtype=np.float64)[:, None]
        j = np.arange(self.width, dtype=np.float64)[None, :]
        return t**j

    def coefficient_matrix(self) -> np.ndarray:
        return np.array(
            [[float(c) for c in row.coefficients(self.width)] for row in self.rows]
        )

    def coefficient_matrix_exact(self) -> list[list[Fraction]]:
        return [row.coefficients(self.width) for row in self.rows]

    def sign_matrix(self) -> np.ndarray:
        """Signs at the integer grid via factored evaluation (exact signs);
        a zero or NaN value counts as -1."""
        return np.where(_grid_values(self.rows, self.n_cols) > 0, 1, -1)


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
    min_margin: float
    mismatches: list[tuple[int, int]]
    rational_checked: bool


def verify_sign_decomposition(adj, dec: SignDecomposition, rational=None) -> SignVerification:
    """Check sign(p_i(t)) against 2*adj - 1 on the whole grid.

    Factored float evaluation decides the signs (no coefficient-form
    cancellation), in one vectorized pass over the grid; a zero or NaN value
    is a mismatch, and NaN stays out of min_margin.  When rational is True,
    or None with a small enough grid, the dense coefficient form is also
    evaluated exactly: Horner's rule on each row's integer coefficients
    (RowSignPoly.integer_coefficients), whose positive scale leaves the
    sign unchanged, must agree cell by cell.
    """
    a = _validate_binary(adj)
    if a.shape != (dec.n_rows, dec.n_cols) or len(dec.rows) != dec.n_rows:
        raise ValueError("decomposition shape does not match the adjacency")
    target = 2 * a - 1
    vals = _grid_values(dec.rows, dec.n_cols)
    bad = ~np.where(target > 0, vals > 0, vals < 0)
    mismatches = list(map(tuple, np.argwhere(bad).tolist()))
    margins = np.abs(vals[~np.isnan(vals)])
    min_margin = float(margins.min()) if margins.size else math.inf
    if rational is None:
        rational = a.size <= RATIONAL_CHECK_CELL_CAP
    if rational:
        for i, row in enumerate(dec.rows):
            coeffs, _ = row.integer_coefficients(dec.width)
            coeffs.reverse()
            for t, want in enumerate(target[i].tolist(), start=1):
                acc = 0
                for c in coeffs:
                    acc = acc * t + c
                if (acc > 0) - (acc < 0) != want:
                    mismatches.append((i, t - 1))
    return SignVerification(
        ok=not mismatches,
        min_margin=min_margin,
        mismatches=sorted(set(mismatches)),
        rational_checked=bool(rational),
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


def check_general_position_signs(e, tol: float = 1e-9) -> None:
    """Reject zero rows, coincident directions, and degenerate d-subsets."""
    e = linalg.as_matrix(e)
    n, d = e.shape
    en = _unit_rows(e, tol, "sign enumeration")
    if d >= 2:
        gram = np.abs(en @ en.T)
        np.fill_diagonal(gram, 0.0)
        if (gram > 1.0 - 1e-12).any():
            raise ValueError("sign enumeration: coincident row directions")
    k = min(n, d)
    for subset in itertools.combinations(range(n), k):
        sub = en[list(subset)]
        if k == d:
            bad = abs(np.linalg.det(sub)) <= tol
        else:
            bad = np.linalg.svd(sub, compute_uv=False)[-1] <= tol
        if bad:
            raise ValueError(
                f"sign enumeration: rows {subset} are numerically dependent"
            )


def check_general_position_rankings(e, tol: float = 1e-9) -> None:
    """Genericity for score orderings: all rows distinct, and every acyclic
    (forest) subset of pairwise difference vectors has full rank.

    Subsets whose index pairs contain a cycle are structurally dependent
    ((e1-e2) + (e2-e3) - (e1-e3) = 0 identically), so only forests carry
    genericity information.
    """
    e = linalg.as_matrix(e)
    n, d = e.shape
    pairs = list(itertools.combinations(range(n), 2))
    diffs = np.array([e[i] - e[j] for i, j in pairs])
    if diffs.size == 0:
        return
    norms = np.linalg.norm(diffs, axis=1)
    if (norms <= tol).any():
        i, j = pairs[int(np.argmin(norms))]
        raise ValueError(f"ranking enumeration: rows {i} and {j} coincide")
    dn = diffs / norms[:, None]
    k = min(d, n - 1)  # a forest has at most n - 1 edges
    for subset in itertools.combinations(range(len(pairs)), k):
        # union-find cycle test on the chosen edges
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for idx in subset:
            a, b = pairs[idx]
            ra, rb = find(a), find(b)
            if ra == rb:
                acyclic = False
                break
            parent[ra] = rb
        if not acyclic:
            continue
        sub = dn[list(subset)]
        if k == d:
            bad = abs(np.linalg.det(sub)) <= tol
        else:
            bad = np.linalg.svd(sub, compute_uv=False)[-1] <= tol
        if bad:
            edges = [pairs[i] for i in subset]
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

    The lineality space is quotiented out first.  Independent normals cut
    out every sign vector, solved for directly.  Otherwise every chamber is
    a pointed cone, so it touches a ray cut out by r - 1 independent normals
    (r the rank).  Near that ray the chambers are those of the hyperplanes
    through it, found by recursion in the ray's tangent space; stepping off
    +-ray by half the smallest |a . v| of the other hyperplanes keeps their
    signs.  Rays on exactly r - 1 hyperplanes (all of them, for rows in
    general position) have Boolean local arrangements, solved in one
    stacked pass (_boolean_frames).  The candidate points are deduplicated
    by their packed sign rows in vectorized blocks, keeping the first point
    of each chamber in ray order.  Deterministic: no sampling and no
    iteration cap.
    """
    m, dim = a.shape
    if m == 0:
        return np.zeros((1, dim))
    tol = _ON_HYPERPLANE_TOL
    _, sv, vt = np.linalg.svd(a, full_matrices=False)
    r = int((sv > tol).sum())
    q = vt[:r]  # orthonormal rows spanning the normals
    b = a @ q.T  # the same unit normals in R^r
    if r == 1:
        return np.array([[1.0], [-1.0]]) @ q
    if r == m:
        return _orthant_signs(r) @ np.linalg.inv(b).T @ q
    subsets = np.array(list(itertools.combinations(range(m), r - 1)))
    _, ssv, svt = np.linalg.svd(b[subsets])
    rays = svt[ssv[:, -1] > tol, -1]  # null directions of independent subsets
    through = np.abs(rays @ b.T) <= tol
    first = _first_rows(np.packbits(through, axis=1))
    boolean = _boolean_frames(b, through, first) if r > 2 else {}
    orthants = _orthant_signs(r - 1)
    points, signs, pending = [], [], 0
    for k in first:
        v, on = rays[k], through[k]
        frame = boolean.get(k)
        w = _chamber_points(b[on]) if frame is None else orthants @ frame[0] @ frame[1]
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        step = 0.5 * np.abs(b[~on] @ v).min()
        points.append(np.concatenate([v + step * w, -v + step * w]))
        signs.append(np.packbits(points[-1] @ b.T > 0, axis=1))
        pending += len(points[-1])
        if pending >= _DEDUP_BLOCK:
            points, signs = _first_points(points, signs)
            pending = 0
    return _first_points(points, signs)[0][0] @ q


def _boolean_frames(b: np.ndarray, through: np.ndarray, rays) -> dict:
    """For each of the rays on exactly r - 1 hyperplanes (r = b's width) of
    rank r - 1, whose local arrangement is therefore Boolean: the factors
    (inverse transposed, basis) with which _chamber_points solves it, so its
    points are _orthant_signs(r - 1) @ inverse transposed @ basis.  One
    stacked svd and one stacked inverse run the same LAPACK routine on each
    matrix as the recursion's own calls would, so the bits are the same;
    the tests check this against the recursion.  A numpy that batched them
    differently could move witnesses in their last bits; each is still
    tested for strictness before an enumerator keeps it."""
    r = b.shape[1]
    rays = rays[through[rays].sum(axis=1) == r - 1]
    local = b[np.nonzero(through[rays])[1].reshape(len(rays), r - 1)]
    sv, basis = np.linalg.svd(local, full_matrices=False)[1:]
    full = (sv > _ON_HYPERPLANE_TOL).all(axis=1)
    rays, local, basis = rays[full], local[full], basis[full]
    inv_t = np.linalg.inv(local @ basis.transpose(0, 2, 1)).transpose(0, 2, 1)
    return dict(zip(rays.tolist(), zip(inv_t, basis)))


def _orthant_signs(r: int) -> np.ndarray:
    """Every +-1 row of length r, in itertools.product((1.0, -1.0)) order."""
    return 1.0 - 2.0 * (np.arange(2**r)[:, None] >> np.arange(r - 1, -1, -1) & 1)


# candidate points are deduplicated once per this many, so memory holds at
# most a block of them plus one point per chamber
_DEDUP_BLOCK = 1 << 16


def _first_points(points: list, signs: list) -> tuple[list, list]:
    """The points (a list of row blocks, sign rows alike) whose packed sign
    row occurs first, in their order, as one block."""
    signs = np.concatenate(signs)
    first = _first_rows(signs)
    return [np.concatenate(points)[first]], [signs[first]]


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """The ascending indices of the first occurrence of each distinct row."""
    order = np.lexsort(rows.T)  # stable, so equal rows keep their order
    ordered = rows[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return np.sort(order[new])


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
    normals = _unit_rows(e[i] - e[j], 1e-9, "ranking enumeration")
    found = {}
    for h in _chamber_points(normals):
        s = e @ h
        order = np.argsort(-s)
        if (s[order[:-1]] > s[order[1:]]).all():
            found.setdefault(tuple(order.tolist()), h)
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
    rank = linalg.exact_rank_binary(a)
    return DrCheck(
        target_rank=rank, dim=dim, capacity=dim + 1, excluded=rank > dim + 1
    )


@dataclass
class RankProbe:
    rank: int
    dim: int
    capacity: int
    n_queries: int
    rel_tol: float

    @property
    def within_single_softmax(self) -> bool:
        return self.rank <= self.capacity


def logprob_rank_probe(logp: np.ndarray, dim: int, rel_tol: float = 1e-8) -> RankProbe:
    """Numerical rank of a sampled log-probability matrix versus dim + 1.

    Needs at least dim + 3 rows so a rank above dim + 1 is observable with
    headroom; single-softmax models stay at or below the capacity, mixtures
    with k >= 2 can exceed it.
    """
    m = linalg.as_matrix(logp)
    if m.shape[0] < dim + 3:
        raise ValueError(f"need at least dim + 3 = {dim + 3} query rows")
    rank = linalg.numerical_rank(m, rel_tol)
    return RankProbe(
        rank=rank,
        dim=dim,
        capacity=dim + 1,
        n_queries=m.shape[0],
        rel_tol=rel_tol,
    )


def alr_transform(p, ref: int = 0) -> np.ndarray:
    """Additive log-ratio: ln(p_ij / p_i,ref) with the ref column dropped.

    Rows of a single softmax land in an affine subspace of dimension at
    most d under this map; rows must be strictly positive.
    """
    p = linalg.as_matrix(p)
    if not 0 <= ref < p.shape[1]:
        raise ValueError("ref column out of range")
    if (p <= 0).any():
        raise ValueError("ALR needs strictly positive entries")
    out = np.log(p / p[:, ref : ref + 1])
    return np.delete(out, ref, axis=1)


def sample_output_manifold(state_logp_fn, dim: int, n_samples: int, seed: int = 0):
    """Drive an output layer with Gaussian states; return (states, probs).

    state_logp_fn maps an (n, dim) state matrix to (n, n_entities) log
    probabilities.  The probability rows trace out the layer's reachable
    set; useful for rank and ALR probes on trained or random models.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n_samples, dim))
    logp = np.asarray(state_logp_fn(states), dtype=np.float64)
    if logp.ndim != 2 or logp.shape[0] != n_samples:
        raise ValueError("state_logp_fn returned a misshaped matrix")
    return states, np.exp(logp)
