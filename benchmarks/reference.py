"""Computations made apart from kgmix, used to check its outputs.

Nothing here calls into the package: forwards are written out in plain
numpy from the parameter arrays, filter sets come from the generator's raw
triples, and the analysis closed forms are computed from their formulas.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def log_softmax_rows(z: np.ndarray) -> np.ndarray:
    mx = z.max(axis=1, keepdims=True)
    return z - (mx + np.log(np.exp(z - mx).sum(axis=1, keepdims=True)))


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def distmult_states(entities: np.ndarray, relations: np.ndarray, subs, rels) -> np.ndarray:
    return entities[np.asarray(subs)] * relations[np.asarray(rels)]


def softmax_log_probs(entities, relations, subs, rels) -> np.ndarray:
    """DistMult state, then H E^T, then a row log-softmax."""
    h = distmult_states(entities, relations, subs, rels)
    return log_softmax_rows(h @ entities.T)


def mos_log_probs(entities, relations, omegas, components, subs, rels, slope: float = 0.01) -> np.ndarray:
    """Inference-mode mixture of softmaxes written out per component.

    ``omegas`` holds the (k, d) prior weights; each of the k ``components``
    is a dict with keys w1, b1, gamma1, beta1, rm1, rv1, eps1 and the same
    with suffix 2 (weights, bias, batch-norm scale and shift, running mean
    and variance, epsilon).
    """
    h = distmult_states(entities, relations, subs, rels)
    log_pi = log_softmax_rows(h @ omegas.T)
    terms = []
    for k, c in enumerate(components):
        x = h
        for j in ("1", "2"):
            x = x @ c["w" + j].T + c["b" + j]
            x = (x - c["rm" + j]) / np.sqrt(c["rv" + j] + c["eps" + j])
            x = c["gamma" + j] * x + c["beta" + j]
            x = leaky_relu(x, slope)
        terms.append(log_softmax_rows(x @ entities.T) + log_pi[:, k : k + 1])
    stacked = np.stack(terms)
    mx = stacked.max(axis=0)
    return mx + np.log(np.exp(stacked - mx).sum(axis=0))


def true_objects(raw: dict, n_relations: int, splits) -> dict:
    """(subject, relation) -> set of objects, over raw triples and their
    inverses (o, r + n_relations, s), for the named splits."""
    out: dict = {}
    for name in splits:
        for s, r, o in np.asarray(raw[name]).tolist():
            out.setdefault((s, r), set()).add(o)
            out.setdefault((o, r + n_relations), set()).add(s)
    return out


def brute_rank(scores: np.ndarray, target: int, filtered: set, pool=None) -> int:
    """Optimistic filtered rank of ``target``: one plus the number of kept
    entities scoring strictly higher.  Kept means not another true object
    and, when ``pool`` is given, inside the pool."""
    better = 0
    t = scores[target]
    for e in range(scores.size):
        if e == target or e in filtered:
            continue
        if pool is not None and e not in pool:
            continue
        if scores[e] > t:
            better += 1
    return 1 + better


def brute_filtered_nll(logp: np.ndarray, target: int, filtered: set) -> float | None:
    """-log p(target) renormalised over entities outside ``filtered``;
    None when the target is itself filtered (the query is skipped)."""
    if target in filtered:
        return None
    kept = [logp[e] for e in range(logp.size) if e not in filtered]
    mx = max(kept)
    lse = mx + math.log(sum(math.exp(v - mx) for v in kept))
    return -(logp[target] - lse)


def ranking_summary(ranks, hits_at=(1, 3, 10)) -> dict:
    r = np.asarray(ranks, dtype=np.float64)
    return {
        "mrr": float((1.0 / r).mean()),
        "mr": float(r.mean()),
        "hits": {k: float((r <= k).mean()) for k in hits_at},
    }


def sign_count(n: int, d: int) -> int:
    """Cover 1965: sign patterns of n generic central hyperplanes in R^d."""
    return 2 * sum(math.comb(n - 1, i) for i in range(d))


def stirling_first_unsigned(n: int, k: int) -> int:
    """c(n, k): permutations of n elements with exactly k cycles."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for m in range(1, n + 1):
        for j in range(1, m + 1):
            table[m][j] = table[m - 1][j - 1] + (m - 1) * table[m - 1][j]
    return table[n][k]


def ordering_count(n: int, d: int) -> int:
    """Cover 1967: orderings of n generic points in R^d induced by a
    direction, 2 * sum_{i<d, i = d-1 mod 2} c(n, n-i)."""
    return 2 * sum(
        stirling_first_unsigned(n, n - i) for i in range(d) if (d - 1 - i) % 2 == 0
    )


def witness_realises_signs(e: np.ndarray, h: np.ndarray, pattern) -> bool:
    return bool(((e @ h) * np.asarray(pattern, dtype=np.float64) > 0).all())


def witness_realises_ordering(e: np.ndarray, h: np.ndarray, order) -> bool:
    s = (e @ h)[list(order)]
    return bool((s[:-1] > s[1:]).all())


def poly_signs_exact(coefficients, n_cols: int) -> list[int]:
    """Signs of sum_j c_j t^j at t = 1..n_cols, in exact rationals."""
    out = []
    for t in range(1, n_cols + 1):
        v = sum(Fraction(c) * t**j for j, c in enumerate(coefficients))
        out.append((v > 0) - (v < 0))
    return out
