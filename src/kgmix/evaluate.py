"""Filtered ranking metrics and filtered negative log-likelihood.

Ranks follow the filtered protocol: every other true object of the same
(subject, relation) query in the train, valid or test split is removed
from the candidate pool before the true object's rank is taken.  The
optimistic rank counts strictly greater scores; the pessimistic rank also
counts ties, so a constant score row yields rank 1 versus rank |pool|.

evaluate_model alone joins both reports into one summary dict, with
per-query rows on request; `kgmix eval` and training's valid_eval call it.

A score function is score_fn(subjects, relations, entities=None).  Without
entities it returns one score row over all entities per query; with an
(m, w) int64 id array it returns the (m, w) scores of entities[i] for
query i.  Ranking against candidate pools asks only for the pools, so a
pass costs the pool entries, not the whole entity table.

Both metrics come from one batch kernel, _filtered_pass, which costs the
scores plus work proportional to the filter and pool entries: filters come
from the store's cached split keys (graph.TripleStore.triple_keys) and are
applied as sparse corrections to the score rows, with no dense mask.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .autodiff import exp_shifted_rows
from .graph import SPLITS, TripleStore, filter_rows, sorted_unique

HITS_AT = (1, 3, 10)
BATCH_SIZE = 512  # score rows per kernel batch


@dataclass
class EvalReport:
    split: str
    rank_mode: str
    n_queries: int
    mrr: float
    mr: float
    hits: dict[int, float]
    per_query: list[dict] = field(default_factory=list, repr=False)


def ranking_metrics(
    score_fn,
    store: TripleStore,
    split: str = "test",
    rank_mode: str = "optimistic",
    candidates: list[list[int]] | None = None,
) -> EvalReport:
    """Filtered ranking over one split.

    score_fn(subjects, relations) must return a (batch, n_entities) array.
    candidates, when given, is one entity-id list per triple of the split;
    ranking is then restricted to those candidates plus the true object,
    with known-true candidates still filtered out.  score_fn is then only
    called as score_fn(subjects, relations, entities) and must return the
    (batch, w) scores of the ids in entities, at most one more column than
    the largest pool, so a batch costs its pools rather than the entity
    table.  A candidate id that is not an integer, or is outside
    [0, n_entities), raises ValueError.
    """
    if rank_mode not in ("optimistic", "pessimistic"):
        raise ValueError(f"unknown rank mode {rank_mode!r}")
    ranks, _ = _filtered_pass(score_fn, store, split, SPLITS, rank_mode, candidates)
    triples = store.split(split)
    per_query = [
        {"s": s, "r": r, "o": o, "rank": k}
        for (s, r, o), k in zip(triples, ranks.tolist())
    ]
    hits = {k: float((ranks <= k).mean()) for k in HITS_AT}
    return EvalReport(
        split=split,
        rank_mode=rank_mode,
        n_queries=len(triples),
        mrr=float((1.0 / ranks).mean()),
        mr=float(ranks.mean()),
        hits=hits,
        per_query=per_query,
    )


@dataclass
class NllReport:
    split: str
    filter_splits: tuple[str, ...]
    n_scored: int
    n_skipped: int
    mean_nll: float
    per_query: list[dict] = field(default_factory=list, repr=False)


def filtered_nll(
    logp_fn,
    store: TripleStore,
    split: str = "test",
    filter_splits=("train",),
) -> NllReport:
    """Mean negative log-probability of true objects after renormalizing
    each row over the entities not already known true in filter_splits.

    logp_fn may return log-probabilities plus any per-row constant (raw
    scores, say): the renormalization cancels it, up to rounding.  A query
    whose true object is itself excluded by the filter is skipped and
    counted, not scored.
    """
    nll, skipped = _filtered_pass(logp_fn, store, split, filter_splits)
    rows = zip(store.split(split), nll.tolist(), skipped.tolist())
    per_query = [
        {"s": s, "r": r, "o": o, "skipped": True} if skip
        else {"s": s, "r": r, "o": o, "nll": v}
        for (s, r, o), v, skip in rows
    ]
    scored = nll[~skipped]
    return NllReport(
        split=split,
        filter_splits=tuple(filter_splits),
        n_scored=int(scored.size),
        n_skipped=int(skipped.sum()),
        mean_nll=float(scored.mean()) if scored.size else float("nan"),
        per_query=per_query,
    )


def evaluate_model(
    scorer,
    store: TripleStore,
    split: str = "test",
    rank_mode: str = "optimistic",
    candidates: list[list[int]] | None = None,
    nll_filter_splits=("train",),
    per_query: bool = False,
) -> dict:
    """Ranking metrics plus filtered NLL for one scorer, as one dict.

    Calls ranking_metrics, then filtered_nll, once each.  Both passes read
    scorer.scores: filtered_nll renormalizes each row, so the scores, which
    are log-probabilities plus a per-row constant, give the NLL of
    scorer.log_probs up to rounding in the last digits.  With per_query,
    the dict also holds one row per triple: s, r, o, rank, and nll, or
    nll_skipped where the NLL filter holds the true object.
    """
    ranks = ranking_metrics(scorer.scores, store, split, rank_mode, candidates)
    nll = filtered_nll(scorer.scores, store, split, nll_filter_splits)
    out = {
        "split": split,
        "rank_mode": rank_mode,
        "n_queries": ranks.n_queries,
        "mrr": ranks.mrr,
        "mr": ranks.mr,
        "hits": {f"hits@{k}": v for k, v in sorted(ranks.hits.items())},
        "mean_filtered_nll": nll.mean_nll,
        "nll_filter": list(nll.filter_splits),
        "nll_skipped": nll.n_skipped,
    }
    if per_query:
        out["per_query"] = [
            {**rq, "nll": nq["nll"]} if "nll" in nq else {**rq, "nll_skipped": True}
            for rq, nq in zip(ranks.per_query, nll.per_query)
        ]
    return out


def _candidate_rows(candidates, n_triples: int, n_entities: int):
    """Candidate-id lists as CSR rows (ptr, cols), one row per triple.

    Every id must be a Python or numpy integer (bools are not): a float or
    a string would otherwise be truncated or parsed into some other id.
    """
    if len(candidates) != n_triples:
        raise ValueError("need exactly one candidate list per triple")
    ptr = np.cumsum([0, *map(len, candidates)])
    for t in set(map(type, chain.from_iterable(candidates))):
        if t is bool or not issubclass(t, (int, np.integer)):
            raise ValueError(f"candidate entity ids must be integers, got {t.__name__}")
    cols = np.fromiter(chain.from_iterable(candidates), dtype=np.int64, count=ptr[-1])
    if cols.size and (cols.min() < 0 or cols.max() >= n_entities):
        raise ValueError(f"candidate entity id outside [0, {n_entities})")
    return ptr, cols


def _filtered_pass(fn, store, split, filter_splits, rank_mode=None, candidates=None):
    """Per triple of the split: the true object's rank (with a rank_mode)
    or negative log-probability (without) among the entities its row keeps,
    and whether the filter holds the true object itself.

    fn is called BATCH_SIZE triples at a time, and its output is never
    written to; the pass holds no block of fn's while fn makes the next.
    A row keeps the true object and every entity that is neither a true
    object in filter_splits nor outside the triple's pool; pools apply to
    ranks only.  A full rank asks fn(subjects, relations) for whole
    (m, n_entities) rows, counts the whole row and takes off, as a sparse
    correction, the filtered entries that beat the true object.  A pool
    rank asks fn(subjects, relations, ids) for the (m, w) scores of ids:
    column 0 is the true object, the next columns hold the row's kept pool
    entries, and the true object again pads the row to w, 1 plus the
    batch's largest kept pool; the rank counts the kept entries that beat
    column 0, so padding never ties.  The NLL writes -inf at the filtered
    entries of a copy of the row, which autodiff.exp_shifted_rows, the one
    softmax kernel, then normalises.
    """
    if candidates is not None and not rank_mode:
        raise ValueError("candidate pools need a rank_mode")
    subs, rels, objs = store.split(split).array.T
    n, n_ent = objs.size, store.n_entities
    if not n:
        raise ValueError(f"split {split!r} is empty")
    ptr, cols = filter_rows(store, filter_splits, subs, rels)
    rows = np.repeat(np.arange(n), np.diff(ptr))
    is_true = cols == objs[rows]
    known = np.zeros(n, dtype=bool)
    known[rows[is_true]] = True
    if candidates is None:  # (rows, cols): the filtered entries, true objects aside
        rows, cols = rows[~is_true], cols[~is_true]
        work = np.empty((min(BATCH_SIZE, n), n_ent), dtype=bool if rank_mode else np.float64)
    else:  # (rows, cols): the pools' unique entries, neither filtered nor true
        pool_ptr, pool_cols = _candidate_rows(candidates, n, n_ent)
        pool_rows = np.repeat(np.arange(n), np.diff(pool_ptr))
        pool = sorted_unique(pool_rows * n_ent + pool_cols)
        filtered = np.isin(pool, rows * n_ent + cols, assume_unique=True)
        rows, cols = np.divmod(pool[~filtered], n_ent)
        kept = cols != objs[rows]
        rows, cols = rows[kept], cols[kept]
    bounds = np.searchsorted(rows, np.append(np.arange(0, n, BATCH_SIZE), n))

    values = np.empty(n, dtype=np.int64 if rank_mode else np.float64)
    for b, start in enumerate(range(0, n, BATCH_SIZE)):
        stop = min(start + BATCH_SIZE, n)
        m = stop - start
        lo, hi = bounds[b], bounds[b + 1]
        r, c = rows[lo:hi] - start, cols[lo:hi]
        if candidates is None:
            want, args, w = (m, n_ent), (), work[:m]
        else:  # c becomes each pool entry's column in ids
            count = np.bincount(r, minlength=m)
            c = np.arange(1, r.size + 1) - (np.cumsum(count) - count)[r]
            ids = np.repeat(objs[start:stop, None], 1 + count.max(), axis=1)
            ids[r, c] = cols[lo:hi]
            want, args = ids.shape, (ids,)
        z = np.asarray(fn(subs[start:stop], rels[start:stop], *args), dtype=np.float64)
        if z.shape != want:
            raise ValueError(f"scores have shape {z.shape}, expected {want}")
        t = z[np.arange(m), objs[start:stop]] if candidates is None else z[:, 0]
        if rank_mode:
            beats = np.greater if rank_mode == "optimistic" else np.greater_equal
            ahead = np.bincount(r[beats(z[r, c], t[r])], minlength=m)
            if candidates is None:  # the whole row, less t itself and the filter
                beats(z, t[:, None], out=w)
                ahead = np.count_nonzero(w, axis=1) - beats(t, t) - ahead
            values[start:stop] = 1 + ahead
        else:
            np.copyto(w, z)
            w[r, c] = -np.inf
            mx, s = exp_shifted_rows(w)
            values[start:stop] = mx[:, 0] + np.log(s[:, 0]) - t
        del z  # so that fn scores the next batch with this block freed
    return values, known
