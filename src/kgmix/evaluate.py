"""Filtered ranking metrics and filtered negative log-likelihood.

Ranks follow the filtered protocol: every other true object of the same
(subject, relation) query is removed from the candidate pool before the
true object's rank is taken.  The optimistic rank counts strictly greater
scores; the pessimistic rank also counts ties, so a constant score row
yields rank 1 versus rank |pool|.

Both metrics come from one batch kernel, _filtered_pass; filtered_rank
is its one-row reference.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .graph import TripleStore, filter_rows, triple_array

HITS_AT = (1, 3, 10)


def filtered_rank(scores, true_id: int, filter_ids=(), mode: str = "optimistic") -> int:
    """Rank of true_id within one score row after removing filter_ids.

    filter_ids are excluded from the pool entirely; true_id must not be in
    them.  Rank 1 is best.
    """
    z = np.asarray(scores, dtype=np.float64).reshape(-1)
    if not 0 <= true_id < z.size:
        raise ValueError("true_id out of range")
    if mode not in ("optimistic", "pessimistic"):
        raise ValueError(f"unknown rank mode {mode!r}")
    keep = np.ones(z.size, dtype=bool)
    fids = np.asarray(list(filter_ids), dtype=np.int64)
    if fids.size:
        if (fids == true_id).any():
            raise ValueError("true object present in its own filter set")
        keep[fids] = False
    keep[true_id] = False
    target = z[true_id]
    if mode == "optimistic":
        better = int((z[keep] > target).sum())
    else:
        better = int((z[keep] >= target).sum())
    return 1 + better


@dataclass
class EvalReport:
    split: str
    rank_mode: str
    n_queries: int
    mrr: float
    mr: float
    hits: dict[int, float]
    per_query: list[dict] = field(default_factory=list, repr=False)

    def to_dict(self, include_per_query: bool = False) -> dict:
        out = {
            "split": self.split,
            "rank_mode": self.rank_mode,
            "n_queries": self.n_queries,
            "mrr": self.mrr,
            "mr": self.mr,
            "hits": {f"hits@{k}": v for k, v in sorted(self.hits.items())},
        }
        if include_per_query:
            out["per_query"] = self.per_query
        return out


def ranking_metrics(
    score_fn,
    store: TripleStore,
    split: str = "test",
    rank_mode: str = "optimistic",
    candidates: list[list[int]] | None = None,
    filter_splits=("train", "valid", "test"),
    batch_size: int = 512,
) -> EvalReport:
    """Filtered ranking over one split.

    score_fn(subjects, relations) must return a (batch, n_entities) array.
    candidates, when given, is one entity-id list per triple of the split;
    ranking is then restricted to those candidates plus the true object,
    with known-true candidates still filtered out.  A candidate id outside
    [0, n_entities) raises ValueError.
    """
    if rank_mode not in ("optimistic", "pessimistic"):
        raise ValueError(f"unknown rank mode {rank_mode!r}")
    ranks, _ = _filtered_pass(
        score_fn, store, split, filter_splits, batch_size, rank_mode, candidates
    )
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

    def to_dict(self, include_per_query: bool = False) -> dict:
        out = {
            "split": self.split,
            "nll_filter": list(self.filter_splits),
            "n_scored": self.n_scored,
            "n_skipped": self.n_skipped,
            "mean_nll": self.mean_nll,
        }
        if include_per_query:
            out["per_query"] = self.per_query
        return out


def filtered_nll(
    logp_fn,
    store: TripleStore,
    split: str = "test",
    filter_splits=("train",),
    batch_size: int = 512,
) -> NllReport:
    """Mean negative log-probability of true objects after renormalizing
    each row over the entities not already known true in filter_splits.

    A query whose true object is itself excluded by the filter is skipped
    and counted, not scored.
    """
    nll, skipped = _filtered_pass(logp_fn, store, split, filter_splits, batch_size)
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


def summarize(ranks: EvalReport, nll: NllReport) -> dict:
    """One dict with a ranking report's metrics and an NLL report's mean."""
    return {
        **ranks.to_dict(),
        "mean_filtered_nll": nll.mean_nll,
        "nll_filter": list(nll.filter_splits),
        "nll_skipped": nll.n_skipped,
    }


def evaluate_model(
    scorer,
    store: TripleStore,
    split: str = "test",
    rank_mode: str = "optimistic",
    candidates: list[list[int]] | None = None,
    nll_filter_splits=("train",),
    batch_size: int = 512,
) -> dict:
    """Ranking metrics plus filtered NLL for one scorer, as one dict."""
    ranks = ranking_metrics(
        scorer.scores, store, split, rank_mode, candidates, batch_size=batch_size
    )
    nll = filtered_nll(
        scorer.log_probs, store, split, nll_filter_splits, batch_size=batch_size
    )
    return summarize(ranks, nll)


def _candidate_rows(candidates, n_triples: int, n_entities: int):
    """Candidate-id lists as CSR rows (ptr, cols), one row per triple."""
    if len(candidates) != n_triples:
        raise ValueError("need exactly one candidate list per triple")
    ptr = np.cumsum([0, *map(len, candidates)])
    cols = np.fromiter(chain.from_iterable(candidates), dtype=np.int64, count=ptr[-1])
    if cols.size and (cols.min() < 0 or cols.max() >= n_entities):
        raise ValueError(f"candidate entity id outside [0, {n_entities})")
    return ptr, cols


def _mask(out: np.ndarray, rows, start: int, stop: int, value: bool) -> np.ndarray:
    """Fill out with value in CSR rows start..stop-1 of rows, not value elsewhere."""
    ptr, cols = rows
    out.fill(not value)
    which = np.repeat(np.arange(stop - start), np.diff(ptr[start : stop + 1]))
    out[which, cols[ptr[start] : ptr[stop]]] = value
    return out


def _filtered_pass(fn, store, split, filter_splits, batch_size,
                   rank_mode=None, candidates=None):
    """Per triple of the split: the true object's rank (with a rank_mode)
    or negative log-probability (without) among the entities its row keeps,
    and whether the filter holds the true object itself.

    fn(subjects, relations) gives one (batch, n_entities) row per triple,
    never written to.  A row keeps the true object and every entity that is
    neither a true object in filter_splits nor outside the triple's pool.
    """
    triples = store.split(split)
    if not triples:
        raise ValueError(f"split {split!r} is empty")
    subs, rels, objs = triple_array(triples).T
    n, n_ent = len(triples), store.n_entities
    filt = filter_rows(store, filter_splits, subs, rels)
    pools = None if candidates is None else _candidate_rows(candidates, n, n_ent)

    width = min(batch_size, n)
    keep, pool = np.empty((2, width, n_ent), dtype=bool)
    work = np.empty((width, n_ent), dtype=bool if rank_mode else np.float64)
    values = np.empty(n, dtype=np.int64 if rank_mode else np.float64)
    known = np.empty(n, dtype=bool)
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        m = stop - start
        rows, o = np.arange(m), objs[start:stop]
        z = np.asarray(fn(subs[start:stop], rels[start:stop]), dtype=np.float64)
        if z.shape != (m, n_ent):
            raise ValueError(f"scores have shape {z.shape}, expected ({m}, {n_ent})")
        k = _mask(keep[:m], filt, start, stop, False)
        known[start:stop] = ~k[rows, o]
        k[rows, o] = True
        if pools is not None:
            k &= _mask(pool[:m], pools, start, stop, True)
        w = work[:m]
        if rank_mode:
            beats = np.greater if rank_mode == "optimistic" else np.greater_equal
            beats(z, z[rows, o][:, None], out=w)
            w &= k
            w[rows, o] = False
            values[start:stop] = 1 + np.count_nonzero(w, axis=1)
        else:
            w.fill(-np.inf)
            np.copyto(w, z, where=k)
            mx = w.max(axis=1, keepdims=True)
            w -= mx
            np.exp(w, out=w)
            values[start:stop] = mx[:, 0] + np.log(w.sum(axis=1)) - z[rows, o]
    return values, known
