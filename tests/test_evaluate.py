"""Filtered ranking and filtered NLL against brute-force references and
hand-worked probability values."""
import tracemalloc
import weakref

import numpy as np
import pytest

from kgmix import evaluate
from kgmix.evaluate import (
    HITS_AT,
    EvalReport,
    NllReport,
    _candidate_rows,
    _filtered_pass,
    evaluate_model,
    filtered_nll,
    ranking_metrics,
)
from kgmix.graph import TripleStore, filter_rows


def filtered_rank(scores, true_id: int, filter_ids=(), mode: str = "optimistic") -> int:
    """Rank of true_id within one score row after removing filter_ids: the
    one-row reference for the batch kernel in kgmix.evaluate.

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


def test_filtered_rank_basics():
    z = [3.0, 1.0, 2.0]
    assert filtered_rank(z, 0) == 1
    assert filtered_rank(z, 1) == 3
    assert filtered_rank(z, 2) == 2
    # filtering out the top score promotes everything below it
    assert filtered_rank(z, 1, filter_ids=[0]) == 2
    assert filtered_rank(z, 1, filter_ids=[0, 2]) == 1


def test_filtered_rank_tie_handling():
    z = np.zeros(7)
    assert filtered_rank(z, 3, mode="optimistic") == 1
    assert filtered_rank(z, 3, mode="pessimistic") == 7
    assert filtered_rank(z, 3, filter_ids=[0, 1], mode="pessimistic") == 5


def test_filtered_rank_validation():
    with pytest.raises(ValueError, match="out of range"):
        filtered_rank([1.0, 2.0], 2)
    with pytest.raises(ValueError, match="own filter"):
        filtered_rank([1.0, 2.0], 0, filter_ids=[0])
    with pytest.raises(ValueError, match="rank mode"):
        filtered_rank([1.0, 2.0], 0, mode="median")


def _score_table(store, seed=0):
    """A frozen random score row per (subject, relation) pair."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(
        (store.n_entities, store.n_relations, store.n_entities)
    )

    def score_fn(subs, rels, entities=None):
        z = table[np.asarray(subs), np.asarray(rels)]
        return z if entities is None else np.take_along_axis(z, entities, axis=1)

    return table, score_fn


def _all_true(store, splits=("train", "valid", "test")):
    """(s, r) -> set of true objects in the splits, by a loop over the raw
    split rows."""
    true = {}
    for sp in splits:
        for s, r, o in store.split(sp):
            true.setdefault((s, r), set()).add(o)
    return true


def _naive_ranks(table, store, split, mode):
    true = _all_true(store)
    ranks = []
    for s, r, o in store.split(split):
        z = table[s, r]
        drop = true[(s, r)] - {o}
        better = 0
        for e in range(store.n_entities):
            if e == o or e in drop:
                continue
            if mode == "optimistic" and z[e] > z[o]:
                better += 1
            if mode == "pessimistic" and z[e] >= z[o]:
                better += 1
        ranks.append(1 + better)
    return ranks


@pytest.mark.parametrize("mode", ["optimistic", "pessimistic"])
@pytest.mark.parametrize("split", ["valid", "test"])
def test_ranking_metrics_match_naive_reference(toy_store, monkeypatch, mode, split):
    monkeypatch.setattr(evaluate, "BATCH_SIZE", 1)
    table, score_fn = _score_table(toy_store)
    report = ranking_metrics(score_fn, toy_store, split, rank_mode=mode)
    want = _naive_ranks(table, toy_store, split, mode)
    got = [q["rank"] for q in report.per_query]
    assert got == want
    assert report.mrr == pytest.approx(np.mean([1.0 / r for r in want]), abs=1e-12)
    assert report.mr == pytest.approx(np.mean(want), abs=1e-12)
    for k in HITS_AT:
        assert report.hits[k] == pytest.approx(
            np.mean([r <= k for r in want]), abs=1e-12
        )
    assert report.n_queries == len(want)


def test_ranking_filtered_vs_raw(toy_store):
    """(0, r0) has train objects {1, 2}; when scoring the test-like pair the
    other true object must not compete."""
    store = TripleStore(
        entity_names=list("abcd"), relation_names=["r"],
        train=[(0, 0, 1)], valid=[], test=[(0, 0, 2)],
    )

    def score_fn(subs, rels):
        # entity 1 always scores highest, entity 2 second
        return np.tile(np.array([0.0, 9.0, 5.0, 1.0]), (len(subs), 1))

    report = ranking_metrics(score_fn, store, "test")
    # unfiltered rank would be 2; the filter removes the known object 1
    assert report.per_query[0]["rank"] == 1
    assert report.mrr == 1.0


def test_perfect_scorer_has_mrr_one(toy_store):
    true = _all_true(toy_store)

    def score_fn(subs, rels):
        z = np.zeros((len(subs), toy_store.n_entities))
        for i, (s, r) in enumerate(zip(subs, rels)):
            z[i, sorted(true[(s, r)])] = 1.0
        return z

    for mode in ("optimistic", "pessimistic"):
        rep = ranking_metrics(score_fn, toy_store, "test", rank_mode=mode)
        assert rep.mrr == 1.0 and rep.hits[1] == 1.0


def test_ranking_invariant_to_monotone_transform(toy_store):
    table, score_fn = _score_table(toy_store, seed=3)

    def warped(subs, rels):
        return np.exp(3.0 * score_fn(subs, rels) - 1.0)

    a = ranking_metrics(score_fn, toy_store, "test")
    b = ranking_metrics(warped, toy_store, "test")
    assert [q["rank"] for q in a.per_query] == [q["rank"] for q in b.per_query]
    assert a.mrr == b.mrr


def test_ranking_with_candidates(toy_store):
    table, score_fn = _score_table(toy_store, seed=4)
    # test triples: (1, 0, 4) and (3, 1, 5)
    cands = [[0, 2, 4], [0, 1]]
    rep = ranking_metrics(score_fn, toy_store, "test", candidates=cands)
    z0 = table[1, 0]
    # pool: candidates plus the true object, minus known-true {2} for (1, r0)
    pool0 = [0, 4]
    rank0 = 1 + sum(z0[e] > z0[4] for e in pool0 if e != 4)
    z1 = table[3, 1]
    pool1 = [0, 1, 5]
    rank1 = 1 + sum(z1[e] > z1[5] for e in pool1 if e != 5)
    assert [q["rank"] for q in rep.per_query] == [rank0, rank1]
    with pytest.raises(ValueError, match="one candidate list per triple"):
        ranking_metrics(score_fn, toy_store, "test", candidates=[[0]])


def test_ranking_validation(toy_store):
    _, score_fn = _score_table(toy_store)
    empty = TripleStore(entity_names=["a"], relation_names=["r"],
                        train=[(0, 0, 0)], valid=[], test=[])
    with pytest.raises(ValueError, match="empty"):
        ranking_metrics(score_fn, empty, "test")

    def bad_fn(subs, rels):
        return np.zeros((len(subs), 2))

    with pytest.raises(ValueError, match="expected"):
        ranking_metrics(bad_fn, toy_store, "test")

    def full_rows(subs, rels, entities=None):  # ignores the ids it is given
        return score_fn(subs, rels)

    # kept pools: [0] beside true object 4 (2 is filtered), [0, 1] beside 5
    with pytest.raises(ValueError, match=r"shape \(2, 6\), expected \(2, 3\)"):
        ranking_metrics(full_rows, toy_store, "test", candidates=[[0, 2, 4], [0, 1]])


def test_filtered_nll_worked_example():
    """Removing a known-true object renormalizes the rest: with row
    probabilities (0.5, 0.3, 0.2) and object 0 filtered, the true object 1
    scores 0.3 / (0.3 + 0.2) = 0.6."""
    store = TripleStore(
        entity_names=["a", "b", "c"], relation_names=["r"],
        train=[(0, 0, 0)], valid=[], test=[(0, 0, 1)],
    )

    def logp_fn(subs, rels):
        return np.log(np.tile(np.array([0.5, 0.3, 0.2]), (len(subs), 1)))

    rep = filtered_nll(logp_fn, store, "test", filter_splits=("train",))
    assert rep.n_scored == 1 and rep.n_skipped == 0
    assert rep.mean_nll == pytest.approx(-np.log(0.6), abs=1e-12)


def test_filtered_nll_skips_filtered_true_objects():
    store = TripleStore(
        entity_names=["a", "b", "c"], relation_names=["r"],
        train=[(0, 0, 1)], valid=[], test=[(0, 0, 1), (0, 0, 2)],
    )

    def logp_fn(subs, rels):
        return np.log(np.tile(np.array([0.2, 0.5, 0.3]), (len(subs), 1)))

    rep = filtered_nll(logp_fn, store, "test", filter_splits=("train",))
    assert rep.n_skipped == 1 and rep.n_scored == 1
    assert rep.per_query[0] == {"s": 0, "r": 0, "o": 1, "skipped": True}
    # remaining query renormalizes over {a, c}: 0.3 / (0.2 + 0.3)
    assert rep.mean_nll == pytest.approx(-np.log(0.6), abs=1e-12)


def _naive_nll(table, store, split, filter_splits):
    true = {}
    for sp in filter_splits:
        for s, r, o in store.split(sp):
            true.setdefault((s, r), set()).add(o)
    vals, skipped = [], 0
    for s, r, o in store.split(split):
        drop = true.get((s, r), set())
        if o in drop:
            skipped += 1
            continue
        logp = table[s, r] - np.log(np.exp(table[s, r]).sum())
        kept = [np.exp(logp[e]) for e in range(store.n_entities) if e not in drop]
        vals.append(-np.log(np.exp(logp[o]) / sum(kept)))
    return vals, skipped


@pytest.mark.parametrize("filter_splits", [("train",), ("train", "valid")])
def test_filtered_nll_matches_naive_reference(toy_store, monkeypatch, filter_splits):
    monkeypatch.setattr(evaluate, "BATCH_SIZE", 1)
    table, _ = _score_table(toy_store, seed=6)
    norm = table - np.log(np.exp(table).sum(axis=-1, keepdims=True))

    def logp_fn(subs, rels):
        return norm[np.asarray(subs), np.asarray(rels)]

    rep = filtered_nll(logp_fn, toy_store, "test", filter_splits)
    want, skipped = _naive_nll(table, toy_store, "test", filter_splits)
    assert rep.n_skipped == skipped
    assert rep.mean_nll == pytest.approx(np.mean(want), abs=1e-12)


def test_filtered_nll_shift_invariance(toy_store):
    table, _ = _score_table(toy_store, seed=7)

    def logp_fn(subs, rels):
        return table[np.asarray(subs), np.asarray(rels)]

    def shifted(subs, rels):
        return logp_fn(subs, rels) + 11.5

    a = filtered_nll(logp_fn, toy_store, "test")
    b = filtered_nll(shifted, toy_store, "test")
    assert a.mean_nll == pytest.approx(b.mean_nll, abs=1e-9)


def test_evaluate_model_combines_reports(toy_store):
    from kgmix.models import Scorer, init_model

    scorer = Scorer(init_model("distmult", 6, 2, 3, seed=2))
    out = evaluate_model(scorer, toy_store, "test",
                         nll_filter_splits=("train",))
    ranks = ranking_metrics(scorer.scores, toy_store, "test")
    nll = filtered_nll(scorer.scores, toy_store, "test", ("train",))
    assert out["mrr"] == ranks.mrr
    assert out["mean_filtered_nll"] == nll.mean_nll
    assert out["nll_filter"] == ["train"]
    assert out["hits"]["hits@10"] == ranks.hits[10]
    assert out["nll_skipped"] == nll.n_skipped
    assert "per_query" not in out


def test_evaluate_model_calls_each_pass_once_and_merges_their_rows(toy_store, monkeypatch):
    """benchmarks/workloads.py:run_eval wraps the module's ranking_metrics
    and filtered_nll and reads the first report of each: evaluate_model must
    call each exactly once, ranking first, through the module globals."""
    from kgmix.models import Scorer, init_model

    store = TripleStore(  # the last test triple is in train: its NLL is skipped
        entity_names=toy_store.entity_names, relation_names=toy_store.relation_names,
        train=list(toy_store.train), valid=list(toy_store.valid),
        test=[*toy_store.test, (0, 0, 1)],
    )
    scorer = Scorer(init_model("distmult", 6, 2, 3, seed=2))
    want_ranks = ranking_metrics(scorer.scores, store, "test")
    want_nll = filtered_nll(scorer.scores, store, "test", ("train",))

    calls = []

    def recording(name):
        fn = getattr(evaluate, name)

        def wrapper(*args, **kwargs):
            calls.append((name, fn(*args, **kwargs)))
            return calls[-1][1]

        return wrapper

    for name in ("ranking_metrics", "filtered_nll"):
        monkeypatch.setattr(evaluate, name, recording(name))
    out = evaluate_model(scorer, store, "test", per_query=True)
    assert [name for name, _ in calls] == ["ranking_metrics", "filtered_nll"]
    ranks, nll = calls[0][1], calls[1][1]
    assert isinstance(ranks, EvalReport) and isinstance(nll, NllReport)
    assert ranks == want_ranks and nll == want_nll  # per_query rows included

    merged = []
    for rq, nq in zip(ranks.per_query, nll.per_query):
        row = dict(rq)
        if "nll" in nq:
            row["nll"] = nq["nll"]
        else:
            row["nll_skipped"] = True
        merged.append(row)
    assert out["per_query"] == merged
    assert [row.get("nll_skipped", False) for row in merged] == [False, False, True]


@pytest.mark.parametrize(
    "encoder,k", [("distmult", 1), ("rescal", 1), ("mlp", 1), ("distmult", 3)]
)
def test_evaluate_model_nll_from_scores_matches_log_probs(toy_store, monkeypatch, encoder, k):
    """evaluate_model feeds scorer.scores to filtered_nll; the per-row
    shift from log-probabilities cancels, up to rounding, and the
    log-probability pass is not run."""
    from kgmix.models import Scorer, init_model
    from kgmix.mos import init_mos

    rng = np.random.default_rng(4)
    model = init_model(encoder, 6, 2, 4, rng=rng)
    scorer = Scorer(model, init_mos(k, 4, rng) if k > 1 else None)
    want = filtered_nll(scorer.log_probs, toy_store, "valid", ("train",)).mean_nll

    calls = []
    log_probs = Scorer.log_probs

    def counting(self, subjects, relations):
        calls.append(len(subjects))
        return log_probs(self, subjects, relations)

    monkeypatch.setattr(Scorer, "log_probs", counting)
    out = evaluate_model(scorer, toy_store, "valid", nll_filter_splits=("train",))
    assert calls == []
    assert out["mean_filtered_nll"] == pytest.approx(want, rel=1e-12, abs=0)


# ---- the batch kernel against the per-triple loop it replaced ----


def _loop_ranks(score_fn, store, split, mode, candidates):
    """The per-triple filtered-rank loop, one filtered_rank call per triple."""
    true = _all_true(store)
    ranks = []
    for i, (s, r, o) in enumerate(store.split(split)):
        z = score_fn(np.array([s]), np.array([r]))[0]
        drop = true[(s, r)] - {o}
        if candidates is not None:
            pool = set(candidates[i])
            pool.add(o)
            drop |= set(range(store.n_entities)) - pool
        ranks.append(filtered_rank(z, o, sorted(drop), mode=mode))
    return ranks


def _loop_nll(logp_fn, store, split, filter_splits):
    """The per-triple filtered-NLL loop; None marks a skipped triple."""
    true = _all_true(store, filter_splits)
    out = []
    for s, r, o in store.split(split):
        drop = sorted(true.get((s, r), ()))
        if o in drop:
            out.append(None)
            continue
        row = logp_fn(np.array([s]), np.array([r]))[0]
        keep = np.ones(row.size, dtype=bool)
        if drop:
            keep[np.asarray(drop, dtype=np.int64)] = False
        kept = row[keep]
        mx = kept.max()
        out.append(-(row[o] - (mx + np.log(np.exp(kept - mx).sum()))))
    return out


def _random_case(seed):
    """A random store whose splits overlap, integer-valued scores (so ties
    are common) and candidate pools with duplicates, empty lists, the true
    object and filtered entities."""
    rng = np.random.default_rng(seed)
    n_ent, n_rel = int(rng.integers(4, 13)), int(rng.integers(1, 4))

    def draw(n):
        t = zip(rng.integers(n_ent, size=n), rng.integers(n_rel, size=n),
                rng.integers(n_ent, size=n))
        return list(dict.fromkeys((int(s), int(r), int(o)) for s, r, o in t))

    train = draw(int(rng.integers(10, 60)))
    valid = draw(int(rng.integers(1, 15)))
    test = draw(int(rng.integers(1, 25))) + train[:3] + valid[:2]
    store = TripleStore(
        entity_names=[f"e{i}" for i in range(n_ent)],
        relation_names=[f"r{i}" for i in range(n_rel)],
        train=train, valid=valid, test=list(dict.fromkeys(test)),
    )
    table = rng.integers(-2, 3, size=(n_ent, n_rel, n_ent)).astype(np.float64)

    def score_fn(subs, rels, entities=None):
        z = table[np.asarray(subs), np.asarray(rels)]
        if entities is not None:
            z = np.take_along_axis(z, entities, axis=1)
        z.flags.writeable = False  # the kernel must not write into it
        return z

    true = _all_true(store)
    pools = []
    for s, r, o in store.test:
        pool = rng.integers(n_ent, size=int(rng.integers(0, 6))).tolist()
        if rng.random() < 0.4:
            pool.append(o)
        if rng.random() < 0.4:
            pool.append(int(rng.choice(sorted(true[(s, r)]))))
        if rng.random() < 0.2:
            pool = []
        pools.append(pool + pool[:2])
    return store, score_fn, pools


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("batch_size", [1, 4, 512])
def test_kernel_ranks_equal_the_per_triple_loop(monkeypatch, seed, batch_size):
    monkeypatch.setattr(evaluate, "BATCH_SIZE", batch_size)
    store, score_fn, pools = _random_case(seed)
    for mode in ("optimistic", "pessimistic"):
        for cands in (None, pools):
            rep = ranking_metrics(score_fn, store, "test", rank_mode=mode,
                                  candidates=cands)
            got = [q["rank"] for q in rep.per_query]
            assert got == _loop_ranks(score_fn, store, "test", mode, cands)
            assert all(type(k) is int for k in got)


@pytest.mark.filterwarnings("error")  # skipped rows must stay finite too
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("batch_size", [1, 4, 512])
def test_kernel_nll_matches_the_per_triple_loop(monkeypatch, seed, batch_size):
    monkeypatch.setattr(evaluate, "BATCH_SIZE", batch_size)
    store, score_fn, _ = _random_case(seed)
    for filter_splits in (("train",), ("train", "valid"), ("train", "valid", "test")):
        rep = filtered_nll(score_fn, store, "test", filter_splits)
        want = _loop_nll(score_fn, store, "test", filter_splits)
        assert [q.get("skipped", False) for q in rep.per_query] == [
            w is None for w in want
        ]
        for q, w in zip(rep.per_query, want):
            if w is not None:
                assert type(q["nll"]) is float
                assert abs(q["nll"] - w) <= 1e-12 * max(1.0, abs(w))
        assert rep.n_skipped == sum(w is None for w in want)


@pytest.mark.parametrize("rank_mode", ["optimistic", None])
def test_kernel_holds_one_score_block(monkeypatch, rank_mode):
    """When fn scores a batch, the block it returned for the previous batch
    is already dead: a pass holds at most one score block."""
    monkeypatch.setattr(evaluate, "BATCH_SIZE", 2)
    store, score_fn, _ = _random_case(1)
    blocks = []

    def keeping(subs, rels):
        assert all(b() is None for b in blocks)
        z = np.array(score_fn(subs, rels), dtype=np.float64)
        blocks.append(weakref.ref(z))
        return z

    want = _filtered_pass(score_fn, store, "test", ("train",), rank_mode)
    got = _filtered_pass(keeping, store, "test", ("train",), rank_mode)
    assert len(blocks) == -(-len(store.test) // 2) >= 3
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_candidate_ids_out_of_range_raise():
    store, score_fn, pools = _random_case(0)
    n = store.n_entities
    for bad in (n, n + 7, -1):
        cands = [list(p) for p in pools]
        cands[-1] = cands[-1] + [bad]
        with pytest.raises(ValueError, match="outside"):
            ranking_metrics(score_fn, store, "test", candidates=cands)


def test_candidate_ids_must_be_integers(toy_store):
    """A float, bool or string id, or a float or bool array, is rejected,
    not truncated or parsed into another entity's id; any Python or numpy
    integer, or an integer array, is taken as it is."""
    _, score_fn = _score_table(toy_store)
    for bad, name in (
        ([[0.9, 4.7], [1, 3]], "float"),
        ([[0, 4], [True, 3]], "bool"),
        ([[0, 4], [1, "3"]], "str"),
        ([[0, np.float64(4.0)], [1]], "float64"),
        ([[0, 4], [np.bool_(True)]], "bool"),
        ([[0, None], [1]], "NoneType"),
        (np.array([[0.0, 4.0], [1.0, 3.0]]), "float64"),
        (np.array([[0, 4], [1, 3]], dtype=np.float32), "float32"),
        (np.array([[False, True], [True, False]]), "bool"),
    ):
        with pytest.raises(ValueError, match=f"must be integers, got {name}$"):
            ranking_metrics(score_fn, toy_store, "test", candidates=bad)
    want = ranking_metrics(score_fn, toy_store, "test", candidates=[[0, 2, 4], [0, 1]])
    for ints in ([[np.int32(0), 2, np.uint8(4)], [0, np.int64(1)]],
                 *(np.array([[0, 2, 4], [0, 1, 1]], dtype=d)
                   for d in (np.int64, np.int32, np.uint16)),
                 np.array([[0, 2, 4], [0, 1, 1]], dtype=object)):
        got = ranking_metrics(score_fn, toy_store, "test", candidates=ints)
        assert got.per_query == want.per_query


def test_pool_ranking_scores_only_the_pools():
    """With candidates, the score function is only asked for ids, each
    batch no wider than 1 plus the largest pool, and the pass allocates
    far less than one (BATCH_SIZE x n_entities) block of float scores."""
    from kgmix.models import Scorer, init_model

    n_ent, n_test = 20_000, 1_100
    rng = np.random.default_rng(0)

    def draw(n):
        return np.stack([rng.integers(n_ent, size=n), rng.integers(3, size=n),
                         rng.integers(n_ent, size=n)], axis=1)

    store = TripleStore(entity_names=[f"e{i}" for i in range(n_ent)],
                        relation_names=["r0", "r1", "r2"],
                        train=draw(3_000), valid=draw(100), test=draw(n_test))
    pools = [rng.integers(n_ent, size=k).tolist() for k in rng.integers(0, 101, n_test)]
    scorer = Scorer(init_model("distmult", n_ent, 3, 8, seed=0))
    widths = []

    def recording(subs, rels, entities=None):
        assert entities is not None, "a pool pass asked for whole score rows"
        widths.append(entities.shape[1])
        return scorer.scores(subs, rels, entities)

    tracemalloc.start()
    try:
        report = ranking_metrics(recording, store, "test", candidates=pools)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(widths) == -(-n_test // evaluate.BATCH_SIZE)
    assert max(widths) <= 1 + max(map(len, pools))
    assert peak < evaluate.BATCH_SIZE * n_ent * 8 / 10
    assert report.n_queries == n_test and 1 <= report.mr <= 101


# ---- the sparse-correction kernel against the dense-mask kernel it replaced ----


def _mask(out, rows, start, stop, value):
    """Fill out with value in CSR rows start..stop-1 of rows, not value elsewhere."""
    ptr, cols = rows
    out.fill(not value)
    which = np.repeat(np.arange(stop - start), np.diff(ptr[start : stop + 1]))
    out[which, cols[ptr[start] : ptr[stop]]] = value
    return out


def _dense_filtered_pass(fn, store, split, filter_splits, rank_mode=None, candidates=None):
    """The reference kernel: dense (batch x entities) keep and pool masks,
    in batches of the kernel's BATCH_SIZE."""
    batch_size = evaluate.BATCH_SIZE
    subs, rels, objs = store.split(split).array.T
    n, n_ent = objs.size, store.n_entities
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


def _assert_same_pass(*args, **kwargs):
    got, got_known = _filtered_pass(*args, **kwargs)
    want, want_known = _dense_filtered_pass(*args, **kwargs)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # equal ranks, bitwise-equal NLLs
    assert got_known.tolist() == want_known.tolist()
    return got, got_known


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("batch_size", [1, 4, 512])
def test_sparse_kernel_equals_the_dense_kernel(monkeypatch, seed, batch_size):
    """Integer scores (many ties), pools with duplicates, filtered ids and
    the true object, and test triples whose true object is filtered."""
    monkeypatch.setattr(evaluate, "BATCH_SIZE", batch_size)
    store, score_fn, pools = _random_case(seed)
    for mode in ("optimistic", "pessimistic"):
        for cands in (None, pools):
            _assert_same_pass(score_fn, store, "test", ("train", "valid", "test"),
                              mode, cands)
    for filter_splits in (("train",), ("train", "valid"), ("train", "valid", "test")):
        _assert_same_pass(score_fn, store, "test", filter_splits)
    with pytest.raises(ValueError, match="rank_mode"):  # pools rank, never NLL
        _filtered_pass(score_fn, store, "test", ("train",), None, pools)


def test_sparse_kernel_on_extreme_rows():
    """A filtered true object (skipped), filtered scores 900 above every kept
    score, a pool holding only filtered ids and the true object, and ties
    with +-inf."""
    store = TripleStore(
        entity_names=[f"e{i}" for i in range(6)], relation_names=["r"],
        train=[(0, 0, 1), (0, 0, 2), (1, 0, 3)], valid=[],
        test=[(0, 0, 3), (0, 0, 1), (1, 0, 0), (1, 0, 5)],
    )
    table = np.array([
        [0.0, 900.0, 850.0, 1.0, 2.0, -3.0],
        [0.0, 900.0, 850.0, 1.0, 2.0, -3.0],
        [np.inf, 5.0, 5.0, np.inf, -np.inf, 5.0],
        [np.inf, 5.0, 5.0, np.inf, -np.inf, 5.0],
    ])

    def score_fn(subs, rels, entities=None):  # one row per test triple, in one batch
        return table if entities is None else np.take_along_axis(table, entities, axis=1)

    pools = [[1, 2, 3, 3], [1, 2], [3, 3, 0], [0, 3, 4, 4]]
    ranks = {}
    for mode in ("optimistic", "pessimistic"):
        for cands in (None, pools):
            ranks[mode, cands is None], _ = _assert_same_pass(
                score_fn, store, "test", ("train",), mode, cands)
    assert ranks["optimistic", True].tolist() == [2, 1, 1, 2]
    assert ranks["pessimistic", True].tolist() == [2, 1, 1, 4]
    assert ranks["pessimistic", False].tolist() == [1, 1, 1, 2]
    with np.errstate(invalid="ignore"):  # rows 2 and 3 hold inf - inf: NaN in both
        nll, known = _assert_same_pass(score_fn, store, "test", ("train",))
    assert known.tolist() == [False, True, False, False]
    kept = np.log(np.exp([0.0, 1.0, 2.0, -3.0]).sum())
    assert nll[0] == pytest.approx(kept - 1.0, rel=1e-15)
    assert np.isfinite(nll[[0, 1]]).all()
