"""Filtered ranking and filtered NLL against brute-force references and
hand-worked probability values."""
import numpy as np
import pytest

from kgmix.evaluate import (
    HITS_AT,
    evaluate_model,
    filtered_nll,
    filtered_rank,
    ranking_metrics,
)
from kgmix.graph import TripleStore, build_query_index


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

    def score_fn(subs, rels):
        return table[np.asarray(subs), np.asarray(rels)]

    return table, score_fn


def _all_true(store):
    true = {}
    for sp in ("train", "valid", "test"):
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
def test_ranking_metrics_match_naive_reference(toy_store, mode, split):
    table, score_fn = _score_table(toy_store)
    report = ranking_metrics(score_fn, toy_store, split, rank_mode=mode,
                             batch_size=1)
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
def test_filtered_nll_matches_naive_reference(toy_store, filter_splits):
    table, _ = _score_table(toy_store, seed=6)
    norm = table - np.log(np.exp(table).sum(axis=-1, keepdims=True))

    def logp_fn(subs, rels):
        return norm[np.asarray(subs), np.asarray(rels)]

    rep = filtered_nll(logp_fn, toy_store, "test", filter_splits, batch_size=1)
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
    nll = filtered_nll(scorer.log_probs, toy_store, "test", ("train",))
    assert out["mrr"] == ranks.mrr
    assert out["mean_filtered_nll"] == nll.mean_nll
    assert out["nll_filter"] == ["train"]
    assert out["hits"]["hits@10"] == ranks.hits[10]
    assert out["nll_skipped"] == nll.n_skipped


# ---- the batch kernel against the per-triple loop it replaced ----


def _loop_ranks(score_fn, store, split, mode, candidates):
    """The per-triple filtered-rank loop, one filtered_rank call per triple."""
    index = build_query_index(store, ("train", "valid", "test"))
    ranks = []
    for i, (s, r, o) in enumerate(store.split(split)):
        z = score_fn(np.array([s]), np.array([r]))[0]
        drop = set(index.get(s, r))
        drop.discard(o)
        if candidates is not None:
            pool = set(candidates[i])
            pool.add(o)
            drop |= set(range(store.n_entities)) - pool
        ranks.append(filtered_rank(z, o, sorted(drop), mode=mode))
    return ranks


def _loop_nll(logp_fn, store, split, filter_splits):
    """The per-triple filtered-NLL loop; None marks a skipped triple."""
    index = build_query_index(store, filter_splits)
    out = []
    for s, r, o in store.split(split):
        drop = index.get(s, r)
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

    def score_fn(subs, rels):
        z = table[np.asarray(subs), np.asarray(rels)]
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
def test_kernel_ranks_equal_the_per_triple_loop(seed, batch_size):
    store, score_fn, pools = _random_case(seed)
    for mode in ("optimistic", "pessimistic"):
        for cands in (None, pools):
            rep = ranking_metrics(score_fn, store, "test", rank_mode=mode,
                                  candidates=cands, batch_size=batch_size)
            got = [q["rank"] for q in rep.per_query]
            assert got == _loop_ranks(score_fn, store, "test", mode, cands)
            assert all(type(k) is int for k in got)


@pytest.mark.filterwarnings("error")  # skipped rows must stay finite too
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("batch_size", [1, 4, 512])
def test_kernel_nll_matches_the_per_triple_loop(seed, batch_size):
    store, score_fn, _ = _random_case(seed)
    for filter_splits in (("train",), ("train", "valid"), ("train", "valid", "test")):
        rep = filtered_nll(score_fn, store, "test", filter_splits, batch_size)
        want = _loop_nll(score_fn, store, "test", filter_splits)
        assert [q.get("skipped", False) for q in rep.per_query] == [
            w is None for w in want
        ]
        for q, w in zip(rep.per_query, want):
            if w is not None:
                assert type(q["nll"]) is float
                assert abs(q["nll"] - w) <= 1e-12 * max(1.0, abs(w))
        assert rep.n_skipped == sum(w is None for w in want)


def test_candidate_ids_out_of_range_raise():
    store, score_fn, pools = _random_case(0)
    n = store.n_entities
    for bad in (n, n + 7, -1):
        cands = [list(p) for p in pools]
        cands[-1] = cands[-1] + [bad]
        with pytest.raises(ValueError, match="outside"):
            ranking_metrics(score_fn, store, "test", candidates=cands)
