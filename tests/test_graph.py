"""Triple store loading, augmentation, indexing, and degree statistics."""
import copy
import dataclasses
import pickle
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from kgmix import graph
from kgmix.graph import (
    DegreeStats,
    TripleFormatError,
    Triples,
    TripleStore,
    augment_inverse,
    build_query_index,
    dataset_stats,
    degree_stats,
    filter_rows,
    load_triples,
    query_labels,
    sufficient_dim,
)


def test_load_single_file(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("alice\tknows\tbob\nbob\tknows\tcarol\nalice\tlikes\tcarol\n")
    store = load_triples(str(p))
    assert store.entity_names == ["alice", "bob", "carol"]
    assert store.relation_names == ["knows", "likes"]
    assert store.train == [(0, 0, 1), (1, 0, 2), (0, 1, 2)]
    assert store.valid == [] and store.test == []
    assert store.n_entities == 3 and store.n_relations == 2


def test_load_directory_and_id_order(write_dataset):
    path = write_dataset(
        train=[("a", "r", "b"), ("b", "r", "c")],
        valid=[("c", "q", "a")],
        test=[("d", "r", "a")],
    )
    with pytest.warns(UserWarning, match="first appear outside train"):
        store = load_triples(path)
    # first-appearance order: train first, then valid, then test
    assert store.entity_names == ["a", "b", "c", "d"]
    assert store.relation_names == ["r", "q"]
    assert store.valid == [(2, 1, 0)]
    assert store.test == [(3, 0, 0)]


def test_load_skips_blank_lines(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("a\tr\tb\n\na\tr\tc\n")
    store = load_triples(str(p))
    assert len(store.train) == 2


def test_duplicate_lines_dropped_with_warning(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("a\tr\tb\na\tr\tb\na\tr\tc\n")
    with pytest.warns(UserWarning, match="duplicate"):
        store = load_triples(str(p))
    assert store.train == [(0, 0, 1), (0, 0, 2)]


def test_malformed_line_reports_position(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("a\tr\tb\na\tb\n")
    with pytest.raises(TripleFormatError, match=":2:"):
        load_triples(str(p))


def test_empty_field_is_malformed(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("a\t\tb\n")
    with pytest.raises(TripleFormatError):
        load_triples(str(p))


def test_strict_rejects_labels_first_seen_outside_train(write_dataset):
    path = write_dataset(train=[("a", "r", "b")], valid=[("zz", "r", "a")])
    with pytest.raises(ValueError, match="zz"):
        load_triples(path, strict=True)
    with pytest.warns(UserWarning, match="outside train"):
        store = load_triples(path)
    assert "zz" in store.entity_names


def test_missing_paths(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_triples(str(tmp_path / "nope.txt"))
    empty = tmp_path / "emptydir"
    empty.mkdir()
    with pytest.raises(FileNotFoundError):
        load_triples(str(empty))


def test_augment_inverse(toy_store):
    aug = augment_inverse(toy_store)
    assert aug.inverse_augmented
    assert aug.n_relations == 2 * toy_store.n_relations
    assert aug.relation_names[2:] == ["r0^-1", "r1^-1"]
    assert len(aug.train) == 2 * len(toy_store.train)
    # originals first, then one reversed twin per original, same order
    n = len(toy_store.train)
    for i, (s, r, o) in enumerate(toy_store.train):
        assert aug.train[i] == (s, r, o)
        assert aug.train[n + i] == (o, r + toy_store.n_relations, s)
    assert len(aug.valid) == 2 * len(toy_store.valid)
    assert len(aug.test) == 2 * len(toy_store.test)


def test_augment_twice_rejected(toy_store):
    aug = augment_inverse(toy_store)
    with pytest.raises(ValueError, match="already"):
        augment_inverse(aug)


def test_augment_suffix_clash_rejected(toy_store):
    toy_store.relation_names[1] = "weird^-1"
    with pytest.raises(ValueError, match="weird"):
        augment_inverse(toy_store)


def _true_objects(store, splits):
    """(s, r) -> set of true objects in the splits, by a loop over the raw
    split rows: the reference for the query index and filter rows."""
    true = {}
    for name in splits:
        for s, r, o in store.split(name):
            true.setdefault((s, r), set()).add(o)
    return true


def test_query_index_recovers_unique_triples(toy_store):
    toy_store.test = [*toy_store.test, toy_store.train[0]]  # a duplicate across splits
    for splits in [(), ("train",), ("valid", "test"), ("train", "valid", "test")]:
        idx = build_query_index(toy_store, splits)
        want = _true_objects(toy_store, splits)
        assert idx.splits == splits
        assert idx.queries() == sorted(want)  # sorted, as Python ints
        assert all(type(x) is int for q in idx.queries() for x in q)
        for s, r in idx.queries():
            assert idx.get(s, r) == sorted(want[(s, r)])
        assert idx.n_queries == len(want)
        assert idx.n_triples == sum(map(len, want.values()))
    assert idx.n_triples == 12


def test_query_index_deduplicates_across_splits(toy_store):
    toy_store.test = [*toy_store.test, toy_store.train[0]]  # same triple in two splits
    idx = build_query_index(toy_store, ("train", "test"))
    s, r, o = toy_store.train[0]
    assert idx.get(s, r).count(o) == 1


@pytest.mark.parametrize("splits", [(), ("train",), ("train", "valid", "test")])
def test_filter_rows_equal_the_query_index(toy_store, splits):
    toy_store.test = [*toy_store.test, toy_store.train[0]]  # a duplicate across splits
    want = _true_objects(toy_store, splits)
    idx = build_query_index(toy_store, splits)
    subs, rels = np.meshgrid(np.arange(6), np.arange(2), indexing="ij")
    subs, rels = subs.ravel(), rels.ravel()  # every query, known or not
    ptr, cols = filter_rows(toy_store, splits, subs, rels)
    assert ptr[0] == 0 and len(ptr) == len(subs) + 1
    for i, (s, r) in enumerate(zip(subs.tolist(), rels.tolist())):
        row = sorted(want.get((s, r), ()))
        assert cols[ptr[i] : ptr[i + 1]].tolist() == row
        assert idx.get(s, r) == row


def test_query_index_get_default(toy_store):
    idx = build_query_index(toy_store, ("train",))
    assert idx.get(5, 1) == []


def test_query_index_get_rejects_ids_out_of_range(toy_store):
    idx = build_query_index(toy_store, ("train", "valid", "test"))
    assert idx.get(1, 0) == [2, 4]
    # with R = 2, (0, 2) has the key 0*2 + 2 of (1, 0), and (2, -1) that of (1, 1);
    # 0.5 sorts between subjects 0 and 1
    assert idx.get(0, 2) == [] and idx.get(2, -1) == [] and idx.get(0.5, 0) == []
    assert idx.get(0, 5) == [] and idx.get(6, 0) == [] and idx.get(10**30, 1) == []
    assert idx.get(-1, 0) == [] and idx.get(-1, 1) == [] and idx.get(-3, 7) == []
    empty = build_query_index(toy_store, ())
    assert empty.n_queries == empty.n_triples == 0 and empty.queries() == []
    assert empty.get(0, 0) == []


def test_query_index_holds_only_its_arrays():
    """After build_query_index, the index holds little more memory than its
    four CSR arrays: no per-query Python objects."""
    rng = np.random.default_rng(7)
    n_ent, n_rel, n = 4000, 40, 20_000
    triples = np.unique(np.stack([rng.integers(n_ent, size=n), rng.integers(n_rel, size=n),
                                  rng.integers(n_ent, size=n)], axis=1), axis=0)
    store = TripleStore([f"e{i}" for i in range(n_ent)], [f"r{i}" for i in range(n_rel)],
                        train=triples, valid=[], test=[])
    store.triple_keys(("train",))  # the store's cached keys are not the index's
    tracemalloc.start()
    try:
        idx = build_query_index(store, ("train",))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = idx.subjects.nbytes + idx.relations.nbytes + idx.ptr.nbytes + idx.cols.nbytes
    assert idx.n_triples == len(triples) > 19_000
    assert held <= 1.5 * arrays, (held, arrays)


def test_degree_stats_hand_counted(toy_store):
    # train pairs: (0,0)->{1,2}, (1,0)->{2}, (2,1)->{3}, (3,0)->{4},
    #              (4,1)->{5}, (5,0)->{0}, (1,1)->{3}
    stats = degree_stats(toy_store, splits=("train",))
    assert stats.pairs == 7
    assert stats.triples == 8
    assert stats.max == 2
    assert stats.mean == pytest.approx(8 / 7)
    assert stats.median == 1.0


def test_degree_sum_equals_indexed_triples(toy_store):
    toy_store.test = [*toy_store.test, toy_store.train[0]]
    stats = degree_stats(toy_store)
    want = _true_objects(toy_store, ("train", "valid", "test"))
    assert stats.triples == sum(map(len, want.values())) == 12
    assert stats.pairs == len(want)
    assert stats.max == max(map(len, want.values()))


def test_degree_stats_empty():
    store = graph.TripleStore(
        entity_names=["a"], relation_names=["r"], train=[], valid=[], test=[]
    )
    stats = degree_stats(store)
    assert stats == DegreeStats(pairs=0, triples=0, mean=0.0, median=0.0, max=0)


def test_sufficient_dim_values():
    assert sufficient_dim(0) == 1
    assert sufficient_dim(2) == 5
    assert sufficient_dim(954) == 1909
    assert sufficient_dim(4364) == 8729
    assert sufficient_dim(DegreeStats(1, 1, 1.0, 1.0, 15036)) == 30073
    with pytest.raises(ValueError):
        sufficient_dim(-1)


def test_dataset_stats_hand_counted(toy_store):
    stats = dataset_stats(toy_store)
    assert stats["entities"] == 6
    assert stats["relations"] == 2
    assert stats["triples"] == {
        "train": 8, "valid": 2, "test": 2, "total_raw": 12, "unique": 12,
    }
    w = stats["without_inverses"]
    assert w["out_degree_max"] == 2
    assert w["sufficient_dim"] == 5
    assert w["unique_triples"] == 12
    assert w["query_pairs"] == 10
    wi = stats["with_inverses"]
    assert wi["relations"] == 4
    assert wi["unique_triples"] == 24
    # object 4 is reached via r0 from subjects 1, 2 and 3, so the reversed
    # pair (4, r0^-1) has out-degree 3
    assert wi["out_degree_max"] == 3
    assert wi["sufficient_dim"] == 7
    assert wi["query_pairs"] == 16


def test_dataset_stats_counts_cross_split_duplicates(toy_store):
    toy_store.test = [*toy_store.test, toy_store.train[0]]
    stats = dataset_stats(toy_store)
    assert stats["triples"]["total_raw"] == 13
    assert stats["triples"]["unique"] == 12


def test_dataset_stats_rejects_augmented(toy_store):
    with pytest.raises(ValueError):
        dataset_stats(augment_inverse(toy_store))


def test_split_name_validation(toy_store):
    with pytest.raises(ValueError):
        toy_store.split("dev")


# ---- splits are read-only arrays; reassignment refreshes the cached keys ----

NEW = (5, 1, 2)  # in no split of the toy store


def _setitem(store):
    store.train[0] = NEW


def _setslice(store):
    store.train[2:5] = [NEW, (4, 0, 0)]


def _delitem(store):
    del store.train[0]


def _delslice(store):
    del store.train[1:4]


def _iadd(store):
    store.train += [NEW]


def _imul(store):
    store.train *= 0


def _write_array(store):
    store.train.array[0, 2] = 5


def _replace_array(store):
    store.train.array = np.zeros((1, 3), dtype=np.int64)


def _reassign(store):
    store.train = store.train[:3] + [NEW]


# every change a list of triples allows, two on the array, and three
# reassignments; each in-place change raises the given error
CHANGES = {
    "append": (AttributeError, lambda st: st.train.append(NEW)),
    "extend": (AttributeError, lambda st: st.train.extend([NEW])),
    "insert": (AttributeError, lambda st: st.train.insert(1, NEW)),
    "pop": (AttributeError, lambda st: st.train.pop()),
    "remove": (AttributeError, lambda st: st.train.remove((0, 0, 2))),
    "clear": (AttributeError, lambda st: st.train.clear()),
    "sort": (AttributeError, lambda st: st.train.sort(reverse=True)),
    "reverse": (AttributeError, lambda st: st.train.reverse()),
    "setitem": (TypeError, _setitem),
    "setslice": (TypeError, _setslice),
    "delitem": (TypeError, _delitem),
    "delslice": (TypeError, _delslice),
    "iadd": (TypeError, _iadd),
    "imul": (TypeError, _imul),
    "write_array": (ValueError, _write_array),
    "replace_array": (AttributeError, _replace_array),
    "reassign": (None, _reassign),
    "reassign_array": (None, lambda st: setattr(st, "train", np.array([NEW, (4, 0, 0)]))),
    "reassign_empty": (None, lambda st: setattr(st, "train", [])),
}


def _filters(store):
    """filter_rows for every query and query_labels, as lists, for two
    split combinations that hold train."""
    subs, rels = np.meshgrid(np.arange(6), np.arange(2), indexing="ij")
    subs, rels = subs.ravel(), rels.ravel()  # every query, known or not
    out = []
    for splits in (("train",), ("valid", "train", "test")):
        out.append([a.tolist() for a in filter_rows(store, splits, subs, rels)])
        out.append([a.tolist() for a in query_labels(store, splits)])
    return out


def _fresh(store):
    """The same triples in a new store, built from plain lists."""
    return TripleStore(list(store.entity_names), list(store.relation_names),
                       list(store.train), list(store.valid), list(store.test))


@pytest.mark.parametrize("name", sorted(CHANGES))
def test_cached_keys_follow_every_change(toy_store, name):
    """An in-place change raises and leaves the split and its keys as they
    were; a reassignment refreshes the keys."""
    before = _filters(toy_store)  # builds and caches the keys
    train = list(toy_store.train)
    error, change = CHANGES[name]
    if error is None:
        change(toy_store)
        assert toy_store.train != train and _filters(toy_store) != before
    else:
        with pytest.raises(error):
            change(toy_store)
        assert toy_store.train == train and _filters(toy_store) == before
    assert isinstance(toy_store.train, Triples)
    assert _filters(toy_store) == _filters(_fresh(toy_store))


def test_reassigning_a_split_frees_the_old_one(toy_store):
    _filters(toy_store)  # caches keys that hold train
    old_keys = weakref.ref(toy_store.triple_keys(("train",)))
    toy_store.train = list(toy_store.train)
    assert old_keys() is None  # the cache keeps no keys of the replaced split
    assert _filters(toy_store) == _filters(_fresh(toy_store))


def _assert_read_only_splits(store):
    for name in graph.SPLITS:
        t = store.split(name)
        assert isinstance(t, Triples)
        a = t.array
        assert a.dtype == np.int64 and a.ndim == 2 and a.shape == (len(t), 3)
        assert not a.flags.writeable
        if len(t):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0
        assert all(type(x) is int for triple in t for x in triple)


def test_every_way_to_make_a_store_gives_read_only_splits(toy_store, tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("alice\tknows\tbob\nbob\tknows\tcarol\n")
    other = dataclasses.replace(toy_store, test=[(0, 0, 3)])
    clone = copy.deepcopy(toy_store)
    stores = [toy_store, load_triples(str(p)), augment_inverse(toy_store), other, clone,
              pickle.loads(pickle.dumps(toy_store))]
    for store in stores:
        _assert_read_only_splits(store)
    assert stores[1].train == [(0, 0, 1), (1, 0, 2)]
    assert stores[2].train[: len(toy_store.train)] == list(toy_store.train)
    assert stores[-1] == toy_store
    assert clone == toy_store and clone.train.array is not toy_store.train.array
    clone.train = [*clone.train, NEW]
    assert _filters(clone) == _filters(_fresh(clone))
    assert _filters(toy_store) == _filters(_fresh(toy_store))


def test_copies_rebuild_read_only_keys(toy_store):
    want = _filters(toy_store)  # caches the keys that the copies must not share
    for clone in (copy.deepcopy(toy_store), pickle.loads(pickle.dumps(toy_store))):
        assert clone._keys == {}
        assert _filters(clone) == want
        for splits in (("train",), ("train", "valid", "test")):
            keys = clone.triple_keys(splits)
            assert not keys.flags.writeable
            assert np.array_equal(keys, toy_store.triple_keys(splits))


def test_splits_stay_lists_and_replace_works(toy_store):
    """A split reads and compares as a list of int tuples, and
    dataclasses.replace swaps one split without touching the others."""
    plain = [(1, 0, 4), (3, 1, 5)]
    t = toy_store.test
    assert toy_store.split("test") == plain and plain == t and t == tuple(plain)
    assert t != plain[:1] and t != "ab" and t == Triples(plain)
    assert list(t) == plain and t[1] == (3, 1, 5) and t[-1] == (3, 1, 5)
    assert t[:1] == [(1, 0, 4)] and t[np.int64(0)] == (1, 0, 4)
    assert (3, 1, 5) in t and t.index((3, 1, 5)) == 1
    assert repr(t) == f"Triples({plain!r})"
    assert toy_store == _fresh(toy_store)
    keys = toy_store.triple_keys(("train",))
    assert toy_store.triple_keys(["train", "train"]) is keys  # cached
    with pytest.raises(ValueError):
        keys[0] = 0
    other = dataclasses.replace(toy_store, test=[(0, 0, 3)])
    assert other.test == [(0, 0, 3)] and other.train is toy_store.train
    assert filter_rows(other, ("test",), [0, 1], [0, 0])[1].tolist() == [3]
    assert filter_rows(toy_store, ("test",), [0, 1], [0, 0])[1].tolist() == [4]


BAD_SPLITS = {
    "shape": ([(0, 0)], "integer array, got shape \\(1, 2\\)"),
    "ragged": ([(0, 0, 1), (0, 0)], "inhomogeneous"),
    "floats": ([(0.0, 0.0, 1.0)], "of float64"),
    "negative": ([(0, 0, 1), (2, 0, -1)], "row 1 \\(2, 0, -1\\) holds an id outside"),
    "entity": ([(0, 0, 1), (1, 0, 2), (0, 0, 6)], "row 2 \\(0, 0, 6\\) holds an id outside"),
    "subject": ([(6, 0, 1)], "row 0 \\(6, 0, 1\\) holds an id outside"),
    "relation": ([(0, 0, 1), (0, 2, 1)], "row 1 \\(0, 2, 1\\) holds an id outside"),
}


@pytest.mark.parametrize("name", sorted(BAD_SPLITS))
def test_bad_split_is_rejected_when_assigned(toy_store, name):
    bad, message = BAD_SPLITS[name]
    with pytest.raises(ValueError, match=f"split 'valid'.*{message}"):
        TripleStore(list(toy_store.entity_names), list(toy_store.relation_names),
                    toy_store.train, bad, toy_store.test)
    before = _filters(toy_store)
    with pytest.raises(ValueError, match=f"split 'valid'.*{message}"):
        toy_store.valid = bad
    assert toy_store.valid == [(0, 1, 3), (2, 0, 4)]  # the old split stays
    assert _filters(toy_store) == before


def test_out_of_range_ids_no_longer_reach_the_filter():
    """An object id of N once gave query (1, 0) the true object 1 and
    query (0, 0) no filter; it is now refused up front."""
    with pytest.raises(ValueError, match=r"split 'train': row 0 \(0, 0, 4\) holds an id "
                                         r"outside \[0, N\) = \[0, 3\) or \[0, R\) = \[0, 1\)"):
        TripleStore(["a", "b", "c"], ["r"], train=[(0, 0, 4)], valid=[], test=[])


def test_keys_follow_new_entities_and_relations(toy_store):
    before = query_labels(toy_store, ("train",))
    toy_store.entity_names.append("e6")  # N enters the keys
    after = query_labels(toy_store, ("train",))
    for a, b in zip(before, after):
        assert a.tolist() == b.tolist()
    assert toy_store.triple_keys(("train",))[0] == (0 * 2 + 0) * 7 + 1


def test_keys_reject_ids_past_shrunk_tables():
    """A split valid when assigned that holds an id outside the label
    tables once they shrink is named when its keys are built, not read as
    a query with no objects."""
    store = TripleStore(["a", "b", "c"], ["r"], train=[(1, 0, 2)], valid=[], test=[])
    store.entity_names.pop()
    with pytest.raises(ValueError, match=r"split 'train': row 0 \(1, 0, 2\)"):
        filter_rows(store, ("train",), [0, 1], [0, 0])


def test_split_keys_built_once_per_combination(toy_store, monkeypatch):
    """evaluate_model, then a candidate-pool ranking, then another split's
    evaluation sort each filter combination's triples once."""
    from kgmix.evaluate import evaluate_model, ranking_metrics
    from kgmix.models import Scorer, init_model

    built = []
    sorted_unique = graph.sorted_unique

    def counting(keys):
        built.append(len(keys))
        return sorted_unique(keys)

    monkeypatch.setattr(graph, "sorted_unique", counting)
    scorer = Scorer(init_model("distmult", 6, 2, 3, seed=2))
    evaluate_model(scorer, toy_store, "test")
    ranking_metrics(scorer.scores, toy_store, "test", candidates=[[0, 1, 1], [2]])
    evaluate_model(scorer, toy_store, "valid", nll_filter_splits=("train",))
    query_labels(toy_store, ("train",))
    build_query_index(toy_store, ("valid", "train", "test"))
    assert built == [12, 8]  # train+valid+test for ranks, train for the NLL
    dataset_stats(toy_store)  # reads the cached keys, and its augmented store's
    assert built == [12, 8, 24]
    toy_store.valid = [*toy_store.valid, NEW]
    evaluate_model(scorer, toy_store, "test")
    assert built == [12, 8, 24, 13]
