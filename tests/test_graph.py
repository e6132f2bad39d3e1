"""Triple store loading, augmentation, indexing, and degree statistics."""
import warnings

import numpy as np
import pytest

from kgmix import graph
from kgmix.graph import (
    DegreeStats,
    TripleFormatError,
    augment_inverse,
    build_query_index,
    dataset_stats,
    degree_stats,
    filter_rows,
    load_triples,
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


def test_query_index_recovers_unique_triples(toy_store):
    idx = build_query_index(toy_store, ("train", "valid", "test"))
    flat = {(s, r, o) for (s, r), objs in idx.objects.items() for o in objs}
    assert flat == set(toy_store.all_triples())
    for objs in idx.objects.values():
        assert objs == sorted(set(objs))
    assert idx.n_triples == len(set(toy_store.all_triples()))


def test_query_index_deduplicates_across_splits(toy_store):
    toy_store.test.append(toy_store.train[0])  # same triple in two splits
    idx = build_query_index(toy_store, ("train", "test"))
    s, r, o = toy_store.train[0]
    assert idx.get(s, r).count(o) == 1


@pytest.mark.parametrize("splits", [(), ("train",), ("train", "valid", "test")])
def test_filter_rows_equal_the_query_index(toy_store, splits):
    toy_store.test.append(toy_store.train[0])  # a duplicate across splits
    idx = build_query_index(toy_store, splits)
    subs, rels = np.meshgrid(np.arange(6), np.arange(2), indexing="ij")
    subs, rels = subs.ravel(), rels.ravel()  # every query, known or not
    ptr, cols = filter_rows(toy_store, splits, subs, rels)
    assert ptr[0] == 0 and len(ptr) == len(subs) + 1
    for i, (s, r) in enumerate(zip(subs.tolist(), rels.tolist())):
        assert cols[ptr[i] : ptr[i + 1]].tolist() == idx.get(s, r)


def test_query_index_get_default(toy_store):
    idx = build_query_index(toy_store, ("train",))
    assert idx.get(5, 1) == []


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
    toy_store.test.append(toy_store.train[0])
    stats = degree_stats(toy_store)
    idx = build_query_index(toy_store, ("train", "valid", "test"))
    assert stats.triples == idx.n_triples
    assert stats.pairs == idx.n_queries


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
    toy_store.test.append(toy_store.train[0])
    stats = dataset_stats(toy_store)
    assert stats["triples"]["total_raw"] == 13
    assert stats["triples"]["unique"] == 12


def test_dataset_stats_rejects_augmented(toy_store):
    with pytest.raises(ValueError):
        dataset_stats(augment_inverse(toy_store))


def test_split_name_validation(toy_store):
    with pytest.raises(ValueError):
        toy_store.split("dev")
