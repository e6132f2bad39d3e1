import numpy as np
import pytest

import graphgen
from kgmix.graph import augment_inverse, degree_stats

SMALL_POWERLAW = graphgen.GraphShape(
    3_000, 30, 40_000, 300, 300, "powerlaw",
    subject_exponent=0.8, object_exponent=1.0, relation_exponent=1.0,
)


@pytest.fixture(scope="module", params=["s-uniform", "small-powerlaw"])
def shape_and_graph(request):
    shape = graphgen.S_UNIFORM if request.param == "s-uniform" else SMALL_POWERLAW
    return shape, graphgen.generate(shape, seed=5)


def test_split_sizes(shape_and_graph):
    shape, g = shape_and_graph
    assert len(g.store.train) == shape.n_train
    assert len(g.store.valid) == shape.n_valid
    assert len(g.store.test) == shape.n_test
    assert {k: len(v) for k, v in g.raw.items()} == {
        "train": shape.n_train, "valid": shape.n_valid, "test": shape.n_test
    }


def test_no_duplicate_triples_across_splits(shape_and_graph):
    _, g = shape_and_graph
    triples = g.store.all_triples()
    assert len(set(triples)) == len(triples)


def test_ids_in_range(shape_and_graph):
    shape, g = shape_and_graph
    a = np.concatenate(list(g.raw.values()))
    assert a.min() >= 0
    assert a[:, [0, 2]].max() < shape.n_entities
    assert a[:, 1].max() < shape.n_relations
    assert g.store.n_entities == shape.n_entities
    assert g.store.n_relations == shape.n_relations


def test_store_matches_raw_arrays(shape_and_graph):
    _, g = shape_and_graph
    for split, arr in g.raw.items():
        assert g.store.split(split) == [tuple(t) for t in arr.tolist()]


def test_same_seed_same_graph_other_seed_other_graph():
    a = graphgen.generate(graphgen.S_UNIFORM, 3)
    b = graphgen.generate(graphgen.S_UNIFORM, 3)
    c = graphgen.generate(graphgen.S_UNIFORM, 4)
    assert a.store.train == b.store.train and a.store.test == b.store.test
    assert a.store.train != c.store.train


def test_powerlaw_has_heavy_tail_in_both_directions():
    uni = graphgen.generate(graphgen.S_UNIFORM, 1)
    pl = graphgen.generate(SMALL_POWERLAW, 1)
    for g, shape in ((uni, graphgen.S_UNIFORM), (pl, SMALL_POWERLAW)):
        fwd = graphgen.out_degrees(g.raw["train"], shape.n_relations, inverses=False)
        both = graphgen.out_degrees(g.raw["train"], shape.n_relations, inverses=True)
        inv = both.size - fwd.size  # queries that exist only as inverses
        assert inv > 0
        if g is uni:
            assert fwd.max() < 10 * fwd.mean()
        else:
            assert fwd.max() > 50 * fwd.mean()
            # the tail survives on the inverse queries (o, r^-1)
            t = g.raw["train"]
            inv_deg = graphgen.out_degrees(t[:, ::-1], shape.n_relations, inverses=False)
            assert inv_deg.max() > 50 * inv_deg.mean()


def test_out_degrees_agree_with_the_package():
    g = graphgen.generate(SMALL_POWERLAW, 2)
    shape = SMALL_POWERLAW
    aug = augment_inverse(g.store)
    pkg = degree_stats(aug, ("train",))
    ours = graphgen.out_degrees(g.raw["train"], shape.n_relations, inverses=True)
    assert (pkg.pairs, pkg.triples, pkg.max) == (ours.size, ours.sum(), ours.max())


def test_fb15k237_shape_degrees():
    shape = graphgen.FB15K237_POWERLAW
    assert (shape.n_entities, shape.n_relations, shape.n_train) == (14_541, 237, 272_115)
    g = graphgen.generate(shape, 0)
    summary = graphgen.degree_summary(g, shape.n_relations)
    assert summary["without_inverses"]["max"] > 300
    assert summary["with_inverses"]["max"] > 1_000
    assert summary["with_inverses"]["median"] == 1.0


def test_unknown_mode_is_rejected():
    with pytest.raises(ValueError):
        graphgen.generate(graphgen.GraphShape(10, 2, 5, 1, 1, "ring"), 0)
