"""Seeded synthetic knowledge graphs for the benchmark.

Two modes:

* ``uniform``: subject, relation and object are drawn uniformly, so every
  (subject, relation) query has about the same small out-degree.
* ``powerlaw``: subjects, objects and relations are drawn from Zipf-like
  popularity laws over randomly permuted ids, so a few queries get very
  long object lists.  Objects are popular too, which gives the inverse
  queries (object, relation^-1) a heavy tail as well, as in FB15k-237.

The generator owns its randomness: it takes a seed and hands back a
finished ``TripleStore`` together with the raw triple arrays, which the
reference checks use to build filter sets without ``build_query_index``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from kgmix.graph import TripleStore


@dataclass(frozen=True)
class GraphShape:
    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int
    mode: str  # "uniform" or "powerlaw"
    # Zipf exponents of subject, object and relation popularity (powerlaw)
    subject_exponent: float = 0.0
    object_exponent: float = 0.0
    relation_exponent: float = 0.0

    @property
    def n_total(self) -> int:
        return self.n_train + self.n_valid + self.n_test


# S shape: the small uniform graph the training workloads use
S_UNIFORM = GraphShape(2_000, 20, 20_000, 500, 500, "uniform")

# FB15k-237 shape: entity, relation and train counts of the real dataset,
# with a few thousand test triples so that one evaluation pass stays short.
# Exponents put the largest query out-degree near the real 954 (4,364 with
# inverses) at this triple count.
FB15K237_POWERLAW = GraphShape(
    14_541, 237, 272_115, 500, 1_000, "powerlaw",
    subject_exponent=0.8, object_exponent=1.0, relation_exponent=1.0,
)


@dataclass
class Graph:
    store: TripleStore
    # raw (unaugmented) triples per split, each an (n, 3) int64 array
    raw: dict[str, np.ndarray]


def _zipf_probs(n: int, exponent: float, rng: np.random.Generator) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    probs = np.empty(n)
    probs[rng.permutation(n)] = weights / weights.sum()
    return probs


def _draw(shape: GraphShape, size: int, rng: np.random.Generator, laws) -> np.ndarray:
    if shape.mode == "uniform":
        return np.stack(
            [
                rng.integers(shape.n_entities, size=size),
                rng.integers(shape.n_relations, size=size),
                rng.integers(shape.n_entities, size=size),
            ],
            axis=1,
        )
    ps, pr, po = laws
    return np.stack(
        [
            rng.choice(shape.n_entities, size=size, p=ps),
            rng.choice(shape.n_relations, size=size, p=pr),
            rng.choice(shape.n_entities, size=size, p=po),
        ],
        axis=1,
    )


def generate(shape: GraphShape, seed: int) -> Graph:
    """Draw ``shape.n_total`` distinct triples and split them in order."""
    if shape.mode not in ("uniform", "powerlaw"):
        raise ValueError(f"unknown graph mode {shape.mode!r}")
    rng = np.random.default_rng(seed)
    laws = None
    if shape.mode == "powerlaw":
        laws = (
            _zipf_probs(shape.n_entities, shape.subject_exponent, rng),
            _zipf_probs(shape.n_relations, shape.relation_exponent, rng),
            _zipf_probs(shape.n_entities, shape.object_exponent, rng),
        )
    ne, nr = shape.n_entities, shape.n_relations
    triples = np.empty((0, 3), dtype=np.int64)
    while len(triples) < shape.n_total:
        need = shape.n_total - len(triples)
        fresh = np.concatenate([triples, _draw(shape, 2 * need + 64, rng, laws)])
        key = (fresh[:, 0] * nr + fresh[:, 1]) * ne + fresh[:, 2]
        _, first = np.unique(key, return_index=True)
        triples = fresh[np.sort(first)]  # keep the first copy, in draw order
    triples = triples[: shape.n_total]
    cut1 = shape.n_train
    cut2 = cut1 + shape.n_valid
    raw = {"train": triples[:cut1], "valid": triples[cut1:cut2], "test": triples[cut2:]}

    def as_list(a: np.ndarray) -> list[tuple[int, int, int]]:
        return list(zip(a[:, 0].tolist(), a[:, 1].tolist(), a[:, 2].tolist()))

    store = TripleStore(
        entity_names=[f"e{i}" for i in range(ne)],
        relation_names=[f"r{i}" for i in range(nr)],
        train=as_list(raw["train"]),
        valid=as_list(raw["valid"]),
        test=as_list(raw["test"]),
    )
    return Graph(store=store, raw=raw)


def out_degrees(triples: np.ndarray, n_relations: int, inverses: bool) -> np.ndarray:
    """Out-degree of every (subject, relation) query that has an object.

    With ``inverses`` the reversed triples (o, r + n_relations, s) count too,
    so the result covers both query directions, as ``augment_inverse`` does.
    """
    t = np.asarray(triples, dtype=np.int64)
    if inverses:
        flipped = np.stack([t[:, 2], t[:, 1] + n_relations, t[:, 0]], axis=1)
        t = np.concatenate([t, flipped])
    n_rel = 2 * n_relations if inverses else n_relations
    _, counts = np.unique(t[:, 0] * n_rel + t[:, 1], return_counts=True)
    return counts


def degree_summary(graph: Graph, n_relations: int) -> dict:
    """Out-degree statistics of the train split, without and with inverses."""
    out = {}
    for tag, inv in (("without_inverses", False), ("with_inverses", True)):
        d = out_degrees(graph.raw["train"], n_relations, inv)
        out[tag] = {
            "queries": int(d.size),
            "mean": round(float(d.mean()), 3),
            "median": float(np.median(d)),
            "p99": float(np.percentile(d, 99)),
            "max": int(d.max()),
        }
    return out
