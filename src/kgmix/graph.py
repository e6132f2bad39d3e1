"""Triple stores: loading, inverse augmentation, query indexing, degree stats.

A dataset is a directory with train.txt / valid.txt / test.txt (valid and
test optional), or a single file treated as a train-only split.  Lines are
tab-separated ``subject<TAB>relation<TAB>object`` labels.  Ids are assigned
in first-appearance order, scanning train, then valid, then test.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from itertools import chain
from statistics import median

import numpy as np

Triple = tuple[int, int, int]

# appended to a relation label to name its reversed twin
INVERSE_SUFFIX = "^-1"

SPLIT_FILES = (("train", "train.txt"), ("valid", "valid.txt"), ("test", "test.txt"))


class TripleFormatError(ValueError):
    """A dataset line that does not parse as three tab-separated labels."""


@dataclass
class TripleStore:
    """Integer-encoded triples plus the label tables behind the encoding."""

    entity_names: list[str]
    relation_names: list[str]
    train: list[Triple]
    valid: list[Triple]
    test: list[Triple]
    inverse_augmented: bool = False
    entity_ids: dict[str, int] = field(default_factory=dict, repr=False)
    relation_ids: dict[str, int] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.entity_ids:
            self.entity_ids = {n: i for i, n in enumerate(self.entity_names)}
        if not self.relation_ids:
            self.relation_ids = {n: i for i, n in enumerate(self.relation_names)}

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    def split(self, name: str) -> list[Triple]:
        if name not in ("train", "valid", "test"):
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def all_triples(self, splits=("train", "valid", "test")) -> list[Triple]:
        out = []
        for s in splits:
            out.extend(self.split(s))
        return out


def _parse_line(line: str, path: str, lineno: int) -> tuple[str, str, str]:
    parts = line.rstrip("\n").rstrip("\r").split("\t")
    if len(parts) != 3 or any(not p.strip() for p in parts):
        raise TripleFormatError(
            f"{path}:{lineno}: expected 3 tab-separated labels, got {line!r}"
        )
    s, r, o = (p.strip() for p in parts)
    return s, r, o


def load_triples(path: str, strict: bool = False) -> TripleStore:
    """Load a dataset directory or a single train-only file.

    With strict=True an entity or relation whose first appearance is in
    valid or test raises; by default it is kept and a warning is issued.
    Duplicate lines within one split are dropped (count warned).
    """
    if os.path.isdir(path):
        files = [(name, os.path.join(path, fn)) for name, fn in SPLIT_FILES]
        files = [(name, p) for name, p in files if name == "train" or os.path.exists(p)]
        if not os.path.exists(files[0][1]):
            raise FileNotFoundError(f"no train.txt under {path}")
    elif os.path.exists(path):
        files = [("train", path)]
    else:
        raise FileNotFoundError(path)

    entity_names: list[str] = []
    relation_names: list[str] = []
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    splits: dict[str, list[Triple]] = {"train": [], "valid": [], "test": []}
    unseen = []

    for split_name, file_path in files:
        seen: set[Triple] = set()
        dupes = 0
        with open(file_path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line.strip() == "":
                    continue
                s, r, o = _parse_line(line, file_path, lineno)
                for ent in (s, o):
                    if ent not in entity_ids:
                        if split_name != "train":
                            unseen.append((split_name, "entity", ent))
                        entity_ids[ent] = len(entity_names)
                        entity_names.append(ent)
                if r not in relation_ids:
                    if split_name != "train":
                        unseen.append((split_name, "relation", r))
                    relation_ids[r] = len(relation_names)
                    relation_names.append(r)
                t = (entity_ids[s], relation_ids[r], entity_ids[o])
                if t in seen:
                    dupes += 1
                    continue
                seen.add(t)
                splits[split_name].append(t)
        if dupes:
            warnings.warn(f"{file_path}: dropped {dupes} duplicate lines")

    if unseen:
        msg = (
            f"{len(unseen)} labels first appear outside train "
            f"(e.g. {unseen[0][2]!r} in {unseen[0][0]})"
        )
        if strict:
            raise ValueError(msg)
        warnings.warn(msg)

    return TripleStore(
        entity_names=entity_names,
        relation_names=relation_names,
        train=splits["train"],
        valid=splits["valid"],
        test=splits["test"],
        entity_ids=entity_ids,
        relation_ids=relation_ids,
    )


def augment_inverse(store: TripleStore) -> TripleStore:
    """Return a new store with a reversed triple per original triple.

    Every relation r gains a twin named r + "^-1" with id r_id + n_relations,
    and each (s, r, o) contributes (o, r^-1, s) appended after the originals.
    Applying this twice, or to labels already carrying the suffix, raises.
    """
    if store.inverse_augmented:
        raise ValueError("store is already inverse-augmented")
    clash = [n for n in store.relation_names if n.endswith(INVERSE_SUFFIX)]
    if clash:
        raise ValueError(
            f"relation labels already end with {INVERSE_SUFFIX!r}: {clash[:3]}"
        )
    n_rel = store.n_relations
    relation_names = list(store.relation_names) + [
        n + INVERSE_SUFFIX for n in store.relation_names
    ]

    def flip(triples: list[Triple]) -> list[Triple]:
        return list(triples) + [(o, r + n_rel, s) for s, r, o in triples]

    return TripleStore(
        entity_names=list(store.entity_names),
        relation_names=relation_names,
        train=flip(store.train),
        valid=flip(store.valid),
        test=flip(store.test),
        inverse_augmented=True,
    )


@dataclass
class QueryIndex:
    """Maps (subject, relation) to the sorted unique true objects."""

    objects: dict[tuple[int, int], list[int]]
    splits: tuple[str, ...]

    def get(self, s: int, r: int) -> list[int]:
        return self.objects.get((s, r), [])

    def queries(self) -> list[tuple[int, int]]:
        return sorted(self.objects)

    @property
    def n_queries(self) -> int:
        return len(self.objects)

    @property
    def n_triples(self) -> int:
        return sum(len(v) for v in self.objects.values())


def build_query_index(store: TripleStore, splits=("train",)) -> QueryIndex:
    grouped: dict[tuple[int, int], set[int]] = {}
    for s, r, o in store.all_triples(splits):
        grouped.setdefault((s, r), set()).add(o)
    objects = {q: sorted(v) for q, v in grouped.items()}
    return QueryIndex(objects=objects, splits=tuple(splits))


def triple_array(triples: list[Triple]) -> np.ndarray:
    """Triples as an (n, 3) int64 array of (subject, relation, object) rows."""
    flat = chain.from_iterable(triples)
    return np.fromiter(flat, dtype=np.int64, count=3 * len(triples)).reshape(-1, 3)


def filter_rows(store: TripleStore, splits, subjects, relations):
    """The sorted unique true objects of each query (subjects[i],
    relations[i]) in the given splits, as CSR rows cols[ptr[i]:ptr[i + 1]].

    Sorts the splits' (s*R + r)*N + o keys once and brackets each query's
    key range with searchsorted, so no per-query Python work is done.
    """
    n_ent, n_rel = store.n_entities, store.n_relations
    t = triple_array(store.all_triples(splits))
    keys = np.sort((t[:, 0] * n_rel + t[:, 1]) * n_ent + t[:, 2])
    keys = keys[np.diff(keys, prepend=-1) != 0]
    base = (np.asarray(subjects, dtype=np.int64) * n_rel + relations) * n_ent
    lo = np.searchsorted(keys, base)
    counts = np.searchsorted(keys, base + n_ent) - lo
    ptr = np.append(0, np.cumsum(counts))
    pick = np.arange(ptr[-1]) + np.repeat(lo - ptr[:-1], counts)
    return ptr, keys[pick] % n_ent


@dataclass
class DegreeStats:
    """Out-degree aggregates over the (subject, relation) pairs of an index."""

    pairs: int
    triples: int
    mean: float
    median: float
    max: int


def degree_stats(store: TripleStore, splits=("train", "valid", "test")) -> DegreeStats:
    """Aggregate out-degrees over unique triples in the chosen splits.

    Only pairs with at least one object are counted, so the sum of degrees
    equals the number of distinct indexed triples.
    """
    index = build_query_index(store, splits)
    degs = [len(v) for v in index.objects.values()]
    if not degs:
        return DegreeStats(pairs=0, triples=0, mean=0.0, median=0.0, max=0)
    return DegreeStats(
        pairs=len(degs),
        triples=sum(degs),
        mean=sum(degs) / len(degs),
        median=float(median(degs)),
        max=max(degs),
    )


def sufficient_dim(stats) -> int:
    """Embedding width 2*c + 1 that the sign construction needs, where c is
    the maximum out-degree (pass a DegreeStats or the integer c itself)."""
    c = stats.max if isinstance(stats, DegreeStats) else int(stats)
    if c < 0:
        raise ValueError("max out-degree must be non-negative")
    return 2 * c + 1


def dataset_stats(store: TripleStore, splits=("train", "valid", "test")) -> dict:
    """JSON-ready dataset summary, with and without inverse augmentation."""
    if store.inverse_augmented:
        raise ValueError("dataset_stats expects the unaugmented store")

    def variant(st: TripleStore) -> dict:
        d = degree_stats(st, splits)
        return {
            "relations": st.n_relations,
            "query_pairs": d.pairs,
            "unique_triples": d.triples,
            "out_degree_mean": d.mean,
            "out_degree_median": d.median,
            "out_degree_max": d.max,
            "sufficient_dim": sufficient_dim(d),
        }

    return {
        "entities": store.n_entities,
        "relations": store.n_relations,
        "triples": {
            "train": len(store.train),
            "valid": len(store.valid),
            "test": len(store.test),
            "total_raw": len(store.train) + len(store.valid) + len(store.test),
            "unique": len(set(store.all_triples(splits))),
        },
        "without_inverses": variant(store),
        "with_inverses": variant(augment_inverse(store)),
    }
