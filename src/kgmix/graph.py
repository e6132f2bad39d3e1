"""Triple stores: loading, inverse augmentation, CSR query rows, degree stats.

A dataset is a directory with train.txt / valid.txt / test.txt (valid and
test optional), or a single file treated as a train-only split.  Lines are
tab-separated ``subject<TAB>relation<TAB>object`` labels.  Ids are assigned
in first-appearance order, scanning train, then valid, then test.

Each split of a TripleStore is a Triples: one read-only (n, 3) int64 array,
converted and checked once when the split is assigned, that still iterates
and compares as a list of (s, r, o) tuples.  The store builds the sorted
(s*R + r)*N + o keys of a split combination once and keeps them until one
of those splits is reassigned; filter_rows and query_labels read them, so
repeated filtered evaluation of one store sorts its triples only once per
combination.  A QueryIndex is a view of query_labels' CSR arrays: it holds
no per-query Python objects and finds a query by binary search.
"""
from __future__ import annotations

import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

Triple = tuple[int, int, int]

# appended to a relation label to name its reversed twin
INVERSE_SUFFIX = "^-1"

SPLIT_FILES = (("train", "train.txt"), ("valid", "valid.txt"), ("test", "test.txt"))
SPLITS = tuple(name for name, _ in SPLIT_FILES)


class TripleFormatError(ValueError):
    """A dataset line that does not parse as three tab-separated labels."""


class Triples(Sequence):
    """An immutable sequence of (s, r, o) triples, held as one read-only
    (n, 3) int64 array in .array.  Iterating or indexing yields tuples of
    Python ints (a slice, a list of them), and a Triples compares equal to
    a list or tuple of the same triples."""

    __slots__ = ("_array",)

    def __init__(self, triples):
        a = np.array(triples)  # a private copy, whatever was passed
        if a.shape == (0,):  # no triples
            a = np.empty((0, 3), np.int64)
        if a.ndim != 2 or a.shape[1] != 3 or a.dtype.kind not in "iu":
            raise ValueError(
                f"triples must form an (n, 3) integer array, got shape {a.shape} of {a.dtype}"
            )
        a = a.astype(np.int64, copy=False)
        a.flags.writeable = False
        self._array = a

    array = property(lambda self: self._array, doc="the read-only (n, 3) int64 array")

    def __len__(self) -> int:
        return len(self._array)

    def __getitem__(self, i):
        rows = self._array[i]
        return list(map(tuple, rows.tolist())) if rows.ndim == 2 else tuple(rows.tolist())

    def __iter__(self):
        return map(tuple, self._array.tolist())

    def __eq__(self, other):
        if isinstance(other, Triples):
            return np.array_equal(self._array, other._array)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Triples({list(self)!r})"

    def __reduce__(self):  # copies and unpickled copies are read-only too
        return Triples, (self._array,)


@dataclass
class TripleStore:
    """Integer-encoded triples plus the label tables behind the encoding.

    Assigning a split (train, valid or test), in the constructor or later,
    stores it as a Triples, converting a list or array of triples once; a
    split that is not (n, 3) integers, or holds an entity id outside [0, N =
    n_entities) or a relation id outside [0, R = n_relations), raises
    ValueError.  triple_keys caches the filter keys of each combination.
    """

    entity_names: list[str]
    relation_names: list[str]
    train: Triples
    valid: Triples
    test: Triples
    inverse_augmented: bool = False
    entity_ids: dict[str, int] = field(default_factory=dict, repr=False)
    relation_ids: dict[str, int] = field(default_factory=dict, repr=False)
    # split combination -> ((N, R), keys)
    _keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entity_ids:
            self.entity_ids = {n: i for i, n in enumerate(self.entity_names)}
        if not self.relation_ids:
            self.relation_ids = {n: i for i, n in enumerate(self.relation_names)}

    def __getstate__(self):  # a copy rebuilds its own read-only keys
        return {**self.__dict__, "_keys": {}}

    def __setattr__(self, name, value):
        if name in SPLITS:
            if not isinstance(value, Triples):
                try:
                    value = Triples(value)
                except ValueError as e:
                    raise ValueError(f"split {name!r}: {e}") from None
            self._check_ids(name, value)
            for combo in [c for c in self.__dict__.get("_keys", ()) if name in c]:
                del self._keys[combo]  # frees the replaced split's keys
        super().__setattr__(name, value)

    def _check_ids(self, name: str, triples: Triples) -> None:
        """Name the split's first row holding an id past the label tables."""
        bounds = (self.n_entities, self.n_relations, self.n_entities)
        bad = ((triples.array < 0) | (triples.array >= bounds)).any(axis=1)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"split {name!r}: row {i} {triples[i]} holds an id outside "
                             f"[0, N) = [0, {bounds[0]}) or [0, R) = [0, {bounds[1]})")

    @property
    def n_entities(self) -> int:
        return len(self.entity_names)

    @property
    def n_relations(self) -> int:
        return len(self.relation_names)

    def split(self, name: str) -> Triples:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def all_triples(self, splits=("train", "valid", "test")) -> list[Triple]:
        return [t for s in splits for t in self.split(s)]

    def triple_keys(self, splits) -> np.ndarray:
        """The sorted unique keys (s*R + r)*N + o of the triples in the
        splits, built once per split combination (in any order) and rebuilt
        when N or R has changed since.  Read-only.  Reassigning a split
        drops the keys that hold it at once, so the store holds at most one
        array per combination.  Building checks the splits' ids against
        the current N and R, which shrink if a label table does."""
        combo = tuple(sorted(set(splits)))
        shape = (self.n_entities, self.n_relations)
        hit = self._keys.get(combo)
        if hit and hit[0] == shape:
            return hit[1]
        for s in combo:
            self._check_ids(s, self.split(s))
        t = np.concatenate([self.split(s).array for s in combo] or [np.empty((0, 3), np.int64)])
        keys = sorted_unique((t[:, 0] * shape[1] + t[:, 1]) * shape[0] + t[:, 2])
        keys.flags.writeable = False
        self._keys[combo] = (shape, keys)
        return keys


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
    splits = dict.fromkeys(SPLITS, np.empty((0, 3), np.int64))
    unseen = []

    for split_name, file_path in files:
        rows = []
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
                rows.append((entity_ids[s], relation_ids[r], entity_ids[o]))
        unique = list(dict.fromkeys(rows))  # first copies, in file order
        if len(rows) > len(unique):
            warnings.warn(f"{file_path}: dropped {len(rows) - len(unique)} duplicate lines")
        # every row is three ints built above, so no per-row check is needed
        splits[split_name] = np.fromiter(chain.from_iterable(unique), np.int64,
                                         3 * len(unique)).reshape(-1, 3)

    if unseen:
        msg = (
            f"{len(unseen)} labels first appear outside train "
            f"(e.g. {unseen[0][2]!r} in {unseen[0][0]})"
        )
        if strict:
            raise ValueError(msg)
        warnings.warn(msg)

    return TripleStore(entity_names, relation_names, **splits,
                       entity_ids=entity_ids, relation_ids=relation_ids)


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
    relation_names = [*store.relation_names, *(n + INVERSE_SUFFIX for n in store.relation_names)]

    def flip(name: str) -> np.ndarray:
        a = store.split(name).array
        return np.concatenate([a, a[:, ::-1] + (0, n_rel, 0)])

    return TripleStore(list(store.entity_names), relation_names,
                       **{name: flip(name) for name in SPLITS}, inverse_augmented=True)


@dataclass(eq=False)
class QueryIndex:
    """The sorted unique (subject, relation) queries of some splits and
    their sorted true objects, held as the CSR arrays query_labels returns:
    query i is (subjects[i], relations[i]) and its objects are
    cols[ptr[i]:ptr[i + 1]]."""

    subjects: np.ndarray
    relations: np.ndarray
    ptr: np.ndarray
    cols: np.ndarray
    splits: tuple[str, ...]

    def get(self, s: int, r: int) -> list[int]:
        """The true objects of (s, r), or [] for a query not indexed.  The
        queries sort by subject, then relation, so two binary searches find
        the row, and an id out of range matches none."""
        lo, hi = np.searchsorted(self.subjects, (s, s + 1))
        i = lo + int(np.searchsorted(self.relations[lo:hi], r))
        if i == hi or (self.subjects[i], self.relations[i]) != (s, r):
            return []
        return self.cols[self.ptr[i] : self.ptr[i + 1]].tolist()

    def queries(self) -> list[tuple[int, int]]:
        return list(zip(self.subjects.tolist(), self.relations.tolist()))

    @property
    def n_queries(self) -> int:
        return self.subjects.size

    @property
    def n_triples(self) -> int:
        return self.cols.size


def build_query_index(store: TripleStore, splits=("train",)) -> QueryIndex:
    return QueryIndex(*query_labels(store, splits), splits=tuple(splits))


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array of non-negative integer keys, in
    ascending order, from one sort.  np.unique hashes integer arrays first,
    which takes several times longer and more memory on these keys."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def filter_rows(store: TripleStore, splits, subjects, relations):
    """The sorted unique true objects of each query (subjects[i],
    relations[i]) in the given splits, as CSR rows cols[ptr[i]:ptr[i + 1]].

    Brackets each query's range of the store's cached split keys
    (TripleStore.triple_keys) with searchsorted: the triples are sorted once
    per store and split combination, and no per-query Python work is done.
    """
    n_ent, n_rel = store.n_entities, store.n_relations
    keys = store.triple_keys(splits)
    base = (np.asarray(subjects, dtype=np.int64) * n_rel + relations) * n_ent
    lo = np.searchsorted(keys, base)
    counts = np.searchsorted(keys, base + n_ent) - lo
    ptr, picked = csr_take(lo, counts, keys)
    return ptr, picked % n_ent


def query_labels(store: TripleStore, splits=("train",)):
    """The sorted unique queries of the splits as (subjects, relations, ptr,
    cols): query i's sorted true objects are the CSR row cols[ptr[i]:ptr[i +
    1]], read off the store's cached split keys."""
    keys = store.triple_keys(splits)
    queries, cols = np.divmod(keys, store.n_entities)
    starts = np.flatnonzero(np.diff(queries, prepend=-1))
    subs, rels = np.divmod(queries[starts], store.n_relations)
    return subs, rels, np.append(starts, keys.size), cols


def csr_take(starts, counts, values):
    """CSR rows (ptr, picked) holding the runs values[starts[i]:starts[i] +
    counts[i]], in the order given, gathered without a Python loop."""
    ptr = np.append(0, np.cumsum(counts))
    pick = np.arange(ptr[-1]) + np.repeat(starts - ptr[:-1], counts)
    return ptr, values[pick]


@dataclass
class DegreeStats:
    """Out-degree aggregates over the (subject, relation) pairs of some splits."""

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
    degs = np.diff(query_labels(store, splits)[2])
    if not degs.size:
        return DegreeStats(pairs=0, triples=0, mean=0.0, median=0.0, max=0)
    return DegreeStats(
        pairs=len(degs),
        triples=int(degs.sum()),
        mean=int(degs.sum()) / len(degs),
        median=float(np.median(degs)),
        max=int(degs.max()),
    )


def sufficient_dim(c: int) -> int:
    """Embedding width 2*c + 1 that the sign construction needs, where c is
    the maximum out-degree."""
    if c < 0:
        raise ValueError("max out-degree must be non-negative")
    return 2 * c + 1


def dataset_stats(store: TripleStore) -> dict:
    """JSON-ready dataset summary over all three splits, with and without
    inverse augmentation."""
    if store.inverse_augmented:
        raise ValueError("dataset_stats expects the unaugmented store")

    def variant(st: TripleStore) -> dict:
        d = degree_stats(st)
        return {
            "relations": st.n_relations,
            "query_pairs": d.pairs,
            "unique_triples": d.triples,
            "out_degree_mean": d.mean,
            "out_degree_median": d.median,
            "out_degree_max": d.max,
            "sufficient_dim": sufficient_dim(d.max),
        }

    plain = variant(store)
    return {
        "entities": store.n_entities,
        "relations": store.n_relations,
        "triples": {
            **{name: len(store.split(name)) for name in SPLITS},
            "total_raw": sum(len(store.split(name)) for name in SPLITS),
            "unique": plain["unique_triples"],
        },
        "without_inverses": plain,
        "with_inverses": variant(augment_inverse(store)),
    }
