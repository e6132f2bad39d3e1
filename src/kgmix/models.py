"""Bilinear link-prediction models over a shared entity embedding table.

Every encoder maps a (subject, relation) query batch to states H with one
row per query; scores for all candidate objects are then the single matrix
product H @ E^T, which is what caps the score matrix at rank d.  Encoders:

  distmult   h = e_s * w_r           (elementwise; symmetric scorer)
  rescal     h = e_s @ W_r           (full d x d matrix per relation)
  mlp        h = two leaky-relu affine layers on [e_s ; w_r]
             (negative slope autodiff.LEAKY_SLOPE)

Checkpoints are a single JSON header line followed by the raw little-endian
float64 array bytes in header order, so round-trips are bit-exact.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import mos as mos_mod
from .autodiff import Node, Parameter, Tape, dropout_mask, xavier_uniform

ENCODERS = ("distmult", "rescal", "mlp")

CHECKPOINT_MAGIC = "kgmix-checkpoint"
CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    """Encoder weights plus the entity table they score against."""

    encoder: str
    n_entities: int
    n_relations: int
    dim: int
    seed: int
    entities: Parameter
    relations: Parameter
    mlp_w1: Parameter | None = None
    mlp_b1: Parameter | None = None
    mlp_w2: Parameter | None = None
    mlp_b2: Parameter | None = None

    def parameters(self) -> list[Parameter]:
        out = [self.entities, self.relations]
        if self.encoder == "mlp":
            out += [self.mlp_w1, self.mlp_b1, self.mlp_w2, self.mlp_b2]
        return out

    def param_count(self) -> int:
        return sum(p.value.size for p in self.parameters())


def init_model(
    encoder: str,
    n_entities: int,
    n_relations: int,
    dim: int,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> ModelParams:
    """Xavier-uniform init; sampling order is fixed so seeds reproduce."""
    if encoder not in ENCODERS:
        raise ValueError(f"unknown encoder {encoder!r}, pick one of {ENCODERS}")
    if min(n_entities, n_relations, dim) < 1:
        raise ValueError("n_entities, n_relations and dim must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    entities = Parameter("entities", xavier_uniform(rng, (n_entities, dim)))
    if encoder == "rescal":
        # one d x d matrix per relation, each drawn at the d x d fan bound
        mats = np.stack([xavier_uniform(rng, (dim, dim)) for _ in range(n_relations)])
        relations = Parameter("relations", mats.reshape(n_relations, dim * dim))
    else:
        relations = Parameter("relations", xavier_uniform(rng, (n_relations, dim)))
    model = ModelParams(
        encoder=encoder,
        n_entities=n_entities,
        n_relations=n_relations,
        dim=dim,
        seed=seed,
        entities=entities,
        relations=relations,
    )
    if encoder == "mlp":
        model.mlp_w1 = Parameter("mlp_w1", xavier_uniform(rng, (dim, 2 * dim)))
        model.mlp_b1 = Parameter("mlp_b1", np.zeros((1, dim)))
        model.mlp_w2 = Parameter("mlp_w2", xavier_uniform(rng, (dim, dim)))
        model.mlp_b2 = Parameter("mlp_b2", np.zeros((1, dim)))
    return model


def _validate_ids(ids, upper: int, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError(f"{what} ids must be a non-empty 1-D array")
    if ids.min() < 0 or ids.max() >= upper:
        raise ValueError(f"{what} id out of range [0, {upper})")
    return ids


def encode(
    model: ModelParams,
    subjects,
    relations,
    tape: Tape,
    training: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Node:
    """Map a query batch to states H (batch, dim) on the given tape.

    When training with dropout > 0, an inverted-scaling mask drawn from rng
    is applied to H, so the same dropped H feeds whatever output layer is
    stacked on top.
    """
    subjects = _validate_ids(subjects, model.n_entities, "subject")
    relations = _validate_ids(relations, model.n_relations, "relation")
    if subjects.shape != relations.shape:
        raise ValueError("subjects and relations must align")
    e_node = tape.param(model.entities)
    r_node = tape.param(model.relations)
    subj = tape.gather_rows(e_node, subjects)
    rel = tape.gather_rows(r_node, relations)
    if model.encoder == "distmult":
        h = tape.hadamard(subj, rel)
    elif model.encoder == "rescal":
        h = tape.batch_matvec(subj, rel)
    else:
        x = tape.concat_cols(subj, rel)
        h1 = tape.leaky_relu(
            tape.affine(x, tape.param(model.mlp_w1), tape.param(model.mlp_b1))
        )
        h = tape.leaky_relu(
            tape.affine(h1, tape.param(model.mlp_w2), tape.param(model.mlp_b2))
        )
    if training and dropout > 0.0:
        h = tape.dropout(h, dropout_mask(h.value.shape, dropout, rng))
    return h


class Scorer:
    """Inference-mode scoring for evaluation, over all entities or over
    given candidate ids.

    Only the encoder and mixture_states run on a tape, so it holds no
    (batch, entities) node; both layers share the numpy output head
    mos.head_log_probs.  It runs the same forward as training, leaky-relu
    slope included, in inference mode: no dropout, batch norm on its
    running moments.  scores() returns what rankings should sort on (raw
    H @ E^T for the plain layer, mixture log-probabilities otherwise), the
    score function of evaluate.ranking_metrics; log_probs() always returns
    normalized log-probabilities.
    """

    def __init__(self, model: ModelParams, mos=None):
        self.model = model
        self.mos = mos

    def _head(self, h: Node, tape: Tape) -> np.ndarray:
        log_pi, states = mos_mod.mixture_states(self.mos, h, tape)
        lp = None if log_pi is None else log_pi.value
        entities = self.model.entities.value
        return mos_mod.head_log_probs([s.value for s in states], entities, lp)

    def scores(self, subjects, relations, entities=None) -> np.ndarray:
        """(batch, n_entities) scores, or with entities, a (batch, w) integer
        id array, the (batch, w) scores of entities[i] for query i.

        The plain layer scores the ids of row i as E[entities[i]] @ h_i, so
        it holds w x d floats per row and no (batch, n_entities) block.  The
        mixture normalises each component over all entities, so it computes
        its full head and gathers the ids from it: its cost does not drop.
        """
        with Tape() as tape:
            h = encode(self.model, subjects, relations, tape)
            if entities is not None:
                entities = np.asarray(entities)
                if entities.ndim != 2 or len(entities) != len(h.value) \
                        or entities.dtype.kind not in "iu":
                    raise ValueError(f"entities must be a (batch, w) integer array, "
                                     f"got {entities.dtype} {entities.shape}")
                _validate_ids(entities.reshape(-1), self.model.n_entities, "entity")
            if self.mos is not None:
                z = self._head(h, tape)
                return z if entities is None else np.take_along_axis(z, entities, axis=1)
            table = self.model.entities.value
            if entities is None:
                return h.value @ table.T
            out = np.empty(entities.shape)
            for row, ids, state in zip(out, entities, h.value):
                np.matmul(table[ids], state, out=row)
            return out

    def log_probs(self, subjects, relations) -> np.ndarray:
        with Tape() as tape:
            h = encode(self.model, subjects, relations, tape)
            return self._head(h, tape)

    def log_probs_from_states(self, states) -> np.ndarray:
        """Log-probabilities for raw query states H, bypassing the encoder."""
        with Tape() as tape:
            return self._head(tape.constant(states), tape)


# ---- checkpoint io ----


def state_arrays(model: ModelParams, mos=None) -> list[tuple[str, np.ndarray]]:
    """Every parameter and batch-norm buffer as (name, array), in checkpoint
    order.  The arrays are the live ones; batch-norm training rebinds its
    buffers, so take this list at the moment it is read or written."""
    arrays = [(p.name, p.value) for p in model.parameters()]
    if mos is not None:
        arrays.append((mos.omegas.name, mos.omegas.value))
        for i, c in enumerate(mos.components):
            arrays += [(p.name, p.value) for p in c.parameters()]
            for tag, bn in (("bn1", c.bn1), ("bn2", c.bn2)):
                arrays.append((f"mos.c{i}.{tag}.running_mean", bn.running_mean))
                arrays.append((f"mos.c{i}.{tag}.running_var", bn.running_var))
    return arrays


def save_checkpoint(path: str, model: ModelParams, mos=None, extra: dict | None = None):
    """One JSON header line, then raw '<f8' bytes per array in header order."""
    arrays = state_arrays(model, mos)
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "encoder": model.encoder,
        "n_entities": model.n_entities,
        "n_relations": model.n_relations,
        "dim": model.dim,
        "seed": model.seed,
        "output_layer": "softmax" if mos is None else "mos",
        "k": None if mos is None else mos.k,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays],
        "extra": extra or {},
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path: str):
    """Rebuild (model, mos, extra) exactly as saved; bit-exact values.

    The header's array list must name exactly the arrays of state_arrays
    for the model it describes, with the same shapes; anything else raises
    ValueError naming the array.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ValueError(f"{path}: not a checkpoint ({e})") from e
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad checkpoint magic")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported version {header.get('version')}")
        blob = fh.read()
    try:
        model = init_model(header["encoder"], header["n_entities"],
                           header["n_relations"], header["dim"], seed=header["seed"])
        mos = (mos_mod.init_mos(header["k"], header["dim"], np.random.default_rng(0))
               if header["output_layer"] == "mos" else None)
        specs = [(spec["name"], tuple(spec["shape"])) for spec in header["arrays"]]
        extra = header["extra"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"{path}: malformed checkpoint header ({e!r})") from e
    if not isinstance(extra, dict):
        raise ValueError(f"{path}: malformed checkpoint header (extra is not an object)")

    state = dict(state_arrays(model, mos))
    shapes = dict(specs)
    for name in [*state, *shapes]:
        if name not in state or name not in shapes:
            what = "missing" if name in state else "unexpected"
            raise ValueError(f"{path}: {what} array {name!r}")
        if shapes[name] != state[name].shape:
            raise ValueError(
                f"{path}: array {name!r} has shape {list(shapes[name])}, "
                f"expected {list(state[name].shape)}"
            )
    if len(specs) != len(shapes):
        raise ValueError(f"{path}: an array is listed twice")
    need = 8 * sum(a.size for a in state.values())
    if len(blob) < need:
        raise ValueError(f"{path}: truncated checkpoint")
    if len(blob) > need:
        raise ValueError(f"{path}: trailing bytes in checkpoint")
    offset = 0
    for name, _ in specs:
        a = state[name]
        a[...] = np.frombuffer(blob, "<f8", a.size, offset).reshape(a.shape)
        offset += 8 * a.size
    return model, mos, extra
