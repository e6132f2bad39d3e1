"""Full-softmax cross-entropy training over (subject, relation) queries.

The batch unit is a query, not a triple: each query's label row spreads
probability mass uniformly over its true objects.  Shuffling is replayable
because each epoch draws from a counter-based Philox stream keyed by
(seed, epoch); runs with equal configs are bitwise identical for a fixed
thread count.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Node, Tape
from .evaluate import ranking_metrics
from .graph import QueryIndex, TripleStore, build_query_index
from .models import ENCODERS, ModelParams, Scorer, encode, init_model, state_arrays
from .mos import MosParams, init_mos, mixture_log_prob, plain_log_prob, priors

OUTPUT_LAYERS = ("softmax", "mos")


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient stops being finite."""


@dataclass
class TrainConfig:
    encoder: str = "distmult"
    output_layer: str = "softmax"
    dim: int = 200
    k: int = 4
    lr: float | None = None  # None picks the per-encoder default
    batch_size: int = 1000
    epochs: int = 30
    patience: int = 8
    dropout: float = 0.1
    entropy_weight: float = 1e-3
    seed: int = 0
    leaky_slope: float = 0.01
    eval_batch_size: int = 512

    def resolved_lr(self) -> float:
        if self.lr is not None:
            return self.lr
        return 1e-3 if self.encoder == "distmult" else 1e-4

    def validate(self):
        if self.encoder not in ENCODERS:
            raise ValueError(f"unknown encoder {self.encoder!r}")
        if self.output_layer not in OUTPUT_LAYERS:
            raise ValueError(f"unknown output layer {self.output_layer!r}")
        if self.dim < 1 or self.k < 1:
            raise ValueError("dim and k must be positive")
        if self.lr is not None and self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.epochs < 0 or self.patience < 1:
            raise ValueError("need epochs >= 0 and patience >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if self.entropy_weight < 0:
            raise ValueError("entropy_weight must be non-negative")


def query_label_matrix(index: QueryIndex, queries, n_entities: int) -> np.ndarray:
    """Dense label rows, uniform over each query's true objects."""
    labels = np.zeros((len(queries), n_entities))
    for i, (s, r) in enumerate(queries):
        true = index.get(s, r)
        if not true:
            raise ValueError(f"query {(s, r)} has no true objects in the index")
        labels[i, true] = 1.0 / len(true)
    return labels


def ce_loss(logp: Node, labels: np.ndarray, tape: Tape) -> Node:
    """Mean cross-entropy of log-probability rows against label rows."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != logp.value.shape:
        raise ValueError("labels must match the log-probability shape")
    if (labels < 0).any() or not np.allclose(labels.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("label rows must be non-negative and sum to 1")
    picked = tape.hadamard(tape.constant(labels), logp)
    return tape.weighted_sum(picked, -1.0 / labels.shape[0])


def entropy_reg(pi: Node, tape: Tape) -> Node:
    """Mean Shannon entropy of the prior rows (a 1x1 node)."""
    return tape.weighted_sum(tape.row_entropy(pi), 1.0 / pi.value.shape[0])


class Adam:
    """Adam with bias correction; update order follows the param list."""

    def __init__(self, params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.value) for p in self.params]
        self.v = [np.zeros_like(p.value) for p in self.params]

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if not np.isfinite(g).all():
                bad = int((~np.isfinite(g)).sum())
                raise TrainingDiverged(
                    f"non-finite gradient in {p.name!r} ({bad} entries) "
                    f"at step {self.t}"
                )
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_mrr: float
    wall_time: float

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "train_loss": self.train_loss,
            "val_mrr": self.val_mrr,
            "wall_time": self.wall_time,
        }


@dataclass
class TrainResult:
    model: ModelParams
    mos: MosParams | None
    history: list[EpochRecord]
    best_epoch: int
    config: TrainConfig = field(repr=False, default=None)


def train_loop(store: TripleStore, config: TrainConfig, progress=None) -> TrainResult:
    """Train on the store's train split; early-stop on valid filtered MRR.

    Keeps the parameters of the best validation epoch (when a valid split
    exists; otherwise runs all epochs and keeps the final state).  progress,
    if given, is called with each EpochRecord as it completes.
    """
    config.validate()
    if not store.train:
        raise ValueError("training needs a non-empty train split")

    rng_init = np.random.default_rng(config.seed)
    model = init_model(
        config.encoder, store.n_entities, store.n_relations, config.dim,
        seed=config.seed, rng=rng_init,
    )
    mos_params = None
    if config.output_layer == "mos":
        mos_params = init_mos(config.k, config.dim, rng_init)
    params = model.parameters() + (mos_params.parameters() if mos_params else [])
    opt = Adam(params, config.resolved_lr())

    index = build_query_index(store, ("train",))
    queries = index.queries()
    n_queries = len(queries)
    has_valid = len(store.valid) > 0

    history: list[EpochRecord] = []
    best: tuple[float, int, list] | None = None
    bad_epochs = 0

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        erng = np.random.Generator(np.random.Philox(key=[config.seed, epoch]))
        order = erng.permutation(n_queries)
        total = 0.0
        for start in range(0, n_queries, config.batch_size):
            batch_q = [queries[i] for i in order[start : start + config.batch_size]]
            subs = np.array([q[0] for q in batch_q], dtype=np.int64)
            rels = np.array([q[1] for q in batch_q], dtype=np.int64)
            labels = query_label_matrix(index, batch_q, store.n_entities)

            with Tape() as tape:
                h = encode(
                    model, subs, rels, tape, training=True,
                    dropout=config.dropout, rng=erng, slope=config.leaky_slope,
                )
                if mos_params is not None:
                    logp = mixture_log_prob(
                        mos_params, h, tape.param(model.entities), tape,
                        training=True, dropout=config.dropout, rng=erng,
                        slope=config.leaky_slope,
                    )
                else:
                    logp = plain_log_prob(h, tape.param(model.entities), tape)
                loss = ce_loss(logp, labels, tape)
                if mos_params is not None and config.entropy_weight > 0:
                    reg = entropy_reg(priors(mos_params, h, tape), tape)
                    loss = tape.subtract(
                        loss, tape.weighted_sum(reg, config.entropy_weight)
                    )
                if not np.isfinite(loss.value[0, 0]):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch offset {start}"
                    )
                opt.zero_grad()
                tape.backward(loss)
                opt.step()
            total += float(loss.value[0, 0]) * len(batch_q)

        val_mrr = float("nan")
        if has_valid:
            scorer = Scorer(model, mos_params, slope=config.leaky_slope)
            val_mrr = ranking_metrics(
                scorer.scores, store, "valid", batch_size=config.eval_batch_size
            ).mrr
        record = EpochRecord(
            epoch=epoch,
            train_loss=total / n_queries,
            val_mrr=val_mrr,
            wall_time=time.perf_counter() - t0,
        )
        history.append(record)
        if progress is not None:
            progress(record)

        if has_valid:
            if best is None or val_mrr > best[0]:
                snap = [a.copy() for _, a in state_arrays(model, mos_params)]
                best = (val_mrr, epoch, snap)
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    break

    best_epoch = len(history)
    if best is not None:
        for (_, a), saved in zip(state_arrays(model, mos_params), best[2]):
            a[...] = saved
        best_epoch = best[1]
    return TrainResult(
        model=model, mos=mos_params, history=history,
        best_epoch=best_epoch, config=config,
    )
