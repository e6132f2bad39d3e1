"""Full-softmax cross-entropy training over (subject, relation) queries.

The batch unit is a query, not a triple: each query's label row spreads
probability mass uniformly over its true objects.  Label rows are CSR
(built once per run with numpy).  Both output layers run mixture_states
and the fused Tape.mixture_xent, which forms the whole objective, prior
entropy term included, from the recorded states and log-priors, so no
(batch x entities) matrix goes on the tape.  Shuffling is replayable
because each epoch draws from a counter-based Philox stream keyed by
(seed, epoch); runs with equal configs are bitwise identical for a fixed
thread count.
"""
from __future__ import annotations

import ctypes
import time
from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Node, Tape
from .evaluate import ranking_metrics
from .graph import TripleStore, csr_take, query_labels
from .models import ENCODERS, ModelParams, Scorer, encode, init_model, state_arrays
from .mos import MosParams, init_mos, mixture_states

OUTPUT_LAYERS = ("softmax", "mos")
# glibc's mallopt parameter numbers, from malloc.h
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


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
        if self.lr is not None and not (self.lr > 0 and np.isfinite(self.lr)):
            raise ValueError("lr must be positive and finite")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.epochs < 0 or self.patience < 1:
            raise ValueError("need epochs >= 0 and patience >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")
        if not (self.entropy_weight >= 0 and np.isfinite(self.entropy_weight)):
            raise ValueError("entropy_weight must be non-negative and finite")


def batch_loss(
    model: ModelParams,
    mos: MosParams | None,
    config: TrainConfig,
    subjects,
    relations,
    ptr,
    cols,
    tape: Tape,
    rng: np.random.Generator,
) -> Node:
    """One batch's training loss, one mixture_xent node: the cross-entropy
    of the output layer against the CSR label rows, less entropy_weight
    times the mean prior entropy for a mixture.  Dropout masks are drawn
    from rng in a fixed order (H, then each component)."""
    h = encode(
        model, subjects, relations, tape, training=True,
        dropout=config.dropout, rng=rng,
    )
    log_pi, states = mixture_states(
        mos, h, tape, training=True, dropout=config.dropout, rng=rng,
    )
    return tape.mixture_xent(
        states, tape.param(model.entities), ptr, cols, log_pi,
        entropy_weight=config.entropy_weight,
    )


class Adam:
    """Adam with bias correction; update order follows the param list.

    The step runs in place: two scratch arrays sized to the largest
    parameter, shared by all parameters, hold its temporaries, with the
    operations in the order of the textbook formula, so every value is
    bitwise what m_hat / (sqrt(v_hat) + eps) computed with fresh arrays."""

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
        self._scratch = np.empty((2, max((p.value.size for p in self.params), default=0)))

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
            a, b = (buf[: g.size].reshape(g.shape) for buf in self._scratch)
            m *= b1
            m += np.multiply(1 - b1, g, out=a)
            v *= b2
            np.multiply(1 - b2, g, out=a)
            a *= g
            v += a
            # p -= (lr * m_hat) / (sqrt(v_hat) + eps)
            np.divide(m, 1 - b1**self.t, out=a)
            a *= self.lr
            np.divide(v, 1 - b2**self.t, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p.value -= a


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_mrr: float
    wall_time: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    model: ModelParams
    mos: MosParams | None
    history: list[EpochRecord]
    best_epoch: int
    n_queries: int = 0  # training queries (unique train (s, r) pairs)


def _keep_freed_heap():
    """Fix the allocator's mmap threshold at 32 MiB and its trim threshold
    at 64 MiB, for the whole process.  glibc raises both only when it frees
    a large mmapped chunk; with no such chunk in a batch, it hands the heap
    top back to the system after every batch and page-faults it in again
    in the next.  Does nothing where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def train_loop(store: TripleStore, config: TrainConfig, progress=None) -> TrainResult:
    """Train on the store's train split; early-stop on valid filtered MRR.

    Keeps the parameters of the best validation epoch (when a valid split
    exists; otherwise runs all epochs and keeps the final state).  progress,
    if given, is called with each EpochRecord as it completes.  Sets the
    process's allocator thresholds first (_keep_freed_heap).
    """
    config.validate()
    if not store.train:
        raise ValueError("training needs a non-empty train split")
    _keep_freed_heap()

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

    subs, rels, ptr, cols = query_labels(store, ("train",))
    counts = np.diff(ptr)
    n_queries = len(subs)
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
            batch = order[start : start + config.batch_size]
            batch_ptr, batch_cols = csr_take(ptr[batch], counts[batch], cols)
            with Tape() as tape:
                loss = batch_loss(
                    model, mos_params, config, subs[batch], rels[batch],
                    batch_ptr, batch_cols, tape, erng,
                )
                if not np.isfinite(loss.value[0, 0]):
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, batch offset {start}"
                    )
                opt.zero_grad()
                tape.backward(loss)
                opt.step()
            total += float(loss.value[0, 0]) * len(batch)

        val_mrr = float("nan")
        if has_valid:
            val_mrr = ranking_metrics(
                Scorer(model, mos_params).scores, store, "valid"
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
        best_epoch=best_epoch, n_queries=n_queries,
    )
