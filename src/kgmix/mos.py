"""The mixture-of-softmaxes output layer over query states H.

A single softmax over H @ E^T has a log-probability matrix of rank at most
d+1.  The mixture blends K softmaxes, each over a separately projected copy
of H, with query-dependent priors; for K >= 2 the blend is no longer
log-linear in H and escapes that rank ceiling.  mixture_states, the one
forward of both layers, builds the log-priors and the projected states on
a tape, with the one leaky-relu slope autodiff.LEAKY_SLOPE; training feeds
them to the fused Tape.mixture_xent loss, prior entropy term included, and
inference feeds their values to head_log_probs.  That head mixes the
components in probability space, p = sum_k pi_k softmax(Z_k) (Yang et al.
2018), under a per-row shift, and falls back to log space only for rows
whose mixture underflows there.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    BatchNormState, Node, Parameter, Tape, dropout_mask, exp_shifted_rows,
    log_softmax_rows, xavier_uniform,
)


@dataclass
class MosComponent:
    """One mixture component: two (affine -> batch-norm -> leaky-relu ->
    dropout) blocks of width dim, applied to H before its softmax."""

    w1: Parameter
    b1: Parameter
    gamma1: Parameter
    beta1: Parameter
    bn1: BatchNormState
    w2: Parameter
    b2: Parameter
    gamma2: Parameter
    beta2: Parameter
    bn2: BatchNormState

    def parameters(self) -> list[Parameter]:
        return [
            self.w1, self.b1, self.gamma1, self.beta1,
            self.w2, self.b2, self.gamma2, self.beta2,
        ]


@dataclass
class MosParams:
    """K projection components plus the prior weight vectors."""

    k: int
    dim: int
    omegas: Parameter  # (k, dim); priors are softmax(H @ omegas^T)
    components: list[MosComponent]

    def parameters(self) -> list[Parameter]:
        out = [self.omegas]
        for c in self.components:
            out.extend(c.parameters())
        return out

    def param_count(self) -> int:
        return sum(p.value.size for p in self.parameters())


def init_mos(k: int, dim: int, rng: np.random.Generator) -> MosParams:
    """Sample mixture parameters in a fixed order from the given stream."""
    if k < 1:
        raise ValueError("mixture needs k >= 1")
    if dim < 1:
        raise ValueError("dim must be positive")
    omegas = Parameter("mos.omegas", xavier_uniform(rng, (k, dim)))
    components = []
    for i in range(k):
        name = f"mos.c{i}"
        components.append(
            MosComponent(
                w1=Parameter(f"{name}.w1", xavier_uniform(rng, (dim, dim))),
                b1=Parameter(f"{name}.b1", np.zeros((1, dim))),
                gamma1=Parameter(f"{name}.gamma1", np.ones((1, dim))),
                beta1=Parameter(f"{name}.beta1", np.zeros((1, dim))),
                bn1=BatchNormState(dim),
                w2=Parameter(f"{name}.w2", xavier_uniform(rng, (dim, dim))),
                b2=Parameter(f"{name}.b2", np.zeros((1, dim))),
                gamma2=Parameter(f"{name}.gamma2", np.ones((1, dim))),
                beta2=Parameter(f"{name}.beta2", np.zeros((1, dim))),
                bn2=BatchNormState(dim),
            )
        )
    return MosParams(k=k, dim=dim, omegas=omegas, components=components)


def project(
    mos: MosParams,
    component: MosComponent,
    h: Node,
    tape: Tape,
    training: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Node:
    """Run one component's two projection blocks on H."""
    c = component
    x = h
    for w, b, gamma, beta, bn in (
        (c.w1, c.b1, c.gamma1, c.beta1, c.bn1),
        (c.w2, c.b2, c.gamma2, c.beta2, c.bn2),
    ):
        x = tape.affine(x, tape.param(w), tape.param(b))
        x = tape.batch_norm(x, tape.param(gamma), tape.param(beta), bn, training)
        x = tape.leaky_relu(x)
        if training and dropout > 0.0:
            x = tape.dropout(x, dropout_mask(x.value.shape, dropout, rng))
    return x


def mixture_states(
    mos: MosParams | None,
    h: Node,
    tape: Tape,
    training: bool = False,
    dropout: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[Node | None, list[Node]]:
    """The (batch, k) log-priors log pi(H), the only prior node a forward
    records, and each component's projected states f_k(H), projected in
    component order; (None, [H]) for the plain softmax (mos=None).

    Priors and projections both consume the same H node, so dropout applied
    upstream of this call affects them identically.
    """
    if mos is None:
        return None, [h]
    logits = tape.matmul(h, tape.param(mos.omegas))
    log_pi = tape.row_log_softmax(logits)
    states = [
        project(mos, comp, h, tape, training, dropout, rng)
        for comp in mos.components
    ]
    return log_pi, states


def head_log_probs(states, entities, log_pi=None) -> np.ndarray:
    """log sum_k pi_k softmax(states[k] @ E^T) from numpy arrays, with the
    log-priors log pi in the columns of log_pi; the plain softmax passes
    one state and log_pi=None.  log_pi must be (batch, k).

    One component is log_softmax_rows, bitwise the tape's row_log_softmax
    (a one-column log_pi is exactly 0).  For more, each Z_k goes through
    exp_shifted_rows in one reused buffer, then is added into one
    accumulator with weight pi_k / (s_k max_k pi_k), s_k its row sum: the
    row is shifted by its largest log-prior, so each entry stays at or
    below k.  A row whose accumulator falls below the smallest normal float
    has lost digits to underflow and is recomputed in log space as
    logsumexp_k(log pi_k + Z_k - lse_k), so it stays finite (e.g. -800).
    """
    shape = (len(states[0]), len(states))
    if log_pi is not None and log_pi.shape != shape:
        raise ValueError(f"log_pi must be {shape}, got {log_pi.shape}")
    if len(states) == 1:
        out = log_softmax_rows(states[0] @ entities.T)
        return out if log_pi is None else out + log_pi
    if log_pi is None:
        raise ValueError("head_log_probs needs log_pi for more than one component")
    shift = log_pi.max(axis=1, keepdims=True)
    acc = np.zeros((len(log_pi), len(entities)))
    z = None
    for k, h in enumerate(states):
        z = np.matmul(h, entities.T, out=z)
        _, s = exp_shifted_rows(z)
        z *= np.exp(log_pi[:, k : k + 1] - shift) / s
        acc += z
    bad = np.flatnonzero(acc.min(axis=1) < np.finfo(np.float64).tiny)
    with np.errstate(divide="ignore"):
        np.log(acc, out=acc)
    acc += shift
    if bad.size:
        stacked = np.stack([
            log_softmax_rows(h[bad] @ entities.T) + log_pi[bad, k : k + 1]
            for k, h in enumerate(states)
        ])
        mx = stacked.max(axis=0)
        acc[bad] = mx + np.log(np.exp(stacked - mx).sum(axis=0))
    return acc
