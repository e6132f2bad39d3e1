"""Reverse-mode autodiff on a flat tape of 2-D float64 arrays.

Every operation the models need is a Tape method that appends a Node and
returns it.  backward() walks the tape once in reverse, accumulating
adjoints into Parameter.grad.  The op set is deliberately closed: it holds
the ops that training (train.batch_loss) and inference (models.Scorer)
record, plus weighted_sum, the 1x1 readout that reduces any node to a loss
for tests and the benchmark's tracer test.  Each has a hand-written
adjoint, and finite_difference_check certifies all of them against
central differences.  Elementwise ops take equal shapes; nothing
broadcasts.  The whole training objective, cross-entropy less the
weighted prior entropy, is one fused op, mixture_xent, and the inference
head is numpy (mos.head_log_probs), so no (batch x entities) matrix goes
on any tape; both, and evaluation's filtered NLL, call exp_shifted_rows.
mixture_xent forms its gradients in its forward pass, walking the batch
in blocks of query rows with all k components of a row in one block, in
one (XENT_ROWS x entities) buffer that is freed when the forward returns;
and a tape's exit cuts every node from its graph.  So a training batch
holds at most one score block, whatever its size or k, and nothing of it
outlives the batch but the loss value.
"""
from __future__ import annotations

import numpy as np

# negative-side slope of every leaky-relu, in the encoder and the mixture
LEAKY_SLOPE = 0.01
# score rows per block of mixture_xent: a block holds all k components of
# XENT_ROWS // k query rows, so the loss's one buffer is XENT_ROWS x entities
XENT_ROWS = 512


def _as_value(x) -> np.ndarray:
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"tape values must be 2-D, got ndim={v.ndim}")
    return v


class Parameter:
    """A named trainable matrix with an accumulated gradient."""

    def __init__(self, name: str, value):
        self.name = name
        self.value = _as_value(value)
        self.grad = np.zeros(self.value.shape)  # unlike zeros_like, writes no page yet

    def zero_grad(self):
        self.grad[...] = 0.0

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def log_softmax_rows(z: np.ndarray) -> np.ndarray:
    """z - (max + log sum exp(z - max)) along rows, written into z."""
    mx = z.max(axis=1, keepdims=True)
    z -= mx + np.log(np.exp(z - mx).sum(axis=1, keepdims=True))
    return z


def exp_shifted_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one softmax kernel: write exp(z - row max) into z, and return
    the row maxima and the row sums of the result, both (rows, 1)."""
    mx = z.max(axis=1, keepdims=True)
    z -= mx
    np.exp(z, out=z)
    return mx, z.sum(axis=1, keepdims=True)


def dropout_mask(shape, p: float, rng: np.random.Generator | None) -> np.ndarray:
    """The one dropout mask formula: 0 or 1/(1-p) per entry, drawn from rng;
    inverted scaling keeps expectations fixed, so inference needs none."""
    if rng is None:
        raise ValueError("training dropout needs an rng")
    return (rng.random(shape) >= p) / (1.0 - p)


def xavier_uniform(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)) for a 2-D weight."""
    if len(shape) != 2:
        raise ValueError("xavier_uniform expects a 2-D shape")
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


class BatchNormState:
    """Running-moment buffers for one batch-norm layer (not trained)."""

    def __init__(self, width: int, eps: float = 1e-5, momentum: float = 0.1):
        self.running_mean = np.zeros((1, width))
        self.running_var = np.ones((1, width))
        self.eps = eps
        self.momentum = momentum


class Node:
    __slots__ = ("idx", "op", "value", "parents", "ctx", "param")

    def __init__(self, idx, op, value, parents=(), ctx=None, param=None):
        self.idx = idx
        self.op = op
        self.value = value
        self.parents = parents
        self.ctx = ctx or {}
        self.param = param

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node#{self.idx}({self.op}, shape={self.value.shape})"


def _same_shape(op: str, a: Node, b: Node) -> None:
    if a.value.shape != b.value.shape:
        raise ValueError(f"{op} shapes differ: {a.value.shape} and {b.value.shape}")


class Tape:
    """Records a forward pass; replays it in reverse for gradients.

    As a context manager it drops its nodes on exit and empties each
    node's parents and ctx, so a node kept past the block (train_loop
    keeps each batch's loss) holds only its value, not the nodes and
    arrays it was computed from.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._param_nodes: dict[int, Node] = {}

    def __enter__(self) -> Tape:
        return self

    def __exit__(self, *exc):
        for node in self.nodes:
            node.parents = ()
            node.ctx = {}
        self.nodes.clear()
        self._param_nodes.clear()

    def _record(self, op, value, parents=(), ctx=None, param=None) -> Node:
        node = Node(len(self.nodes), op, value, tuple(parents), ctx, param)
        self.nodes.append(node)
        return node

    # ---- leaves ----

    def constant(self, value) -> Node:
        return self._record("constant", _as_value(value))

    def param(self, p: Parameter) -> Node:
        """Leaf for a Parameter; one node per parameter per tape."""
        node = self._param_nodes.get(id(p))
        if node is None:
            node = self._record("param", p.value, param=p)
            self._param_nodes[id(p)] = node
        return node

    # ---- structure ----

    def gather_rows(self, x: Node, ids) -> Node:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError("row ids must be 1-D")
        if ids.size and (ids.min() < 0 or ids.max() >= x.value.shape[0]):
            raise ValueError("row id out of range")
        return self._record("gather_rows", x.value[ids], (x,), {"ids": ids})

    def concat_cols(self, a: Node, b: Node) -> Node:
        if a.value.shape[0] != b.value.shape[0]:
            raise ValueError("concat_cols needs equal row counts")
        value = np.hstack([a.value, b.value])
        return self._record("concat_cols", value, (a, b), {"split": a.value.shape[1]})

    # ---- arithmetic ----

    def matmul(self, a: Node, b: Node) -> Node:
        """a @ b.T: rows of a against rows of b."""
        if a.value.shape[1] != b.value.shape[1]:
            raise ValueError(f"matmul shapes disagree: {a.value.shape} x {b.value.shape}^T")
        return self._record("matmul", a.value @ b.value.T, (a, b))

    def hadamard(self, a: Node, b: Node) -> Node:
        _same_shape("hadamard", a, b)
        return self._record("hadamard", a.value * b.value, (a, b))

    def affine(self, x: Node, w: Node, b: Node) -> Node:
        """x @ w.T + b with w shaped (out, in) and b shaped (1, out)."""
        if x.value.shape[1] != w.value.shape[1]:
            raise ValueError("affine input width does not match weight fan-in")
        if b.value.shape != (1, w.value.shape[0]):
            raise ValueError("affine bias must be (1, fan_out)")
        value = x.value @ w.value.T + b.value
        return self._record("affine", value, (x, w, b))

    def batch_matvec(self, vecs: Node, mats: Node) -> Node:
        """Row b of the result is vecs[b] @ mats[b].reshape(d, d)."""
        n, d = vecs.value.shape
        if mats.value.shape != (n, d * d):
            raise ValueError("batch_matvec needs mats shaped (n, d*d)")
        m3 = mats.value.reshape(n, d, d)
        value = np.einsum("bi,bij->bj", vecs.value, m3)
        return self._record("batch_matvec", value, (vecs, mats), {"d": d})

    # ---- nonlinearities ----

    def leaky_relu(self, x: Node) -> Node:
        value = np.maximum(x.value, LEAKY_SLOPE * x.value)  # = where(x > 0, x, slope*x)
        return self._record("leaky_relu", value, (x,))

    def dropout(self, x: Node, mask: np.ndarray) -> Node:
        """Multiply by a fixed 0 / (1/(1-p)) mask drawn by the caller."""
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != x.value.shape:
            raise ValueError("dropout mask shape mismatch")
        return self._record("dropout", x.value * mask, (x,), {"mask": mask})

    def batch_norm(
        self, x: Node, gamma: Node, beta: Node, state: BatchNormState, training: bool
    ) -> Node:
        n, width = x.value.shape
        if gamma.value.shape != (1, width) or beta.value.shape != (1, width):
            raise ValueError("batch_norm gamma/beta must be (1, width)")
        if training:
            mu = x.value.mean(axis=0, keepdims=True)
            var = x.value.var(axis=0, keepdims=True)
            inv_std = 1.0 / np.sqrt(var + state.eps)
            xhat = (x.value - mu) * inv_std
            m = state.momentum
            state.running_mean = (1 - m) * state.running_mean + m * mu
            state.running_var = (1 - m) * state.running_var + m * var
        else:
            inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
            xhat = (x.value - state.running_mean) * inv_std
        value = gamma.value * xhat + beta.value
        ctx = {"xhat": xhat, "inv_std": inv_std, "training": training, "n": n}
        return self._record("batch_norm", value, (x, gamma, beta), ctx)

    # ---- softmax family ----

    def row_log_softmax(self, x: Node) -> Node:
        return self._record("row_log_softmax", log_softmax_rows(x.value.copy()), (x,))

    def weighted_sum(self, x: Node, weight: float = 1.0) -> Node:
        """weight * sum of all entries, as a 1x1 node."""
        value = np.array([[weight * float(x.value.sum())]])
        return self._record("weighted_sum", value, (x,), {"weight": weight})

    # ---- fused loss ----

    def mixture_xent(
        self, states: list[Node], entities: Node, ptr, cols,
        log_pi: Node | None = None, entropy_weight: float = 0.0,
    ) -> Node:
        """Mean cross-entropy of a mixture of softmaxes against CSR labels,
        less entropy_weight times the mean entropy of the prior rows.

        Component k scores Z_k = states[k] @ entities^T and has the log-prior
        column log_pi[:, k]; log_pi=None means one component with prior 1,
        the plain softmax, and no entropy term.  Row i's labels are
        cols[ptr[i]:ptr[i + 1]], each weighted 1 / (ptr[i + 1] - ptr[i]).
        With a_k = log_pi_k + Z_k - lse_k gathered at the label entries, the
        cross-entropy is the weighted mean of -logsumexp_k a_k.  The entropy
        of prior row i is -sum_k pi_ik log pi_ik, where an entry with pi = 0
        adds 0 to the value and the gradient.  Only the label entries of the
        mixture are ever formed, from the responsibilities rho_k = pi_k p_k
        / p there.  The rows are walked in blocks of XENT_ROWS // k queries,
        and a block holds every component of its rows, stacked in one
        reused (k * rows) x N buffer, so each row's normalisers and rho are
        exact within its block.  The block is exponentiated in place and
        then turned in place into its dZ rows, from which the gradients for
        a unit upstream adjoint are formed at once; the entropy's gradient
        joins dlog_pi after the last block.  The ctx keeps only those, (n x
        d), (N x d) and (n x k) arrays; the buffer, at most XENT_ROWS x N,
        is freed when the forward returns.
        """
        if not states or states[0].value.shape[0] == 0:
            raise ValueError("mixture_xent needs at least one component and one row")
        n, d = states[0].value.shape
        if any(h.value.shape != (n, d) for h in states):
            raise ValueError("mixture_xent states must share a shape")
        n_ent = entities.value.shape[0]
        if entities.value.shape[1] != d:
            raise ValueError(
                f"entities {entities.value.shape} do not match states of width {d}"
            )
        k = len(states)
        if log_pi is None and k != 1:
            raise ValueError("mixture_xent needs log_pi for more than one component")
        if log_pi is not None and log_pi.value.shape != (n, k):
            raise ValueError(f"log_pi must be ({n}, {k}), got {log_pi.value.shape}")
        if not (entropy_weight >= 0 and np.isfinite(entropy_weight)):
            raise ValueError(
                f"entropy_weight must be finite and non-negative, got {entropy_weight}"
            )
        ptr = np.asarray(ptr)
        cols = np.asarray(cols)
        if ptr.ndim != 1 or ptr.shape[0] != n + 1 or ptr.dtype.kind not in "iu":
            raise ValueError(f"ptr must be 1-D integers of length {n + 1}")
        if cols.ndim != 1 or cols.dtype.kind not in "iu":
            raise ValueError("cols must be 1-D integers")
        counts = np.diff(ptr)
        if ptr[0] != 0 or ptr[-1] != cols.shape[0] or (counts < 0).any():
            raise ValueError("ptr must rise monotonically from 0 to len(cols)")
        if (counts == 0).any():
            raise ValueError(f"label row {int(np.argmin(counts))} is empty")
        if cols.min() < 0 or cols.max() >= n_ent:
            raise ValueError(f"label column out of range [0, {n_ent})")

        rows = np.repeat(np.arange(n), counts)
        w = (1.0 / counts)[rows]
        lp = np.zeros((n, 1)) if log_pi is None else log_pi.value
        ent = entities.value
        scale = 1.0 / n
        rb = min(n, max(1, XENT_ROWS // k))
        work = np.empty((k * rb, n_ent))
        ell = np.empty(cols.shape[0])
        c = np.empty((n, k))
        d_states = [np.empty((n, d)) for _ in states]
        d_ent = None
        for r0 in range(0, n, rb):
            r1 = min(r0 + rb, n)
            m = r1 - r0
            lo, hi = ptr[r0], ptr[r1]
            br = rows[lo:hi] - r0
            # the block's label entries, in its rows of every component
            at = ((np.arange(k)[:, None] * m + br).ravel(), np.tile(cols[lo:hi], k))
            hb = states[0].value[r0:r1] if k == 1 else np.concatenate(
                [h.value[r0:r1] for h in states])
            z = np.matmul(hb, ent.T, out=work[: k * m])
            picked = z[at].reshape(k, -1)
            mx, s = exp_shifted_rows(z)
            lse = (mx + np.log(s))[at[0], 0].reshape(k, -1)
            a = (picked - lse) + lp[rows[lo:hi]].T
            amax = a.max(axis=0)
            ell[lo:hi] = amax + np.log(np.exp(a - amax).sum(axis=0))
            rho = np.exp(a - ell[lo:hi])

            # The gradients for a unit upstream adjoint, with c_ik = sum_j
            # w_i rho_ijk and P_k = exp(Z_k - max) / s_k:
            #   dZ_k = (1/n) (P_k * c_k - sparse(w rho_k)),
            #   dH_k = dZ_k E,  dE = (H^T dZ)^T,  dlog_pi = -c / n,
            # with H and dZ the k components' rows stacked.  The block's
            # exp rows become its dZ rows in place.
            wb = w[lo:hi]
            for j in range(k):
                c[r0:r1, j] = np.bincount(br, weights=wb * rho[j], minlength=m)
            z *= scale * c[r0:r1].T.reshape(-1, 1) / s
            np.subtract.at(z, at, (scale * wb * rho).ravel())
            for j in range(k):
                np.matmul(z[j * m : (j + 1) * m], ent, out=d_states[j][r0:r1])
            de = hb.T @ z
            d_ent = de if d_ent is None else np.add(d_ent, de, out=d_ent)
        value = (-1.0 / n) * float((w * ell).sum())
        grads = [*d_states, d_ent.T]
        if log_pi is not None:
            d_pi = -scale * c
            if entropy_weight > 0:
                # row entropies H_i = -sum_k pi_ik lp_ik, their mean taken
                # as (1/n) * sum_i H_i, and the gradient of -w * mean H,
                # (w / n) pi (1 + lp)
                p = np.exp(lp)
                with np.errstate(invalid="ignore"):
                    ent_rows = -np.where(p > 0, p * lp, 0.0).sum(axis=1, keepdims=True)
                    d_pi += np.where(p > 0, (scale * entropy_weight) * p * (1.0 + lp), 0.0)
                value -= entropy_weight * (scale * float(ent_rows.sum()))
            grads.append(d_pi)
        value = np.array([[value]])
        parents = (*states, entities) + (() if log_pi is None else (log_pi,))
        return self._record("mixture_xent", value, parents, {"grads": grads})

    # ---- reverse pass ----

    def backward(self, loss: Node):
        """Accumulate d(loss)/d(param) into each Parameter.grad."""
        if loss.idx >= len(self.nodes) or self.nodes[loss.idx] is not loss:
            raise ValueError("loss node belongs to a different tape")
        if loss.value.shape != (1, 1):
            raise ValueError("backward expects a 1x1 loss node")
        # An adjoint may alias another node's adjoint (concat_cols hands
        # out views of it), so none is ever updated in place: the first one
        # a node receives is kept as it is, later ones are summed into a
        # new array, and each is dropped once it has been passed on.
        adjoints: list[np.ndarray | None] = [None] * len(self.nodes)
        adjoints[loss.idx] = np.ones((1, 1))
        for node in reversed(self.nodes):
            g = adjoints[node.idx]
            if g is None:
                continue
            adjoints[node.idx] = None
            if node.op == "param":
                node.param.grad += g
                continue
            if node.op == "constant":
                continue
            for parent, pg in zip(node.parents, _backward_rule(node, g)):
                if pg is None:
                    continue
                prev = adjoints[parent.idx]
                adjoints[parent.idx] = pg if prev is None else prev + pg


def _backward_rule(node: Node, g: np.ndarray):
    op = node.op
    a = node.parents
    if op == "gather_rows":
        out = np.zeros_like(a[0].value)
        np.add.at(out, node.ctx["ids"], g)
        return (out,)
    if op == "concat_cols":
        s = node.ctx["split"]
        return (g[:, :s], g[:, s:])
    if op == "matmul":
        return (g @ a[1].value, g.T @ a[0].value)
    if op == "hadamard":
        return (g * a[1].value, g * a[0].value)
    if op == "affine":
        xv, wv = a[0].value, a[1].value
        return (g @ wv, g.T @ xv, g.sum(axis=0, keepdims=True))
    if op == "batch_matvec":
        d = node.ctx["d"]
        n = a[0].value.shape[0]
        m3 = a[1].value.reshape(n, d, d)
        dvec = np.einsum("bj,bij->bi", g, m3)
        dmat = np.einsum("bi,bj->bij", a[0].value, g).reshape(n, d * d)
        return (dvec, dmat)
    if op == "leaky_relu":
        return (g * np.where(a[0].value > 0, 1.0, LEAKY_SLOPE),)
    if op == "dropout":
        return (g * node.ctx["mask"],)
    if op == "batch_norm":
        xhat, inv_std = node.ctx["xhat"], node.ctx["inv_std"]
        gamma = a[1].value
        dgamma = (g * xhat).sum(axis=0, keepdims=True)
        dbeta = g.sum(axis=0, keepdims=True)
        dxhat = g * gamma
        if node.ctx["training"]:
            n = node.ctx["n"]
            dx = (
                inv_std
                / n
                * (
                    n * dxhat
                    - dxhat.sum(axis=0, keepdims=True)
                    - xhat * (dxhat * xhat).sum(axis=0, keepdims=True)
                )
            )
        else:
            dx = dxhat * inv_std
        return (dx, dgamma, dbeta)
    if op == "row_log_softmax":
        soft = np.exp(node.value)
        return (g - soft * g.sum(axis=1, keepdims=True),)
    if op == "weighted_sum":
        w = node.ctx["weight"]
        return (np.full_like(a[0].value, w * g[0, 0]),)
    if op == "mixture_xent":
        return _mixture_xent_rule(node, g)
    raise AssertionError(f"no backward rule for op {op!r}")


def _mixture_xent_rule(node: Node, g: np.ndarray):
    # forward stored the gradients for g = 1; training always reaches this
    # op with g == 1.0, so the product leaves them bitwise as they are, and
    # the ctx stays as forward left it: a second backward repeats the first
    return tuple(g[0, 0] * x for x in node.ctx["grads"])


def finite_difference_check(build, params, eps: float = 1e-6) -> float:
    """Certify tape gradients against central differences.

    build(tape) must deterministically record a fresh forward pass on the
    new Tape it is given and return its 1x1 loss node.  Every entry of
    every parameter in `params` is perturbed by +-eps.  Returns the maximum
    relative error, where the denominator is floored at 1e-3 so that
    entries with near-zero gradient are compared absolutely at that scale.
    """
    for p in params:
        p.zero_grad()
    tape = Tape()
    tape.backward(build(tape))
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(build(Tape()).value[0, 0])
            flat[i] = orig - eps
            f_minus = float(build(Tape()).value[0, 0])
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(fd), abs(gflat[i]), 1e-3)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst
