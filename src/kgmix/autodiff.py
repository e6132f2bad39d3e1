"""Reverse-mode autodiff on a flat tape of 2-D float64 arrays.

Every operation the models need is a Tape method that appends a Node and
returns it.  backward() walks the tape once in reverse, accumulating
adjoints into Parameter.grad.  The op set is deliberately closed: each op
has a hand-written adjoint, and finite_difference_check certifies all of
them against central differences.
"""
from __future__ import annotations

import numpy as np


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
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0.0

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


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
    __slots__ = ("tape", "idx", "op", "value", "parents", "ctx", "param")

    def __init__(self, tape, idx, op, value, parents=(), ctx=None, param=None):
        self.tape = tape
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


def _unbroadcast(g: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    # reverse numpy broadcasting over the two axes
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    if out.shape != shape:
        raise ValueError(f"cannot reduce grad {g.shape} to {shape}")
    return out


class Tape:
    """Records a forward pass; replays it in reverse for gradients.

    As a context manager it drops its nodes on exit: they point back at the
    tape, so otherwise their arrays wait for the cyclic garbage collector.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._param_nodes: dict[int, Node] = {}

    def __enter__(self) -> Tape:
        return self

    def __exit__(self, *exc):
        self.nodes.clear()
        self._param_nodes.clear()

    def _record(self, op, value, parents=(), ctx=None, param=None) -> Node:
        node = Node(self, len(self.nodes), op, value, tuple(parents), ctx, param)
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

    def slice_cols(self, x: Node, start: int, stop: int) -> Node:
        if not (0 <= start < stop <= x.value.shape[1]):
            raise ValueError(f"bad column slice [{start}:{stop}]")
        value = np.ascontiguousarray(x.value[:, start:stop])
        return self._record("slice_cols", value, (x,), {"start": start, "stop": stop})

    # ---- arithmetic ----

    def matmul(self, a: Node, b: Node, transpose_b: bool = False) -> Node:
        inner = b.value.shape[1] if transpose_b else b.value.shape[0]
        if a.value.shape[1] != inner:
            raise ValueError(
                f"matmul shapes disagree: {a.value.shape} x {b.value.shape}"
                f"{'^T' if transpose_b else ''}"
            )
        value = a.value @ (b.value.T if transpose_b else b.value)
        return self._record("matmul", value, (a, b), {"transpose_b": transpose_b})

    def add(self, a: Node, b: Node) -> Node:
        return self._record("add", a.value + b.value, (a, b))

    def subtract(self, a: Node, b: Node) -> Node:
        return self._record("subtract", a.value - b.value, (a, b))

    def hadamard(self, a: Node, b: Node) -> Node:
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

    def leaky_relu(self, x: Node, slope: float = 0.01) -> Node:
        value = np.where(x.value > 0, x.value, slope * x.value)
        return self._record("leaky_relu", value, (x,), {"slope": slope})

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

    def row_softmax(self, x: Node) -> Node:
        shifted = x.value - x.value.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        value = e / e.sum(axis=1, keepdims=True)
        return self._record("row_softmax", value, (x,))

    def row_log_softmax(self, x: Node) -> Node:
        mx = x.value.max(axis=1, keepdims=True)
        lse = mx + np.log(np.exp(x.value - mx).sum(axis=1, keepdims=True))
        return self._record("row_log_softmax", x.value - lse, (x,))

    def row_logsumexp(self, x: Node) -> Node:
        mx = x.value.max(axis=1, keepdims=True)
        value = mx + np.log(np.exp(x.value - mx).sum(axis=1, keepdims=True))
        return self._record("row_logsumexp", value, (x,))

    def stack_logsumexp(self, xs: list[Node]) -> Node:
        """Elementwise log(sum_k exp(xs[k])) over same-shaped nodes."""
        if not xs:
            raise ValueError("stack_logsumexp needs at least one node")
        shape = xs[0].value.shape
        if any(x.value.shape != shape for x in xs):
            raise ValueError("stack_logsumexp nodes must share a shape")
        stacked = np.stack([x.value for x in xs])
        mx = stacked.max(axis=0)
        value = mx + np.log(np.exp(stacked - mx).sum(axis=0))
        return self._record("stack_logsumexp", value, tuple(xs))

    def row_entropy(self, p: Node) -> Node:
        """Shannon entropy of each row of a row-stochastic matrix, (n, 1)."""
        pv = p.value
        if (pv < 0).any():
            raise ValueError("row_entropy needs non-negative entries")
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(pv > 0, pv * np.log(np.where(pv > 0, pv, 1.0)), 0.0)
        value = -plogp.sum(axis=1, keepdims=True)
        return self._record("row_entropy", value, (p,))

    def weighted_sum(self, x: Node, weight: float = 1.0) -> Node:
        """weight * sum of all entries, as a 1x1 node."""
        value = np.array([[weight * float(x.value.sum())]])
        return self._record("weighted_sum", value, (x,), {"weight": weight})

    # ---- reverse pass ----

    def backward(self, loss: Node):
        """Accumulate d(loss)/d(param) into each Parameter.grad."""
        if loss.tape is not self:
            raise ValueError("loss node belongs to a different tape")
        if loss.value.shape != (1, 1):
            raise ValueError("backward expects a 1x1 loss node")
        adjoints: list[np.ndarray | None] = [None] * len(self.nodes)
        adjoints[loss.idx] = np.ones((1, 1))
        for node in reversed(self.nodes):
            g = adjoints[node.idx]
            if g is None:
                continue
            if node.op == "param":
                node.param.grad += g
                continue
            if node.op == "constant":
                continue
            for parent, pg in zip(node.parents, _backward_rule(node, g)):
                if pg is None:
                    continue
                if adjoints[parent.idx] is None:
                    adjoints[parent.idx] = np.zeros_like(parent.value)
                adjoints[parent.idx] += pg


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
    if op == "slice_cols":
        out = np.zeros_like(a[0].value)
        out[:, node.ctx["start"] : node.ctx["stop"]] = g
        return (out,)
    if op == "matmul":
        av, bv = a[0].value, a[1].value
        if node.ctx["transpose_b"]:
            return (g @ bv, g.T @ av)
        return (g @ bv.T, av.T @ g)
    if op == "add":
        return (
            _unbroadcast(g, a[0].value.shape),
            _unbroadcast(g, a[1].value.shape),
        )
    if op == "subtract":
        return (
            _unbroadcast(g, a[0].value.shape),
            _unbroadcast(-g, a[1].value.shape),
        )
    if op == "hadamard":
        return (
            _unbroadcast(g * a[1].value, a[0].value.shape),
            _unbroadcast(g * a[0].value, a[1].value.shape),
        )
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
        slope = node.ctx["slope"]
        return (g * np.where(a[0].value > 0, 1.0, slope),)
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
    if op == "row_softmax":
        s = node.value
        return (s * (g - (g * s).sum(axis=1, keepdims=True)),)
    if op == "row_log_softmax":
        soft = np.exp(node.value)
        return (g - soft * g.sum(axis=1, keepdims=True),)
    if op == "row_logsumexp":
        soft = np.exp(a[0].value - node.value)
        return (g * soft,)
    if op == "stack_logsumexp":
        return tuple(g * np.exp(x.value - node.value) for x in a)
    if op == "row_entropy":
        pv = a[0].value
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(pv > 0, 1.0 + np.log(np.where(pv > 0, pv, 1.0)), 0.0)
        return (-g * term,)
    if op == "weighted_sum":
        w = node.ctx["weight"]
        return (np.full_like(a[0].value, w * g[0, 0]),)
    raise AssertionError(f"no backward rule for op {op!r}")


def finite_difference_check(build, params, eps: float = 1e-6) -> float:
    """Certify tape gradients against central differences.

    build() must deterministically construct a fresh forward pass and return
    its 1x1 loss node.  Every entry of every parameter in `params` is
    perturbed by +-eps.  Returns the maximum relative error, where the
    denominator is floored at 1e-3 so that entries with near-zero gradient
    are compared absolutely at that scale.
    """
    for p in params:
        p.zero_grad()
    loss = build()
    loss.tape.backward(loss)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(build().value[0, 0])
            flat[i] = orig - eps
            f_minus = float(build().value[0, 0])
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(fd), abs(gflat[i]), 1e-3)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst
