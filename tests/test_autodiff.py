"""Every tape op is certified against central finite differences, plus the
closed-form softmax cross-entropy gradient and the dropout/batch-norm
side-effect contracts."""
import gc
import weakref

import numpy as np
import pytest

from kgmix import autodiff
from kgmix.autodiff import (
    LEAKY_SLOPE,
    BatchNormState,
    Parameter,
    Tape,
    exp_shifted_rows,
    xavier_uniform,
)
from gradcheck import finite_difference_check
from kgmix.mos import head_log_probs

FD_TOL = 1e-5
FD_TOL_BN = 1e-4


def scalarize(tape, node, w):
    """Weighted sum with a fixed random weight matrix, so every entry of
    the node's adjoint is exercised."""
    return tape.weighted_sum(tape.hadamard(tape.constant(w), node))


def test_matmul_grads():
    rng = np.random.default_rng(0)
    a = Parameter("a", rng.standard_normal((4, 3)))
    b = Parameter("b", rng.standard_normal((3, 5)).T.copy())  # passed transposed
    w = rng.standard_normal((4, 5))

    def build(t):
        return scalarize(t, t.matmul(t.param(a), t.param(b)), w)

    assert finite_difference_check(build, [a, b]) <= FD_TOL


def test_matmul_transpose_grads():
    rng = np.random.default_rng(1)
    a = Parameter("a", rng.standard_normal((4, 3)))
    b = Parameter("b", rng.standard_normal((5, 3)))
    w = rng.standard_normal((4, 5))

    def build(t):
        return scalarize(t, t.matmul(t.param(a), t.param(b)), w)

    assert finite_difference_check(build, [a, b]) <= FD_TOL


@pytest.mark.parametrize("op", ["hadamard"])
@pytest.mark.parametrize("b_shape", [(4, 3), (1, 3), (4, 1), (1, 1)])
def test_elementwise_grads_with_broadcast(op, b_shape):
    """Equal shapes pass finite differences; a broadcast shape is refused,
    since no model broadcasts and the rules do not reduce."""
    rng = np.random.default_rng(2)
    a = Parameter("a", rng.standard_normal((4, 3)))
    b = Parameter("b", rng.standard_normal(b_shape))
    w = rng.standard_normal((4, 3))

    def build(t):
        return scalarize(t, getattr(t, op)(t.param(a), t.param(b)), w)

    if b_shape != (4, 3):
        t = Tape()
        with pytest.raises(ValueError, match=rf"{op} shapes differ"):
            build(t)
        assert [n.op for n in t.nodes] == ["param", "param"]
        return
    assert finite_difference_check(build, [a, b]) <= FD_TOL


def test_affine_grads():
    rng = np.random.default_rng(3)
    x = Parameter("x", rng.standard_normal((6, 4)))
    wgt = Parameter("w", rng.standard_normal((3, 4)))
    bias = Parameter("b", rng.standard_normal((1, 3)))
    w = rng.standard_normal((6, 3))

    def build(t):
        return scalarize(t, t.affine(t.param(x), t.param(wgt), t.param(bias)), w)

    assert finite_difference_check(build, [x, wgt, bias]) <= FD_TOL


def test_gather_rows_accumulates_repeats():
    rng = np.random.default_rng(4)
    e = Parameter("e", rng.standard_normal((5, 3)))
    ids = np.array([0, 2, 0, 4, 0])  # repeated rows must sum their adjoints
    w = rng.standard_normal((5, 3))

    def build(t):
        return scalarize(t, t.gather_rows(t.param(e), ids), w)

    assert finite_difference_check(build, [e]) <= FD_TOL
    e.zero_grad()
    tape = Tape()
    tape.backward(build(tape))
    assert np.allclose(e.grad[0], w[0] + w[2] + w[4])
    assert np.allclose(e.grad[1], 0.0)


def test_concat_grads():
    rng = np.random.default_rng(5)
    a = Parameter("a", rng.standard_normal((3, 2)))
    b = Parameter("b", rng.standard_normal((3, 4)))
    w = rng.standard_normal((3, 6))

    def build(t):
        return scalarize(t, t.concat_cols(t.param(a), t.param(b)), w)

    assert finite_difference_check(build, [a, b]) <= FD_TOL


def test_batch_matvec_grads():
    rng = np.random.default_rng(6)
    v = Parameter("v", rng.standard_normal((4, 3)))
    m = Parameter("m", rng.standard_normal((4, 9)))
    w = rng.standard_normal((4, 3))

    def build(t):
        return scalarize(t, t.batch_matvec(t.param(v), t.param(m)), w)

    assert finite_difference_check(build, [v, m]) <= FD_TOL


def test_batch_matvec_value():
    t = Tape()
    v = t.constant(np.array([[1.0, 2.0]]))
    m = t.constant(np.array([[1.0, 2.0, 3.0, 4.0]]))  # [[1,2],[3,4]] row-major
    got = t.batch_matvec(v, m).value
    assert np.allclose(got, [[1 * 1 + 2 * 3, 1 * 2 + 2 * 4]])


def test_leaky_relu_grads():
    rng = np.random.default_rng(7)
    vals = rng.standard_normal((5, 4))
    vals[np.abs(vals) < 0.05] += 0.1  # keep clear of the kink for FD
    x = Parameter("x", vals)
    w = rng.standard_normal((5, 4))

    def build(t):
        return scalarize(t, t.leaky_relu(t.param(x)), w)

    assert finite_difference_check(build, [x]) <= FD_TOL
    x.zero_grad()
    tape = Tape()
    tape.backward(build(tape))
    assert np.array_equal(x.grad, w * np.where(vals > 0, 1.0, LEAKY_SLOPE))


def test_leaky_relu_value_is_bitwise_the_where_form():
    """max(x, slope*x) equals where(x > 0, x, slope*x) bit for bit for a
    slope in (0, 1), at the signed zeros, infinities, NaNs and subnormals."""
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
               2.2e-308, -2.2e-308, 1e308, -1e308, 1.0, -1.0]
    vals = np.concatenate([special, np.random.default_rng(9).standard_normal(500)])[None, :]
    t = Tape()
    got = t.leaky_relu(t.constant(vals)).value
    assert 0 < LEAKY_SLOPE < 1
    assert got.tobytes() == np.where(vals > 0, vals, LEAKY_SLOPE * vals).tobytes()


def test_softmax_family_grads():
    rng = np.random.default_rng(8)
    x = Parameter("x", rng.standard_normal((4, 6)))
    w_full = rng.standard_normal((4, 6))

    def build_log_softmax(t):
        return scalarize(t, t.row_log_softmax(t.param(x)), w_full)

    assert finite_difference_check(build_log_softmax, [x]) <= FD_TOL


def test_dropout_mask_semantics():
    rng = np.random.default_rng(10)
    x = Parameter("x", rng.standard_normal((4, 5)))
    mask = (rng.random((4, 5)) >= 0.4) / 0.6
    w = rng.standard_normal((4, 5))

    def build(t):
        return scalarize(t, t.dropout(t.param(x), mask), w)

    assert finite_difference_check(build, [x]) <= FD_TOL
    x.zero_grad()
    tape = Tape()
    tape.backward(build(tape))
    assert np.allclose(x.grad, w * mask)  # zeroed entries get zero gradient


def test_batch_norm_training_grads():
    rng = np.random.default_rng(11)
    x = Parameter("x", rng.standard_normal((6, 3)))
    gamma = Parameter("g", 1.0 + 0.1 * rng.standard_normal((1, 3)))
    beta = Parameter("b", 0.1 * rng.standard_normal((1, 3)))
    w = rng.standard_normal((6, 3))
    state = BatchNormState(3)

    def build(t):
        return scalarize(
            t,
            t.batch_norm(t.param(x), t.param(gamma), t.param(beta), state, True),
            w,
        )

    assert finite_difference_check(build, [x, gamma, beta]) <= FD_TOL_BN


def test_batch_norm_inference_grads():
    rng = np.random.default_rng(12)
    x = Parameter("x", rng.standard_normal((6, 3)))
    gamma = Parameter("g", 1.0 + 0.1 * rng.standard_normal((1, 3)))
    beta = Parameter("b", 0.1 * rng.standard_normal((1, 3)))
    w = rng.standard_normal((6, 3))
    state = BatchNormState(3)
    state.running_mean = rng.standard_normal((1, 3)) * 0.2
    state.running_var = 1.0 + 0.3 * rng.random((1, 3))

    def build(t):
        return scalarize(
            t,
            t.batch_norm(t.param(x), t.param(gamma), t.param(beta), state, False),
            w,
        )

    assert finite_difference_check(build, [x, gamma, beta]) <= FD_TOL


def test_batch_norm_running_stats_update():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((8, 2)) * 2 + 1
    state = BatchNormState(2)
    t = Tape()
    t.batch_norm(
        t.constant(x), t.constant(np.ones((1, 2))), t.constant(np.zeros((1, 2))),
        state, True,
    )
    mu = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    assert np.allclose(state.running_mean, 0.9 * 0.0 + 0.1 * mu)
    assert np.allclose(state.running_var, 0.9 * 1.0 + 0.1 * var)
    # training output is standardized regardless of the running buffers
    t2 = Tape()
    out = t2.batch_norm(
        t2.constant(x), t2.constant(np.ones((1, 2))), t2.constant(np.zeros((1, 2))),
        state, True,
    ).value
    assert np.abs(out.mean(axis=0)).max() <= 1e-12
    assert np.abs(out.var(axis=0) - var / (var + state.eps)).max() <= 1e-9


def test_batch_norm_inference_uses_running_stats():
    state = BatchNormState(1)
    state.running_mean = np.array([[2.0]])
    state.running_var = np.array([[4.0]])
    t = Tape()
    out = t.batch_norm(
        t.constant(np.array([[4.0]])), t.constant(np.ones((1, 1))),
        t.constant(np.zeros((1, 1))), state, False,
    ).value
    assert out[0, 0] == pytest.approx((4.0 - 2.0) / np.sqrt(4.0 + 1e-5), rel=1e-9)


def test_weighted_sum_value_and_grad():
    rng = np.random.default_rng(15)
    x = Parameter("x", rng.standard_normal((3, 4)))

    def build(t):
        return t.weighted_sum(t.param(x), -0.5)

    loss = build(Tape())
    assert loss.value[0, 0] == pytest.approx(-0.5 * x.value.sum(), rel=1e-12)
    assert finite_difference_check(build, [x]) <= FD_TOL


def test_cross_entropy_closed_form_gradient():
    rng = np.random.default_rng(16)
    z = Parameter("z", rng.standard_normal((5, 7)))
    y = np.zeros((5, 7))
    y[np.arange(5), [0, 3, 6, 2, 2]] = 1.0

    def build(t):
        logp = t.row_log_softmax(t.param(z))
        return t.weighted_sum(t.hadamard(t.constant(y), logp), -1.0 / 5)

    z.zero_grad()
    tape = Tape()
    tape.backward(build(tape))
    sm = np.exp(z.value - z.value.max(axis=1, keepdims=True))
    sm /= sm.sum(axis=1, keepdims=True)
    assert np.abs(z.grad - (sm - y) / 5).max() <= 1e-10
    assert finite_difference_check(build, [z]) <= FD_TOL


def test_shared_and_aliased_adjoints_grads():
    """Nodes with several consumers, some reached through concat_cols,
    whose rule hands out views of its adjoint: xn feeds a weighted sum,
    both halves of twice and cat, so its first adjoint is a view of cat's
    and yn's is the other half of it; cat and other share a hadamard.
    Every contribution must still sum to the exact gradient."""
    rng = np.random.default_rng(18)
    x = Parameter("x", rng.standard_normal((4, 3)))
    y = Parameter("y", rng.standard_normal((4, 2)))
    z = Parameter("z", rng.standard_normal((4, 5)))
    w_early = rng.standard_normal((4, 3))
    w_twice = rng.standard_normal((4, 6))
    w_cat = rng.standard_normal((4, 5))

    def build(t):
        other = t.leaky_relu(t.param(z))
        xn = t.leaky_relu(t.param(x))
        yn = t.leaky_relu(t.param(y))
        early = scalarize(t, xn, w_early)  # reaches xn after the views
        twice = t.concat_cols(xn, xn)  # xn gets both halves of one adjoint
        cat = t.concat_cols(xn, yn)
        prod = t.hadamard(cat, other)  # cat and other share a consumer
        mixed = t.concat_cols(scalarize(t, twice, w_twice), scalarize(t, prod, w_cat))
        return t.weighted_sum(t.concat_cols(early, mixed))

    params = [x, y, z]
    assert finite_difference_check(build, params) <= FD_TOL
    for p in params:
        p.zero_grad()
    tape = Tape()
    tape.backward(build(tape))
    slope = {p.name: np.where(p.value > 0, 1.0, LEAKY_SLOPE) for p in params}
    xn = np.maximum(x.value, LEAKY_SLOPE * x.value)
    yn = np.maximum(y.value, LEAKY_SLOPE * y.value)
    zn = np.maximum(z.value, LEAKY_SLOPE * z.value)
    want_x = w_early + w_twice[:, :3] + w_twice[:, 3:] + w_cat[:, :3] * zn[:, :3]
    assert np.abs(x.grad - slope["x"] * want_x).max() <= 1e-12
    assert np.abs(y.grad - slope["y"] * w_cat[:, 3:] * zn[:, 3:]).max() <= 1e-12
    cat = np.hstack([xn, yn])
    assert np.abs(z.grad - slope["z"] * w_cat * cat).max() <= 1e-12


def test_backward_is_deterministic():
    rng = np.random.default_rng(17)
    a = Parameter("a", rng.standard_normal((4, 4)))
    b = Parameter("b", rng.standard_normal((4, 4)).T.copy())  # passed transposed

    def run():
        a.zero_grad()
        b.zero_grad()
        t = Tape()
        x = t.matmul(t.param(a), t.param(b))
        x = t.leaky_relu(x)
        loss = t.weighted_sum(t.row_log_softmax(x))
        t.backward(loss)
        return a.grad.copy(), b.grad.copy()

    ga1, gb1 = run()
    ga2, gb2 = run()
    assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


def test_grad_accumulates_across_backward_calls():
    p = Parameter("p", np.ones((2, 2)))
    t = Tape()
    loss = t.weighted_sum(t.param(p))
    t.backward(loss)
    t.backward(loss)
    assert np.allclose(p.grad, 2.0)


def test_param_node_is_shared_within_tape():
    p = Parameter("p", np.ones((2, 2)))
    t = Tape()
    assert t.param(p) is t.param(p)


def test_backward_validation():
    t = Tape()
    x = t.constant(np.ones((2, 2)))
    with pytest.raises(ValueError, match="1x1"):
        t.backward(x)
    other = Tape()
    loss = other.weighted_sum(other.constant(np.ones((1, 1))))
    with pytest.raises(ValueError, match="different tape"):
        t.backward(loss)
    t.weighted_sum(x)  # now t has a node at loss.idx, but not loss itself
    with pytest.raises(ValueError, match="different tape"):
        t.backward(loss)


def test_shape_validation_errors():
    t = Tape()
    a = t.constant(np.ones((2, 3)))
    b = t.constant(np.ones((2, 3)))
    with pytest.raises(ValueError):
        t.matmul(a, t.constant(b.value.T))  # b passed transposed: (2, 3) @ (2, 3)
    with pytest.raises(ValueError):
        t.gather_rows(a, np.array([0, 5]))
    with pytest.raises(ValueError):
        t.hadamard(t.constant(np.ones((4, 3))), t.constant(np.ones((1, 3))))
    with pytest.raises(ValueError):
        t.dropout(a, np.ones((3, 3)))
    with pytest.raises(ValueError):
        t.constant(np.ones(3))


def test_xavier_uniform_bound_and_determinism():
    bound = np.sqrt(6.0 / (40 + 30))
    w1 = xavier_uniform(np.random.default_rng(5), (40, 30))
    w2 = xavier_uniform(np.random.default_rng(5), (40, 30))
    assert np.array_equal(w1, w2)
    assert np.abs(w1).max() <= bound
    assert np.abs(w1).max() >= 0.5 * bound  # actually spreads out
    with pytest.raises(ValueError):
        xavier_uniform(np.random.default_rng(0), (3,))


def test_tape_context_drops_its_nodes_on_exit():
    x = Parameter("x", np.ones((2, 2)))
    gc.disable()
    try:
        with Tape() as tape:
            node = tape.row_log_softmax(tape.param(x))
            assert tape.nodes
        assert tape.nodes == []
        ref = weakref.ref(tape)
        del tape, node
        assert ref() is None  # no cycle is left for the collector
    finally:
        gc.enable()


def test_tape_exit_cuts_every_node_from_its_graph():
    """A node kept past the block holds only its value: no parents, no ctx,
    so it keeps nothing of the graph it was computed from alive."""
    x = Parameter("x", np.ones((2, 2)))
    with Tape() as tape:
        soft = tape.row_log_softmax(tape.param(x))
        loss = tape.weighted_sum(soft)
        tape.backward(loss)
        assert loss.parents == (soft,) and loss.ctx
    for node in (soft, loss):
        assert node.parents == () and node.ctx == {}
    assert loss.value.shape == (1, 1)


def test_tape_outside_a_with_block_dies_by_reference_counting():
    """Nodes hold no pointer back to their tape, so a tape used without the
    context manager is freed as soon as its last name goes, even while its
    loss node is still held and with the cyclic collector off."""
    x = Parameter("x", np.ones((2, 2)))
    gc.disable()
    try:
        tape = Tape()
        loss = tape.weighted_sum(tape.row_log_softmax(tape.param(x)))
        tape.backward(loss)
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
        assert loss.value.shape == (1, 1)
    finally:
        gc.enable()


# ---- the fused training loss ----


def random_label_rows(rng, n, n_ent, most=3):
    """CSR rows of 1..most distinct sorted columns each."""
    counts = rng.integers(1, most + 1, size=n)
    rows = [np.sort(rng.choice(n_ent, c, replace=False)) for c in counts]
    return np.append(0, np.cumsum(counts)), np.concatenate(rows)


def dense_labels(ptr, cols, n_ent):
    y = np.zeros((len(ptr) - 1, n_ent))
    for i in range(len(ptr) - 1):
        row = cols[ptr[i] : ptr[i + 1]]
        y[i, row] = 1.0 / len(row)
    return y


def unfused_xent(states, entities, y, log_pi=None):
    """The dense numpy reference, on no tape: the (n x entities) mixture
    log-probabilities log p = logsumexp_k A_k, A_k = log_pi_k +
    log_softmax(Z_k), Z_k = states[k] @ entities^T, and the loss
    -sum(y * log p) / n against dense label rows y.  Its gradient, in
    closed form: with G_k = -(y / n) * exp(A_k - log p), dZ_k = G_k -
    softmax(Z_k) * rowsum(G_k) and dlog_pi_k = rowsum(G_k).  Returns the
    loss and the gradients of states, entities and log_pi, in that order;
    log_pi=None is one component with prior 1."""
    n = y.shape[0]
    lp = np.zeros((n, 1)) if log_pi is None else log_pi
    log_sm = [z - np.logaddexp.reduce(z, axis=1, keepdims=True)
              for z in (h @ entities.T for h in states)]
    a = np.stack([ls + lp[:, k : k + 1] for k, ls in enumerate(log_sm)])
    logp = np.logaddexp.reduce(a, axis=0)
    g = -(y / n) * np.exp(a - logp)
    dz = g - np.exp(log_sm) * g.sum(axis=2, keepdims=True)
    grads = [d @ entities for d in dz]
    grads.append(sum(d.T @ h for d, h in zip(dz, states)))
    if log_pi is not None:
        grads.append(g.sum(axis=2).T)
    return -(y * logp).sum() / n, grads


def xent_case(seed, k, n=5, n_ent=7, d=3, scale=1.0):
    rng = np.random.default_rng(seed)
    hs = [Parameter(f"h{i}", scale * rng.standard_normal((n, d))) for i in range(k)]
    e = Parameter("e", scale * rng.standard_normal((n_ent, d)))
    lp = Parameter("lp", rng.standard_normal((n, k))) if k > 1 else None
    ptr, cols = random_label_rows(rng, n, n_ent)
    # row 0's only label is the maximum of its first component's scores
    top = int(np.argmax(hs[0].value[0] @ e.value.T))
    cols = np.concatenate([[top], cols[ptr[1] :]])
    ptr = np.append(0, ptr[1:] - ptr[1] + 1)
    params = hs + [e] + ([lp] if lp is not None else [])
    return hs, e, lp, ptr, cols, params


def fused(t, hs, e, lp, ptr, cols, entropy_weight=0.0):
    log_pi = None if lp is None else t.param(lp)
    return t.mixture_xent([t.param(h) for h in hs], t.param(e), ptr, cols, log_pi,
                          entropy_weight=entropy_weight)


def grads_of(build, params):
    for p in params:
        p.zero_grad()
    tape = Tape()
    loss = build(tape)
    tape.backward(loss)
    return float(loss.value[0, 0]), [p.grad.copy() for p in params]


@pytest.mark.parametrize("k", [1, 3])
def test_mixture_xent_grads(k):
    hs, e, lp, ptr, cols, params = xent_case(19, k)

    def build(t):
        return fused(t, hs, e, lp, ptr, cols)

    assert finite_difference_check(build, params) <= FD_TOL


@pytest.mark.parametrize("k", [1, 3])
def test_mixture_xent_matches_unfused_composition(k):
    hs, e, lp, ptr, cols, params = xent_case(20, k, n=6, n_ent=9, d=4)
    y = dense_labels(ptr, cols, 9)
    got_loss, got = grads_of(lambda t: fused(t, hs, e, lp, ptr, cols), params)
    want_loss, want = unfused_xent(
        [h.value for h in hs], e.value, y, None if lp is None else lp.value
    )
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    for p, g, w in zip(params, got, want):
        assert np.abs(g - w).max() <= 1e-12, p.name


@pytest.mark.parametrize("k", [1, 3])
def test_mixture_xent_is_finite_at_extreme_logits(k):
    """Scores near +-700: exp would overflow or vanish without the shifts."""
    hs, e, lp, ptr, cols, params = xent_case(21, k, scale=1.0)
    for h in hs:
        h.value[...] = np.sign(h.value)
    e.value[...] = np.linspace(-700.0, 700.0, e.value.size).reshape(e.value.shape)
    z = hs[0].value @ e.value.T
    assert np.abs(z).max() >= 700.0
    y = dense_labels(ptr, cols, e.value.shape[0])
    got_loss, got = grads_of(lambda t: fused(t, hs, e, lp, ptr, cols), params)
    want_loss, _ = unfused_xent(
        [h.value for h in hs], e.value, y, None if lp is None else lp.value
    )
    assert np.isfinite(got_loss) and all(np.isfinite(g).all() for g in got)
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)


@pytest.mark.parametrize("k", [1, 3])
def test_mixture_xent_is_the_inference_head_at_the_labels(k):
    """The fused loss is the label-weighted mean of -head_log_probs at the
    label entries; row 1 scores reach +-700."""
    hs, e, lp, ptr, cols, _ = xent_case(25, k, n=6, n_ent=9, d=4)
    for h in hs:
        h.value[1] *= 700.0 / np.abs(h.value[1] @ e.value.T).max()
    assert np.abs(hs[0].value[1] @ e.value.T).max() == pytest.approx(700.0)
    log_pi = None
    if lp is not None:
        lp.value -= np.logaddexp.reduce(lp.value, axis=1, keepdims=True)
        log_pi = lp.value
    logp = head_log_probs([h.value for h in hs], e.value, log_pi)
    counts = np.diff(ptr)
    rows = np.repeat(np.arange(len(counts)), counts)
    want = -(logp[rows, cols] / counts[rows]).sum() / len(counts)
    got = fused(Tape(), hs, e, lp, ptr, cols).value[0, 0]
    assert np.isfinite(got)
    assert abs(got - want) <= 1e-12 * abs(want)


def test_exp_shifted_rows_in_place():
    z = np.array([[1.0, 3.0, 2.0], [-700.0, 700.0, 0.0]])
    orig = z.copy()
    mx, s = exp_shifted_rows(z)
    assert np.array_equal(mx, [[3.0], [700.0]])
    assert np.array_equal(z, np.exp(orig - mx))
    assert np.array_equal(s, z.sum(axis=1, keepdims=True))


def test_mixture_xent_zero_prior_equals_softmax_bitwise():
    hs, e, _, ptr, cols, params = xent_case(22, 1)
    zero = Parameter("zero", np.zeros((hs[0].value.shape[0], 1)))
    soft_loss, soft = grads_of(lambda t: fused(t, hs, e, None, ptr, cols), params)
    mix_loss, mix = grads_of(lambda t: fused(t, hs, e, zero, ptr, cols), params)
    assert soft_loss == mix_loss
    for g, w in zip(soft, mix):
        assert np.array_equal(g, w)


def test_mixture_xent_backward_leaves_its_ctx_alone():
    """A second backward on the same tape adds exactly the same gradients."""
    hs, e, lp, ptr, cols, params = xent_case(23, 3)
    for p in params:
        p.zero_grad()
    t = Tape()
    loss = fused(t, hs, e, lp, ptr, cols)
    t.backward(loss)
    once = [p.grad.copy() for p in params]
    t.backward(loss)
    for p, g in zip(params, once):
        assert np.array_equal(p.grad, 2.0 * g), p.name


def dense_dz_grads(hs, e, lp, ptr, cols):
    """The gradients of mixture_xent for a unit adjoint, formed as its
    backward rule formed them before they moved into the forward: the
    forward keeps every exp(Z_k - max), and a fresh dense dZ_k is made
    from each.  Same operations in the same order, with dE summed over the
    components in one stacked product, as one row block of the op does."""
    states = [h.value for h in hs]
    ent = e.value
    n, k = states[0].shape[0], len(states)
    counts = np.diff(ptr)
    rows = np.repeat(np.arange(n), counts)
    w = (1.0 / counts)[rows]
    lpv = np.zeros((n, 1)) if lp is None else lp.value
    a = np.empty((k, cols.shape[0]))
    exps, sums = [], []
    for j, h in enumerate(states):
        z = h @ ent.T
        picked = z[rows, cols]
        mx, s = exp_shifted_rows(z)
        a[j] = (picked - (mx + np.log(s))[rows, 0]) + lpv[rows, j]
        exps.append(z)
        sums.append(s)
    ell = a.max(axis=0) + np.log(np.exp(a - a.max(axis=0)).sum(axis=0))
    rho = np.exp(a - ell)
    scale = np.ones((1, 1))[0, 0] / n
    grads, dzs = [], []
    c = np.empty((n, k))
    for j, (z, s) in enumerate(zip(exps, sums)):
        c[:, j] = np.bincount(rows, weights=w * rho[j], minlength=n)
        dz = z * (scale * c[:, j : j + 1] / s)
        np.subtract.at(dz, (rows, cols), scale * w * rho[j])
        grads.append(dz @ ent)
        dzs.append(dz)
    grads.append((np.vstack(states).T @ np.vstack(dzs)).T)
    if lp is not None:
        grads.append(-scale * c)
    return grads


@pytest.mark.parametrize("k", [1, 3])
def test_mixture_xent_gradients_are_the_dense_dz_rule_bitwise(k):
    """Without the entropy term (entropy_weight = 0, or no log-priors at
    k = 1, where any weight is ignored) the gradients are the dense rule's."""
    hs, e, lp, ptr, cols, params = xent_case(26, k, n=12, n_ent=40, d=5)
    weight = 0.5 if lp is None else 0.0
    _, got = grads_of(lambda t: fused(t, hs, e, lp, ptr, cols, weight), params)
    for p, g, want in zip(params, got, dense_dz_grads(hs, e, lp, ptr, cols)):
        assert np.array_equal(g, want), p.name


def blocked_case(monkeypatch, seed, k, n=30, n_ent=9, d=3):
    """An xent_case whose rows span several blocks of mixture_xent, the
    last of them ragged; every block holds at least two rows and labels."""
    monkeypatch.setattr(autodiff, "XENT_ROWS", 12)
    rb = 12 // k
    assert n // rb >= 2 and 2 <= n % rb < rb
    return xent_case(seed, k, n=n, n_ent=n_ent, d=d)


@pytest.mark.parametrize("k", [1, 3])
def test_blocked_mixture_xent_matches_unfused_composition(monkeypatch, k):
    hs, e, lp, ptr, cols, params = blocked_case(monkeypatch, 28, k)
    y = dense_labels(ptr, cols, e.value.shape[0])
    shapes = []

    def kernel(z):
        shapes.append(z.shape)
        return exp_shifted_rows(z)

    monkeypatch.setattr(autodiff, "exp_shifted_rows", kernel)
    got_loss, got = grads_of(lambda t: fused(t, hs, e, lp, ptr, cols), params)
    rb = 12 // k
    assert shapes == [(k * rb, 9)] * (30 // rb) + [(k * (30 % rb), 9)]
    want_loss, want = unfused_xent(
        [h.value for h in hs], e.value, y, None if lp is None else lp.value
    )
    assert abs(got_loss - want_loss) <= 1e-12 * abs(want_loss)
    for p, g, w in zip(params, got, want):
        assert np.abs(g - w).max() <= 1e-12, p.name


@pytest.mark.parametrize("k", [1, 3])
def test_blocked_mixture_xent_grads(monkeypatch, k):
    hs, e, lp, ptr, cols, params = blocked_case(monkeypatch, 29, k)

    def build(t):
        return fused(t, hs, e, lp, ptr, cols)

    assert finite_difference_check(build, params) <= FD_TOL


@pytest.mark.parametrize("k", [1, 3])
def test_blocked_mixture_xent_is_the_dense_rule_bitwise(monkeypatch, k):
    """Row blocks leave the value, dH and dlog_pi bitwise as one block
    forms them; only dE, summed block by block, moves in the last bits."""
    hs, e, lp, ptr, cols, params = blocked_case(monkeypatch, 30, k, n_ent=40, d=5)
    loss, got = grads_of(lambda t: fused(t, hs, e, lp, ptr, cols), params)
    monkeypatch.setattr(autodiff, "XENT_ROWS", 10**6)
    one_block = fused(Tape(), hs, e, lp, ptr, cols).value[0, 0]
    assert loss == one_block
    for p, g, want in zip(params, got, dense_dz_grads(hs, e, lp, ptr, cols)):
        if p is e:
            assert np.abs(g - want).max() <= 1e-12 * np.abs(want).max()
        else:
            assert np.array_equal(g, want), p.name


@pytest.mark.parametrize("k", [1, 3])
def test_mixture_xent_ctx_holds_no_score_sized_array(k):
    """The ctx keeps the gradients only: (n x d), (N x d) and (n x k)
    arrays, never a (n x N) score, exp or dZ block."""
    n, n_ent, d = 60, 300, 3
    hs, e, lp, ptr, cols, _ = xent_case(27, k, n=n, n_ent=n_ent, d=d)
    loss = fused(Tape(), hs, e, lp, ptr, cols)
    kept = [x for v in loss.ctx.values() for x in (v if isinstance(v, list) else [v])]
    assert kept and all(x.size < n * n_ent for x in kept)
    assert sum(x.nbytes for x in kept) == 8 * (k * n * d + n_ent * d + (n * k if k > 1 else 0))


def test_mixture_xent_validation():
    rng = np.random.default_rng(24)
    t = Tape()
    h = t.constant(rng.standard_normal((3, 2)))
    e = t.constant(rng.standard_normal((4, 2)))
    good_ptr, good_cols = np.array([0, 1, 3, 4]), np.array([0, 1, 3, 2])
    bad_labels = [
        ("empty", np.array([0, 1, 1, 4]), good_cols),
        ("length", np.array([0, 1, 4]), good_cols),
        ("monoton", np.array([0, 2, 1, 4]), good_cols),
        ("monoton", np.array([1, 1, 3, 4]), good_cols),
        ("monoton", good_ptr, np.array([0, 1, 3])),
        ("out of range", good_ptr, np.array([0, -1, 3, 2])),
        ("out of range", good_ptr, np.array([0, 1, 4, 2])),
        ("integers", good_ptr, good_cols.astype(float)),
    ]
    for match, ptr, cols in bad_labels:
        with pytest.raises(ValueError, match=match):
            t.mixture_xent([h], e, ptr, cols)
    lp = t.constant(np.zeros((3, 2)))
    wide_h, wide_e = t.constant(np.ones((3, 3))), t.constant(np.ones((4, 3)))
    with pytest.raises(ValueError, match="log_pi"):
        t.mixture_xent([h, h], e, good_ptr, good_cols)
    with pytest.raises(ValueError, match="log_pi"):
        t.mixture_xent([h], e, good_ptr, good_cols, lp)
    with pytest.raises(ValueError, match="share a shape"):
        t.mixture_xent([h, wide_h], e, good_ptr, good_cols, lp)
    with pytest.raises(ValueError, match="width"):
        t.mixture_xent([h], wide_e, good_ptr, good_cols)
    with pytest.raises(ValueError, match="one component"):
        t.mixture_xent([], e, good_ptr, good_cols)
    for bad in (-0.1, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="entropy_weight"):
            t.mixture_xent([h, h], e, good_ptr, good_cols, lp, entropy_weight=bad)
        with pytest.raises(ValueError, match="entropy_weight"):
            t.mixture_xent([h], e, good_ptr, good_cols, entropy_weight=bad)
    assert len(t.nodes) == 5  # nothing was recorded by a rejected call
    loss = t.mixture_xent([h], e, good_ptr, good_cols)
    assert loss.value.shape == (1, 1) and np.isfinite(loss.value[0, 0])


# ---- the prior entropy term of the fused loss ----


def three_op_entropy(lp, weight):
    """The prior entropy term as three tape ops once formed it, on no tape:
    row_entropy, a weighted sum by 1/n, a weighted sum by the weight, and a
    subtract from the cross-entropy.  Returns the 1x1 value subtracted and
    the adjoint the chain handed to log_pi, each formed with the operations
    of those ops' forwards and backward rules, in their order."""
    n = lp.shape[0]
    p = np.exp(lp)
    with np.errstate(invalid="ignore"):
        h = -np.where(p > 0, p * lp, 0.0).sum(axis=1, keepdims=True)
    mean_h = np.array([[(1.0 / n) * float(h.sum())]])
    reg = np.array([[weight * float(mean_h.sum())]])
    g_reg = -np.ones((1, 1))  # subtract's rule hands -g to its second parent
    g_mean = np.full_like(mean_h, weight * g_reg[0, 0])
    g_h = np.full_like(h, (1.0 / n) * g_mean[0, 0])
    with np.errstate(invalid="ignore"):
        d_lp = np.where(p > 0, -g_h * p * (1.0 + lp), 0.0)
    return reg, d_lp


@pytest.mark.parametrize("xent_rows", [None, 12])
@pytest.mark.parametrize("k", [1, 3])
def test_mixture_xent_entropy_is_the_three_op_composition_bitwise(
    monkeypatch, k, xent_rows
):
    """The fused term's value and every gradient are bitwise those of the
    three-op chain, whose backward reached log_pi entropy first and then
    cross-entropy; in one row block and in several (XENT_ROWS = 12)."""
    if xent_rows is not None:
        monkeypatch.setattr(autodiff, "XENT_ROWS", xent_rows)
    hs, e, lp, ptr, cols, params = xent_case(31, k, n=30)
    if lp is None:  # a one-column log-prior, so the term applies at k = 1
        lp = Parameter("lp", np.random.default_rng(32).standard_normal((30, 1)))
        params = params + [lp]
    base_loss, base = grads_of(lambda t: fused(t, hs, e, lp, ptr, cols), params)
    # several weights, since a reordered product rounds differently in
    # only some of them
    for weight in (1e-3, 0.3, 0.37, 2.0 / 3.0):
        loss, got = grads_of(lambda t: fused(t, hs, e, lp, ptr, cols, weight), params)
        reg, d_lp = three_op_entropy(lp.value, weight)
        assert loss == (np.array([[base_loss]]) - reg)[0, 0], weight
        assert loss != base_loss
        for p, g, want in zip(params[:-1], got, base):
            assert np.array_equal(g, want), p.name
        assert np.array_equal(got[-1], d_lp + base[-1]), weight


@pytest.mark.parametrize("k", [2, 4])
def test_mixture_xent_uniform_prior_subtracts_weight_log_k(k):
    """Every row of a uniform prior has entropy log k, so the term is
    exactly weight * log k."""
    hs, e, _, ptr, cols, _ = xent_case(34, k, n=4)
    lp = Parameter("lp", np.full((4, k), -np.log(k)))
    base = fused(Tape(), hs, e, lp, ptr, cols).value[0, 0]
    got = fused(Tape(), hs, e, lp, ptr, cols, 0.25).value[0, 0]
    assert got == base - 0.25 * np.log(k)


def test_mixture_xent_entropy_skips_zero_prior_entries():
    """A prior entry with pi = 0 (log pi = -inf) adds 0 to the value and
    the gradient: a one-hot row has entropy 0 and a half-half row log 2,
    the gradient at the zero entries is the cross-entropy's alone, and no
    invalid operation escapes the op."""
    hs, e, lp, ptr, cols, params = xent_case(33, 3)
    n = lp.value.shape[0]
    lp.value -= np.logaddexp.reduce(lp.value, axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        lp.value[0] = np.log([1.0, 0.0, 0.0])
        lp.value[1] = np.log([0.5, 0.0, 0.5])
    zero = np.isneginf(lp.value)
    weight = 0.5
    with np.errstate(all="raise"):
        base_loss, base = grads_of(lambda t: fused(t, hs, e, lp, ptr, cols), params)
        loss, got = grads_of(lambda t: fused(t, hs, e, lp, ptr, cols, weight), params)
    rest = lp.value[2:]
    entropy = np.log(2.0) - (np.exp(rest) * rest).sum()
    assert loss == pytest.approx(base_loss - weight * entropy / n, rel=1e-14)
    assert all(np.isfinite(g).all() for g in got)
    assert np.array_equal(got[-1][zero], base[-1][zero])
    assert got[-1][0, 0] - base[-1][0, 0] == pytest.approx(weight / n, rel=1e-14)
    for p, g, want in zip(params[:-1], got, base):
        assert np.array_equal(g, want), p.name
