"""Every tape op is certified against central finite differences, plus the
closed-form softmax cross-entropy gradient and the dropout/batch-norm
side-effect contracts."""
import gc
import weakref

import numpy as np
import pytest

from kgmix.autodiff import (
    BatchNormState,
    Parameter,
    Tape,
    finite_difference_check,
    xavier_uniform,
)

FD_TOL = 1e-5
FD_TOL_BN = 1e-4


def scalarize(tape, node, w):
    """Weighted sum with a fixed random weight matrix, so every entry of
    the node's adjoint is exercised."""
    return tape.weighted_sum(tape.hadamard(tape.constant(w), node))


def test_matmul_grads():
    rng = np.random.default_rng(0)
    a = Parameter("a", rng.standard_normal((4, 3)))
    b = Parameter("b", rng.standard_normal((3, 5)))
    w = rng.standard_normal((4, 5))

    def build():
        t = Tape()
        return scalarize(t, t.matmul(t.param(a), t.param(b)), w)

    assert finite_difference_check(build, [a, b]) <= FD_TOL


def test_matmul_transpose_grads():
    rng = np.random.default_rng(1)
    a = Parameter("a", rng.standard_normal((4, 3)))
    b = Parameter("b", rng.standard_normal((5, 3)))
    w = rng.standard_normal((4, 5))

    def build():
        t = Tape()
        return scalarize(t, t.matmul(t.param(a), t.param(b), transpose_b=True), w)

    assert finite_difference_check(build, [a, b]) <= FD_TOL


@pytest.mark.parametrize("op", ["add", "subtract", "hadamard"])
@pytest.mark.parametrize("b_shape", [(4, 3), (1, 3), (4, 1), (1, 1)])
def test_elementwise_grads_with_broadcast(op, b_shape):
    rng = np.random.default_rng(2)
    a = Parameter("a", rng.standard_normal((4, 3)))
    b = Parameter("b", rng.standard_normal(b_shape))
    w = rng.standard_normal((4, 3))

    def build():
        t = Tape()
        return scalarize(t, getattr(t, op)(t.param(a), t.param(b)), w)

    assert finite_difference_check(build, [a, b]) <= FD_TOL


def test_affine_grads():
    rng = np.random.default_rng(3)
    x = Parameter("x", rng.standard_normal((6, 4)))
    wgt = Parameter("w", rng.standard_normal((3, 4)))
    bias = Parameter("b", rng.standard_normal((1, 3)))
    w = rng.standard_normal((6, 3))

    def build():
        t = Tape()
        return scalarize(t, t.affine(t.param(x), t.param(wgt), t.param(bias)), w)

    assert finite_difference_check(build, [x, wgt, bias]) <= FD_TOL


def test_gather_rows_accumulates_repeats():
    rng = np.random.default_rng(4)
    e = Parameter("e", rng.standard_normal((5, 3)))
    ids = np.array([0, 2, 0, 4, 0])  # repeated rows must sum their adjoints
    w = rng.standard_normal((5, 3))

    def build():
        t = Tape()
        return scalarize(t, t.gather_rows(t.param(e), ids), w)

    assert finite_difference_check(build, [e]) <= FD_TOL
    e.zero_grad()
    loss = build()
    loss.tape.backward(loss)
    assert np.allclose(e.grad[0], w[0] + w[2] + w[4])
    assert np.allclose(e.grad[1], 0.0)


def test_concat_and_slice_grads():
    rng = np.random.default_rng(5)
    a = Parameter("a", rng.standard_normal((3, 2)))
    b = Parameter("b", rng.standard_normal((3, 4)))
    w = rng.standard_normal((3, 3))

    def build():
        t = Tape()
        cat = t.concat_cols(t.param(a), t.param(b))
        return scalarize(t, t.slice_cols(cat, 1, 4), w)

    assert finite_difference_check(build, [a, b]) <= FD_TOL


def test_batch_matvec_grads():
    rng = np.random.default_rng(6)
    v = Parameter("v", rng.standard_normal((4, 3)))
    m = Parameter("m", rng.standard_normal((4, 9)))
    w = rng.standard_normal((4, 3))

    def build():
        t = Tape()
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

    def build():
        t = Tape()
        return scalarize(t, t.leaky_relu(t.param(x), 0.01), w)

    assert finite_difference_check(build, [x]) <= FD_TOL


def test_softmax_family_grads():
    rng = np.random.default_rng(8)
    x = Parameter("x", rng.standard_normal((4, 6)))
    w_full = rng.standard_normal((4, 6))
    w_col = rng.standard_normal((4, 1))

    def build_softmax():
        t = Tape()
        return scalarize(t, t.row_softmax(t.param(x)), w_full)

    def build_log_softmax():
        t = Tape()
        return scalarize(t, t.row_log_softmax(t.param(x)), w_full)

    def build_lse():
        t = Tape()
        return scalarize(t, t.row_logsumexp(t.param(x)), w_col)

    assert finite_difference_check(build_softmax, [x]) <= FD_TOL
    assert finite_difference_check(build_log_softmax, [x]) <= FD_TOL
    assert finite_difference_check(build_lse, [x]) <= FD_TOL


def test_stack_logsumexp_grads_and_value():
    rng = np.random.default_rng(9)
    xs = [Parameter(f"x{i}", rng.standard_normal((3, 4))) for i in range(3)]
    w = rng.standard_normal((3, 4))

    def build():
        t = Tape()
        return scalarize(t, t.stack_logsumexp([t.param(p) for p in xs]), w)

    assert finite_difference_check(build, xs) <= FD_TOL
    t = Tape()
    got = t.stack_logsumexp([t.param(p) for p in xs]).value
    want = np.log(sum(np.exp(p.value) for p in xs))
    assert np.abs(got - want).max() <= 1e-12


def test_dropout_mask_semantics():
    rng = np.random.default_rng(10)
    x = Parameter("x", rng.standard_normal((4, 5)))
    mask = (rng.random((4, 5)) >= 0.4) / 0.6
    w = rng.standard_normal((4, 5))

    def build():
        t = Tape()
        return scalarize(t, t.dropout(t.param(x), mask), w)

    assert finite_difference_check(build, [x]) <= FD_TOL
    x.zero_grad()
    loss = build()
    loss.tape.backward(loss)
    assert np.allclose(x.grad, w * mask)  # zeroed entries get zero gradient


def test_batch_norm_training_grads():
    rng = np.random.default_rng(11)
    x = Parameter("x", rng.standard_normal((6, 3)))
    gamma = Parameter("g", 1.0 + 0.1 * rng.standard_normal((1, 3)))
    beta = Parameter("b", 0.1 * rng.standard_normal((1, 3)))
    w = rng.standard_normal((6, 3))
    state = BatchNormState(3)

    def build():
        t = Tape()
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

    def build():
        t = Tape()
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


def test_row_entropy_values_and_grads():
    t = Tape()
    p = t.constant(np.array([[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0]]))
    h = t.row_entropy(p).value
    assert h[0, 0] == pytest.approx(np.log(4.0), abs=1e-12)
    assert h[1, 0] == 0.0  # one-hot rows carry zero entropy

    rng = np.random.default_rng(14)
    raw = rng.random((3, 5)) + 0.1
    x = Parameter("p", raw / raw.sum(axis=1, keepdims=True))
    w = rng.standard_normal((3, 1))

    def build():
        tape = Tape()
        return scalarize(tape, tape.row_entropy(tape.param(x)), w)

    assert finite_difference_check(build, [x]) <= FD_TOL


def test_weighted_sum_value_and_grad():
    rng = np.random.default_rng(15)
    x = Parameter("x", rng.standard_normal((3, 4)))

    def build():
        t = Tape()
        return t.weighted_sum(t.param(x), -0.5)

    loss = build()
    assert loss.value[0, 0] == pytest.approx(-0.5 * x.value.sum(), rel=1e-12)
    assert finite_difference_check(build, [x]) <= FD_TOL


def test_cross_entropy_closed_form_gradient():
    rng = np.random.default_rng(16)
    z = Parameter("z", rng.standard_normal((5, 7)))
    y = np.zeros((5, 7))
    y[np.arange(5), [0, 3, 6, 2, 2]] = 1.0

    def build():
        t = Tape()
        logp = t.row_log_softmax(t.param(z))
        return t.weighted_sum(t.hadamard(t.constant(y), logp), -1.0 / 5)

    z.zero_grad()
    loss = build()
    loss.tape.backward(loss)
    sm = np.exp(z.value - z.value.max(axis=1, keepdims=True))
    sm /= sm.sum(axis=1, keepdims=True)
    assert np.abs(z.grad - (sm - y) / 5).max() <= 1e-10
    assert finite_difference_check(build, [z]) <= FD_TOL


def test_backward_is_deterministic():
    rng = np.random.default_rng(17)
    a = Parameter("a", rng.standard_normal((4, 4)))
    b = Parameter("b", rng.standard_normal((4, 4)))

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


def test_shape_validation_errors():
    t = Tape()
    a = t.constant(np.ones((2, 3)))
    b = t.constant(np.ones((2, 3)))
    with pytest.raises(ValueError):
        t.matmul(a, b)
    with pytest.raises(ValueError):
        t.gather_rows(a, np.array([0, 5]))
    with pytest.raises(ValueError):
        t.slice_cols(a, 2, 2)
    with pytest.raises(ValueError):
        t.stack_logsumexp([a, t.constant(np.ones((3, 3)))])
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
            node = tape.row_softmax(tape.param(x))
            assert tape.nodes
        assert tape.nodes == []
        ref = weakref.ref(tape)
        del tape, node
        assert ref() is None  # no cycle is left for the collector
    finally:
        gc.enable()
