"""Mixture output layer: prior arithmetic, exact K=1 collapse to a single
softmax, normalization, and the log-probability rank ceiling it breaks."""
import numpy as np
import pytest

from kgmix.autodiff import Tape
from kgmix.linalg import numerical_rank
from kgmix.mos import (
    init_mos,
    mixture_log_prob,
    priors,
    project,
)


def test_priors_worked_example():
    mix = init_mos(2, 1, np.random.default_rng(0))
    mix.omegas.value[...] = [[np.log(2.0)], [0.0]]
    t = Tape()
    pi = priors(mix, t.constant(np.array([[1.0]])), t).value
    # logits [ln 2, 0] -> [2/3, 1/3]
    assert np.allclose(pi, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_priors_uniform_when_omegas_zero(rng):
    mix = init_mos(4, 3, np.random.default_rng(1))
    mix.omegas.value[...] = 0.0
    t = Tape()
    pi = priors(mix, t.constant(rng.standard_normal((6, 3))), t).value
    assert np.allclose(pi, 0.25, atol=1e-15)
    assert np.abs(pi.sum(axis=1) - 1.0).max() <= 1e-12


def test_priors_are_query_dependent(rng):
    mix = init_mos(3, 4, np.random.default_rng(2))
    t = Tape()
    pi = priors(mix, t.constant(rng.standard_normal((5, 4))), t).value
    assert not np.allclose(pi[0], pi[1])


def test_k1_mixture_is_exactly_one_softmax(rng):
    """With one component the prior is exactly 1 and the mixture reduces,
    bit for bit, to the plain softmax of the projected states."""
    d, n = 3, 7
    mix = init_mos(1, d, np.random.default_rng(3))
    h = rng.standard_normal((5, d))
    e = rng.standard_normal((n, d))
    t = Tape()
    got = mixture_log_prob(mix, t.constant(h), t.constant(e), t).value
    t2 = Tape()
    hk = project(mix, mix.components[0], t2.constant(h), t2)
    want = t2.row_log_softmax(t2.matmul(hk, t2.constant(e), transpose_b=True)).value
    assert np.array_equal(got, want)


def test_identical_components_collapse(rng):
    d, n = 3, 6
    mix = init_mos(3, d, np.random.default_rng(4))
    first = mix.components[0]
    for c in mix.components[1:]:
        for p_dst, p_src in zip(c.parameters(), first.parameters()):
            p_dst.value[...] = p_src.value
    h = rng.standard_normal((4, d))
    e = rng.standard_normal((n, d))
    t = Tape()
    got = mixture_log_prob(mix, t.constant(h), t.constant(e), t).value
    t2 = Tape()
    hk = project(mix, first, t2.constant(h), t2)
    want = t2.row_log_softmax(t2.matmul(hk, t2.constant(e), transpose_b=True)).value
    # priors still vary but every component says the same thing
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 4])
def test_mixture_rows_normalize(rng, k):
    d, n = 3, 9
    mix = init_mos(k, d, np.random.default_rng(5))
    t = Tape()
    lp = mixture_log_prob(
        mix, t.constant(rng.standard_normal((6, d))),
        t.constant(rng.standard_normal((n, d))), t,
    ).value
    assert np.abs(np.exp(lp).sum(axis=1) - 1.0).max() <= 1e-9


def test_mixture_normalizes_under_training_dropout(rng):
    d, n = 3, 8
    mix = init_mos(3, d, np.random.default_rng(6))
    t = Tape()
    lp = mixture_log_prob(
        mix, t.constant(rng.standard_normal((6, d))),
        t.constant(rng.standard_normal((n, d))), t,
        training=True, dropout=0.4, rng=np.random.default_rng(7),
    ).value
    assert np.abs(np.exp(lp).sum(axis=1) - 1.0).max() <= 1e-9


def test_project_training_dropout_needs_rng(rng):
    mix = init_mos(1, 2, np.random.default_rng(8))
    t = Tape()
    with pytest.raises(ValueError, match="rng"):
        project(mix, mix.components[0], t.constant(rng.standard_normal((3, 2))),
                t, training=True, dropout=0.5)


def test_single_softmax_rank_ceiling():
    """log softmax(f(H) @ E^T) can never exceed rank d+1, whatever f is:
    it is Z minus a rank-one logsumexp column, and Z has rank <= d."""
    d, n, b = 2, 8, 10
    for seed in range(20):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((b, d))
        e = rng.standard_normal((n, d))
        mix = init_mos(1, d, np.random.default_rng(seed + 300))
        t = Tape()
        lp = mixture_log_prob(mix, t.constant(h), t.constant(e), t).value
        assert numerical_rank(lp) <= d + 1


def test_mixture_escapes_rank_ceiling():
    """Two or more components break the d+1 ceiling; at these sizes the
    mixture log-probability matrix is generically full rank."""
    d, n, b = 2, 8, 10
    for seed in range(12):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((b, d))
        e = rng.standard_normal((n, d))
        mix = init_mos(4, d, np.random.default_rng(seed + 100))
        t = Tape()
        lp = mixture_log_prob(mix, t.constant(h), t.constant(e), t).value
        assert numerical_rank(lp) == min(b, n) > d + 1


def test_param_count():
    k, d = 3, 4
    mix = init_mos(k, d, np.random.default_rng(9))
    per_component = 2 * d * d + 6 * d  # two affine + two batch-norm pairs
    assert mix.param_count() == k * d + k * per_component


def test_init_validation():
    with pytest.raises(ValueError, match="k >= 1"):
        init_mos(0, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="positive"):
        init_mos(2, 0, np.random.default_rng(0))


def test_init_determinism():
    a = init_mos(2, 3, np.random.default_rng(10))
    b = init_mos(2, 3, np.random.default_rng(10))
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.value, pb.value)
