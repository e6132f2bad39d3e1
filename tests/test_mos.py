"""Mixture output layer: prior arithmetic, exact K=1 collapse to a single
softmax, normalization, the numpy inference head against log-space
references (extreme logits included), and the log-probability rank
ceiling it breaks."""
import numpy as np
import pytest

from kgmix.autodiff import Tape
from kgmix.linalg import numerical_rank
from kgmix.mos import (
    head_log_probs,
    init_mos,
    mixture_states,
    project,
)

HEAD_TOL = 1e-12


def mixture_head(mix, h, e, **kw):
    """Inference log-probabilities: mixture_states on a tape, the numpy head
    on their values."""
    t = Tape()
    log_pi, states = mixture_states(mix, t.constant(h), t, **kw)
    return head_log_probs([s.value for s in states], e, log_pi.value)


def logaddexp_reference(states, e, log_pi):
    """The reference: per-component log-softmax plus its log-prior column,
    blended by numpy's logaddexp, with no tape."""
    out = -np.inf
    for k, h in enumerate(states):
        z = h @ e.T
        out = np.logaddexp(out, z - np.logaddexp.reduce(z, axis=1, keepdims=True)
                           + log_pi[:, k : k + 1])
    return out


def random_log_priors(rng, n, k):
    a = rng.standard_normal((n, k))
    return a - np.logaddexp.reduce(a, axis=1, keepdims=True)


def priors(mix, h):
    """The prior probabilities pi(H), from the log-priors mixture_states
    records."""
    t = Tape()
    log_pi, _ = mixture_states(mix, t.constant(h), t)
    return np.exp(log_pi.value)


def test_priors_worked_example():
    mix = init_mos(2, 1, np.random.default_rng(0))
    mix.omegas.value[...] = [[np.log(2.0)], [0.0]]
    pi = priors(mix, np.array([[1.0]]))
    # logits [ln 2, 0] -> [2/3, 1/3]
    assert np.allclose(pi, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)


def test_priors_uniform_when_omegas_zero(rng):
    mix = init_mos(4, 3, np.random.default_rng(1))
    mix.omegas.value[...] = 0.0
    pi = priors(mix, rng.standard_normal((6, 3)))
    assert np.allclose(pi, 0.25, atol=1e-15)
    assert np.abs(pi.sum(axis=1) - 1.0).max() <= 1e-12


def test_priors_are_query_dependent(rng):
    mix = init_mos(3, 4, np.random.default_rng(2))
    pi = priors(mix, rng.standard_normal((5, 4)))
    assert not np.allclose(pi[0], pi[1])


def test_no_mixture_passes_the_states_through(rng):
    """mixture_states(None, ...) is the plain softmax's forward: no prior,
    H itself as the one state, nothing recorded."""
    t = Tape()
    h = t.constant(rng.standard_normal((4, 3)))
    log_pi, states = mixture_states(None, h, t, training=True, dropout=0.5)
    assert log_pi is None and states == [h] and states[0] is h
    assert len(t.nodes) == 1


def test_k1_mixture_is_exactly_one_softmax(rng):
    """With one component the prior is exactly 1 and the mixture reduces,
    bit for bit, to the plain softmax of the projected states."""
    d, n = 3, 7
    mix = init_mos(1, d, np.random.default_rng(3))
    h = rng.standard_normal((5, d))
    e = rng.standard_normal((n, d))
    got = mixture_head(mix, h, e)
    t2 = Tape()
    hk = project(mix, mix.components[0], t2.constant(h), t2)
    want = t2.row_log_softmax(t2.matmul(hk, t2.constant(e))).value
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
    got = mixture_head(mix, h, e)
    t2 = Tape()
    hk = project(mix, first, t2.constant(h), t2)
    want = t2.row_log_softmax(t2.matmul(hk, t2.constant(e))).value
    # priors still vary but every component says the same thing
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 4])
def test_mixture_rows_normalize(rng, k):
    d, n = 3, 9
    mix = init_mos(k, d, np.random.default_rng(5))
    lp = mixture_head(mix, rng.standard_normal((6, d)), rng.standard_normal((n, d)))
    assert np.abs(np.exp(lp).sum(axis=1) - 1.0).max() <= 1e-9


def test_mixture_normalizes_under_training_dropout(rng):
    d, n = 3, 8
    mix = init_mos(3, d, np.random.default_rng(6))
    lp = mixture_head(
        mix, rng.standard_normal((6, d)), rng.standard_normal((n, d)),
        training=True, dropout=0.4, rng=np.random.default_rng(7),
    )
    assert np.abs(np.exp(lp).sum(axis=1) - 1.0).max() <= 1e-9


@pytest.mark.parametrize("k", [1, 2, 4])
def test_head_matches_log_space_references(k):
    rng = np.random.default_rng(30 + k)
    n, n_ent, d = 7, 11, 4
    for scale in (0.3, 3.0, 30.0):
        states = [scale * rng.standard_normal((n, d)) for _ in range(k)]
        e = rng.standard_normal((n_ent, d))
        log_pi = random_log_priors(rng, n, k)
        got = head_log_probs(states, e, log_pi)
        assert np.abs(got - logaddexp_reference(states, e, log_pi)).max() <= HEAD_TOL
        assert np.abs(np.exp(got).sum(axis=1) - 1.0).max() <= 1e-12


def test_head_is_finite_and_exact_at_extreme_logits():
    """Scores of +-700.  Row 0's last entity has probability e^-1400 under
    both components, which is 0 in probability space; row 3's third has
    e^-720, a subnormal float with too few digits.  Both rows come from the
    log-space fallback.  Rows 1 and 2 mix components that disagree by 1400
    and stay in probability space."""
    e = 350.0 * np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    states = [np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0], [1.0, -1.0]]),
              np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 1.0], [1.0, 1.0]])]
    tail = np.exp(-20.0)
    log_pi = np.log([[0.5, 0.5], [0.3, 0.7], [0.9, 0.1], [1.0 - tail, tail]])
    got = head_log_probs(states, e, log_pi)
    want = logaddexp_reference(states, e, log_pi)
    assert np.abs(np.array(states) @ e.T).max() == 700.0
    assert np.exp(want[0]).min() == 0.0 and want[0].min() < -1399.0
    assert 0.0 < np.exp(want[3]).min() < np.finfo(np.float64).tiny
    assert np.isfinite(got).all()
    assert np.abs(got - want).max() <= HEAD_TOL


def test_head_needs_log_priors_for_a_mixture():
    with pytest.raises(ValueError, match="log_pi"):
        head_log_probs([np.ones((3, 2))] * 2, np.ones((4, 2)))


def test_head_rejects_log_priors_not_shaped_batch_by_k():
    states, e = [np.ones((3, 2))] * 2, np.ones((4, 2))
    # one log-prior column too many would leave rows summing to 2/3
    for bad in (np.full((3, 3), np.log(1 / 3)), np.zeros((2, 2)), np.zeros((3, 1))):
        with pytest.raises(ValueError, match=r"log_pi must be \(3, 2\)"):
            head_log_probs(states, e, bad)
    with pytest.raises(ValueError, match=r"log_pi must be \(3, 1\)"):
        head_log_probs(states[:1], e, np.zeros((3, 2)))
    assert head_log_probs(states, e, np.log(np.full((3, 2), 0.5))).shape == (3, 4)


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
        lp = mixture_head(mix, h, e)
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
        lp = mixture_head(mix, h, e)
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
