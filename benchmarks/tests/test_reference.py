import math
from fractions import Fraction

import numpy as np
import pytest

import reference as ref


def test_log_softmax_rows_by_hand():
    out = ref.log_softmax_rows(np.array([[0.0, math.log(3.0)]]))
    assert np.allclose(out, [[math.log(0.25), math.log(0.75)]], atol=1e-15)


def test_softmax_forward_by_hand():
    e = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    r = np.array([[2.0, 1.0]])
    # h = e_2 * r_0 = [2, 1]; z = h E^T = [2, 1, 3]
    z = np.array([2.0, 1.0, 3.0])
    want = z - math.log(sum(math.exp(v) for v in z))
    assert np.allclose(ref.softmax_log_probs(e, r, [2], [0]), [want], atol=1e-14)


def _identity_component(d, eps=0.0):
    c = {}
    for j in ("1", "2"):
        c.update({
            "w" + j: np.eye(d), "b" + j: np.zeros((1, d)),
            "gamma" + j: np.ones((1, d)), "beta" + j: np.zeros((1, d)),
            "rm" + j: np.zeros((1, d)), "rv" + j: np.ones((1, d)), "eps" + j: eps,
        })
    return c


def test_mixture_forward_by_hand():
    e = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    r = np.array([[2.0, 1.0]])
    # component 0 passes the positive state through; component 1 zeroes it
    # (uniform softmax); zero prior weights give each component weight 1/2
    zero = _identity_component(2)
    zero["w2"] = np.zeros((2, 2))
    components = [_identity_component(2), zero]
    z = np.array([2.0, 1.0, 3.0])
    p = 0.5 * np.exp(z) / np.exp(z).sum() + 0.5 / 3.0
    got = ref.mos_log_probs(e, r, np.zeros((2, 2)), components, [2], [0])
    assert np.allclose(got, [np.log(p)], atol=1e-14)


def test_single_component_mixture_is_the_softmax():
    rng = np.random.default_rng(0)
    e, r = rng.random((5, 3)), rng.random((2, 3))
    omegas = rng.standard_normal((1, 3))
    got = ref.mos_log_probs(e, r, omegas, [_identity_component(3)], [0, 4], [1, 0])
    assert np.allclose(got, ref.softmax_log_probs(e, r, [0, 4], [1, 0]), atol=1e-14)


@pytest.mark.parametrize("layer", ["softmax", "mos"])
def test_forwards_agree_with_the_package(layer):
    from kgmix.models import Scorer, init_model
    from kgmix.mos import init_mos
    import workloads

    rng = np.random.default_rng(7)
    model = init_model("distmult", 30, 4, 6, rng=rng)
    mos = init_mos(3, 6, rng) if layer == "mos" else None
    if mos is not None:  # move the running moments off their defaults
        for c in mos.components:
            for bn in (c.bn1, c.bn2):
                bn.running_mean = rng.standard_normal((1, 6))
                bn.running_var = rng.random((1, 6)) + 0.5
    subs, rels = rng.integers(30, size=12), rng.integers(4, size=12)
    got = Scorer(model, mos).log_probs(subs, rels)
    e, r = model.entities.value, model.relations.value
    if mos is None:
        want = ref.softmax_log_probs(e, r, subs, rels)
    else:
        want = ref.mos_log_probs(e, r, mos.omegas.value, workloads._mos_components(mos), subs, rels)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_true_objects_include_inverses():
    raw = {"train": np.array([[0, 0, 1], [0, 0, 2]]), "valid": np.array([[1, 1, 2]])}
    assert ref.true_objects(raw, 2, ("train",)) == {(0, 0): {1, 2}, (1, 2): {0}, (2, 2): {0}}
    both = ref.true_objects(raw, 2, ("train", "valid"))
    assert both[(1, 1)] == {2} and both[(2, 3)] == {1}


def test_brute_rank_by_hand():
    scores = np.array([0.5, 0.9, 0.1, 0.9, 0.5])
    assert ref.brute_rank(scores, 0, set()) == 3  # ties do not count
    assert ref.brute_rank(scores, 0, {1}) == 2
    assert ref.brute_rank(scores, 0, {1}, pool={0, 2, 4}) == 1
    assert ref.brute_rank(scores, 2, set(), pool={1, 2, 3}) == 3


def test_brute_filtered_nll_by_hand():
    logp = np.log([0.5, 0.25, 0.25])
    assert ref.brute_filtered_nll(logp, 0, {1}) == pytest.approx(-math.log(2.0 / 3.0), abs=1e-15)
    assert ref.brute_filtered_nll(logp, 1, set()) == pytest.approx(math.log(4.0), abs=1e-15)
    assert ref.brute_filtered_nll(logp, 1, {1}) is None


def test_ranking_summary_by_hand():
    s = ref.ranking_summary([1, 2, 4, 20])
    assert s["mrr"] == pytest.approx((1 + 0.5 + 0.25 + 0.05) / 4)
    assert s["mr"] == pytest.approx(27 / 4)
    assert s["hits"] == {1: 0.25, 3: 0.5, 10: 0.75}


def test_sign_count_closed_form():
    assert ref.sign_count(5, 2) == 10
    assert ref.sign_count(3, 3) == 8  # every pattern once d >= n
    assert ref.sign_count(4, 1) == 2


def test_stirling_numbers():
    assert [ref.stirling_first_unsigned(4, k) for k in range(5)] == [0, 6, 11, 6, 1]
    assert ref.stirling_first_unsigned(5, 3) == 35


@pytest.mark.parametrize(
    "n,d,count",
    [(3, 2, 6), (4, 2, 12), (5, 2, 20), (5, 3, 72), (6, 2, 30), (6, 3, 172), (7, 2, 42), (4, 1, 2)],
)
def test_ordering_count_closed_form(n, d, count):
    assert ref.ordering_count(n, d) == count


def test_witness_checks():
    e = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert ref.witness_realises_signs(e, np.array([1.0, -1.0]), (1, -1))
    assert not ref.witness_realises_signs(e, np.array([1.0, -1.0]), (1, 1))
    assert not ref.witness_realises_signs(e, np.array([1.0, 0.0]), (1, 1))  # zero margin
    pts = np.array([[3.0], [1.0], [2.0]])
    assert ref.witness_realises_ordering(pts, np.array([1.0]), (0, 2, 1))
    assert ref.witness_realises_ordering(pts, np.array([-1.0]), (1, 2, 0))
    assert not ref.witness_realises_ordering(pts, np.array([1.0]), (0, 1, 2))


def test_poly_signs_exact_by_hand():
    # -(t - 3/2)(t - 5/2) = -15/4 + 4t - t^2: positive only at t = 2
    coeffs = [Fraction(-15, 4), Fraction(4), Fraction(-1)]
    assert ref.poly_signs_exact(coeffs, 3) == [-1, 1, -1]
    assert ref.poly_signs_exact([Fraction(-1)], 2) == [-1, -1]
