"""Loss terms against closed forms, an Adam reference implementation,
convergence on a tiny graph, bitwise replayability, and early stopping."""
import gc
import weakref

import numpy as np
import pytest

from kgmix import models
from kgmix import train as train_mod
from kgmix.autodiff import Parameter, Tape
from kgmix.graph import TripleStore, build_query_index
from kgmix.models import Scorer, encode, state_arrays
from kgmix.mos import priors
from kgmix.train import (
    Adam,
    TrainConfig,
    TrainingDiverged,
    ce_loss,
    entropy_reg,
    query_label_matrix,
    train_loop,
)


def test_query_label_matrix(toy_store):
    index = build_query_index(toy_store, ("train",))
    labels = query_label_matrix(index, [(0, 0), (2, 1)], toy_store.n_entities)
    want0 = np.zeros(6)
    want0[[1, 2]] = 0.5  # (0, r0) has true objects {1, 2}
    assert np.allclose(labels[0], want0)
    want1 = np.zeros(6)
    want1[3] = 1.0
    assert np.allclose(labels[1], want1)
    with pytest.raises(ValueError, match="no true objects"):
        query_label_matrix(index, [(5, 1)], toy_store.n_entities)


def test_ce_loss_closed_forms():
    t = Tape()
    p = np.array([[0.7, 0.2, 0.1]])
    logp = t.constant(np.log(p))
    y = np.array([[1.0, 0.0, 0.0]])
    assert ce_loss(logp, y, t).value[0, 0] == pytest.approx(-np.log(0.7), abs=1e-12)

    n = 5
    t2 = Tape()
    uniform = t2.constant(np.full((3, n), -np.log(n)))
    y2 = np.zeros((3, n))
    y2[:, 0] = 1.0
    assert ce_loss(uniform, y2, t2).value[0, 0] == pytest.approx(np.log(n), abs=1e-12)


def test_ce_loss_validation():
    t = Tape()
    logp = t.constant(np.log(np.array([[0.5, 0.5]])))
    with pytest.raises(ValueError, match="shape"):
        ce_loss(logp, np.array([[1.0, 0.0, 0.0]]), t)
    with pytest.raises(ValueError, match="sum to 1"):
        ce_loss(logp, np.array([[0.5, 0.2]]), t)
    with pytest.raises(ValueError, match="non-negative"):
        ce_loss(logp, np.array([[1.5, -0.5]]), t)


def test_entropy_reg_uniform_value():
    t = Tape()
    pi = t.constant(np.full((4, 4), 0.25))
    assert entropy_reg(pi, t).value[0, 0] == pytest.approx(np.log(4.0), abs=1e-12)


def test_adam_zero_grad_is_noop():
    p = Parameter("p", np.array([[1.0, -2.0]]))
    opt = Adam([p], lr=0.1)
    p.zero_grad()
    opt.step()
    assert np.allclose(p.value, [[1.0, -2.0]], atol=1e-9)


def test_adam_first_step_is_signed_lr():
    p = Parameter("p", np.zeros((1, 3)))
    opt = Adam([p], lr=0.1)
    p.grad[...] = [[3.0, -0.5, 0.0]]
    opt.step()
    # bias-corrected first step moves by lr * g / (|g| + eps) ~ lr * sign(g)
    assert np.allclose(p.value, [[-0.1, 0.1, 0.0]], atol=1e-6)


def test_adam_matches_scalar_reference():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    grads = [0.3, -1.2, 0.7, 0.0, 2.5]

    x, m, v = 1.0, 0.0, 0.0
    want = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        want.append(x)

    p = Parameter("p", np.array([[1.0]]))
    opt = Adam([p], lr=lr, beta1=b1, beta2=b2, eps=eps)
    got = []
    for g in grads:
        p.zero_grad()
        p.grad[0, 0] = g
        opt.step()
        got.append(p.value[0, 0])
    assert np.allclose(got, want, atol=1e-14)


def test_adam_raises_on_nonfinite_grad():
    p = Parameter("p", np.zeros((1, 1)))
    opt = Adam([p], lr=0.1)
    p.grad[0, 0] = np.inf
    with pytest.raises(TrainingDiverged, match="non-finite gradient"):
        opt.step()


def test_config_validation_and_lr_defaults():
    assert TrainConfig(encoder="distmult").resolved_lr() == 1e-3
    assert TrainConfig(encoder="rescal").resolved_lr() == 1e-4
    assert TrainConfig(encoder="mlp", lr=0.02).resolved_lr() == 0.02
    for bad in (
        dict(encoder="bad"),
        dict(output_layer="bad"),
        dict(dim=0),
        dict(k=0),
        dict(lr=-1.0),
        dict(batch_size=0),
        dict(epochs=-1),
        dict(patience=0),
        dict(dropout=1.0),
        dict(entropy_weight=-0.1),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad).validate()


def _tiny_store():
    return TripleStore(entity_names=["a", "b"], relation_names=["r"],
                       train=[(0, 0, 1)], valid=[], test=[])


def test_training_converges_on_one_triple():
    cfg = TrainConfig(encoder="distmult", output_layer="softmax", dim=4,
                      lr=0.5, batch_size=10, epochs=200, patience=300,
                      dropout=0.0, seed=0)
    res = train_loop(_tiny_store(), cfg)
    p = np.exp(Scorer(res.model).log_probs([0], [0]))[0, 1]
    assert p >= 0.99
    losses = [r.train_loss for r in res.history]
    assert losses[-1] < losses[0]


def test_zero_epochs_returns_init(toy_store):
    cfg = TrainConfig(encoder="distmult", dim=3, epochs=0, dropout=0.0, seed=5)
    res = train_loop(toy_store, cfg)
    assert res.history == [] and res.best_epoch == 0
    from kgmix.models import init_model

    fresh = init_model("distmult", 6, 2, 3, seed=5,
                       rng=np.random.default_rng(5))
    for pa, pb in zip(res.model.parameters(), fresh.parameters()):
        assert np.array_equal(pa.value, pb.value)


@pytest.mark.parametrize(
    "encoder,output_layer", [("distmult", "softmax"), ("rescal", "mos")]
)
def test_training_is_bitwise_deterministic(toy_store, encoder, output_layer):
    cfg = dict(encoder=encoder, output_layer=output_layer, dim=3, k=2,
               lr=0.05, batch_size=3, epochs=4, patience=10, dropout=0.2,
               seed=13)
    r1 = train_loop(toy_store, TrainConfig(**cfg))
    r2 = train_loop(toy_store, TrainConfig(**cfg))
    for pa, pb in zip(r1.model.parameters(), r2.model.parameters()):
        assert np.array_equal(pa.value, pb.value)
    if r1.mos is not None:
        for pa, pb in zip(r1.mos.parameters(), r2.mos.parameters()):
            assert np.array_equal(pa.value, pb.value)
    assert [r.train_loss for r in r1.history] == [r.train_loss for r in r2.history]
    assert [r.val_mrr for r in r1.history] == [r.val_mrr for r in r2.history]


def test_early_stop_keeps_best_epoch(toy_store):
    """The returned parameters are the best validation epoch's, which the
    per-epoch keyed rng lets us verify by replaying a shorter run."""
    cfg = TrainConfig(encoder="distmult", output_layer="softmax", dim=4,
                      lr=0.5, batch_size=4, epochs=14, patience=3,
                      dropout=0.0, seed=0)
    res = train_loop(toy_store, cfg)
    assert res.best_epoch == 6  # frozen: interior maximum
    assert len(res.history) == 9  # patience break fired before epoch 14
    best_mrr = res.history[res.best_epoch - 1].val_mrr
    assert best_mrr == max(r.val_mrr for r in res.history)

    replay_cfg = TrainConfig(encoder="distmult", output_layer="softmax", dim=4,
                             lr=0.5, batch_size=4, epochs=res.best_epoch,
                             patience=300, dropout=0.0, seed=0)
    replay = train_loop(toy_store, replay_cfg)
    assert replay.best_epoch == res.best_epoch
    for pa, pb in zip(res.model.parameters(), replay.model.parameters()):
        assert np.array_equal(pa.value, pb.value)


def test_early_stop_restores_mos_state_and_batch_norm_buffers(toy_store):
    """Early stopping a mixture model restores every state array, the
    batch-norm running moments included, to the best epoch's values."""
    cfg = dict(encoder="distmult", output_layer="mos", dim=4, k=2, lr=0.1,
               batch_size=4, dropout=0.1, seed=1)
    res = train_loop(toy_store, TrainConfig(epochs=14, patience=3, **cfg))
    assert res.best_epoch == 4  # frozen: interior maximum
    assert len(res.history) == 7
    replay = train_loop(toy_store, TrainConfig(epochs=4, patience=300, **cfg))
    assert replay.best_epoch == 4
    got = state_arrays(res.model, res.mos)
    want = state_arrays(replay.model, replay.mos)
    assert [n for n, _ in got] == [n for n, _ in want]
    assert any(n.endswith("running_var") for n, _ in got)
    for (name, a), (_, b) in zip(got, want):
        assert np.array_equal(a, b), name
    # the restored buffers differ from the initial ones, so the check bites
    assert (res.mos.components[0].bn1.running_mean != 0.0).any()


def test_training_and_validation_free_every_tape(toy_store, monkeypatch):
    """With the cyclic collector off, no batch or validation tape outlives
    the run, so memory does not depend on when the collector runs."""
    alive = weakref.WeakSet()

    class WatchedTape(Tape):
        def __init__(self):
            super().__init__()
            alive.add(self)

    monkeypatch.setattr(train_mod, "Tape", WatchedTape)
    monkeypatch.setattr(models, "Tape", WatchedTape)
    cfg = TrainConfig(encoder="distmult", output_layer="mos", dim=3, k=2,
                      batch_size=4, epochs=3, patience=10, seed=0)
    gc.disable()
    try:
        train_loop(toy_store, cfg)
        assert len(alive) == 0
    finally:
        gc.enable()


def test_runs_all_epochs_without_valid_split():
    store = TripleStore(entity_names=["a", "b", "c"], relation_names=["r"],
                        train=[(0, 0, 1), (1, 0, 2)], valid=[], test=[])
    cfg = TrainConfig(encoder="distmult", dim=2, epochs=5, dropout=0.0, seed=1)
    res = train_loop(store, cfg)
    assert len(res.history) == 5 and res.best_epoch == 5
    assert all(np.isnan(r.val_mrr) for r in res.history)


def test_progress_callback_sees_each_epoch(toy_store):
    seen = []
    cfg = TrainConfig(encoder="distmult", dim=2, epochs=3, patience=10,
                      dropout=0.0, seed=2)
    train_loop(toy_store, cfg, progress=seen.append)
    assert [r.epoch for r in seen] == [1, 2, 3]
    assert all(r.wall_time >= 0 for r in seen)


def _mean_prior_entropy(store, res):
    subs = np.array([t[0] for t in store.train])
    rels = np.array([t[1] for t in store.train])
    tape = Tape()
    h = encode(res.model, subs, rels, tape)
    pi = priors(res.mos, h, tape).value
    return float(-(pi * np.log(np.clip(pi, 1e-300, None))).sum(axis=1).mean())


@pytest.mark.parametrize("seed", [0, 3])
def test_entropy_regularizer_raises_prior_entropy(toy_store, seed):
    entropies = {}
    for w in (0.0, 2.0):
        cfg = TrainConfig(encoder="distmult", output_layer="mos", dim=3, k=3,
                          lr=0.1, batch_size=8, epochs=25, patience=50,
                          dropout=0.0, entropy_weight=w, seed=seed)
        res = train_loop(toy_store, cfg)
        entropies[w] = _mean_prior_entropy(toy_store, res)
    assert entropies[2.0] > entropies[0.0]
    assert entropies[2.0] <= np.log(3.0) + 1e-9  # can never beat uniform


def test_train_requires_triples():
    empty = TripleStore(entity_names=["a"], relation_names=["r"],
                        train=[], valid=[], test=[])
    with pytest.raises(ValueError, match="non-empty train"):
        train_loop(empty, TrainConfig(dim=2, epochs=1))
