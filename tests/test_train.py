"""Loss terms against closed forms, an Adam reference implementation,
convergence on a tiny graph, bitwise replayability, and early stopping."""
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from kgmix import autodiff, models
from kgmix import train as train_mod
from kgmix.autodiff import Parameter, Tape
from kgmix.graph import TripleStore, build_query_index, query_labels
from kgmix.models import Scorer, encode, init_model, state_arrays
from kgmix.mos import init_mos, mixture_states
from kgmix.train import (
    Adam,
    TrainConfig,
    TrainingDiverged,
    batch_loss,
    train_loop,
)


def test_query_labels_follow_query_index(toy_store):
    toy_store.test = [*toy_store.test, toy_store.train[0]]  # a duplicate across splits
    for splits in [(), ("train",), ("train", "valid", "test")]:
        want = {}  # the reference: a loop over the raw split rows
        for name in splits:
            for s, r, o in toy_store.split(name):
                want.setdefault((s, r), set()).add(o)
        subs, rels, ptr, cols = query_labels(toy_store, splits)
        index = build_query_index(toy_store, splits)
        assert list(zip(subs.tolist(), rels.tolist())) == index.queries() == sorted(want)
        assert len(ptr) == index.n_queries + 1 and ptr[0] == 0
        assert ptr[-1] == index.n_triples == sum(map(len, want.values()))
        for i, (s, r) in enumerate(index.queries()):
            assert cols[ptr[i] : ptr[i + 1]].tolist() == index.get(s, r) == sorted(want[(s, r)])
    subs, rels, ptr, cols = query_labels(toy_store, ("train",))
    i = list(zip(subs.tolist(), rels.tolist())).index((0, 0))
    assert cols[ptr[i] : ptr[i + 1]].tolist() == [1, 2]  # (0, r0) -> {1, 2}


def test_xent_closed_forms():
    """The fused loss against -log p for known distributions."""
    p = np.array([0.7, 0.2, 0.1])
    t = Tape()
    # H = [1] and E = log p score the entities at exactly log p
    loss = t.mixture_xent([t.constant([[1.0]])], t.constant(np.log(p)[:, None]),
                          [0, 1], [0])
    assert loss.value[0, 0] == pytest.approx(-np.log(0.7), abs=1e-12)

    n = 5
    t2 = Tape()
    # zero scores: every row is uniform over n entities
    uniform = t2.mixture_xent([t2.constant(np.zeros((3, 1)))],
                              t2.constant(np.ones((n, 1))), [0, 1, 2, 3], [0, 4, 2])
    assert uniform.value[0, 0] == pytest.approx(np.log(n), abs=1e-12)

    # a half-half mixture of p and uniform-over-3, against labels {0, 2}
    t3 = Tape()
    mixed = t3.mixture_xent(
        [t3.constant([[1.0]]), t3.constant([[0.0]])],
        t3.constant(np.log(p)[:, None]), [0, 2], [0, 2],
        t3.constant(np.log([[0.5, 0.5]])),
    )
    want = -0.5 * (np.log(0.5 * 0.7 + 0.5 / 3) + np.log(0.5 * 0.1 + 0.5 / 3))
    assert mixed.value[0, 0] == pytest.approx(want, abs=1e-12)


def test_batch_loss_rejects_bad_label_rows():
    model = init_model("distmult", 6, 2, 3, seed=0)
    cfg = TrainConfig(dim=3, dropout=0.0)
    subs, rels = np.array([0, 2]), np.array([0, 1])
    for match, ptr, cols in [
        ("length", [0, 2], [1, 2]),
        ("empty", [0, 2, 2], [1, 2]),
        ("monoton", [0, 2, 1], [1, 2]),
        ("out of range", [0, 2, 3], [1, 2, 6]),
        ("out of range", [0, 2, 3], [1, -2, 3]),
    ]:
        with pytest.raises(ValueError, match=match):
            batch_loss(model, None, cfg, subs, rels, np.array(ptr), np.array(cols),
                       Tape(), np.random.default_rng(0))


@pytest.mark.parametrize("output_layer", ["softmax", "mos"])
def test_batch_tape_holds_no_batch_by_entities_node(output_layer):
    """The training forward puts no (batch, n_entities) matrix on the tape:
    the fused loss forms its score blocks in a buffer of its own forward."""
    n_ent, batch = 40, 6
    model = init_model("distmult", n_ent, 3, 4, seed=0)
    mos = init_mos(3, 4, np.random.default_rng(1)) if output_layer == "mos" else None
    cfg = TrainConfig(dim=4, k=3, output_layer=output_layer, entropy_weight=1e-3)
    ptr, cols = np.arange(batch + 1), np.arange(batch) * 5
    tape = Tape()
    loss = batch_loss(model, mos, cfg, np.arange(batch), np.arange(batch) % 3,
                      ptr, cols, tape, np.random.default_rng(2))
    assert loss.value.shape == (1, 1)
    assert [n.op for n in tape.nodes].count("mixture_xent") == 1
    assert all(n.value.shape != (batch, n_ent) for n in tape.nodes)


def test_loss_kept_past_its_tape_holds_only_its_value():
    """train_loop keeps each batch's loss past the block; it must not keep
    the batch's graph, whose fused loss held k (batch x entities) arrays."""
    n_ent, batch = 4000, 200
    model = init_model("distmult", n_ent, 2, 4, seed=0)
    mos = init_mos(3, 4, np.random.default_rng(1))
    cfg = TrainConfig(dim=4, k=3, output_layer="mos")
    ptr, cols = np.arange(batch + 1), np.arange(batch) * 7
    tracemalloc.start()
    try:
        with Tape() as t:
            loss = batch_loss(model, mos, cfg, np.arange(batch), np.arange(batch) % 2,
                              ptr, cols, t, np.random.default_rng(2))
            t.backward(loss)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loss.parents == () and loss.ctx == {}
    assert np.isfinite(loss.value[0, 0])
    assert held < 2**20, held


def test_one_mos_epoch_holds_one_batch_of_scores():
    """The traced peak of a MoS epoch, validation included, stays below one
    (XENT_ROWS x entities) float block, the fused loss's one buffer,
    whatever the batch size and k; plus two (valid x entities) float
    blocks, validation's score block and the head's buffer beside it, and
    a boolean one for the ranks; plus an allowance of 24 (batch + entities) x d
    arrays for the (batch x d) nodes, the parameters with their gradients,
    Adam moments and scratch, and the best-epoch snapshot.  In the second
    case k * batch is nearly 8 XENT_ROWS, so a (k, batch, entities) buffer
    would be nearly 8 blocks."""
    dim, n_valid = 4, 20
    for n_ent, batch, k in [(4000, 200, 3), (4000, 1000, 4)]:
        rng = np.random.default_rng(0)
        n_train = 3 * batch + 1  # at least four batches
        queries = rng.permutation(2 * n_ent)[: n_train + n_valid]
        triples = list(zip((queries // 2).tolist(), (queries % 2).tolist(),
                           rng.integers(n_ent, size=len(queries)).tolist()))
        store = TripleStore(entity_names=[f"e{i}" for i in range(n_ent)],
                            relation_names=["r0", "r1"],
                            train=triples[:n_train], valid=triples[n_train:], test=[])
        cfg = TrainConfig(encoder="distmult", output_layer="mos", dim=dim, k=k,
                          batch_size=batch, epochs=1, seed=0)
        tracemalloc.start()
        try:
            result = train_loop(store, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.n_queries == n_train
        block = autodiff.XENT_ROWS * n_ent * 8
        valid = n_valid * n_ent * (2 * 8 + 1)
        allowance = 24 * (batch + n_ent) * dim * 8
        assert peak < block + valid + allowance, (peak - valid - allowance) / block


def test_allocator_setting_does_nothing_without_mallopt(monkeypatch):
    monkeypatch.setattr(train_mod.ctypes, "CDLL", lambda name: object())
    assert train_mod._keep_freed_heap() is None


def test_mixture_batch_records_its_priors_once():
    """The fused loss reads the log-priors that mixture_states recorded for
    both its cross-entropy and its entropy term: one prior matmul and one
    log-softmax on a MoS batch tape, no second prior path, and the loss
    node, last on the tape, is the log-priors' only consumer."""
    model = init_model("distmult", 40, 3, 4, seed=0)
    mos = init_mos(3, 4, np.random.default_rng(1))
    cfg = TrainConfig(dim=4, k=3, output_layer="mos", entropy_weight=1e-3)
    tape = Tape()
    loss = batch_loss(model, mos, cfg, np.arange(6), np.arange(6) % 3, np.arange(7),
                      np.arange(6) * 5, tape, np.random.default_rng(2))
    ops = [n.op for n in tape.nodes]
    assert ops.count("matmul") == 1 and ops.count("row_log_softmax") == 1
    assert "row_softmax" not in ops
    (log_pi,) = [n for n in tape.nodes if n.op == "row_log_softmax"]
    consumers = [n for n in tape.nodes if any(p is log_pi for p in n.parents)]
    assert consumers == [loss] and loss is tape.nodes[-1]
    assert loss.op == "mixture_xent" and ops.count("mixture_xent") == 1


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
    opt = Adam([p], lr=lr)
    got = []
    for g in grads:
        p.zero_grad()
        p.grad[0, 0] = g
        opt.step()
        got.append(p.value[0, 0])
    assert np.allclose(got, want, atol=1e-14)


def test_adam_in_place_step_is_bitwise_the_textbook_formula():
    """Five steps on parameters of three shapes (the largest sizes the
    shared scratch) against fresh-array arithmetic in the same order."""
    rng = np.random.default_rng(5)
    shapes = [(7, 3), (1, 3), (2, 5)]
    params = [Parameter(f"p{i}", rng.standard_normal(s)) for i, s in enumerate(shapes)]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    want = [p.value.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    opt = Adam(params, lr=lr)
    for t in range(1, 6):
        for i, p in enumerate(params):
            g = rng.standard_normal(p.shape)
            p.grad[...] = g
            m[i] *= b1
            m[i] += (1 - b1) * g
            v[i] *= b2
            v[i] += (1 - b2) * g * g
            m_hat = m[i] / (1 - b1**t)
            v_hat = v[i] / (1 - b2**t)
            want[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
        opt.step()
        for i, p in enumerate(params):
            assert np.array_equal(p.value, want[i]), (t, p.name)
            assert np.array_equal(opt.m[i], m[i]) and np.array_equal(opt.v[i], v[i])


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
        dict(batch_size=-1),
        dict(epochs=-1),
        dict(patience=0),
        dict(dropout=1.0),
        dict(entropy_weight=-0.1),
        dict(lr=np.nan),
        dict(lr=np.inf),
        dict(entropy_weight=np.nan),
        dict(entropy_weight=np.inf),
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


def test_blocked_mos_training_is_bitwise_deterministic(toy_store, monkeypatch):
    """The same replay with each batch's fused loss in several row blocks:
    k=2 components of 3 queries, in blocks of 2 queries and 1."""
    monkeypatch.setattr(autodiff, "XENT_ROWS", 4)
    test_training_is_bitwise_deterministic(toy_store, "rescal", "mos")


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
    pi = np.exp(mixture_states(res.mos, h, tape)[0].value)
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


def test_train_rejects_batch_below_one_before_training(toy_store, monkeypatch):
    monkeypatch.setattr(train_mod, "batch_loss", None)  # any batch would fail
    with pytest.raises(ValueError, match="batch_size"):
        train_loop(toy_store, TrainConfig(dim=2, epochs=1, batch_size=0))


def test_diverging_mos_run_raises_training_diverged():
    """A learning rate that blows the parameters up ends a MoS run with
    TrainingDiverged at the first non-finite batch loss, priors included."""
    rng = np.random.default_rng(0)
    n_ent = 20
    triples = list(zip(rng.integers(n_ent, size=200).tolist(),
                       rng.integers(2, size=200).tolist(),
                       rng.integers(n_ent, size=200).tolist()))
    store = TripleStore(entity_names=[f"e{i}" for i in range(n_ent)],
                        relation_names=["r0", "r1"], train=triples, valid=[], test=[])
    cfg = TrainConfig(encoder="distmult", output_layer="mos", dim=4, k=3,
                      lr=1e300, batch_size=10, epochs=2, seed=0)
    with np.errstate(all="ignore"), pytest.raises(
        TrainingDiverged, match="non-finite loss at epoch 1"
    ):
        train_loop(store, cfg)


def test_train_requires_triples():
    empty = TripleStore(entity_names=["a"], relation_names=["r"],
                        train=[], valid=[], test=[])
    with pytest.raises(ValueError, match="non-empty train"):
        train_loop(empty, TrainConfig(dim=2, epochs=1))
