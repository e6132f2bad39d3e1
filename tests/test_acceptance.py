"""Acceptance gate: one test per shipped guarantee, each self-contained.

The terminal summary (see conftest) prints one PASS/FAIL/SKIP line per
criterion.  Benchmark-dataset checks skip, with instructions, when the
dataset is not on disk; everything else runs everywhere, with tolerances
and runtime budgets pinned in the assertions.
"""
import inspect
import json
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from kgmix import autodiff, models
from kgmix.autodiff import BatchNormState, Parameter, Tape, finite_difference_check
from kgmix.evaluate import filtered_nll, ranking_metrics
from kgmix.graph import TripleStore, dataset_stats, load_triples, query_labels
from kgmix.models import Scorer, init_model
from kgmix.mos import init_mos
from kgmix.theory import (
    dr_obstruction_check,
    enumerate_feasible_rankings,
    enumerate_feasible_signs,
    feasible_sign_bound,
    logprob_rank_probe,
    random_adjacency,
    sign_decompose,
    verify_sign_decomposition,
)
from kgmix.train import TrainConfig, batch_loss, train_loop

FD_TOL = 1e-5
FD_TOL_BN = 1e-4
RANK_TOL = 1e-8
METRIC_TOL = 1e-12

BENCH_SPLITS = ("train", "valid", "test")


def _bench_dir():
    """Benchmark dataset location: $KGMIX_FB15K237_DIR, or tests/data/fb15k-237."""
    candidates = []
    env = os.environ.get("KGMIX_FB15K237_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).parent / "data" / "fb15k-237")
    for c in candidates:
        if all((c / f"{s}.txt").exists() for s in BENCH_SPLITS):
            return str(c)
    return None


BENCH_MISSING = (
    "benchmark dataset not found: place train/valid/test.txt under "
    "tests/data/fb15k-237/ or point KGMIX_FB15K237_DIR at them"
)


def test_criterion_1_dataset_degree_stats():
    """Degree statistics and the 2c+1 sufficient dimension on the reference
    benchmark: max out-degree 954 without inverses (dimension 1909) and
    4364 with inverses (dimension 8729)."""
    path = _bench_dir()
    if path is None:
        pytest.skip(BENCH_MISSING)
    t0 = time.perf_counter()
    stats = dataset_stats(load_triples(path))
    elapsed = time.perf_counter() - t0
    assert stats["entities"] == 14541
    assert stats["without_inverses"]["relations"] == 237
    assert stats["triples"]["total_raw"] == 310116
    assert stats["without_inverses"]["out_degree_max"] == 954
    assert stats["without_inverses"]["sufficient_dim"] == 1909
    assert stats["with_inverses"]["out_degree_max"] == 4364
    assert stats["with_inverses"]["sufficient_dim"] == 8729
    assert elapsed < 60.0


def test_criterion_2_sign_decomposition_property():
    """200 random adjacencies (rows/cols up to 48, row sums up to 8) are
    decomposed in exactly 2c+1 columns and verified with zero mismatches;
    small instances additionally get the exact integer cross-check."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    rational_checked = 0
    for i in range(200):
        if i % 2 == 0:  # keep half the instances inside the exact-check cap
            n, m = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        else:
            n, m = int(rng.integers(1, 49)), int(rng.integers(1, 49))
        adj = random_adjacency(n, m, int(rng.integers(0, 9)), rng)
        c = int(adj.sum(axis=1).max())
        dec = sign_decompose(adj)
        assert dec.width == 2 * c + 1
        ver = verify_sign_decomposition(adj, dec)
        assert ver.ok, f"instance {i}: mismatches {ver.mismatches[:5]}"
        assert ver.min_margin > 0
        rational_checked += ver.rational_checked
    assert rational_checked >= 50
    assert time.perf_counter() - t0 < 60.0


def _weighted(tape, node, w):
    """Reduce a matrix node to 1x1 with fixed mixing weights, so every
    entry's gradient is exercised."""
    return tape.weighted_sum(tape.hadamard(tape.constant(w), node))


def _op_cases():
    """One finite-difference target per differentiable tape op; yields
    (name, params, build, needs_bn_tolerance)."""
    rng = np.random.default_rng(0)
    w43 = rng.standard_normal((4, 3))
    w45 = rng.standard_normal((4, 5))
    w46 = rng.standard_normal((4, 6))

    a = Parameter("a", rng.standard_normal((4, 3)))
    b = Parameter("b", rng.standard_normal((3, 5)).T.copy())  # passed transposed

    def build_matmul(t):
        return _weighted(t, t.matmul(t.param(a), t.param(b)), w45)

    yield "matmul", [a, b], build_matmul, False

    bt = Parameter("bt", rng.standard_normal((5, 3)))

    def build_matmul_t(t):
        return _weighted(t, t.matmul(t.param(a), t.param(bt)), w45)

    yield "matmul_transpose", [a, bt], build_matmul_t, False

    x = Parameter("x", rng.standard_normal((4, 3)))
    y = Parameter("y", rng.standard_normal((4, 3)))

    def build_hadamard(t):
        return _weighted(t, t.hadamard(t.param(x), t.param(y)), w43)

    yield "hadamard", [x, y], build_hadamard, False

    aw = Parameter("aw", rng.standard_normal((5, 3)))
    ab = Parameter("ab", rng.standard_normal((1, 5)))

    def build_affine(t):
        return _weighted(t, t.affine(t.param(x), t.param(aw), t.param(ab)), w45)

    yield "affine", [x, aw, ab], build_affine, False

    emb = Parameter("emb", rng.standard_normal((6, 3)))
    ids = np.array([0, 2, 0, 5])  # repeated row: gradients must accumulate

    def build_gather(t):
        return _weighted(t, t.gather_rows(t.param(emb), ids), w43)

    yield "gather_rows", [emb], build_gather, False

    c1 = Parameter("c1", rng.standard_normal((4, 2)))
    c2 = Parameter("c2", rng.standard_normal((4, 3)))

    def build_concat(t):
        return _weighted(t, t.concat_cols(t.param(c1), t.param(c2)), w45)

    yield "concat_cols", [c1, c2], build_concat, False

    v = Parameter("v", rng.standard_normal((4, 3)))
    mats = Parameter("mats", rng.standard_normal((4, 9)))

    def build_batch_matvec(t):
        return _weighted(t, t.batch_matvec(t.param(v), t.param(mats)), w43)

    yield "batch_matvec", [v, mats], build_batch_matvec, False

    lx = Parameter("lx", rng.standard_normal((4, 3)) + 0.2)

    def build_leaky_relu(t):
        return _weighted(t, t.leaky_relu(t.param(lx)), w43)

    yield "leaky_relu", [lx], build_leaky_relu, False

    mask = (rng.random((4, 3)) >= 0.3) / 0.7

    def build_dropout(t):
        return _weighted(t, t.dropout(t.param(x), mask), w43)

    yield "dropout", [x], build_dropout, False

    g = Parameter("g", 1.0 + 0.1 * rng.standard_normal((1, 3)))
    be = Parameter("be", 0.1 * rng.standard_normal((1, 3)))
    bn_train = BatchNormState(3)

    def build_bn_train(t):
        node = t.batch_norm(t.param(x), t.param(g), t.param(be), bn_train, True)
        return _weighted(t, node, w43)

    yield "batch_norm(training)", [x, g, be], build_bn_train, True

    bn_inf = BatchNormState(3)
    bn_inf.running_mean = 0.2 * rng.standard_normal((1, 3))
    bn_inf.running_var = 1.0 + 0.3 * rng.random((1, 3))

    def build_bn_inf(t):
        node = t.batch_norm(t.param(x), t.param(g), t.param(be), bn_inf, False)
        return _weighted(t, node, w43)

    yield "batch_norm(inference)", [x, g, be], build_bn_inf, False

    sm = Parameter("sm", rng.standard_normal((4, 6)))

    def build_row_log_softmax(t):
        return _weighted(t, t.row_log_softmax(t.param(sm)), w46)

    yield "row_log_softmax", [sm], build_row_log_softmax, False

    ws = Parameter("ws", rng.standard_normal((3, 4)))

    def build_weighted_sum(t):
        return t.weighted_sum(t.param(ws), -0.5)

    yield "weighted_sum", [ws], build_weighted_sum, False

    # the fused loss: multi-label CSR rows, one label at a row maximum
    xh = [Parameter(f"xh{i}", rng.standard_normal((4, 3))) for i in range(3)]
    xe = Parameter("xe", rng.standard_normal((6, 3)))
    xlp = Parameter("xlp", rng.standard_normal((4, 3)))
    top = int(np.argmax(xh[0].value[0] @ xe.value.T))
    xptr, xcols = np.array([0, 1, 3, 4, 7]), np.array([top, 1, 4, 0, 2, 3, 5])

    def build_softmax_xent(t):
        return t.mixture_xent([t.param(xh[0])], t.param(xe), xptr, xcols)

    def build_mixture_xent(t):
        return t.mixture_xent([t.param(h) for h in xh], t.param(xe), xptr, xcols,
                              t.param(xlp))

    def build_entropy_xent(t):
        return t.mixture_xent([t.param(h) for h in xh], t.param(xe), xptr, xcols,
                              t.param(xlp), entropy_weight=0.5)

    yield "mixture_xent(k=1)", [xh[0], xe], build_softmax_xent, False
    yield "mixture_xent(k=3)", xh + [xe, xlp], build_mixture_xent, False
    yield "mixture_xent(k=3, entropy)", xh + [xe, xlp], build_entropy_xent, False


def _full_loss_case(encoder, output_layer, seed):
    """A complete training loss at toy sizes, built by the batch_loss that
    train_loop runs, with dropout on and batch norm in training mode; the
    dropout rng is re-created inside build() so repeated builds apply
    identical masks."""
    n_entities, n_relations, dim, k = 7, 3, 3, 3
    rng = np.random.default_rng(seed)
    model = init_model(encoder, n_entities, n_relations, dim, seed=seed, rng=rng)
    mos_params = init_mos(k, dim, rng) if output_layer == "mos" else None
    config = TrainConfig(encoder=encoder, output_layer=output_layer, dim=dim,
                         k=k, dropout=0.2, entropy_weight=1e-3)
    subs = np.array([0, 2, 4, 6, 2])
    rels = np.array([0, 1, 2, 0, 1])
    ptr, cols = np.arange(6), np.array([1, 3, 5, 0, 3])

    def build(tape):
        drop_rng = np.random.default_rng(seed + 1)
        return batch_loss(model, mos_params, config, subs, rels, ptr, cols,
                          tape, drop_rng)

    params = model.parameters()
    if mos_params is not None:
        params = params + mos_params.parameters()
    return build, params


def test_criterion_3_gradients_finite_difference():
    """Every tape op and all six encoder/output-layer training losses pass
    central finite differences at 1e-5 (1e-4 where batch norm's training
    statistics enter)."""
    t0 = time.perf_counter()
    for name, params, build, is_bn in _op_cases():
        err = finite_difference_check(build, params)
        tol = FD_TOL_BN if is_bn else FD_TOL
        assert err <= tol, f"op {name}: fd error {err:.2e} > {tol}"
    for encoder in ("distmult", "rescal", "mlp"):
        for output_layer in ("softmax", "mos"):
            build, params = _full_loss_case(encoder, output_layer, seed=11)
            err = finite_difference_check(build, params)
            tol = FD_TOL_BN if output_layer == "mos" else FD_TOL
            assert err <= tol, (
                f"{encoder}/{output_layer}: fd error {err:.2e} > {tol}"
            )
    assert time.perf_counter() - t0 < 60.0


def test_every_backward_rule_has_a_finite_difference_case():
    """No op with a backward rule can go without criterion 3's certificate:
    the cases' tapes record every op that _backward_rule handles."""
    rule_src = inspect.getsource(autodiff._backward_rule)
    rule_ops = set(re.findall(r'op == "(\w+)"', rule_src))
    covered = set()
    for _, _, build, _ in _op_cases():
        tape = Tape()
        build(tape)
        covered |= {node.op for node in tape.nodes}
    assert "mixture_xent" in rule_ops and "matmul" in rule_ops
    assert rule_ops <= covered, f"ops without a case: {sorted(rule_ops - covered)}"


def test_training_and_inference_record_exactly_the_tape_ops(monkeypatch):
    """The op set is closed: the six training losses (batch_loss, with
    dropout and the prior entropy on) and Scorer.log_probs_from_states for
    both output layers record every public Tape op and no other, and
    backward runs on each of their tapes.  An op that only tests record
    fails here.  The one exemption, weighted_sum, holds only while the
    benchmark's tracer test records it; once that call goes, this test
    fails and asks for the op's deletion."""
    root = Path(__file__).resolve().parents[1]
    tracer_test = root / "benchmarks" / "tests" / "test_tracer.py"
    assert "tape.weighted_sum(" in tracer_test.read_text(encoding="utf-8")
    public = {
        name for name, fn in vars(Tape).items()
        if callable(fn) and not name.startswith("_") and name != "backward"
    } - {"weighted_sum"}
    recorded = set()
    for encoder in ("distmult", "rescal", "mlp"):
        for output_layer in ("softmax", "mos"):
            build, params = _full_loss_case(encoder, output_layer, seed=11)
            for p in params:
                p.zero_grad()
            tape = Tape()
            tape.backward(build(tape))
            assert all(np.isfinite(p.grad).all() for p in params)
            recorded |= {node.op for node in tape.nodes}

    kept = []

    class KeptTape(Tape):
        def __exit__(self, *exc):
            kept.append(self)

    monkeypatch.setattr(models, "Tape", KeptTape)
    rng = np.random.default_rng(12)
    model = init_model("distmult", 7, 3, 3, seed=12, rng=rng)
    for mix in (None, init_mos(3, 3, rng)):
        Scorer(model, mix).log_probs_from_states(rng.standard_normal((5, 3)))
    assert len(kept) == 2
    for tape in kept:
        recorded |= {node.op for node in tape.nodes}
        consumed = {id(p) for node in tape.nodes for p in node.parents}
        for node in [n for n in tape.nodes if id(n) not in consumed]:
            tape.backward(tape.weighted_sum(node))
    assert recorded == public, (
        f"never recorded: {sorted(public - recorded)}, "
        f"not Tape methods: {sorted(recorded - public)}"
    )


@pytest.mark.parametrize("with_mos", [False, True])
def test_scorer_tape_holds_no_batch_by_entities_node(monkeypatch, with_mos):
    """Inference records only the encoder and the mixture states; the output
    head is numpy, so no (batch, n_entities) matrix goes on its tape."""
    n_ent, batch = 40, 6
    shapes = []

    class RecordingTape(Tape):
        def _record(self, op, value, *args, **kwargs):
            shapes.append(value.shape)
            return super()._record(op, value, *args, **kwargs)

    monkeypatch.setattr(models, "Tape", RecordingTape)
    model = init_model("distmult", n_ent, 3, 4, seed=0)
    mix = init_mos(3, 4, np.random.default_rng(1)) if with_mos else None
    scorer = Scorer(model, mix)
    subs, rels = np.arange(batch), np.arange(batch) % 3
    assert scorer.scores(subs, rels).shape == (batch, n_ent)
    assert scorer.log_probs(subs, rels).shape == (batch, n_ent)
    assert scorer.log_probs_from_states(np.ones((batch, 4))).shape == (batch, n_ent)
    assert shapes and (batch, n_ent) not in shapes


def test_criterion_4_logprob_rank_law():
    """Across 20 random single-softmax models (8 entities, 8 relations,
    dim 2, all 64 queries) the log-probability matrix never exceeds rank 3;
    a 4-component mixture on the same grid does exceed it."""
    t0 = time.perf_counter()
    subs, rels = np.divmod(np.arange(64), 8)
    for seed in range(20):
        model = init_model("distmult", 8, 8, 2, seed=seed)
        lp = Scorer(model).log_probs(subs, rels)
        probe = logprob_rank_probe(lp, dim=2, rel_tol=RANK_TOL)
        assert probe.capacity == 3
        assert probe.rank <= 3, f"seed {seed}: rank {probe.rank}"
        assert probe.within_single_softmax
    escaped = False
    for seed in range(5):
        model = init_model("distmult", 8, 8, 2, seed=seed)
        mix = init_mos(4, 2, np.random.default_rng(seed))
        lp = Scorer(model, mix).log_probs(subs, rels)
        probe = logprob_rank_probe(lp, dim=2, rel_tol=RANK_TOL)
        if probe.rank >= 4:
            escaped = True
            break
    assert escaped, "no k=4 configuration exceeded the k=1 rank ceiling"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_5_feasibility_counts():
    """For every (rows <= 6, dim <= 3) with generic random embeddings the
    enumerated sign patterns hit the closed-form count exactly, and with
    dim 1 exactly two score orderings exist.  Every witness realizes its
    pattern, and both enumerations raise unless their count equals the
    closed form."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for d in range(1, 4):
            e = rng.standard_normal((n, d))
            enum = enumerate_feasible_signs(e)
            want = feasible_sign_bound(n, d)
            assert enum.count == want, (n, d, enum.count, want)
            for pattern, h in enum.witnesses.items():
                s = e @ h
                assert tuple(1 if v > 0 else -1 for v in s) == pattern
    for n in range(2, 7):
        e = rng.standard_normal((n, 1))
        renum = enumerate_feasible_rankings(e)
        assert renum.count == 2, (n, renum.count)
        first, second = renum.rankings
        assert first == tuple(reversed(second))
    assert time.perf_counter() - t0 < 300.0


def _random_eval_store(rng):
    n_entities, n_relations = 20, 3
    triples = set()
    while len(triples) < 60:
        triples.add((
            int(rng.integers(n_entities)),
            int(rng.integers(n_relations)),
            int(rng.integers(n_entities)),
        ))
    triples = sorted(triples)
    order = rng.permutation(len(triples))
    pick = lambda idx: [triples[i] for i in idx]
    return TripleStore(
        entity_names=[f"n{i}" for i in range(n_entities)],
        relation_names=[f"r{i}" for i in range(n_relations)],
        train=pick(order[:40]), valid=pick(order[40:50]), test=pick(order[50:]),
    )


def _naive_rank_reference(table, store, split, mode):
    """Per-triple filtered ranks via plain python loops."""
    true = {}
    for sp in ("train", "valid", "test"):
        for s, r, o in store.split(sp):
            true.setdefault((s, r), set()).add(o)
    ranks = []
    for s, r, o in store.split(split):
        z = table[s, r]
        drop = true[(s, r)] - {o}
        better = 0
        for e in range(store.n_entities):
            if e == o or e in drop:
                continue
            if mode == "optimistic" and z[e] > z[o]:
                better += 1
            if mode == "pessimistic" and z[e] >= z[o]:
                better += 1
        ranks.append(1 + better)
    return ranks


def _naive_nll_reference(logp_table, store, split, filter_splits):
    """Renormalized negative log-likelihood via plain python loops."""
    true = {}
    for sp in filter_splits:
        for s, r, o in store.split(sp):
            true.setdefault((s, r), set()).add(o)
    vals, skipped = [], 0
    for s, r, o in store.split(split):
        drop = true.get((s, r), set())
        if o in drop:
            skipped += 1
            continue
        row = logp_table[s, r]
        kept = sum(np.exp(row[e]) for e in range(store.n_entities) if e not in drop)
        vals.append(-np.log(np.exp(row[o]) / kept))
    return vals, skipped


def test_criterion_6_metric_correctness():
    """Filtered MRR/MR/Hits and filtered NLL agree with brute-force loops
    to 1e-12 on random 20-entity graphs, and the renormalization worked
    example 0.3 / (0.3 + 0.2) = 0.6 comes out exactly."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    for trial in range(5):
        store = _random_eval_store(rng)
        table = rng.standard_normal((20, 3, 20))
        logp_table = table - np.log(np.exp(table).sum(axis=-1, keepdims=True))

        def score_fn(subs, rels):
            return table[np.asarray(subs), np.asarray(rels)]

        def logp_fn(subs, rels):
            return logp_table[np.asarray(subs), np.asarray(rels)]

        for mode in ("optimistic", "pessimistic"):
            rep = ranking_metrics(score_fn, store, "test", rank_mode=mode)
            want = _naive_rank_reference(table, store, "test", mode)
            assert [q["rank"] for q in rep.per_query] == want
            assert abs(rep.mrr - np.mean([1.0 / r for r in want])) <= METRIC_TOL
            assert abs(rep.mr - np.mean(want)) <= METRIC_TOL
            for k in (1, 3, 10):
                frac = np.mean([r <= k for r in want])
                assert abs(rep.hits[k] - frac) <= METRIC_TOL
        for splits in (("train",), ("train", "valid")):
            nll = filtered_nll(logp_fn, store, "test", splits)
            want_vals, want_skipped = _naive_nll_reference(
                logp_table, store, "test", splits
            )
            assert nll.n_skipped == want_skipped
            assert nll.n_scored == len(want_vals)
            assert abs(nll.mean_nll - np.mean(want_vals)) <= 1e-10

    example = TripleStore(
        entity_names=["a", "b", "c"], relation_names=["r"],
        train=[(0, 0, 0)], valid=[], test=[(0, 0, 1)],
    )

    def example_logp(subs, rels):
        return np.log(np.tile(np.array([0.5, 0.3, 0.2]), (len(subs), 1)))

    rep = filtered_nll(example_logp, example, "test", ("train",))
    assert abs(rep.mean_nll - (-np.log(0.6))) <= METRIC_TOL
    assert time.perf_counter() - t0 < 60.0


def _separation_store():
    """16 conditional-distribution targets over 8 entities whose stacked
    adjacency has rank 6: one-hot rows plus cyclic half-half pairs."""
    train = []
    for s in range(8):
        train.append((s, 0, s % 6))
        train.append((s, 1, s % 6))
        train.append((s, 1, (s + 1) % 6))
    return TripleStore(
        entity_names=[f"e{i}" for i in range(8)],
        relation_names=["r0", "r1"],
        train=train, valid=[], test=[],
    )


def test_criterion_7_mixture_separation_on_rank6_target():
    """With dim 2 the rank-6 target is beyond one softmax (capacity 3);
    trained head to head from identical seeds, the 4-component mixture
    ends at strictly lower training NLL on all 5 seeds."""
    t0 = time.perf_counter()
    store = _separation_store()
    subs, rels, ptr, cols = query_labels(store, ("train",))
    adj = np.zeros((len(subs), 8), dtype=int)
    adj[np.repeat(np.arange(len(subs)), np.diff(ptr)), cols] = 1
    check = dr_obstruction_check(adj, dim=2)
    assert check.target_rank == 6 and check.excluded

    labels = adj / adj.sum(axis=1, keepdims=True)

    def final_nll(result):
        logp = Scorer(result.model, result.mos).log_probs(subs, rels)
        return float(-(labels * logp).sum(axis=1).mean())

    for seed in range(5):
        nlls = {}
        for k in (1, 4):
            cfg = TrainConfig(
                encoder="distmult", output_layer="mos", dim=2, k=k,
                lr=0.1, batch_size=16, epochs=1000, patience=10**6,
                dropout=0.0, entropy_weight=1e-3, seed=seed,
            )
            nlls[k] = final_nll(train_loop(store, cfg))
        assert nlls[4] < nlls[1], (
            f"seed {seed}: k=4 nll {nlls[4]:.4f} not below k=1 {nlls[1]:.4f}"
        )
    assert time.perf_counter() - t0 < 600.0


def test_criterion_8_stretch_benchmark(tmp_path):
    """Optional full benchmark run; needs the dataset on disk and
    KGMIX_RUN_STRETCH=1, and takes hours."""
    path = _bench_dir()
    if path is None:
        pytest.skip(BENCH_MISSING)
    if os.environ.get("KGMIX_RUN_STRETCH") != "1":
        pytest.skip("set KGMIX_RUN_STRETCH=1 to run the multi-hour benchmark")
    from kgmix.cli import main

    out_dir = tmp_path / "stretch"
    rc = main([
        "train", "--dataset", path, "--out", str(out_dir), "--encoder",
        "distmult", "--output-layer", "softmax", "--dim", "200", "--quiet",
    ])
    assert rc == 0
    report_path = tmp_path / "eval.json"
    rc = main([
        "eval", "--checkpoint", str(out_dir / "checkpoint.kgm"), "--dataset",
        path, "--split", "test", "--out", str(report_path),
    ])
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert abs(report["mrr"] - 0.304) <= 0.02, report["mrr"]


def test_criterion_9_out_of_scope_results_documented():
    """Large-dataset numbers are documented as not reproduced at this
    scale, with the rank-law and separation tests standing in, and the
    optional benchmark run is described."""
    readme = Path(__file__).parent.parent / "README.md"
    assert readme.exists(), "README.md missing"
    text = " ".join(readme.read_text(encoding="utf-8").lower().split())
    assert "not reproduced" in text
    assert "kgmix_run_stretch" in text
    assert "tests/data/fb15k-237" in text
