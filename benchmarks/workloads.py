"""The four benchmark workloads, run through kgmix's public API.

Each workload sets up several times and keeps the median as ``setup_s``,
runs one warm-up round, then runs whole rounds (a training epoch, an
evaluation pass, a pass over the analysis cases) until the run's time is
up, and checks the program's outputs against ``reference`` afterwards.
Functions are looked up on their modules at call time (``kg.graph.
augment_inverse``), so that a traced run sees the benchmark's own calls.
"""
from __future__ import annotations

import contextlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import kgmix as kg

import graphgen
import reference

clock = time.perf_counter

# set-ups per run; their median is setup_s
SETUP_REPS = {"train-softmax": 11, "train-mos": 11, "eval-fb15k": 3, "theory": 101}

TRAIN_DIM, TRAIN_K, TRAIN_BATCH = 64, 4, 500
EVAL_DIM, EVAL_POOL = 200, 100
# The training graph does not follow --seed.  With the tape reference cycle,
# peak RSS depends on when the cyclic collector happens to run, which
# depends on the run's whole allocation history: on graphs drawn from
# seeds 11-15, train-mos peaked anywhere from 2.7 to 3.6 GB.  On one graph,
# training seeds change values but not allocations, so the peak repeats.
TRAIN_GRAPH_SEED = 0
SAMPLE_QUERIES = 96  # >= dim + 3 rows, so the rank probe can see past d + 1
SAMPLE_TRIPLES = 32  # test triples re-ranked by brute force
LOGP_TOL = 1e-9


@dataclass
class Outcome:
    """What one workload run measured and found."""

    setup_times: list[float]
    setup_window: tuple[float, float]
    window: tuple[float, float]  # first to last timed round
    round_times: list[float]
    items_per_round: int
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def items_per_s(self) -> float:
        return self.items_per_round / statistics.median(self.round_times)

    def check(self, ok: bool, message: str):
        if not ok:
            self.errors.append(message)


@contextlib.contextmanager
def keep_results(module, *names):
    """Record what ``module.<name>`` returns while the block runs, for
    outputs that a public call builds but does not hand back."""
    kept = {n: [] for n in names}
    originals = {n: getattr(module, n) for n in names}

    def keeper(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            kept[name].append(out)
            return out

        return wrapper

    for n in names:
        setattr(module, n, keeper(n, originals[n]))
    try:
        yield kept
    finally:
        for n in names:
            setattr(module, n, originals[n])


def timed_rounds(one_round, seconds: float) -> tuple[float, float, list[float]]:
    """Run whole rounds until ``seconds`` have passed; at least one."""
    times = []
    start = clock()
    while True:
        t0 = clock()
        one_round()
        t1 = clock()
        times.append(t1 - t0)
        if t1 - start >= seconds:
            return start, t1, times


def _setups(reps: int, build):
    times = []
    t0 = clock()
    for _ in range(reps):
        s = clock()
        state = build()
        times.append(clock() - s)
    return state, times, (t0, clock())


# ---- training ----


class _WindowEnd(Exception):
    """Raised from the progress callback once the timed window is over."""


def _mos_components(mos) -> list[dict]:
    out = []
    for c in mos.components:
        d = {}
        for j, bn in (("1", c.bn1), ("2", c.bn2)):
            for p in ("w", "b", "gamma", "beta"):
                d[p + j] = getattr(c, p + j).value
            d["rm" + j], d["rv" + j], d["eps" + j] = bn.running_mean, bn.running_var, bn.eps
        out.append(d)
    return out


def run_train(output_layer: str, seed: int, seconds: float) -> Outcome:
    shape = graphgen.S_UNIFORM
    use_mos = output_layer == "mos"

    def build():
        graph = graphgen.generate(shape, TRAIN_GRAPH_SEED)
        store = kg.graph.augment_inverse(graph.store)
        index = kg.graph.build_query_index(store, ("train",))
        rng = np.random.default_rng(seed)
        kg.models.init_model(
            "distmult", store.n_entities, store.n_relations, TRAIN_DIM, seed=seed, rng=rng
        )
        if use_mos:
            kg.mos.init_mos(TRAIN_K, TRAIN_DIM, rng)
        return store, index

    (store, index), setup_times, setup_window = _setups(
        SETUP_REPS["train-" + output_layer], build
    )
    config = kg.train.TrainConfig(
        encoder="distmult", output_layer=output_layer, dim=TRAIN_DIM, k=TRAIN_K,
        batch_size=TRAIN_BATCH, epochs=10**6, patience=10**6, seed=seed,
    )
    marks, records = [], []

    def progress(record):
        marks.append(clock())
        records.append(record)
        # the first epoch is the warm-up; the window runs from its end
        if len(marks) >= 2 and marks[-1] - marks[0] >= seconds:
            raise _WindowEnd

    with keep_results(kg.train, "init_model", "init_mos") as kept:
        try:
            kg.train.train_loop(store, config, progress=progress)
        except _WindowEnd:
            pass

    n_queries = index.n_queries
    batches = math.ceil(n_queries / TRAIN_BATCH)
    out = Outcome(
        setup_times=setup_times,
        setup_window=setup_window,
        window=(marks[0], marks[-1]),
        round_times=[b - a for a, b in zip(marks, marks[1:])],
        items_per_round=n_queries,
        attempted=batches * (len(marks) - 1),
    )
    losses = [r.train_loss for r in records]
    out.info["train_loss"] = [losses[0], losses[-1]]
    out.check(all(math.isfinite(x) for x in losses), f"non-finite loss in {losses}")
    out.check(losses[-1] < losses[0], f"loss did not fall: {losses[0]} -> {losses[-1]}")

    model = kept["init_model"][-1]
    mos = kept["init_mos"][-1] if use_mos else None
    queries = index.queries()
    pick = np.random.default_rng(seed + 1).choice(len(queries), SAMPLE_QUERIES, replace=False)
    subs = np.array([queries[i][0] for i in pick])
    rels = np.array([queries[i][1] for i in pick])
    logp = kg.models.Scorer(model, mos).log_probs(subs, rels)
    ent, rel = model.entities.value, model.relations.value
    if use_mos:
        ref = reference.mos_log_probs(ent, rel, mos.omegas.value, _mos_components(mos), subs, rels)
    else:
        ref = reference.softmax_log_probs(ent, rel, subs, rels)
    err = float(np.max(np.abs(logp - ref)))
    out.info["log_probs_max_abs_err"] = err
    out.check(err <= LOGP_TOL, f"log_probs differ from the numpy forward by {err}")
    mx = logp.max(axis=1, keepdims=True)
    row_lse = mx[:, 0] + np.log(np.exp(logp - mx).sum(axis=1))
    out.check(float(np.abs(row_lse).max()) <= LOGP_TOL, "log_probs rows do not normalise")

    probe = kg.theory.logprob_rank_probe(logp, TRAIN_DIM)
    out.info["trained_logprob_rank"] = probe.rank
    out.info["capacity"] = TRAIN_DIM + 1
    if not use_mos:
        out.check(probe.rank <= TRAIN_DIM + 1, f"softmax rank {probe.rank} > d + 1")
    return out


# ---- evaluation ----


def run_eval(seed: int, seconds: float) -> Outcome:
    shape = graphgen.FB15K237_POWERLAW

    def build():
        graph = graphgen.generate(shape, seed)
        store = kg.graph.augment_inverse(graph.store)
        kg.graph.build_query_index(store, ("train", "valid", "test"))
        model = kg.models.init_model(
            "distmult", store.n_entities, store.n_relations, EVAL_DIM, seed=seed
        )
        rng = np.random.default_rng(seed + 1)
        pools = rng.integers(store.n_entities, size=(len(store.test), EVAL_POOL)).tolist()
        return graph, store, model, pools

    (graph, store, model, pools), setup_times, setup_window = _setups(
        SETUP_REPS["eval-fb15k"], build
    )
    scorer = kg.models.Scorer(model)

    kg.evaluate.evaluate_model(scorer, store, "valid")  # warm-up on the smaller split
    last = {}
    with keep_results(kg.evaluate, "ranking_metrics", "filtered_nll") as kept:

        def timed_pass():
            for v in kept.values():
                v.clear()
            last["summary"] = kg.evaluate.evaluate_model(scorer, store, "test")
            last["pool"] = kg.evaluate.ranking_metrics(
                scorer.scores, store, "test", candidates=pools
            )

        t0, t1, times = timed_rounds(timed_pass, seconds)
    n_test = len(store.test)
    out = Outcome(
        setup_times=setup_times,
        setup_window=setup_window,
        window=(t0, t1),
        round_times=times,
        items_per_round=n_test,
        attempted=n_test * len(times),
    )
    full, nll = kept["ranking_metrics"][0], kept["filtered_nll"][0]
    pool = last["pool"]
    _check_summaries(out, last["summary"], full, nll, pool)

    rel_n = shape.n_relations
    rank_filter = reference.true_objects(graph.raw, rel_n, ("train", "valid", "test"))
    nll_filter = reference.true_objects(graph.raw, rel_n, ("train",))
    ent, rel = model.entities.value, model.relations.value
    pick = np.random.default_rng(seed + 2).choice(n_test, SAMPLE_TRIPLES, replace=False)
    for i in pick.tolist():
        s, r, o = store.test[i]
        z = reference.distmult_states(ent, rel, [s], [r]) @ ent.T
        logp = reference.log_softmax_rows(z)[0]
        z = z[0]
        filt = rank_filter[(s, r)] - {o}
        want = reference.brute_rank(z, o, filt)
        got = full.per_query[i]["rank"]
        out.check(got == want, f"rank of test triple {i}: {got} != brute force {want}")
        want = reference.brute_rank(z, o, filt, pool=set(pools[i]) | {o})
        got = pool.per_query[i]["rank"]
        out.check(got == want, f"pool rank of test triple {i}: {got} != brute force {want}")
        want = reference.brute_filtered_nll(logp, o, nll_filter.get((s, r), set()))
        row = nll.per_query[i]
        if want is None:
            out.check(row.get("skipped", False), f"test triple {i} should be skipped by NLL")
        else:
            got = row.get("nll", math.nan)
            out.check(abs(got - want) <= 1e-9 * max(1.0, abs(want)),
                      f"NLL of test triple {i}: {got} != brute force {want}")
    out.info["mrr"], out.info["pool_mrr"] = full.mrr, pool.mrr
    out.info["mean_filtered_nll"] = nll.mean_nll
    return out


def _check_summaries(out: Outcome, summary: dict, full, nll, pool):
    for name, report in (("full", full), ("pool", pool)):
        want = reference.ranking_summary([q["rank"] for q in report.per_query])
        out.check(abs(report.mrr - want["mrr"]) <= 1e-12, f"{name} MRR disagrees with its ranks")
        out.check(abs(report.mr - want["mr"]) <= 1e-9, f"{name} MR disagrees with its ranks")
        out.check(report.hits == want["hits"], f"{name} Hits disagree with its ranks")
    out.check(summary["mrr"] == full.mrr and summary["mr"] == full.mr,
              "evaluate_model summary differs from its ranking report")
    out.check(summary["hits"] == {f"hits@{k}": v for k, v in full.hits.items()},
              "evaluate_model Hits differ from its ranking report")
    scored = [q["nll"] for q in nll.per_query if not q.get("skipped")]
    mean = sum(scored) / len(scored)
    out.check(abs(summary["mean_filtered_nll"] - mean) <= 1e-9 * abs(mean),
              "mean filtered NLL disagrees with the per-query NLLs")


# ---- analysis ----

# Enumeration inputs are fixed, so that the one known-failing case fails in
# every run and no other case can fail on an unlucky seed.
ENUMERATIONS = (
    ("signs", 6, 2, 0),
    ("signs", 6, 3, 0),
    ("rankings", 5, 2, 0),
    ("rankings", 5, 3, 0),
    # fails today: the sampled cross-check misses thin chambers and raises
    ("rankings", 5, 3, 11),
)
KNOWN_FAILING = {"rankings-5-3-seed11"}
DECOMPOSE = ((16, 16, 4), (12, 20, 5), (40, 40, 8))  # rows, cols, max degree
DR_CHECKS = ((10, 10, 0.5, 2), (12, 12, 0.3, 3))  # rows, cols, density, dim
PROBE_ENTITIES, PROBE_DIM, PROBE_QUERIES = 8, 2, 64


def _adjacency(rows, cols, max_degree, rng) -> np.ndarray:
    adj = np.zeros((rows, cols), dtype=np.int64)
    for i in range(rows):
        adj[i, rng.permutation(cols)[: rng.integers(0, max_degree + 1)]] = 1
    return adj


def _theory_cases(seed: int) -> list[tuple[str, object, tuple]]:
    """(case id, function, arguments) for one round of the analysis list."""
    cases = []
    for kind, n, d, s in ENUMERATIONS:
        e = np.random.default_rng(s).standard_normal((n, d))
        fn = "enumerate_feasible_signs" if kind == "signs" else "enumerate_feasible_rankings"
        cases.append((f"{kind}-{n}-{d}-seed{s}", fn, (e,)))
    rng = np.random.default_rng(seed)
    for rows, cols, c in DECOMPOSE:
        cases.append((f"decompose-{rows}x{cols}", "decompose", (_adjacency(rows, cols, c, rng),)))
    for rows, cols, density, dim in DR_CHECKS:
        target = (rng.random((rows, cols)) < density).astype(np.int64)
        cases.append((f"dr-{rows}x{cols}-d{dim}", "dr_obstruction_check", (target, dim)))
    for layer in ("softmax", "mos"):
        model = kg.models.init_model("distmult", PROBE_ENTITIES, 1, PROBE_DIM, rng=rng)
        mos = kg.mos.init_mos(4, PROBE_DIM, rng) if layer == "mos" else None
        states = rng.standard_normal((PROBE_QUERIES, PROBE_DIM))
        cases.append((f"probe-{layer}", "probe", (kg.models.Scorer(model, mos), states)))
    return cases


def _run_case(fn: str, args):
    if fn == "decompose":
        dec = kg.theory.sign_decompose(args[0])
        return dec, kg.theory.verify_sign_decomposition(args[0], dec)
    if fn == "probe":
        scorer, states = args
        return kg.theory.logprob_rank_probe(scorer.log_probs_from_states(states), PROBE_DIM)
    return getattr(kg.theory, fn)(*args)


def run_theory(seed: int, seconds: float) -> Outcome:
    cases, setup_times, setup_window = _setups(SETUP_REPS["theory"], lambda: _theory_cases(seed))
    for _, fn, args in cases:
        if not fn.startswith("enumerate"):
            _run_case(fn, args)  # warm-up on the short cases

    results: dict[str, object] = {}
    failures: list[set] = []

    def one_round():
        failed = set()
        for cid, fn, args in cases:
            try:
                results[cid] = _run_case(fn, args)
            except Exception as exc:  # a failed case is counted, not fatal
                results[cid] = exc
                failed.add(cid)
        failures.append(failed)

    t0, t1, times = timed_rounds(one_round, seconds)
    out = Outcome(
        setup_times=setup_times,
        setup_window=setup_window,
        window=(t0, t1),
        round_times=times,
        items_per_round=len(cases),
        attempted=len(cases) * len(times),
        failed=sum(len(f) for f in failures),
    )
    out.check(all(f == failures[0] for f in failures), "failures differ between rounds")
    unexpected = failures[-1] - KNOWN_FAILING
    out.check(not unexpected, f"cases failed: {sorted(unexpected)}: "
              + "; ".join(str(results[c]) for c in sorted(unexpected)))
    out.info["failed_cases"] = sorted(failures[-1])
    for cid, fn, args in cases:
        if cid not in failures[-1]:
            _check_case(out, cid, fn, args, results[cid])
    return out


def _check_case(out: Outcome, cid: str, fn: str, args, result):
    if fn == "enumerate_feasible_signs":
        e = args[0]
        n, d = e.shape
        want = reference.sign_count(n, d)
        out.check(result.count == want, f"{cid}: {result.count} patterns, closed form {want}")
        bad = [p for p in result.patterns
               if not reference.witness_realises_signs(e, result.witnesses[p], p)]
        out.check(not bad, f"{cid}: witnesses fail for {bad[:3]}")
    elif fn == "enumerate_feasible_rankings":
        e = args[0]
        n, d = e.shape
        want = reference.ordering_count(n, d)
        out.check(result.count == want, f"{cid}: {result.count} orderings, closed form {want}")
        bad = [p for p in result.rankings
               if not reference.witness_realises_ordering(e, result.witnesses[p], p)]
        out.check(not bad, f"{cid}: witnesses fail for {bad[:3]}")
    elif fn == "decompose":
        adj = args[0]
        dec, ver = result
        c = int(adj.sum(axis=1).max())
        out.check(dec.width == 2 * c + 1, f"{cid}: width {dec.width}, want {2 * c + 1}")
        out.check(ver.ok, f"{cid}: decomposition does not verify")
        for i, row in enumerate(dec.coefficient_matrix_exact()):
            if reference.poly_signs_exact(row, adj.shape[1]) != (2 * adj[i] - 1).tolist():
                out.check(False, f"{cid}: row {i} signs differ in exact arithmetic")
                break
    elif fn == "dr_obstruction_check":
        import sympy

        target, dim = args
        want = int(sympy.Matrix(target.tolist()).rank())
        out.check(result.target_rank == want, f"{cid}: rank {result.target_rank}, sympy {want}")
        out.check(result.excluded == (want > dim + 1), f"{cid}: wrong verdict")
    elif fn == "probe":
        cap = PROBE_DIM + 1
        if cid == "probe-softmax":
            out.check(result.rank <= cap, f"{cid}: softmax rank {result.rank} > d + 1")
        else:
            out.check(result.rank > cap, f"{cid}: mixture rank {result.rank} <= d + 1")
        out.info[cid + "_rank"] = result.rank


WORKLOADS = {
    "train-softmax": lambda seed, seconds: run_train("softmax", seed, seconds),
    "train-mos": lambda seed, seconds: run_train("mos", seed, seconds),
    "eval-fb15k": run_eval,
    "theory": run_theory,
}
