"""Per-layer metrics: which calls the traced run wraps, and how its spans
become the numbers listed under ``per_layer`` in BENCHMARK.json.

Every target is the name a caller looks the function up by: ``train``
imports ``encode``, ``mixture_log_prob`` and ``ranking_metrics`` by name,
so those are wrapped in ``kgmix.train``; ``Scorer`` reaches
``mixture_log_prob`` through ``kgmix.mos``; tape ops are methods found on
the ``Tape`` class.  Times and counts are per round of the timed window
(an epoch, an evaluation pass, a pass over the analysis cases); names that
start with ``setup.`` are per set-up instead.
"""
from __future__ import annotations

import statistics

from tracer import TapeWatch, Tracer, node_bytes

WRAPS = (
    ("kgmix.graph:build_query_index", "graph.build_query_index"),
    ("kgmix.train:build_query_index", "graph.build_query_index"),
    ("kgmix.evaluate:build_query_index", "graph.build_query_index"),
    ("kgmix.graph:augment_inverse", "graph.augment_inverse"),
    ("kgmix.train:query_label_matrix", "train.query_label_matrix"),
    ("kgmix.train:ce_loss", "train.ce_loss"),
    ("kgmix.train:Adam.step", "train.Adam.step"),
    ("kgmix.train:ranking_metrics", "train.validation"),
    ("kgmix.train:encode", "models.encode"),
    ("kgmix.models:encode", "models.encode"),
    ("kgmix.models:init_model", "models.init_model"),
    ("kgmix.models:Scorer.scores", "models.Scorer.scores"),
    ("kgmix.models:Scorer.log_probs", "models.Scorer.log_probs"),
    ("kgmix.train:mixture_log_prob", "mos.mixture_log_prob"),
    ("kgmix.mos:mixture_log_prob", "mos.mixture_log_prob"),
    ("kgmix.mos:project", "mos.project"),
    ("kgmix.train:priors", "mos.priors"),
    ("kgmix.evaluate:filtered_nll", "evaluate.filtered_nll"),
    ("kgmix.evaluate:filtered_rank", "evaluate.filtered_rank"),
    ("kgmix.evaluate:evaluate_model", "evaluate.evaluate_model"),
    ("kgmix.theory:enumerate_feasible_signs", "theory.enumerate_feasible_signs"),
    ("kgmix.theory:enumerate_feasible_rankings", "theory.enumerate_feasible_rankings"),
    ("kgmix.theory:sign_decompose", "theory.sign_decompose"),
    ("kgmix.theory:verify_sign_decomposition", "theory.verify_sign_decomposition"),
    ("kgmix.theory:dr_obstruction_check", "theory.dr_obstruction_check"),
    ("kgmix.theory:logprob_rank_probe", "theory.logprob_rank_probe"),
    ("kgmix.linalg:numerical_rank", "linalg.numerical_rank"),
    ("kgmix.linalg:exact_rank_binary", "linalg.exact_rank_binary"),
)

# tape ops reported per op; every public Tape method is traced
TAPE_OPS = (
    "constant", "gather_rows", "slice_cols", "matmul", "add", "hadamard",
    "affine", "leaky_relu", "dropout", "batch_norm", "row_softmax",
    "row_log_softmax", "stack_logsumexp", "weighted_sum",
)

# (metric, span name, statistic), per set-up
SETUP_METRICS = (
    ("setup.graph.augment_inverse.s", "graph.augment_inverse", "s"),
    ("setup.graph.build_query_index.s", "graph.build_query_index", "s"),
    ("setup.models.init_model.s", "models.init_model", "s"),
)

# (metric, span name, statistic), per round of the timed window
ROUND_METRICS = (
    ("graph.build_query_index.s", "graph.build_query_index", "s"),
    ("graph.build_query_index.calls", "graph.build_query_index", "calls"),
    ("train.validation.s", "train.validation", "s"),
    ("train.query_label_matrix.s", "train.query_label_matrix", "s"),
    ("train.ce_loss.s", "train.ce_loss", "s"),
    ("train.Adam.step.s", "train.Adam.step", "s"),
    ("models.encode.s", "models.encode", "s"),
    ("models.Scorer.scores.s", "models.Scorer.scores", "s"),
    ("models.Scorer.log_probs.s", "models.Scorer.log_probs", "s"),
    ("mos.mixture_log_prob.s", "mos.mixture_log_prob", "s"),
    ("mos.project.s", "mos.project", "s"),
    ("mos.priors.s", "mos.priors", "s"),
    ("autodiff.backward.s", "autodiff.backward", "s"),
    *(
        (f"autodiff.op.{op}.{stat}", f"autodiff.op.{op}", stat)
        for op in TAPE_OPS
        for stat in ("calls", "s", "bytes")
    ),
    ("evaluate.ranking_metrics.self_s", "evaluate.ranking_metrics", "self_s"),
    ("evaluate.filtered_nll.self_s", "evaluate.filtered_nll", "self_s"),
    ("evaluate.candidates.self_s", "evaluate.candidates", "self_s"),
    ("evaluate.filtered_rank.calls", "evaluate.filtered_rank", "calls"),
    ("theory.enumerate_feasible_signs.s", "theory.enumerate_feasible_signs", "s"),
    ("theory.enumerate_feasible_rankings.s", "theory.enumerate_feasible_rankings", "s"),
    ("theory.sign_decompose.s", "theory.sign_decompose", "s"),
    ("theory.verify_sign_decomposition.s", "theory.verify_sign_decomposition", "s"),
    ("theory.dr_obstruction_check.s", "theory.dr_obstruction_check", "s"),
    ("theory.logprob_rank_probe.s", "theory.logprob_rank_probe", "s"),
    ("linalg.numerical_rank.s", "linalg.numerical_rank", "s"),
    ("linalg.exact_rank_binary.s", "linalg.exact_rank_binary", "s"),
)

# metrics computed from the run rather than summed from spans
DERIVED = (
    ("train.epoch.s", "s", "lower"),
    ("autodiff.tape_bytes_per_batch", "bytes", "lower"),
    ("autodiff.tapes_alive.max", "count", "lower"),
    ("trace.items_per_s", "items/s", "higher"),
    ("trace.uncovered_share", "share", "lower"),
)

UNITS = {"s": "s", "self_s": "s", "calls": "count", "bytes": "bytes"}


def per_layer_spec() -> list[dict]:
    """The ``per_layer`` list of BENCHMARK.json, in report order."""
    out = [
        {"name": m, "unit": UNITS[stat], "better": "lower"}
        for m, _, stat in SETUP_METRICS + ROUND_METRICS
    ]
    out += [{"name": m, "unit": u, "better": b} for m, u, b in DERIVED]
    return out


def _ranking_span(args, kwargs) -> str:
    pools = kwargs["candidates"] if "candidates" in kwargs else (args[4] if len(args) > 4 else None)
    return "evaluate.ranking_metrics" if pools is None else "evaluate.candidates"


def install() -> tuple[Tracer, TapeWatch]:
    """Wrap every traced name; undo with ``tracer.restore()``."""
    from kgmix import autodiff

    tracer = Tracer()
    for target, name in WRAPS:
        tracer.wrap(target, name)
    tracer.wrap("kgmix.evaluate:ranking_metrics", chooser=_ranking_span)
    for attr, fn in list(vars(autodiff.Tape).items()):
        if callable(fn) and not attr.startswith("_") and attr != "backward":
            tracer.wrap(f"kgmix.autodiff:Tape.{attr}", f"autodiff.op.{attr}", size=node_bytes)
    watch = TapeWatch(tracer)
    watch.install()
    return tracer, watch


def layer_metrics(tracer: Tracer, watch: TapeWatch, outcome, is_train: bool) -> dict:
    t0, t1 = outcome.window
    rounds = len(outcome.round_times)
    setups = len(outcome.setup_times)
    run = tracer.totals(t0, t1)
    setup = tracer.totals(*outcome.setup_window)
    m = {}
    for metric, span, stat in SETUP_METRICS:
        m[metric] = setup.get(span, {}).get(stat, 0) / setups
    for metric, span, stat in ROUND_METRICS:
        m[metric] = run.get(span, {}).get(stat, 0) / rounds
    held = [b for t, b in watch.tape_bytes if t0 <= t < t1]
    alive = [n for t, n in watch.alive_after_backward if t0 <= t < t1]
    m["train.epoch.s"] = statistics.median(outcome.round_times) if is_train else 0.0
    m["autodiff.tape_bytes_per_batch"] = statistics.median(held) if held else 0
    m["autodiff.tapes_alive.max"] = max(alive) if alive else 0
    m["trace.items_per_s"] = outcome.items_per_s
    m["trace.uncovered_share"] = tracer.uncovered_share(t0, t1)
    units = {d["name"]: d["unit"] for d in per_layer_spec()}
    return {k: {"value": v, "unit": units[k]} for k, v in m.items()}
