"""Command-line front end: stats, train, eval, and analysis subcommands.

All structured output is strict JSON, with NaN and infinities written as
null (stdout by default, --out to write a file).
Setting KGMIX_NUM_THREADS caps the BLAS thread pools, which is also what
makes runs bitwise reproducible across machines with the same core count.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction

import numpy as np

from . import evaluate as eval_mod
from . import theory
from .graph import augment_inverse, dataset_stats, load_triples, query_labels
from .models import Scorer, init_model, load_checkpoint, save_checkpoint
from .mos import init_mos
from .train import TrainConfig, train_loop


def _finite(obj):
    """obj with every NaN or infinite float, at any depth, replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _json(obj, indent: int | None = None) -> str:
    """Strict JSON text with sorted keys: NaN and infinities become null."""
    return json.dumps(_finite(obj), indent=indent, sort_keys=True, allow_nan=False)


def _emit(obj: dict, out: str | None):
    text = _json(obj, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---- stats ----


def cmd_stats(args) -> int:
    store = load_triples(args.dataset, strict=args.strict)
    _emit(dataset_stats(store), args.out)
    return 0


# ---- train ----


def cmd_train(args) -> int:
    config = TrainConfig(
        encoder=args.encoder,
        output_layer=args.output_layer,
        dim=args.dim,
        k=args.k,
        lr=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        patience=args.patience,
        dropout=args.dropout,
        entropy_weight=args.entropy_weight,
        seed=args.seed,
    )
    config.validate()  # before anything is written
    store = load_triples(args.dataset)
    if not args.no_inverses:
        store = augment_inverse(store)
    os.makedirs(args.out, exist_ok=True)

    history_path = os.path.join(args.out, "history.jsonl")
    history_fh = open(history_path, "w", encoding="utf-8")

    def progress(rec):
        history_fh.write(_json(rec.to_dict()) + "\n")
        history_fh.flush()
        if not args.quiet:
            print(
                f"epoch {rec.epoch:3d}  loss {rec.train_loss:.6f}  "
                f"val_mrr {rec.val_mrr:.4f}  {rec.wall_time:.1f}s"
            )

    try:
        result = train_loop(store, config, progress=progress)
    finally:
        history_fh.close()

    extra = {
        "inverse_augmented": store.inverse_augmented,
        "config": asdict(config),
        "best_epoch": result.best_epoch,
    }
    ckpt_path = os.path.join(args.out, "checkpoint.kgm")
    save_checkpoint(ckpt_path, result.model, result.mos, extra=extra)

    meta = {
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "dataset": args.dataset,
        "config": asdict(config),
        "n_entities": store.n_entities,
        "n_relations": store.n_relations,
        "n_train_queries": result.n_queries,
        "epochs_run": len(result.history),
        "best_epoch": result.best_epoch,
        "checkpoint": "checkpoint.kgm",
    }
    if store.valid:
        scorer = Scorer(result.model, result.mos)
        meta["valid_eval"] = eval_mod.evaluate_model(scorer, store, split="valid")
    _emit(meta, os.path.join(args.out, "meta.json"))
    if not args.quiet:
        print(f"wrote {ckpt_path} (best epoch {result.best_epoch})")
    return 0


# ---- eval ----


def _read_candidates(path: str, store, n_triples: int) -> list[list[int]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != n_triples:
        raise ValueError(
            f"{path}: {len(lines)} candidate lines for {n_triples} triples"
        )
    out = []
    for lineno, line in enumerate(lines, start=1):
        ids = []
        for label in line.split("\t"):
            label = label.strip()
            if not label:
                continue
            if label not in store.entity_ids:
                raise ValueError(f"{path}:{lineno}: unknown entity {label!r}")
            ids.append(store.entity_ids[label])
        out.append(ids)
    return out


def cmd_eval(args) -> int:
    model, mos_params, extra = load_checkpoint(args.checkpoint)
    store = load_triples(args.dataset)
    if extra.get("inverse_augmented", False):
        store = augment_inverse(store)
    if store.n_entities != model.n_entities or store.n_relations != model.n_relations:
        raise ValueError(
            f"checkpoint was trained on {model.n_entities} entities / "
            f"{model.n_relations} relations, dataset has {store.n_entities} / "
            f"{store.n_relations}"
        )
    candidates = None
    if args.candidates:
        candidates = _read_candidates(args.candidates, store, len(store.split(args.split)))
    nll_filter = ("train",) if args.nll_filter == "train" else ("train", "valid")

    report = eval_mod.evaluate_model(
        Scorer(model, mos_params), store, args.split, args.rank_mode, candidates,
        nll_filter, per_query=bool(args.per_query),
    )
    rows = report.pop("per_query", [])
    report["checkpoint"] = args.checkpoint
    _emit(report, args.out)
    if args.per_query:
        with open(args.per_query, "w", encoding="utf-8") as fh:
            fh.writelines(_json(row) + "\n" for row in rows)
    return 0


# ---- analyze ----


def cmd_bound(args) -> int:
    _emit(
        {
            "n": args.n,
            "dim": args.dim,
            "feasible_sign_bound": theory.feasible_sign_bound(args.n, args.dim),
        },
        args.out,
    )
    return 0


def cmd_signs(args) -> int:
    rng = np.random.default_rng(args.seed)
    e = rng.standard_normal((args.n, args.dim))
    enum = theory.enumerate_feasible_signs(e)
    _emit(
        {
            "n": args.n,
            "dim": args.dim,
            "seed": args.seed,
            "count": enum.count,
            "bound": enum.bound,
            "patterns": ["".join("+" if x > 0 else "-" for x in p) for p in enum.patterns],
        },
        args.out,
    )
    return 0


def cmd_rankings(args) -> int:
    rng = np.random.default_rng(args.seed)
    e = rng.standard_normal((args.n, args.dim))
    enum = theory.enumerate_feasible_rankings(e)
    _emit(
        {
            "n": args.n,
            "dim": args.dim,
            "seed": args.seed,
            "count": enum.count,
            "rankings": [list(p) for p in enum.rankings],
        },
        args.out,
    )
    return 0


# adjacency larger than this (cells) is refused for decomposition runs
DECOMPOSE_CELL_CAP = 2_000_000


def _dataset_adjacency(path: str):
    store = load_triples(path)
    _, _, ptr, cols = query_labels(store, ("train", "valid", "test"))
    n_pairs = len(ptr) - 1
    cells = n_pairs * store.n_entities
    if cells > DECOMPOSE_CELL_CAP:
        raise ValueError(
            f"adjacency would have {cells} cells "
            f"(cap {DECOMPOSE_CELL_CAP}); use a smaller dataset"
        )
    adj = np.zeros((n_pairs, store.n_entities), dtype=np.int64)
    adj[np.repeat(np.arange(n_pairs), np.diff(ptr)), cols] = 1
    return adj


def cmd_decompose(args) -> int:
    try:
        epsilon = Fraction(args.epsilon)
    except ZeroDivisionError:
        raise ValueError(f"epsilon {args.epsilon} has a zero denominator") from None
    if args.dataset:
        adj = _dataset_adjacency(args.dataset)
    else:
        if args.rows is None or args.cols is None or args.max_degree is None:
            raise ValueError("need --dataset, or --rows/--cols/--max-degree")
        rng = np.random.default_rng(args.seed)
        adj = theory.random_adjacency(args.rows, args.cols, args.max_degree, rng)
    dec = theory.sign_decompose(adj, epsilon=epsilon, merge_blocks=not args.no_merge)
    check = theory.verify_sign_decomposition(adj, dec)
    _emit(
        {
            "rows": dec.n_rows,
            "cols": dec.n_cols,
            "degree_cap": dec.degree_cap,
            "width": dec.width,
            "epsilon": str(dec.epsilon),
            "merged_blocks": not args.no_merge,
            "verified": check.ok,
            "min_margin": check.min_margin,
            "rational_checked": check.rational_checked,
            "mismatches": len(check.mismatches),
        },
        args.out,
    )
    return 0 if check.ok else 1


def cmd_dr_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    target = (rng.random((args.rows, args.cols)) < args.density).astype(np.int64)
    check = theory.dr_obstruction_check(target, args.dim)
    _emit(
        {
            "rows": args.rows,
            "cols": args.cols,
            "density": args.density,
            "seed": args.seed,
            "dim": check.dim,
            "target_rank": check.target_rank,
            "capacity": check.capacity,
            "verdict": check.verdict,
        },
        args.out,
    )
    return 0


def cmd_logprob_rank(args) -> int:
    rng = np.random.default_rng(args.seed)
    model = init_model("distmult", args.entities, 1, args.dim, seed=args.seed, rng=rng)
    mos_params = init_mos(args.k, args.dim, rng) if args.output_layer == "mos" else None
    states = np.random.default_rng(args.seed + 1).standard_normal((args.queries, args.dim))
    probe = theory.logprob_rank_probe(
        Scorer(model, mos_params).log_probs_from_states(states), args.dim, rel_tol=args.rel_tol
    )
    _emit(
        {
            "entities": args.entities,
            "dim": args.dim,
            "queries": args.queries,
            "output_layer": args.output_layer,
            "k": args.k if args.output_layer == "mos" else None,
            "seed": args.seed,
            "rank": probe.rank,
            "centered_alr_rank": probe.centered_alr_rank,
            "sigma_after_capacity": probe.sigma_after_capacity,
            "capacity": probe.capacity,
            "within_single_softmax": probe.within_single_softmax,
        },
        args.out,
    )
    return 0


# ---- parser ----


def _add_out(p):
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgmix",
        description="Knowledge-graph link prediction with softmax or "
        "mixture-of-softmaxes output layers, plus rank analysis tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="dataset summary with degree statistics")
    p.add_argument("--dataset", required=True)
    p.add_argument("--strict", action="store_true",
                   help="reject labels first seen outside train")
    _add_out(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--encoder", choices=("distmult", "rescal", "mlp"),
                   default="distmult")
    p.add_argument("--output-layer", choices=("softmax", "mos"), default="softmax")
    p.add_argument("--k", type=int, default=4, help="mixture components")
    p.add_argument("--dim", type=int, default=200)
    p.add_argument("--lr", type=float, default=None,
                   help="default: 1e-3 for distmult, 1e-4 otherwise")
    p.add_argument("--batch", type=int, default=1000)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--patience", type=int, default=8)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--entropy-weight", type=float, default=1e-3)
    p.add_argument("--no-inverses", action="store_true",
                   help="skip inverse-relation augmentation")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="rank a split with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")
    p.add_argument("--rank-mode", choices=("optimistic", "pessimistic"),
                   default="optimistic")
    p.add_argument("--candidates", default=None,
                   help="file with one tab-separated entity-label line per triple "
                        "of the split; with inverses, the raw triples then their inverses")
    p.add_argument("--nll-filter", choices=("train", "train+valid"), default="train")
    p.add_argument("--per-query", default=None, help="write per-query JSONL here")
    _add_out(p)
    p.set_defaults(func=cmd_eval)

    pa = sub.add_parser("analyze", help="rank/feasibility analysis tools")
    asub = pa.add_subparsers(dest="analysis", required=True)

    p = asub.add_parser("bound", help="feasible sign-pattern count bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    _add_out(p)
    p.set_defaults(func=cmd_bound)

    p = asub.add_parser("signs", help="enumerate feasible sign patterns")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)
    p.set_defaults(func=cmd_signs)

    p = asub.add_parser("rankings", help="enumerate feasible score orderings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)
    p.set_defaults(func=cmd_rankings)

    p = asub.add_parser(
        "decompose", help="sign-decompose an adjacency into 2c+1 dimensions"
    )
    p.add_argument("--dataset", default=None)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon", default="1/2",
                   help="root offset as a fraction, strictly inside (0, 1)")
    p.add_argument("--no-merge", action="store_true",
                   help="one root pair per neighbor instead of per block")
    _add_out(p)
    p.set_defaults(func=cmd_decompose)

    p = asub.add_parser("dr-check", help="exact-rank obstruction for a 0/1 target")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    _add_out(p)
    p.set_defaults(func=cmd_dr_check)

    p = asub.add_parser(
        "logprob-rank", help="numerical rank of a sampled log-probability matrix"
    )
    p.add_argument("--entities", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--queries", type=int, required=True)
    p.add_argument("--output-layer", choices=("softmax", "mos"), default="softmax")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rel-tol", type=float, default=1e-8)
    _add_out(p)
    p.set_defaults(func=cmd_logprob_rank)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
