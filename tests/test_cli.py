"""End-to-end command-line runs: artifact layout, JSON contents against
in-process computations, determinism of repeated runs, and error exits."""
import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from kgmix.cli import main
from kgmix.evaluate import filtered_nll, ranking_metrics
from kgmix.graph import augment_inverse, load_triples
from kgmix.models import Scorer, load_checkpoint

TOY = dict(
    train=[("e0", "r0", "e1"), ("e0", "r0", "e2"), ("e1", "r0", "e2"),
           ("e2", "r1", "e3"), ("e3", "r0", "e4"), ("e4", "r1", "e5"),
           ("e5", "r0", "e0"), ("e1", "r1", "e3")],
    valid=[("e0", "r1", "e3"), ("e2", "r0", "e4")],
    test=[("e1", "r0", "e4"), ("e3", "r1", "e5")],
)


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main([str(a) for a in argv])
    return rc, buf.getvalue()


def run_json(argv):
    rc, out = run_cli(argv)
    assert rc == 0, out
    return json.loads(out)


@pytest.fixture
def toy_dir(write_dataset):
    return write_dataset(**TOY)


def test_stats_hand_checked(toy_dir, tmp_path):
    out_file = tmp_path / "stats.json"
    rc, _ = run_cli(["stats", "--dataset", toy_dir, "--out", out_file])
    assert rc == 0
    stats = json.loads(out_file.read_text())
    assert stats["entities"] == 6
    assert stats["triples"] == {
        "train": 8, "valid": 2, "test": 2, "total_raw": 12, "unique": 12
    }
    fwd = stats["without_inverses"]
    assert fwd["relations"] == 2
    assert fwd["query_pairs"] == 10
    assert fwd["out_degree_max"] == 2
    assert fwd["sufficient_dim"] == 5
    inv = stats["with_inverses"]
    assert inv["relations"] == 4
    assert inv["query_pairs"] == 16
    assert inv["out_degree_max"] == 3
    assert inv["sufficient_dim"] == 7


def _train(toy_dir, out_dir, seed=0):
    return run_cli([
        "train", "--dataset", toy_dir, "--out", out_dir, "--encoder",
        "distmult", "--output-layer", "mos", "--k", "2", "--dim", "3",
        "--lr", "0.05", "--batch", "8", "--epochs", "3", "--patience", "5",
        "--dropout", "0.1", "--seed", seed, "--quiet",
    ])


def test_train_writes_artifacts(toy_dir, tmp_path):
    out_dir = tmp_path / "run"
    rc, _ = _train(toy_dir, out_dir)
    assert rc == 0
    history = [json.loads(l) for l in
               (out_dir / "history.jsonl").read_text().splitlines()]
    meta = json.loads((out_dir / "meta.json").read_text())
    assert len(history) == meta["epochs_run"] == 3
    assert [h["epoch"] for h in history] == [1, 2, 3]
    assert all(set(h) == {"epoch", "train_loss", "val_mrr", "wall_time"}
               for h in history)
    assert meta["n_entities"] == 6
    assert meta["n_relations"] == 4  # inverse relations added by default
    assert meta["best_epoch"] in (1, 2, 3)
    assert meta["config"]["encoder"] == "distmult"
    assert "valid_eval" in meta and "mrr" in meta["valid_eval"]

    model, mos_params, extra = load_checkpoint(str(out_dir / "checkpoint.kgm"))
    assert model.dim == 3 and mos_params.k == 2
    assert extra["inverse_augmented"] is True
    assert extra["best_epoch"] == meta["best_epoch"]


def test_train_determinism_modulo_timestamps(toy_dir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _train(toy_dir, a)[0] == 0
    assert _train(toy_dir, b)[0] == 0
    assert (a / "checkpoint.kgm").read_bytes() == (b / "checkpoint.kgm").read_bytes()

    def strip(h):
        return [{k: v for k, v in rec.items() if k != "wall_time"}
                for rec in map(json.loads, h.read_text().splitlines())]

    assert strip(a / "history.jsonl") == strip(b / "history.jsonl")
    ma = json.loads((a / "meta.json").read_text())
    mb = json.loads((b / "meta.json").read_text())
    ma.pop("created_utc"), mb.pop("created_utc")
    assert ma == mb


def test_train_no_inverses(toy_dir, tmp_path):
    out_dir = tmp_path / "run"
    rc, _ = run_cli([
        "train", "--dataset", toy_dir, "--out", out_dir, "--dim", "2",
        "--epochs", "1", "--batch", "8", "--no-inverses", "--quiet",
    ])
    assert rc == 0
    meta = json.loads((out_dir / "meta.json").read_text())
    assert meta["n_relations"] == 2
    _, _, extra = load_checkpoint(str(out_dir / "checkpoint.kgm"))
    assert extra["inverse_augmented"] is False


def test_eval_matches_in_process(toy_dir, tmp_path):
    out_dir = tmp_path / "run"
    assert _train(toy_dir, out_dir)[0] == 0
    report = run_json([
        "eval", "--checkpoint", out_dir / "checkpoint.kgm",
        "--dataset", toy_dir, "--split", "test",
    ])

    model, mos_params, _ = load_checkpoint(str(out_dir / "checkpoint.kgm"))
    store = augment_inverse(load_triples(toy_dir))
    scorer = Scorer(model, mos_params)
    want_ranks = ranking_metrics(scorer.scores, store, "test")
    want_nll = filtered_nll(scorer.log_probs, store, "test", ("train",))
    assert report["mrr"] == want_ranks.mrr
    assert report["mr"] == want_ranks.mr
    assert report["hits"]["hits@1"] == want_ranks.hits[1]
    assert report["mean_filtered_nll"] == want_nll.mean_nll
    assert report["n_queries"] == 4  # two test triples plus their inverses
    assert report["rank_mode"] == "optimistic"
    assert report["nll_filter"] == ["train"]


def test_eval_per_query_and_modes(toy_dir, tmp_path):
    out_dir = tmp_path / "run"
    assert _train(toy_dir, out_dir)[0] == 0
    pq = tmp_path / "per_query.jsonl"
    opt = run_json([
        "eval", "--checkpoint", out_dir / "checkpoint.kgm", "--dataset",
        toy_dir, "--per-query", pq, "--nll-filter", "train+valid",
    ])
    rows = [json.loads(l) for l in pq.read_text().splitlines()]
    assert len(rows) == 4
    assert all({"s", "r", "o", "rank"} <= set(row) for row in rows)
    assert all(("nll" in row) or row.get("nll_skipped") for row in rows)
    assert opt["nll_filter"] == ["train", "valid"]

    pes = run_json([
        "eval", "--checkpoint", out_dir / "checkpoint.kgm", "--dataset",
        toy_dir, "--rank-mode", "pessimistic",
    ])
    assert pes["rank_mode"] == "pessimistic"
    assert pes["mrr"] <= opt["mrr"] + 1e-12


def test_eval_with_candidates(toy_dir, tmp_path):
    out_dir = tmp_path / "run"
    assert _train(toy_dir, out_dir)[0] == 0
    cand = tmp_path / "cands.txt"
    cand.write_text("e0\te4\ne1\te5\ne2\te4\ne3\te5\n")  # 4 augmented triples
    report = run_json([
        "eval", "--checkpoint", out_dir / "checkpoint.kgm", "--dataset",
        toy_dir, "--candidates", cand,
    ])
    assert report["n_queries"] == 4

    cand.write_text("e0\n")  # wrong line count
    rc, _ = run_cli([
        "eval", "--checkpoint", out_dir / "checkpoint.kgm", "--dataset",
        toy_dir, "--candidates", cand,
    ])
    assert rc == 1

    cand.write_text("e0\tnobody\ne1\ne2\ne3\n")
    rc, _ = run_cli([
        "eval", "--checkpoint", out_dir / "checkpoint.kgm", "--dataset",
        toy_dir, "--candidates", cand,
    ])
    assert rc == 1


def test_eval_rejects_mismatched_dataset(toy_dir, tmp_path, write_dataset):
    out_dir = tmp_path / "run"
    assert _train(toy_dir, out_dir)[0] == 0
    other = write_dataset(train=[("x", "r", "y")], valid=[], test=[("x", "r", "y")])
    rc, _ = run_cli([
        "eval", "--checkpoint", out_dir / "checkpoint.kgm", "--dataset", other,
    ])
    assert rc == 1


def test_eval_reports_a_checkpoint_missing_an_array(toy_dir, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert _train(toy_dir, out_dir)[0] == 0
    path = out_dir / "checkpoint.kgm"
    head, blob = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    header["arrays"] = [a for a in header["arrays"] if a["name"] != "relations"]
    path.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    rc, _ = run_cli(["eval", "--checkpoint", path, "--dataset", toy_dir])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing array 'relations'" in err


def test_analyze_bound():
    out = run_json(["analyze", "bound", "--n", 4, "--dim", 2])
    assert out == {"n": 4, "dim": 2, "feasible_sign_bound": 8}


def test_analyze_signs():
    out = run_json(["analyze", "signs", "--n", 4, "--dim", 2, "--seed", 0])
    assert out["count"] == out["bound"] == 8
    assert len(out["patterns"]) == 8
    assert all(len(p) == 4 and set(p) <= {"+", "-"} for p in out["patterns"])


def test_analyze_rankings():
    out = run_json(["analyze", "rankings", "--n", 3, "--dim", 1, "--seed", 0])
    assert out["count"] == 2
    assert out["rankings"][0] == out["rankings"][1][::-1]


def test_analyze_decompose_random():
    out = run_json([
        "analyze", "decompose", "--rows", 5, "--cols", 6, "--max-degree", 2,
        "--seed", 1,
    ])
    assert out["verified"] is True
    assert out["width"] == 2 * out["degree_cap"] + 1
    assert out["mismatches"] == 0
    assert out["min_margin"] > 0
    assert out["epsilon"] == "1/2"


def test_analyze_decompose_dataset(toy_dir):
    out = run_json([
        "analyze", "decompose", "--dataset", toy_dir, "--epsilon", "1/3",
        "--no-merge",
    ])
    # union adjacency of the toy graph: 10 query pairs over 6 entities,
    # max out-degree 2
    assert out["rows"] == 10 and out["cols"] == 6
    assert out["degree_cap"] == 2 and out["width"] == 5
    assert out["verified"] is True and out["rational_checked"] is True
    assert out["merged_blocks"] is False


def test_analyze_decompose_needs_input():
    rc, _ = run_cli(["analyze", "decompose", "--rows", "5"])
    assert rc == 1


def test_analyze_dr_check():
    out = run_json([
        "analyze", "dr-check", "--rows", 4, "--cols", 4, "--dim", 1,
        "--density", 1.0, "--seed", 0,
    ])
    # density 1 gives the all-ones matrix: rank 1, within capacity 2
    assert out["target_rank"] == 1
    assert out["capacity"] == 2
    assert out["verdict"] == "not-excluded"


def test_analyze_logprob_rank_frozen():
    base = ["analyze", "logprob-rank", "--entities", 8, "--dim", 2,
            "--queries", 12, "--seed", 0]
    plain = run_json(base + ["--output-layer", "softmax"])
    assert plain["rank"] == 3 and plain["within_single_softmax"] is True
    mixed = run_json(base + ["--output-layer", "mos", "--k", 4])
    assert mixed["rank"] == 8 and mixed["within_single_softmax"] is False
    assert mixed["capacity"] == 3


def test_analyze_manifold_frozen(tmp_path):
    points = tmp_path / "pts.csv"
    base = ["analyze", "manifold", "--entities", 8, "--dim", 2,
            "--samples", 12, "--seed", 0]
    plain = run_json(base + ["--output-layer", "softmax", "--points", points])
    assert plain["centered_alr_rank"] == 2 == plain["single_softmax_affine_dim"]
    pts = np.loadtxt(points, delimiter=",")
    assert pts.shape == (12, 8)
    assert np.abs(pts.sum(axis=1) - 1.0).max() <= 1e-9
    mixed = run_json(base + ["--output-layer", "mos", "--k", 4])
    assert mixed["centered_alr_rank"] == 7 > 2


def test_missing_dataset_is_handled():
    rc, _ = run_cli(["stats", "--dataset", "/nonexistent/path"])
    assert rc == 1


def test_invalid_train_config_is_handled(toy_dir, tmp_path):
    rc, _ = run_cli([
        "train", "--dataset", toy_dir, "--out", tmp_path / "x",
        "--dropout", "1.0", "--epochs", "1", "--quiet",
    ])
    assert rc == 1


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kgmix.cli", "analyze", "bound", "--n", "3",
         "--dim", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["feasible_sign_bound"] == 6
