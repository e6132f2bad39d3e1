"""End-to-end command-line runs: artifact layout, JSON contents against
in-process computations, determinism of repeated runs, and error exits."""
import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgmix.cli import _json, build_parser, main
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

README = Path(__file__).resolve().parents[1] / "README.md"


def _subparsers(parser):
    """name -> parser of parser's subcommands."""
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main([str(a) for a in argv])
    return rc, buf.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run_json(argv):
    rc, out = run_cli(argv)
    assert rc == 0, out
    return loads(out)


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
    history = [loads(l) for l in
               (out_dir / "history.jsonl").read_text().splitlines()]
    meta = loads((out_dir / "meta.json").read_text())
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


def test_eval_matches_in_process(toy_dir, tmp_path, monkeypatch):
    out_dir = tmp_path / "run"
    assert _train(toy_dir, out_dir)[0] == 0
    log_probs, calls = Scorer.log_probs, []

    def counting(self, subjects, relations):
        calls.append(len(subjects))
        return log_probs(self, subjects, relations)

    monkeypatch.setattr(Scorer, "log_probs", counting)
    report = run_json([
        "eval", "--checkpoint", out_dir / "checkpoint.kgm",
        "--dataset", toy_dir, "--split", "test",
    ])
    assert calls == []  # the NLL reads the scores too

    model, mos_params, _ = load_checkpoint(str(out_dir / "checkpoint.kgm"))
    store = augment_inverse(load_triples(toy_dir))
    scorer = Scorer(model, mos_params)
    want_ranks = ranking_metrics(scorer.scores, store, "test")
    want_nll = filtered_nll(scorer.scores, store, "test", ("train",))
    logp_nll = filtered_nll(scorer.log_probs, store, "test", ("train",))
    assert report["mrr"] == want_ranks.mrr
    assert report["mr"] == want_ranks.mr
    assert report["hits"]["hits@1"] == want_ranks.hits[1]
    assert report["mean_filtered_nll"] == want_nll.mean_nll
    assert report["mean_filtered_nll"] == pytest.approx(
        logp_nll.mean_nll, rel=1e-12, abs=0
    )
    assert report["n_queries"] == 4  # two test triples plus their inverses
    assert report["rank_mode"] == "optimistic"
    assert report["nll_filter"] == ["train"]


@pytest.mark.parametrize("encoder,output_layer", [("mlp", "softmax"), ("distmult", "mos")])
def test_eval_of_a_fresh_checkpoint_equals_its_training_valid_eval(
    toy_dir, tmp_path, encoder, output_layer
):
    """Training and evaluation run the same forward, leaky-relu slope
    included: kgmix eval on the valid split reproduces, exactly, the
    valid_eval that training wrote to meta.json."""
    out_dir = tmp_path / "run"
    rc, _ = run_cli([
        "train", "--dataset", toy_dir, "--out", out_dir, "--encoder", encoder,
        "--output-layer", output_layer, "--k", "2", "--dim", "3", "--lr", "0.05",
        "--batch", "8", "--epochs", "3", "--dropout", "0.1", "--quiet",
    ])
    assert rc == 0
    want = json.loads((out_dir / "meta.json").read_text())["valid_eval"]
    got = run_json([
        "eval", "--checkpoint", out_dir / "checkpoint.kgm", "--dataset",
        toy_dir, "--split", "valid",
    ])
    assert np.isfinite(want["mean_filtered_nll"])
    for key in ("mrr", "mr", "hits", "mean_filtered_nll", "n_queries"):
        assert got[key] == want[key], key


def test_eval_per_query_and_modes(toy_dir, tmp_path):
    out_dir = tmp_path / "run"
    assert _train(toy_dir, out_dir)[0] == 0
    pq = tmp_path / "per_query.jsonl"
    opt = run_json([
        "eval", "--checkpoint", out_dir / "checkpoint.kgm", "--dataset",
        toy_dir, "--per-query", pq, "--nll-filter", "train+valid",
    ])
    rows = [loads(l) for l in pq.read_text().splitlines()]
    assert len(rows) == 4
    assert all(set(row) in ({"s", "r", "o", "rank", "nll"},
                            {"s", "r", "o", "rank", "nll_skipped"}) for row in rows)
    assert all(row["nll_skipped"] is True for row in rows if "nll_skipped" in row)
    assert opt["nll_filter"] == ["train", "valid"]

    pes = run_json([
        "eval", "--checkpoint", out_dir / "checkpoint.kgm", "--dataset",
        toy_dir, "--rank-mode", "pessimistic",
    ])
    assert pes["rank_mode"] == "pessimistic"
    assert pes["mrr"] <= opt["mrr"] + 1e-12


@pytest.mark.parametrize("split,nll_filter", [("valid", "train+valid"), ("train", "train")])
def test_eval_with_every_nll_query_skipped_writes_null(toy_dir, tmp_path, split, nll_filter):
    """Every true object is in the NLL filter, so no query is scored and the
    mean NLL is undefined: null in the JSON, not NaN."""
    out_dir = tmp_path / "run"
    assert _train(toy_dir, out_dir)[0] == 0
    report = run_json([
        "eval", "--checkpoint", out_dir / "checkpoint.kgm", "--dataset", toy_dir,
        "--split", split, "--nll-filter", nll_filter,
    ])
    assert report["mean_filtered_nll"] is None
    assert report["nll_skipped"] == report["n_queries"] > 0


def test_train_without_valid_split_writes_null_val_mrr(write_dataset, tmp_path):
    data = write_dataset(train=TOY["train"], valid=[], test=TOY["test"])
    out_dir = tmp_path / "run"
    rc, _ = run_cli([
        "train", "--dataset", data, "--out", out_dir, "--dim", "2",
        "--epochs", "2", "--batch", "8", "--quiet",
    ])
    assert rc == 0
    history = [loads(l) for l in (out_dir / "history.jsonl").read_text().splitlines()]
    assert [h["val_mrr"] for h in history] == [None, None]
    assert "valid_eval" not in loads((out_dir / "meta.json").read_text())


def test_json_writer_writes_non_finite_floats_as_null():
    obj = {"b": [math.nan, 1.5], "a": math.inf, "c": (-math.inf, 2)}
    assert _json(obj) == '{"a": null, "b": [null, 1.5], "c": [null, 2]}'


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


@pytest.mark.parametrize("what", ["signs", "rankings"])
@pytest.mark.parametrize("n,dim", [(0, 2), (3, 0)])
def test_analyze_enumerators_reject_empty_shapes(capsys, what, n, dim):
    rc, out = run_cli(["analyze", what, "--n", n, "--dim", dim])
    assert rc == 1 and out == ""
    err = capsys.readouterr().err
    assert err == "error: need n >= 1 and d >= 1\n"


def test_analyze_rankings_thin_chamber():
    """Seed 11 has orderings whose chambers a million random directions miss."""
    out = run_json(["analyze", "rankings", "--n", 5, "--dim", 3, "--seed", 11])
    assert out["count"] == 72 == len(out["rankings"])


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


def test_python_dash_m_runs_the_cli_from_a_checkout():
    """python -m kgmix, with src on PYTHONPATH and no install step."""
    import os
    from pathlib import Path

    import kgmix

    src = str(Path(kgmix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "kgmix", "analyze", "bound", "--n", "8", "--dim", "3"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"dim": 3, "feasible_sign_bound": 58, "n": 8}


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


# Eight entities, two relations, a test triple repeated from valid, and an
# even number of query pairs without inverses (median 2.5).
DEGREE_GRAPH = dict(
    train=[
        (6, 0, 1), (1, 0, 6), (6, 1, 0), (0, 0, 3), (4, 0, 2), (1, 1, 5),
        (3, 1, 4), (3, 0, 5), (4, 0, 5), (6, 1, 6), (2, 0, 5), (5, 1, 6),
        (2, 1, 0), (0, 1, 7), (2, 0, 2), (0, 1, 5), (4, 0, 3), (1, 1, 3),
        (0, 0, 5), (4, 1, 7), (1, 0, 3), (5, 0, 5), (5, 0, 3), (6, 1, 5),
        (0, 1, 1), (6, 1, 3), (7, 1, 2), (7, 0, 0), (4, 1, 5), (3, 1, 3),
    ],
    valid=[
        (3, 0, 1), (5, 1, 2), (5, 1, 1), (2, 1, 4), (4, 1, 1), (6, 0, 0),
        (5, 0, 6),
    ],
    test=[
        (2, 1, 7), (7, 0, 1), (2, 1, 4), (1, 1, 7), (7, 1, 7), (4, 1, 7),
        (4, 1, 2), (6, 1, 0),
    ],
)

DEGREE_GRAPH_STATS = (
    '{\n'
    '  "entities": 8,\n'
    '  "relations": 2,\n'
    '  "triples": {\n'
    '    "test": 8,\n'
    '    "total_raw": 45,\n'
    '    "train": 30,\n'
    '    "unique": 42,\n'
    '    "valid": 7\n'
    '  },\n'
    '  "with_inverses": {\n'
    '    "out_degree_max": 5,\n'
    '    "out_degree_mean": 2.8,\n'
    '    "out_degree_median": 3.0,\n'
    '    "query_pairs": 30,\n'
    '    "relations": 4,\n'
    '    "sufficient_dim": 11,\n'
    '    "unique_triples": 84\n'
    '  },\n'
    '  "without_inverses": {\n'
    '    "out_degree_max": 4,\n'
    '    "out_degree_mean": 2.625,\n'
    '    "out_degree_median": 2.5,\n'
    '    "query_pairs": 16,\n'
    '    "relations": 2,\n'
    '    "sufficient_dim": 9,\n'
    '    "unique_triples": 42\n'
    '  }\n'
    '}\n'
)

DEGREE_GRAPH_DECOMPOSE = (
    '{\n'
    '  "cols": 8,\n'
    '  "degree_cap": 4,\n'
    '  "epsilon": "1/2",\n'
    '  "merged_blocks": true,\n'
    '  "min_margin": 0.5625,\n'
    '  "mismatches": 0,\n'
    '  "rational_checked": true,\n'
    '  "rows": 16,\n'
    '  "verified": true,\n'
    '  "width": 9\n'
    '}\n'
)


def test_stats_and_decompose_output_is_pinned(write_dataset):
    """The degree statistics and the dataset adjacency come from CSR query
    rows; the JSON must stay byte for byte what the per-query dict built."""
    named = {
        split: [(f"n{s}", f"r{r}", f"n{o}") for s, r, o in triples]
        for split, triples in DEGREE_GRAPH.items()
    }
    path = write_dataset(**named, name="degrees")
    assert run_cli(["stats", "--dataset", path]) == (0, DEGREE_GRAPH_STATS)
    assert run_cli(["analyze", "decompose", "--dataset", path]) == (
        0, DEGREE_GRAPH_DECOMPOSE)


def test_analyze_decompose_needs_input():
    rc, _ = run_cli(["analyze", "decompose", "--rows", "5"])
    assert rc == 1


@pytest.mark.parametrize("epsilon", ["1/0", "2"])
def test_analyze_decompose_rejects_a_bad_epsilon(capsys, epsilon):
    rc, out = run_cli(["analyze", "decompose", "--rows", 5, "--cols", 6,
                       "--max-degree", 2, "--epsilon", epsilon])
    assert rc == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon") and err.count("\n") == 1


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
    assert plain["centered_alr_rank"] == 2
    assert plain["sigma_after_capacity"] <= 1e-12
    mixed = run_json(base + ["--output-layer", "mos", "--k", 4])
    assert mixed["rank"] == 8 and mixed["within_single_softmax"] is False
    assert mixed["centered_alr_rank"] == 7
    assert mixed["sigma_after_capacity"] > 1e-6
    assert mixed["capacity"] == 3


def test_readme_lists_every_analyze_subcommand():
    """The kgmix analyze lines of README.md name exactly the analyze
    subcommands the parser has, so a removed or renamed one fails here."""
    documented = set(re.findall(r"\bkgmix analyze ([\w-]+)", README.read_text(encoding="utf-8")))
    assert documented == set(_subparsers(_subparsers(build_parser())["analyze"]))


def test_missing_dataset_is_handled():
    rc, _ = run_cli(["stats", "--dataset", "/nonexistent/path"])
    assert rc == 1


def test_invalid_train_config_is_handled(toy_dir, tmp_path):
    """A rejected config exits 1 before anything is written."""
    bad = [("--dropout", "1.0"), ("--entropy-weight", "nan"), ("--lr", "inf")]
    for flag, value in bad:
        out_dir = tmp_path / flag.strip("-")
        rc, _ = run_cli([
            "train", "--dataset", toy_dir, "--out", out_dir, flag, value,
            "--epochs", "1", "--quiet",
        ])
        assert rc == 1
        assert not out_dir.exists()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kgmix.cli", "analyze", "bound", "--n", "3",
         "--dim", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["feasible_sign_bound"] == 6
