import json
import os

import layers
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_per_layer_list_matches_the_metrics_the_trace_writes():
    assert _spec()["per_layer"] == layers.per_layer_spec()


def test_workloads_match():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)

