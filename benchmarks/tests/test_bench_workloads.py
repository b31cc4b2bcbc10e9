"""Workload inputs, the committed graph, and BENCHMARK.json's metric names."""

import json

import run
import tracing
import workloads

from dagcredit.coalitions import enumerate_viable
from dagcredit.config import load_graph_file


def test_backtest_inputs_depend_only_on_the_seed(tmp_path):
    for name in ("backtest-ref", "backtest-ref-exact"):
        w = workloads.WORKLOADS[name]
        assert w.make_input(7, tmp_path / "a") == w.make_input(7, tmp_path / "b")
        assert w.make_input(7, tmp_path) != w.make_input(8, tmp_path)


def test_attribute_inputs_depend_only_on_the_seed(tmp_path):
    w = workloads.WORKLOADS["attribute-wide"]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    argv_a = w.make_input(7, tmp_path / "a")
    argv_b = w.make_input(7, tmp_path / "b")
    assert [x.replace(str(tmp_path / "a"), "") for x in argv_a] == [
        x.replace(str(tmp_path / "b"), "") for x in argv_b
    ]
    assert (tmp_path / "a" / "graph.json").read_bytes() == (tmp_path / "b" / "graph.json").read_bytes()


def test_committed_wide_graph_is_valid_sparse_with_skip_edges():
    graph = load_graph_file(workloads.WIDE_GRAPH)
    assert [len(layer) for layer in graph.layers] == [6, 6, 6, 1]
    skips = [(a, b) for a, b in graph.edges if graph.layer_of[b] - graph.layer_of[a] > 1]
    assert skips
    full = sum(len(a) * len(b) for a, b in zip(graph.layers, graph.layers[1:]))
    assert len(graph.edges) - len(skips) < full
    assert len(enumerate_viable(graph)) == workloads.WIDE_VIABLE


def test_benchmark_json_names_the_metrics_the_runner_reports():
    spec = json.loads((workloads.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert {m["name"] for m in spec["end_to_end"]} == {
        "episodes_per_s", "agent_executions", "setup_s", "peak_rss_mb"
    }
    reported = set(tracing.layer_metrics([])) | {"backtest.report_bytes", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == reported
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
