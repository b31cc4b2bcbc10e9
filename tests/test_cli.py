"""End-to-end command-line behavior: output shapes, exit codes, reports."""

import filecmp
import json

import pytest

from dagcredit import backtest as bt
from dagcredit.agents import MissingExternalData
from dagcredit.cli import main

from test_golden import SPARSE_SKIP_GRAPH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph_file(tmp_path, payload, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# flags


@pytest.mark.parametrize(
    "argv",
    [
        *(["validate", flag, "1"] for flag in ("--config", "--out", "--seed")),
        # `cost 3,3,1 ...` also keeps the retired layer-size positional rejected.
        *(["cost", "3,3,1", flag, "1"] for flag in ("--config", "--out", "--seed")),
        *(["cost", flag, "1"] for flag in ("--config", "--out", "--seed", "--mandatory")),
        *([*cmd, "--parallel", "2"] for cmd in (
            ["validate"], ["coalitions"], ["shapley"], ["cost", "3,3,1"], ["cost"], ["backtest"],
        )),
    ],
    ids=" ".join,
)
def test_subcommands_accept_only_flags_they_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# validate


def test_validate_reference_graph(capsys):
    code, out, err = run(capsys, "validate")
    assert code == 0
    assert out.strip() == "valid: 7 agents, 3 layers, 3 sources, sink TRA"


def test_validate_graph_file(capsys, tmp_path):
    path = graph_file(tmp_path, {"layers": [["a", "b"], ["t"]], "edges": [["a", "t"], ["b", "t"]]})
    code, out, err = run(capsys, "validate", path)
    assert code == 0
    assert "valid: 3 agents, 2 layers, 2 sources, sink t" in out


def test_validate_rejects_cyclic_graph(capsys, tmp_path):
    path = graph_file(
        tmp_path,
        {"layers": [["a"], ["t"]], "edges": [["a", "t"], ["t", "a"]]},
    )
    code, out, err = run(capsys, "validate", path)
    assert code == 1
    assert err.startswith("error:")


def test_validate_rejects_unknown_graph_keys(capsys, tmp_path):
    path = graph_file(tmp_path, {"layers": [["t"]], "edges": [], "extra": 1})
    code, out, err = run(capsys, "validate", path)
    assert code == 1


@pytest.mark.parametrize(
    "payload",
    [
        # A string layer would be split into one agent per character.
        {"layers": ["AB", ["T"]], "edges": [["A", "T"], ["B", "T"]]},
        {"layers": [["A", 1], ["T"]], "edges": [["A", "T"]]},
        # A string edge would be read as a pair of one-letter names.
        {"layers": [["A", "B"], ["T"]], "edges": ["AT", ["B", "T"]]},
        {"layers": [["A"], ["T"]], "edges": [["A", "T", "T"]]},
        {"layers": [["A"], ["T"]], "edges": [["A", "T"]], "mandatory": [1, 1]},
        {"layers": [["A"], ["T"]], "edges": [["A", "T"]], "mandatory": "yes"},
        {"layers": [["A"], ["T"]], "edges": [["A", "T"]], "agents": "AT"},
    ],
    ids=["string-layer", "number-name", "string-edge", "three-name-edge",
         "number-flags", "string-flags", "string-roster"],
)
def test_validate_rejects_malformed_graph_file(capsys, tmp_path, payload):
    code, out, err = run(capsys, "validate", graph_file(tmp_path, payload))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_validate_rejects_mandatory_graph_key(capsys, tmp_path):
    """Graph files declare no per-layer flags: the edges alone decide which
    layers a viable coalition may leave empty."""
    payload = {"layers": [["a"], ["t"]], "edges": [["a", "t"]], "mandatory": [True, True]}
    code, out, err = run(capsys, "validate", graph_file(tmp_path, payload))
    assert code == 1
    assert out == ""
    assert "unknown graph keys ['mandatory']" in err


def test_validate_missing_file_is_io_error(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("i/o error:")


# ---------------------------------------------------------------------------
# coalitions


def test_coalitions_summary_line(capsys):
    code, out, err = run(capsys, "coalitions")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 50
    assert lines[0] == "NAA,BOA,TRA"
    assert lines[-1] == "49/128 viable (61.7% pruned)"


def test_coalitions_writes_report(capsys, tmp_path):
    out_dir = tmp_path / "rep"
    code, out, err = run(capsys, "coalitions", "--out", str(out_dir))
    assert code == 0
    text = (out_dir / "coalitions.txt").read_text(encoding="utf-8")
    assert text.strip() == out.strip()


# ---------------------------------------------------------------------------
# shapley


def test_shapley_both_engines_match(capsys, tmp_path):
    out_dir = tmp_path / "attr"
    code, out, err = run(
        capsys, "shapley", "--engine", "both", "--seed", "7", "--out", str(out_dir)
    )
    assert code == 0
    assert "agent_executions=73 executions_reused=0 cache_hits=169" in out
    assert "execution reduction: 83.7%" in out
    for name in ("NAA", "TAA", "FAA", "BOA", "BeOA", "NOA", "TRA"):
        assert name in out
    assert (out_dir / "attribution.txt").read_text(encoding="utf-8").strip() == out.strip()


def test_shapley_seed_changes_values(capsys):
    _, out7, _ = run(capsys, "shapley", "--seed", "7")
    _, out8, _ = run(capsys, "shapley", "--seed", "8")
    assert out7 != out8


def test_shapley_is_deterministic(capsys):
    _, first, _ = run(capsys, "shapley", "--engine", "both", "--seed", "42")
    _, second, _ = run(capsys, "shapley", "--engine", "both", "--seed", "42")
    assert first == second


# ---------------------------------------------------------------------------
# cost


def test_cost_reference_topology(capsys):
    code, out, err = run(capsys, "cost")
    assert code == 0
    assert "  layer 1: size 3, executions 21" in out
    assert "viable coalitions: 49 of 128" in out
    assert "memoized executions: 73" in out
    assert "classical: evaluations 128, executions 448" in out
    assert "execution reduction: 83.7%" in out


def test_cost_small_topology(capsys, tmp_path):
    layers = [["a", "b"], ["c", "d"], ["t"]]
    edges = [[u, v] for u in "ab" for v in "cd"] + [["c", "t"], ["d", "t"]]
    code, out, err = run(capsys, "cost", "--graph", graph_file(tmp_path, {"layers": layers, "edges": edges}))
    assert code == 0
    assert "memoized executions: 17" in out
    assert "viable coalitions: 9 of 32" in out


def test_cost_counts_live_keys_on_a_graph_file_without_running_agents(capsys, tmp_path, monkeypatch):
    def no_agent(*args):
        raise AssertionError("an agent ran")

    monkeypatch.setattr("dagcredit.agents.execute_agent", no_agent)
    code, out, err = run(capsys, "cost", "--graph", graph_file(tmp_path, SPARSE_SKIP_GRAPH))
    assert code == 0
    assert out.splitlines() == [
        "layer sizes: [3, 2, 1]",
        "  layer 0: size 3, executions 3",
        "  layer 1: size 2, executions 6",
        "  layer 2: size 1, executions 18",
        "viable coalitions: 24 of 64",
        "memoized executions: 27",
        "classical: evaluations 64, executions 192",
        "execution reduction: 85.9%",
    ]


def test_cost_rejects_bad_layer_list(capsys, tmp_path):
    payload = {"layers": ["AB", ["T"]], "edges": [["A", "T"], ["B", "T"]]}
    code, out, err = run(capsys, "cost", "--graph", graph_file(tmp_path, payload))
    assert code == 1
    assert err.startswith("error:")


def test_cost_rejects_zero_layer(capsys, tmp_path):
    payload = {"layers": [["A"], [], ["T"]], "edges": [["A", "T"]]}
    code, out, err = run(capsys, "cost", "--graph", graph_file(tmp_path, payload))
    assert code == 1


# ---------------------------------------------------------------------------
# backtest


def test_backtest_prints_strategy_table(capsys):
    code, out, err = run(capsys, "backtest", "--days", "15", "--seed", "7")
    assert code == 0
    assert "3 windows" in out
    for name in ("tuned-agents", "frozen-agents", "buy-hold", "macd-12-26-9", "sma-20-50"):
        assert name in out


def test_backtest_reports_are_byte_identical_across_runs(capsys, tmp_path):
    args = ("backtest", "--days", "20", "--seed", "78")
    code_a, _, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
    code_b, _, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code_a == code_b == 0
    for sub in ("summary.txt", "cycles.jsonl"):
        assert (tmp_path / "a" / sub).read_bytes() == (tmp_path / "b" / sub).read_bytes()
    cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b")

    def assert_identical(node):
        assert not node.diff_files and not node.left_only and not node.right_only
        for child in node.subdirs.values():
            assert_identical(child)

    assert_identical(cmp)


def test_backtest_writes_expected_files(capsys, tmp_path):
    out_dir = tmp_path / "run"
    code, out, err = run(
        capsys, "backtest", "--days", "15", "--seed", "7", "--out", str(out_dir)
    )
    assert code == 0
    assert (out_dir / "summary.txt").exists()
    assert (out_dir / "cycles.jsonl").exists()
    assert (out_dir / "windows" / "window_00.txt").exists()
    assert (out_dir / "frozen" / "window_00.txt").exists()
    assert list((out_dir / "prompts").glob("*_v1.txt"))
    records = [
        json.loads(line)
        for line in (out_dir / "cycles.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert len(records) == 3
    assert all("contributions" in r for r in records)


def test_backtest_config_file_roundtrip(capsys, tmp_path):
    config = {"seed": 7, "days": 15, "regime": "sideways"}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run(capsys, "backtest", "--config", str(path))
    assert code == 0
    assert "3 windows" in out


def test_backtest_rejects_unknown_config_key(capsys, tmp_path):
    path = tmp_path / "run.json"
    for extra in ({"turbo": True}, {"parallel": 2}):
        path.write_text(json.dumps({"seed": 7, **extra}), encoding="utf-8")
        code, out, err = run(capsys, "backtest", "--config", str(path))
        assert code == 1
        assert "unknown config keys" in err


@pytest.mark.parametrize(
    "payload",
    [
        {"days": 20.5},
        {"window_len": 5.0},
        {"lesson_cap": 2.5},
        {"lesson_cap": True},
        {"threshold": "x"},
        {"seed": "abc"},
        {"seed": 1.5},
        {"seed": True},
        {"signal_strength": "0.5"},
        {"rf_daily": None},
        {"rf_daily": float("nan")},
        {"threshold": float("inf")},
        {"symbol": None},
        {"out_dir": 3},
        {"prompts_dir": ["p"]},
    ],
    ids=lambda payload: ",".join(f"{k}={v!r}" for k, v in payload.items()),
)
def test_backtest_rejects_config_values_of_the_wrong_type(capsys, tmp_path, payload):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run(capsys, "backtest", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_backtest_missing_config_file_is_io_error(capsys, tmp_path):
    code, out, err = run(capsys, "backtest", "--config", str(tmp_path / "absent.json"))
    assert code == 2


def test_backtest_missing_market_file_is_io_error(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "backtest",
        "--market", str(tmp_path / "absent.csv"),
        "--features", str(tmp_path / "absent2.csv"),
    )
    assert code == 2


def test_backtest_market_without_features_is_config_error(capsys, tmp_path):
    market = tmp_path / "m.csv"
    market.write_text("date,open,high,low,close,volume\n", encoding="utf-8")
    code, out, err = run(capsys, "backtest", "--market", str(market))
    assert code == 1


def test_backtest_rejects_bad_window_len(capsys):
    code, out, err = run(capsys, "backtest", "--days", "15", "--window-len", "1")
    assert code == 1


def test_runtime_failures_exit_three(capsys, monkeypatch):
    def explode(config):
        raise MissingExternalData("source starved")

    monkeypatch.setattr(bt, "run_backtest", explode)
    code, out, err = run(capsys, "backtest", "--days", "15")
    assert code == 3
    assert err.startswith("runtime error:")
