"""End-to-end command-line behavior: output shapes, exit codes, reports."""

import argparse
import codecs
import contextlib
import dataclasses
import filecmp
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import dagcredit
from dagcredit import backtest as bt
from dagcredit import cli
from dagcredit.agents import ROLE_MOCKS, InvalidAgentOutput, MissingExternalData, system_runner
from dagcredit.cli import build_parser, main
from dagcredit.coalitions import enumerate_viable
from dagcredit.config import RunConfig, load_config, load_graph_file, load_prompts_dir
from dagcredit.graph import InputError, reference_graph

from conftest import swapped_trader
from golden_runs import SPARSE_SKIP_GRAPH


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def graph_file(tmp_path, payload, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def full_5551_file(tmp_path):
    """A graph file of fully connected 5-5-5-1: 29,791 viable coalitions."""
    layers = [[f"L{i}A{j}" for j in range(size)] for i, size in enumerate([5, 5, 5, 1])]
    edges = [[a, b] for upper, lower in zip(layers, layers[1:]) for a in upper for b in lower]
    return graph_file(tmp_path, {"layers": layers, "edges": edges})


# ---------------------------------------------------------------------------
# flags


@pytest.mark.parametrize(
    "argv",
    [
        *(["validate", flag, "1"] for flag in ("--config", "--out", "--seed")),
        # `cost 3,3,1 ...` also keeps the retired layer-size positional rejected.
        *(["cost", "3,3,1", flag, "1"] for flag in ("--config", "--out", "--seed")),
        *(["cost", flag, "1"] for flag in ("--config", "--out", "--seed", "--mandatory")),
        ["coalitions", "--seed", "1"],
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


def test_every_flag_is_named_after_the_config_field_it_sets():
    """``_build_config`` lays each parsed value over the config file by name,
    so a flag stored under any other name would bypass the file."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    parser = build_parser()
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(subs.choices) == ["backtest", "coalitions", "cost", "shapley", "validate"]
    for command, sub in subs.choices.items():
        dests = {a.dest for a in sub._actions} | set(vars(parser.parse_args([command])))
        assert dests - {"help", "config", "command", "func"} <= fields, command


def agent_rows(out):
    rows = out.split("agent contributions:\n", 1)[1].split("  total", 1)[0]
    return [line.split()[0] for line in rows.splitlines()]


def test_config_graph_file_drives_every_command_and_a_flag_wins(capsys, tmp_path):
    sparse = graph_file(tmp_path, SPARSE_SKIP_GRAPH, "sparse.json")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"graph_file": sparse}), encoding="utf-8")
    viable = len(enumerate_viable(load_graph_file(sparse)))

    code, out, _ = run(capsys, "shapley", "--config", str(config))
    assert code == 0
    assert agent_rows(out) == ["S1", "S2", "S3", "M1", "M2", "T"]
    code, out, _ = run(capsys, "coalitions", "--config", str(config))
    assert code == 0
    assert out.splitlines()[-1].startswith(f"{viable}/64 viable")

    small = graph_file(tmp_path, {"layers": [["a", "b"], ["t"]], "edges": [["a", "t"], ["b", "t"]]})
    code, out, _ = run(capsys, "shapley", "--config", str(config), "--graph", small)
    assert code == 0
    assert agent_rows(out) == ["a", "b", "t"]
    code, out, _ = run(capsys, "coalitions", small, "--config", str(config))
    assert code == 0
    assert out.splitlines()[-1] == "3/8 viable (62.5% pruned)"


@pytest.mark.parametrize("command", ["shapley", "backtest"])
def test_engine_exact_is_an_invalid_choice(capsys, command):
    """The pruned engine is the one engine of record; the classical replay
    runs only beside it, under ``both``."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--engine", "exact"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


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
    assert "t -> a" in err


def test_backtest_refuses_an_agent_name_that_leaves_the_output_directory(capsys, tmp_path):
    """Prompt reports are named after agents, so a graph file's names are
    checked before anything is written."""
    payload = {"layers": [["a"], ["../../escaped"]], "edges": [["a", "../../escaped"]]}
    out_dir = tmp_path / "out" / "run"
    code, out, err = run(
        capsys, "backtest", "--graph", graph_file(tmp_path, payload),
        "--days", "15", "--out", str(out_dir),
    )
    assert code == 1
    assert err.startswith("error:") and "'../../escaped'" in err
    assert not (tmp_path / "out").exists()
    assert not list(tmp_path.rglob("escaped*"))


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


def test_coalitions_streams_its_lines(tmp_path):
    """Fully connected 5-5-5-1 lists 29,791 viable coalitions. Writing each
    line as it is named peaks at most 1 MiB above the call's start: measured
    0.38 MiB, where holding every line and their join peaked at 5.5 MiB."""
    path = full_5551_file(tmp_path)
    out_dir, stdout = tmp_path / "rep", tmp_path / "stdout.txt"
    with stdout.open("w", encoding="utf-8") as f, contextlib.redirect_stdout(f):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code = main(["coalitions", path, "--out", str(out_dir)])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert code == 0
    text = stdout.read_text(encoding="utf-8")
    assert (out_dir / "coalitions.txt").read_text(encoding="utf-8") == text
    lines = text.splitlines()
    assert len(lines) == 29_792
    assert lines[-1] == "29791/65536 viable (54.5% pruned)"
    assert peak <= 2**20


@pytest.mark.skipif(
    sys.platform == "win32",
    reason="Windows reports a write to a closed pipe as EINVAL, not as a broken pipe",
)
def test_coalitions_stops_quietly_when_the_reader_closes_the_pipe(tmp_path):
    """As under `dagcredit coalitions | head -1`: the reader closes standard
    output after one of 29,792 lines, more than a pipe buffers. The command
    exits with its documented code and writes nothing to stderr, neither
    from the failed write nor from the flush at exit."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    stderr = tmp_path / "stderr.txt"
    with stderr.open("wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "dagcredit.cli", "coalitions", full_5551_file(tmp_path)],
            stdout=subprocess.PIPE, stderr=err, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
    assert first == b"L0A0,L1A0,L2A0,L3A0\n"
    assert code == cli.EXIT_PIPE_CLOSED == 141
    assert stderr.read_bytes() == b""


def test_a_closed_reader_costs_no_file_descriptor(monkeypatch, tmp_path):
    """In process, standard output whose reader is gone: ``main`` points it
    at devnull and closes the descriptor it opened to do so, so repeated
    calls hold no more descriptors than before."""

    def lowest_free_fd():
        fd = os.open(os.devnull, os.O_RDONLY)
        os.close(fd)
        return fd

    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            raise BrokenPipeError

        def fileno(self):
            return self.fd

    with (tmp_path / "stdout").open("wb") as target:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(target.fileno()))
        before = lowest_free_fd()
        assert main(["validate"]) == cli.EXIT_PIPE_CLOSED
        after = lowest_free_fd()
    assert after == before


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


def test_shapley_rejects_a_misplaced_well_known_name(capsys, tmp_path):
    payload = {"layers": [["a"], ["NAA"], ["t"]], "edges": [["a", "NAA"], ["NAA", "t"]]}
    code, out, err = run(capsys, "shapley", "--graph", graph_file(tmp_path, payload))
    assert (code, out) == (1, "")
    assert err == "error: NAA: analyst roles require a source position\n"


@pytest.mark.parametrize(
    "settings",
    [
        # A config names a market and its features together or neither.
        {"market_csv": "m.csv", "features_csv": "f.csv"},
        {"prompts_dir": "prompts"},
        {"market_csv": "m.csv", "features_csv": "f.csv", "prompts_dir": "prompts"},
        {"days": 300, "window_len": 7},
        {"threshold": 0.5},
        {"lesson_cap": None},
        {"rf_daily": 0.0001},
        {"symbol": "ACME"},
    ],
    ids=",".join,
)
def test_shapley_rejects_a_config_naming_inputs_it_does_not_read(capsys, tmp_path, settings):
    """``shapley`` attributes its own synthetic fixture episode, so a config
    that names a market, feature or prompt source, or moves a setting only
    the backtest reads off its default, exits 1 rather than being silently
    ignored."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(settings), encoding="utf-8")
    code, out, err = run(capsys, "shapley", "--config", str(config))
    assert (code, out) == (1, "")
    assert err == (
        "error: shapley attributes a synthetic fixture episode; "
        f"remove {', '.join(settings)} from the config\n"
    )


def test_shapley_accepts_a_config_holding_every_default(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(dataclasses.asdict(RunConfig())), encoding="utf-8")
    assert run(capsys, "shapley", "--config", str(config)) == run(capsys, "shapley")


def test_shapley_accepts_a_config_whose_symbol_is_null(capsys, tmp_path):
    """A null ``symbol`` is its default, so ``shapley`` runs as without it."""
    config = tmp_path / "cfg.json"
    config.write_text('{"symbol": null}', encoding="utf-8")
    code, out, err = run(capsys, "shapley", "--config", str(config))
    assert (code, err) == (0, "")
    assert (code, out, err) == run(capsys, "shapley")


def test_shapley_both_exits_three_when_the_engines_disagree(capsys, monkeypatch):
    """A trader whose output changes between calls makes the replay value a
    subset otherwise than the pruned engine: one error line, exit 3."""
    graph = reference_graph()
    monkeypatch.setattr(
        cli, "system_runner", lambda specs: swapped_trader(system_runner(specs), graph.sink, 2)
    )
    code, out, err = run(capsys, "shapley", "--engine", "both", "--seed", "7")
    assert (code, out) == (3, "")
    assert err.startswith("runtime error: engines disagree on coalition {")
    assert err.count("\n") == 1 and err.endswith("\n")
    # The pruned engine alone cannot tell.
    assert run(capsys, "shapley", "--seed", "7")[0] == 0


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

    # Every mock agent's bound callable runs its role's function.
    for role in ROLE_MOCKS:
        monkeypatch.setitem(ROLE_MOCKS, role, no_agent)
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


def test_backtest_prints_strategy_table(capsys, tmp_path):
    code, out, err = run(
        capsys, "backtest", "--days", "15", "--seed", "7", "--out", str(tmp_path)
    )
    assert code == 0
    assert "3 windows" in out
    for name in ("tuned-agents", "frozen-agents", "buy-hold", "macd-12-26-9", "sma-20-50"):
        assert name in out

    def table(lines):
        start = next(i for i, line in enumerate(lines) if line.startswith("strategy "))
        return lines[start : start + 6]

    # stdout prints the same table as the summary file
    summary = (tmp_path / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert table(out.splitlines()) == table(summary)


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


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_backtest_refuses_an_out_dir_holding_an_earlier_runs_reports(capsys, tmp_path):
    """A 15-day run into the reports of a 30-day run would leave that run's
    windows 3 to 5, so that no single run's reports remain: it exits 1,
    naming the path, and leaves the tree as it was."""
    out_dir = tmp_path / "run"
    assert run(capsys, "backtest", "--days", "30", "--seed", "7", "--out", str(out_dir))[0] == 0
    before = tree_bytes(out_dir)
    code, out, err = run(
        capsys, "backtest", "--days", "15", "--seed", "7", "--out", str(out_dir)
    )
    assert (code, out) == (1, "")
    assert err == (
        f"error: {out_dir / 'summary.txt'} exists: "
        "write the reports to a new or empty directory\n"
    )
    assert tree_bytes(out_dir) == before


@pytest.mark.parametrize("entry", bt.REPORT_ENTRIES)
def test_backtest_refuses_an_out_dir_holding_any_report_entry(
    capsys, tmp_path, monkeypatch, entry
):
    """Any one entry a run writes is refused before any work, and a file
    no run writes is not."""
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("kept", encoding="utf-8")
    path = out_dir / entry
    if path.suffix:
        path.write_text("", encoding="utf-8")
    else:
        path.mkdir()

    def no_work(config):
        raise AssertionError("the run started")

    monkeypatch.setattr(bt, "config_graph", no_work)
    code, out, err = run(capsys, "backtest", "--days", "15", "--out", str(out_dir))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path} exists: ")
    assert sorted(out_dir.iterdir()) == sorted([out_dir / "notes.txt", path])
    monkeypatch.undo()
    if path.suffix:
        path.unlink()
    else:
        path.rmdir()
    assert run(capsys, "backtest", "--days", "15", "--out", str(out_dir))[0] == 0


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
        {"symbol": 3},
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


def test_backtest_rejects_the_retired_exact_engine_in_a_config_file(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"engine": "exact"}), encoding="utf-8")
    code, out, err = run(capsys, "backtest", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: engine must be one of ('dag', 'both'), got 'exact'\n"


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


def market_files(market):
    """The OHLCV and feature CSV lines of ``market``, header first, by file
    name; each day's open, high and low are its close."""
    rows = {"m.csv": [",".join(bt.MARKET_HEADER)], "f.csv": [",".join(bt.FEATURE_HEADER)]}
    for day, close, sent, fund in zip(
        market.days, market.closes, market.sentiment, market.fundamental
    ):
        rows["m.csv"].append(f"{day.isoformat()}" + f",{close:.6f}" * 4 + ",1000000")
        rows["f.csv"].append(f"{day.isoformat()},{sent:.6f},{fund:.6f}")
    return rows


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--days", "10", "--regime", "bear", "--signal-strength", "0.1"],
         "days, regime, signal_strength"),
        (["--regime", "sideways"], "regime"),
    ],
    ids=["all", "regime"],
)
def test_backtest_on_market_files_rejects_synthetic_market_settings(
    capsys, tmp_path, flags, named
):
    """``days``, ``regime`` and ``signal_strength`` shape only a synthetic
    market, so a backtest on market files that sets any of them off its
    default exits 1 naming each, rather than ignoring it."""
    for name, lines in market_files(bt.synthesize_market(seed=3, days=30)).items():
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["--market", str(tmp_path / "m.csv"), "--features", str(tmp_path / "f.csv")]
    code, out, err = run(capsys, "backtest", *argv, *flags)
    assert (code, out) == (1, "")
    assert err == (
        f"error: a backtest on market files does not read {named}; remove them\n"
    )
    assert run(capsys, "backtest", *argv, "--days", "60")[0] == 0


def test_backtest_summary_names_the_markets_own_symbol_unless_one_is_set(capsys, tmp_path):
    """Unset, the symbol is the market source's own: ``CSV`` for market
    files and ``SYNTH`` for a synthetic market, also where a config file
    gives null. ``--symbol`` wins."""
    for name, lines in market_files(bt.synthesize_market(seed=3, days=30)).items():
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    files = ["--market", str(tmp_path / "m.csv"), "--features", str(tmp_path / "f.csv")]
    null = tmp_path / "run.json"
    null.write_text('{"symbol": null}', encoding="utf-8")
    for argv, symbol in (
        (files, "CSV"),
        ([*files, "--symbol", "ACME"], "ACME"),
        (["--days", "15", "--config", str(null)], "SYNTH"),
    ):
        out = tmp_path / symbol
        assert run(capsys, "backtest", *argv, "--out", str(out))[0] == 0
        summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert summary[1] == f"symbol: {symbol}"


@pytest.mark.parametrize("column, text", [("close", "inf"), ("open", "-inf"), ("volume", "nan")])
def test_backtest_rejects_non_finite_market_numbers(capsys, tmp_path, column, text):
    rows = market_files(bt.synthesize_market(seed=3, days=15))
    fields = rows["m.csv"][5].split(",")
    fields[bt.MARKET_HEADER.index(column)] = text
    rows["m.csv"][5] = ",".join(fields)
    for file_name, lines in rows.items():
        (tmp_path / file_name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(
        capsys,
        "backtest",
        "--market", str(tmp_path / "m.csv"),
        "--features", str(tmp_path / "f.csv"),
    )
    assert code == 1
    assert err == f"error: line 6: non-finite number in column {column!r}\n"


def test_backtest_rejects_closes_whose_ratio_overflows(capsys, tmp_path):
    """Every close is finite and positive, but 1e300 over 1e-300 is not
    finite, so neither is that day's return: one error line, no traceback."""
    rows = market_files(bt.synthesize_market(seed=3, days=15))
    for i in range(1, len(rows["m.csv"])):
        price = "1e-300" if i % 2 else "1e300"
        day, *_, volume = rows["m.csv"][i].split(",")
        rows["m.csv"][i] = ",".join([day, *[price] * 4, volume])
    for file_name, lines in rows.items():
        (tmp_path / file_name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(
        capsys,
        "backtest",
        "--market", str(tmp_path / "m.csv"),
        "--features", str(tmp_path / "f.csv"),
    )
    assert code == 1
    assert out == ""
    assert err == "error: line 3: close over the previous close is not finite\n"


def test_backtest_rejects_prompt_files_that_name_no_agent(capsys, tmp_path):
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    (prompts / "TRA.txt").write_text("Trade the consensus.\n", encoding="utf-8")
    (prompts / "TRADER.txt").write_text("Trade the consensus.\n", encoding="utf-8")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"days": 15, "prompts_dir": str(prompts)}), encoding="utf-8")
    code, out, err = run(capsys, "backtest", "--config", str(config))
    assert code == 1
    assert out == ""
    assert err == f"error: {prompts}: prompt files name no agent of the graph: TRADER.txt\n"


def test_backtest_rejects_bad_window_len(capsys):
    # A window of w days gives w - 1 returns, and a Sharpe needs two.
    for window_len in ("1", "2"):
        code, out, err = run(capsys, "backtest", "--days", "20", "--window-len", window_len)
        assert (code, out, err) == (1, "", "error: window_len must be at least 3\n")


def test_runtime_failures_exit_three(capsys, monkeypatch):
    def explode(config):
        raise MissingExternalData("source starved")

    monkeypatch.setattr(bt, "run_backtest", explode)
    code, out, err = run(capsys, "backtest", "--days", "15")
    assert code == 3
    assert err.startswith("runtime error:")


def test_every_value_error_the_package_defines_is_an_input_error():
    # InvalidAgentOutput checks an agent's payload, not the user's input:
    # the engines wrap it in ExecutorFailure, which exits 3.
    defined = []
    for info in pkgutil.iter_modules(dagcredit.__path__):
        module = importlib.import_module(f"dagcredit.{info.name}")
        defined += [
            cls
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if cls.__module__ == module.__name__ and issubclass(cls, ValueError)
        ]
    assert InvalidAgentOutput in defined and len(defined) > 12
    assert [
        cls.__qualname__
        for cls in defined
        if cls is not InvalidAgentOutput and not issubclass(cls, InputError)
    ] == []


def test_any_input_error_exits_one(capsys, monkeypatch):
    class FreshInputError(InputError):
        pass

    def refuse(config):
        raise FreshInputError("no such input")

    monkeypatch.setattr(bt, "run_backtest", refuse)
    assert run(capsys, "backtest", "--days", "15") == (1, "", "error: no such input\n")


# ---------------------------------------------------------------------------
# malformed input files


def bad_graph_file(tmp_path):
    path = tmp_path / "graph.json"
    path.write_bytes(json.dumps(SPARSE_SKIP_GRAPH).encode().replace(b'"T"', b'"T\xff"'))
    return str(path)


def bad_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_bytes(b'{"days": 15, "symbol": "\xff"}')
    return ["backtest", "--config", str(path)]


def bad_prompts_dir(tmp_path):
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    (prompts / "TRA.txt").write_bytes(b"Trade the \xff consensus.\n")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"days": 15, "prompts_dir": str(prompts)}), encoding="utf-8")
    return ["backtest", "--config", str(config)]


def assert_one_error_line(err, message):
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize(
    "make_argv, message",
    [
        (lambda tmp: ["validate", bad_graph_file(tmp)], "graph.json: not UTF-8 text"),
        (lambda tmp: ["shapley", "--graph", bad_graph_file(tmp)], "graph.json: not UTF-8 text"),
        (bad_config_file, "run.json: not UTF-8 text"),
        (bad_prompts_dir, "TRA.txt: not UTF-8 text"),
    ],
    ids=["validate-graph", "shapley-graph", "config", "prompt"],
)
def test_text_files_that_are_not_utf8_exit_one(capsys, tmp_path, make_argv, message):
    code, out, err = run(capsys, *make_argv(tmp_path))
    assert (code, out) == (1, "")
    assert_one_error_line(err, message)


@pytest.mark.parametrize(
    "name, before, after, message",
    [
        ("m.csv", b"", b"\xff", "m.csv: line 5: not UTF-8 text"),
        ("f.csv", b"\xff", b"", "f.csv: line 5: not UTF-8 text"),
        ("m.csv", b"", b"0" * 140_000, "m.csv: line 5: field larger than field limit"),
        # CPython 3.10's csv module refuses a NUL byte; later versions read it
        # into the date field, which then fails to parse.
        ("f.csv", b"\x00", b"", "line 5"),
    ],
    ids=["market-utf8", "features-utf8", "long-field", "nul"],
)
def test_malformed_csv_files_exit_one(capsys, tmp_path, name, before, after, message):
    rows = market_files(bt.synthesize_market(seed=3, days=15))
    for file_name, lines in rows.items():
        data = [line.encode() for line in lines]
        if file_name == name:
            data[4] = before + data[4] + after
        (tmp_path / file_name).write_bytes(b"\n".join(data) + b"\n")
    code, out, err = run(
        capsys,
        "backtest",
        "--market", str(tmp_path / "m.csv"),
        "--features", str(tmp_path / "f.csv"),
    )
    assert (code, out) == (1, "")
    assert_one_error_line(err, message)


def bom_inputs(tmp_path):
    """Per input file kind, its path, its UTF-8 text and how the program
    loads it; both CSV files are written plain, so that either loads."""
    rows = market_files(bt.synthesize_market(seed=3, days=15))
    for name, lines in rows.items():
        (tmp_path / name).write_bytes(("\n".join(lines) + "\n").encode())
    (tmp_path / "prompts").mkdir()
    return {
        "market": (
            tmp_path / "m.csv", "\n".join(rows["m.csv"]) + "\n",
            lambda path: bt.load_market(path, tmp_path / "f.csv"),
        ),
        "features": (
            tmp_path / "f.csv", "\n".join(rows["f.csv"]) + "\n",
            lambda path: bt.load_market(tmp_path / "m.csv", path),
        ),
        "config": (tmp_path / "run.json", json.dumps({"days": 15, "symbol": "X"}), load_config),
        "graph": (tmp_path / "graph.json", json.dumps(SPARSE_SKIP_GRAPH), load_graph_file),
        "prompt": (
            tmp_path / "prompts" / "TRA.txt", "Trade the consensus.\n",
            lambda path: load_prompts_dir(path.parent),
        ),
    }


@pytest.mark.parametrize("kind", ["market", "features", "config", "graph", "prompt"])
def test_input_files_with_a_byte_order_mark_load_as_without(tmp_path, kind):
    """Excel's "CSV UTF-8" and other editors start a UTF-8 file with a
    byte-order mark, which is not part of the text: every input file loads
    with one exactly as without."""
    path, text, load = bom_inputs(tmp_path)[kind]
    path.write_bytes(text.encode())
    plain = load(path)
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert load(path) == plain


def test_a_bad_byte_after_a_byte_order_mark_names_its_line(capsys, tmp_path):
    """The mark is not counted in a bad byte's offset: a decoder that skips
    it, as ``utf-8-sig`` does, counts from after it, and a bad byte that
    starts a line would name the line before."""
    rows = market_files(bt.synthesize_market(seed=3, days=15))
    for name, lines in rows.items():
        data = [line.encode() for line in lines]
        if name == "m.csv":
            data[0] = codecs.BOM_UTF8 + data[0]
            data[4] = b"\xff" + data[4]
        (tmp_path / name).write_bytes(b"\n".join(data) + b"\n")
    code, out, err = run(
        capsys,
        "backtest",
        "--market", str(tmp_path / "m.csv"),
        "--features", str(tmp_path / "f.csv"),
    )
    assert (code, out) == (1, "")
    assert_one_error_line(err, "m.csv: line 5: not UTF-8 text")


def test_text_files_read_line_ends_as_text_mode(tmp_path):
    """A prompt's CR LF and lone CR line ends read as LF, as ``open`` reads
    text."""
    (tmp_path / "TRA.txt").write_bytes(b"Trade\r\nthe\rconsensus.\r\n")
    assert load_prompts_dir(tmp_path) == {"TRA": "Trade\nthe\nconsensus."}
