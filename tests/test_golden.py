"""Pinned digests of complete report trees and of the attribution output.

Every file the CLI writes under ``--out`` is hashed and compared with the
digests in ``golden_reports.json``, so a refactor cannot shift a printed
digit unnoticed. The runs live in ``golden_runs.py``, which also checks them
without pytest. A deliberate change to an output re-pins the affected
digests (the failing assertion shows the new ones) and says why in
CHANGES.md.
"""

import json

import pytest

from dagcredit.cli import main

from golden_runs import GOLDEN, RUNS, STDOUT_RUNS, backtest_argv, sha256, tree_digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_tree_digests(name, tmp_path, capsys):
    assert main(backtest_argv(name, tmp_path)) == 0
    capsys.readouterr()
    assert tree_digests(tmp_path / "out") == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cycle_records_name_their_windows_span(name, tmp_path, capsys):
    """Each ``cycles.jsonl`` record names the days its window file prints."""
    assert main(backtest_argv(name, tmp_path)) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    lines = (out / "cycles.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 12
    for index, record in enumerate(records):
        assert record["cycle"] == index
        text = (out / "windows" / f"window_{index:02d}.txt").read_text(encoding="utf-8")
        days = next(line for line in text.splitlines() if line.startswith("days: "))
        assert days == f"days: {record['start']} .. {record['end']}"


def test_shapley_both_stdout(capsys):
    assert main(STDOUT_RUNS["shapley-both-seed7-stdout"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[-4:] == [
        "cost: coalition_evaluations=49 agent_executions=73 executions_reused=0 "
        "cache_hits=169",
        "cost (replay): coalition_evaluations=128 agent_executions=448 executions_reused=0 "
        "cache_hits=0",
        "execution reduction: 83.7%",
        "all 2^7 = 128 subsets agreed",
    ]
    assert sha256(out.encode("utf-8")) == GOLDEN["shapley-both-seed7-stdout"]


def test_shapley_both_stdout_begins_with_the_dag_stdout(capsys):
    """``--engine both`` prints the contributions once: the ``dag`` output,
    byte for byte, then the replay's three lines."""
    argv = STDOUT_RUNS["shapley-both-seed7-stdout"]
    assert main(argv) == 0
    both = capsys.readouterr().out
    assert main([a if a != "both" else "dag" for a in argv]) == 0
    dag = capsys.readouterr().out
    assert both.startswith(dag)
    assert [line.split(":")[0] for line in both[len(dag):].splitlines()] == [
        "cost (replay)", "execution reduction", "all 2^7 = 128 subsets agreed",
    ]
