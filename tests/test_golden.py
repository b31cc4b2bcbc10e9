"""Pinned digests of complete report trees and of the attribution table.

Every file the CLI writes under ``--out`` is hashed and compared with the
digests in ``golden_reports.json``, so a refactor cannot shift a printed
digit unnoticed. The runs live in ``golden_runs.py``, which also checks them
without pytest. A deliberate change to an output re-pins the affected
digests (the failing assertion shows the new ones) and says why in
CHANGES.md.
"""

import pytest

from dagcredit.cli import main

from golden_runs import GOLDEN, RUNS, STDOUT_RUNS, backtest_argv, sha256, tree_digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_tree_digests(name, tmp_path, capsys):
    assert main(backtest_argv(name, tmp_path)) == 0
    capsys.readouterr()
    assert tree_digests(tmp_path / "out") == GOLDEN[name]


def test_shapley_both_stdout(capsys):
    assert main(STDOUT_RUNS["shapley-both-seed7-stdout"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[-3:] == [
        "cost (dag): coalition_evaluations=49 agent_executions=73 executions_reused=0 "
        "cache_hits=169",
        "cost (exact): coalition_evaluations=128 agent_executions=448 executions_reused=0 "
        "cache_hits=0",
        "execution reduction: 83.7%",
    ]
    assert sha256(out.encode("utf-8")) == GOLDEN["shapley-both-seed7-stdout"]
