"""Pinned digests of complete report trees and of the attribution table.

Every file the CLI writes under ``--out`` is hashed and compared with the
digests in ``golden_reports.json``, so a refactor cannot shift a printed
digit unnoticed. A deliberate change to an output re-pins the affected
digests (the failing assertion shows the new ones) and says why in
CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dagcredit.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_reports.json")).read_text(encoding="utf-8"))

# Six agents with a sparse middle layer and a layer-skip edge S3 -> T.
SPARSE_SKIP_GRAPH = {
    "layers": [["S1", "S2", "S3"], ["M1", "M2"], ["T"]],
    "edges": [
        ["S1", "M1"], ["S2", "M1"], ["S2", "M2"],
        ["M1", "T"], ["M2", "T"], ["S3", "T"],
    ],
}

RUNS = {
    "reference-dag-60": ["--days", "60", "--seed", "42", "--engine", "dag"],
    "reference-both-60": ["--days", "60", "--seed", "42", "--engine", "both"],
    "sparse-skip-dag-60": ["--days", "60", "--seed", "42", "--engine", "dag", "--graph", None],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): sha256(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_tree_digests(name, tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(SPARSE_SKIP_GRAPH), encoding="utf-8")
    argv = [str(graph) if a is None else a for a in RUNS[name]]
    out_dir = tmp_path / "out"
    assert main(["backtest", *argv, "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert tree_digests(out_dir) == GOLDEN[name]


def test_shapley_both_stdout(capsys):
    assert main(["shapley", "--engine", "both", "--seed", "7"]) == 0
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
