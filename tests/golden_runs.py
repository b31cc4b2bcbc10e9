"""The pinned CLI runs and their digests, with the standard library only.

``test_golden.py`` checks these runs under pytest. Run this file directly to
check them on an interpreter without pytest:

    PYTHONPATH=src python3 tests/golden_runs.py

It prints one line per pinned digest set and exits 1 if any differs from
``golden_reports.json``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

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

# Backtests whose report trees are pinned; None stands for the sparse graph's file.
RUNS = {
    "reference-dag-60": ["--days", "60", "--seed", "42", "--engine", "dag"],
    "reference-both-60": ["--days", "60", "--seed", "42", "--engine", "both"],
    "sparse-skip-dag-60": ["--days", "60", "--seed", "42", "--engine", "dag", "--graph", None],
}

# Commands whose standard output is pinned.
STDOUT_RUNS = {
    "shapley-both-seed7-stdout": ["shapley", "--engine", "both", "--seed", "7"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {
        p.relative_to(root).as_posix(): sha256(p.read_bytes())
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def backtest_argv(name: str, root: Path) -> list[str]:
    """The ``dagcredit`` arguments of backtest ``name``, with the sparse
    graph's file written to ``root`` and the report tree at ``root / "out"``."""
    graph = root / "graph.json"
    graph.write_text(json.dumps(SPARSE_SKIP_GRAPH), encoding="utf-8")
    argv = [str(graph) if a is None else a for a in RUNS[name]]
    return ["backtest", *argv, "--out", str(root / "out")]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def check() -> int:
    """Run every pinned command; print one line each and return the number
    of runs whose digests differ from the pinned ones."""
    failed = 0
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as tmp:
            code, _ = _run(backtest_argv(name, Path(tmp)))
            ok = code == 0 and tree_digests(Path(tmp) / "out") == GOLDEN[name]
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    for name, argv in sorted(STDOUT_RUNS.items()):
        code, out = _run(argv)
        ok = code == 0 and sha256(out.encode("utf-8")) == GOLDEN[name]
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return failed


if __name__ == "__main__":
    print(f"Python {sys.version.split()[0]}")
    sys.exit(1 if check() else 0)
