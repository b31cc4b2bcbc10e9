"""The pinned runs and their digests, with the standard library only.

``test_golden.py`` checks the CLI runs under pytest, and ``test_shapley.py``
the wide attribution. Run this file directly to check them all on an
interpreter without pytest:

    PYTHONPATH=src python3 tests/golden_runs.py

It prints one line per pinned digest set and exits 1 if any differs from
``golden_reports.json`` or from ``WIDE_PHI_SHA256``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from dagcredit.agents import MarketFeatures, build_system, signed_decision_value, system_runner
from dagcredit.backtest import evaluate_window
from dagcredit.cli import main
from dagcredit.coalitions import enumerate_viable
from dagcredit.config import load_graph_file

GOLDEN = json.loads((Path(__file__).with_name("golden_reports.json")).read_text(encoding="utf-8"))

# Six agents with a sparse middle layer and a layer-skip edge S3 -> T.
SPARSE_SKIP_GRAPH = {
    "layers": [["S1", "S2", "S3"], ["M1", "M2"], ["T"]],
    "edges": [
        ["S1", "M1"], ["S2", "M1"], ["S2", "M2"],
        ["M1", "T"], ["M2", "T"], ["S3", "T"],
    ],
}

# The committed sparse 6-6-6-1 benchmark graph: 19 agents, 239,367 viable masks.
WIDE_GRAPH = Path(__file__).resolve().parents[1] / "benchmarks" / "wide_6661.json"

# The external data of a single fixture episode.
FEATURES = MarketFeatures(
    sentiment=0.4,
    fundamental=0.2,
    closes=(100.0, 101.0, 99.5, 102.0, 103.0, 101.5, 104.0, 105.0),
)

# sha256 of the comma-joined float.hex() of the 19 contributions that
# ``wide_phi_digest`` computes.
WIDE_PHI_SHA256 = "5f016f0498378ee26d18f08cf04a9dbcc8220ef41579f3cdec3316b75b5db84e"

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


def wide_phi_digest() -> str:
    """The digest of the seed-42 mock system's contributions on
    ``WIDE_GRAPH`` for one episode on ``FEATURES``, each coalition valued by
    its signed sink decision: plan, execution, valuation and aggregation at
    full width."""
    graph = load_graph_file(WIDE_GRAPH)
    game = evaluate_window(
        graph,
        enumerate_viable(graph),
        system_runner(build_system(graph, seed=42)),
        [FEATURES],
        signed_decision_value,
        lambda scores: scores[0],
    )
    return sha256(",".join(value.hex() for value in game.attribution.values).encode())


def check() -> int:
    """Run every pinned command and the wide attribution; print one line
    each and return the number of runs whose digests differ from the pinned
    ones."""
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
    ok = wide_phi_digest() == WIDE_PHI_SHA256
    failed += not ok
    print(f"{'ok  ' if ok else 'FAIL'} wide-phi")
    return failed


if __name__ == "__main__":
    print(f"Python {sys.version.split()[0]}")
    sys.exit(1 if check() else 0)
