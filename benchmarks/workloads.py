"""Benchmark workloads: their inputs, the timed program call, and output checks.

Inputs are made from the run seed alone, and the program receives only those
inputs. The checks read the files and text the program writes for its users
and compare the decision-relevant parts (Shapley values, bottlenecks,
triggered cycles, strategy rows) across the iterations of one run and, for
the pinned seed, against ``golden.json``. Cost lines (``cost:``, the
``cache_hits`` counter) are not compared: their names are due to change.

This module imports dagcredit only inside functions, so that the set-up
probe can time the package import itself.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import shutil
from pathlib import Path
from typing import Any, Callable, Mapping

BENCH_DIR = Path(__file__).resolve().parent
WIDE_GRAPH = BENCH_DIR / "wide_6661.json"
GOLDEN_FILE = BENCH_DIR / "golden.json"
GOLDEN_SEED = 42

BACKTEST_DAYS = 250
WINDOW_LEN = 5
WINDOWS = BACKTEST_DAYS // WINDOW_LEN
# Each window's decision days (all but its last day) are attributed once in
# the tuned pass and once in the frozen pass.
BACKTEST_EPISODES = WINDOWS * (WINDOW_LEN - 1) * 2
# The reference 3-3-1 graph: 73 memoized executions per episode (the paper's
# count); the unshared replay of all 2^7 subsets runs 7 * 2^6 = 448.
REFERENCE_MEMOIZED = 73
REFERENCE_REPLAY = 448
# Memoized executions of one episode of the committed 6-6-6-1 graph, and its
# viable coalitions, as measured when the graph was committed.
WIDE_EXECUTIONS = 263_313
WIDE_VIABLE = 239_367

STRATEGIES = ("tuned-agents", "frozen-agents", "buy-hold", "macd-12-26-9", "sma-20-50")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def _contribution_lines(text: str) -> list[str]:
    """The agent rows and the total row of an ``agent contributions:`` block."""
    lines = text.splitlines()
    start = lines.index("agent contributions:") + 1
    out = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        out.append(line)
    return out


def _parse_rows(rows: list[str]) -> tuple[list[str], list[float], float]:
    names, values, total = [], [], math.nan
    for row in rows:
        name, value = row.split()
        if name == "total":
            total = float(value)
        else:
            names.append(name)
            values.append(float(value))
    return names, values, total


def _field(text: str, label: str) -> list[str]:
    line = next(l for l in text.splitlines() if l.startswith(label))
    return line[len(label):].split()


def _sharpe(returns: list[float]) -> float:
    """Raw Sharpe with the sample standard deviation; 0 for a flat series."""
    mean = math.fsum(returns) / len(returns)
    var = math.fsum((r - mean) ** 2 for r in returns) / (len(returns) - 1)
    return 0.0 if var == 0.0 else mean / math.sqrt(var)


@dataclasses.dataclass(frozen=True)
class Outputs:
    """Decision-relevant outputs of one iteration, as text sections, plus the
    problems found in them."""

    sections: dict[str, str]
    problems: list[str]


@dataclasses.dataclass(frozen=True)
class BacktestWorkload:
    """``run_backtest`` over 250 synthetic days on the reference 3-3-1 graph."""

    name: str
    engine: str
    entry = "dagcredit.backtest"
    episodes = BACKTEST_EPISODES

    @property
    def max_executions(self) -> int:
        per_episode = REFERENCE_MEMOIZED + (REFERENCE_REPLAY if self.engine == "both" else 0)
        return per_episode * self.episodes

    def make_input(self, seed: int, run_dir: str | Path) -> Any:
        from dagcredit.config import RunConfig

        return RunConfig(days=BACKTEST_DAYS, engine=self.engine, seed=seed).validate()

    def prepare(self, modules: Mapping[str, Any], config: Any, out_dir: Path) -> Callable[[], Any]:
        config = dataclasses.replace(config, out_dir=str(out_dir))
        run_backtest = modules["backtest"].run_backtest
        return lambda: run_backtest(config)

    def read_outputs(self, result: Any, out_dir: Path) -> Outputs:
        problems: list[str] = []
        sections: dict[str, str] = {}
        for sub in ("windows", "frozen"):
            files = sorted((out_dir / sub).glob("window_*.txt"))
            if len(files) != WINDOWS:
                problems.append(f"{sub}: {len(files)} window reports, expected {WINDOWS}")
            kept = []
            for path in files:
                text = path.read_text(encoding="utf-8")
                rows = _contribution_lines(text)
                _, values, total = _parse_rows(rows)
                window_sharpe = float(_field(text, "window_sharpe_raw:")[0])
                returns = [float(r) for r in _field(text, "returns:")]
                # The returns are printed to 8 decimals, hence the tolerance.
                if not math.isclose(_sharpe(returns), window_sharpe, rel_tol=1e-3, abs_tol=1e-5):
                    problems.append(f"{sub}/{path.name}: window Sharpe does not match its returns")
                # Efficiency: the values share out v(grand) - v(empty), and the
                # empty coalition cannot trade, so they sum to the window Sharpe.
                if not (abs(math.fsum(values) - total) <= 1e-8 and abs(total - window_sharpe) <= 1e-6):
                    problems.append(f"{sub}/{path.name}: contributions do not sum to the window Sharpe")
                diff = [l for l in text.splitlines() if l.startswith("exact_vs_pruned_max_diff:")]
                if self.engine == "both" and diff != ["exact_vs_pruned_max_diff: 0.000e+00"]:
                    problems.append(f"{sub}/{path.name}: exact and pruned engines differ: {diff}")
                kept.append(path.name + "\n" + "\n".join(rows + diff))
            sections[sub] = "\n".join(kept)

        cycles = []
        lines = (out_dir / "cycles.jsonl").read_text(encoding="utf-8").splitlines()
        if len(lines) != WINDOWS:
            problems.append(f"cycles.jsonl: {len(lines)} records, expected {WINDOWS}")
        for line in lines:
            record = json.loads(line)
            if record["triggered"] != (record["bottleneck"] is not None):
                problems.append(f"cycle {record['cycle']}: triggered disagrees with bottleneck")
            cycles.append(json.dumps(
                {k: record[k] for k in ("cycle", "bottleneck", "triggered", "contributions")},
                sort_keys=True,
            ))
        sections["cycles"] = "\n".join(cycles)

        summary = (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines()
        rows = [l for l in summary if l.split(" ", 1)[0] in STRATEGIES]
        if [r.split()[0] for r in rows] != list(STRATEGIES):
            problems.append(f"summary.txt: strategy rows {rows}")
        sections["strategies"] = "\n".join(rows)
        return Outputs(sections, problems)


@dataclasses.dataclass(frozen=True)
class AttributeWorkload:
    """``dagcredit shapley`` with the pruned engine on the committed 19-agent graph."""

    name: str
    entry = "dagcredit.cli"
    episodes = 1
    max_executions = WIDE_EXECUTIONS

    def make_input(self, seed: int, run_dir: str | Path) -> list[str]:
        graph = Path(run_dir) / "graph.json"
        shutil.copyfile(WIDE_GRAPH, graph)
        return ["shapley", "--graph", str(graph), "--engine", "dag", "--seed", str(seed)]

    def prepare(self, modules: Mapping[str, Any], argv: list[str], out_dir: Path) -> Callable[[], Any]:
        main = modules["cli"].main
        argv = [*argv, "--out", str(out_dir)]

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            return code, buf.getvalue()

        return call

    def read_outputs(self, result: Any, out_dir: Path) -> Outputs:
        code, stdout = result
        problems: list[str] = []
        if code != 0:
            problems.append(f"exit code {code}")
        written = (out_dir / "attribution.txt").read_text(encoding="utf-8")
        if written != stdout:
            problems.append("attribution.txt differs from the printed table")
        rows = _contribution_lines(stdout)
        names, values, total = _parse_rows(rows)
        expected = [n for layer in json.loads(WIDE_GRAPH.read_text())["layers"] for n in layer]
        if names != expected:
            problems.append(f"agents {names}, expected {expected}")
        # The grand coalition's value is a signed decision confidence in [-1, 1].
        if not (abs(math.fsum(values) - total) <= 1e-8 and abs(total) <= 1.0):
            problems.append(f"contributions sum {math.fsum(values)} vs total {total}")
        return Outputs({"contributions": "\n".join(rows)}, problems)


# Why each workload was chosen is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        BacktestWorkload("backtest-ref", "dag"),
        BacktestWorkload("backtest-ref-exact", "both"),
        AttributeWorkload("attribute-wide"),
    )
}


class OutputCheck:
    """Checks each iteration's outputs against the run's first iteration and,
    for the pinned seed, against the golden digests."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.first: dict[str, str] | None = None
        self.golden = load_golden()[workload.name] if seed == GOLDEN_SEED else None

    def __call__(self, result: Any, out_dir: Path) -> list[str]:
        outputs = self.workload.read_outputs(result, out_dir)
        problems = list(outputs.problems)
        digests = {k: digest(v) for k, v in outputs.sections.items()}
        if self.first is None:
            self.first = digests
        for k in sorted(set(digests) | set(self.first)):
            if digests.get(k) != self.first.get(k):
                problems.append(f"{k}: differs from this run's first iteration")
        if self.golden is not None:
            for k in sorted(set(digests) | set(self.golden)):
                if digests.get(k) != self.golden.get(k):
                    problems.append(f"{k}: differs from the pinned seed-{GOLDEN_SEED} output")
        return problems
