"""Command-line interface.

One entry point with five subcommands: ``validate`` and ``coalitions``
inspect a workflow graph, ``shapley`` compares attribution engines on a
seeded fixture, ``cost`` predicts memoized execution counts from layer sizes,
and ``backtest`` runs the full windowed experiment. Identical invocations
with the same config and seed print and write byte-identical output.

Exit codes: 0 success, 1 validation or config error, 2 I/O error, 3 runtime
failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import backtest as bt
from . import shapley as sh
from .agents import (
    ForbiddenExternalAccess,
    InvalidAgentOutput,
    MissingExternalData,
    RoleMismatch,
    build_system,
    signed_decision_value,
    system_runner,
)
from .coalitions import GraphTooLarge, InvalidCoalition, coalition_names, enumerate_viable
from .config import ConfigError, RunConfig, load_config, load_graph_file, merge_flags
from .graph import GraphValidationError, reference_graph
from .optimizer import ReflectorError, WindowTooShort
from .shapley import (
    CostCounters,
    InvalidSize,
    NonDeterminismDetected,
    TooManyAgents,
    classical_cost,
    format_attribution_table,
    predicted_cost,
    shapley_dag,
    shapley_exact,
)

_VALIDATION_ERRORS = (
    ConfigError,
    GraphValidationError,
    GraphTooLarge,
    InvalidCoalition,
    InvalidSize,
    TooManyAgents,
    RoleMismatch,
    WindowTooShort,
    bt.ParseError,
    bt.NonPositivePrice,
    bt.DuplicateDate,
    bt.UnsortedDates,
    bt.TooFewReturns,
    bt.InsufficientData,
)

_RUNTIME_ERRORS = (
    MissingExternalData,
    ForbiddenExternalAccess,
    InvalidAgentOutput,
    ReflectorError,
    NonDeterminismDetected,
)


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run config file")
    sub.add_argument("--out", help="output directory for report files")
    sub.add_argument("--seed", type=int, help="run seed (overrides config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagcredit",
        description="Shapley credit assignment and prompt tuning for layered agent workflows",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a workflow graph definition")
    p.add_argument("graph", nargs="?", help="graph JSON file (default: built-in reference)")
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("coalitions", help="list viable coalitions")
    p.add_argument("graph", nargs="?", help="graph JSON file (default: built-in reference)")
    _common_flags(p)
    p.set_defaults(func=cmd_coalitions)

    p = subs.add_parser("shapley", help="attribute a seeded fixture episode")
    p.add_argument("--graph", help="graph JSON file (default: built-in reference)")
    p.add_argument("--engine", choices=("exact", "dag", "both"), help="attribution engine")
    _common_flags(p)
    p.set_defaults(func=cmd_shapley)

    p = subs.add_parser("cost", help="predict memoized execution counts")
    p.add_argument("layers", help="comma-separated layer sizes, e.g. 3,3,1")
    p.add_argument(
        "--mandatory",
        help="comma-separated 0/1 flags per layer (default: all 1)",
    )
    p.set_defaults(func=cmd_cost)

    p = subs.add_parser("backtest", help="run the windowed trading experiment")
    p.add_argument("--graph", help="graph JSON file (default: built-in reference)")
    p.add_argument("--market", help="OHLCV CSV file (requires --features)")
    p.add_argument("--features", help="per-day feature CSV file")
    p.add_argument("--days", type=int, help="synthetic run length in trading days")
    p.add_argument("--regime", choices=("bull", "bear", "sideways"))
    p.add_argument("--signal-strength", type=float, dest="signal_strength")
    p.add_argument("--window-len", type=int, dest="window_len")
    p.add_argument("--threshold", type=float, help="tuning trigger threshold")
    p.add_argument("--lesson-cap", type=int, dest="lesson_cap")
    p.add_argument("--engine", choices=("exact", "dag", "both"))
    p.add_argument("--symbol")
    _common_flags(p)
    p.set_defaults(func=cmd_backtest)

    return parser


def _build_config(args: argparse.Namespace, **extra) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    return merge_flags(config, seed=args.seed, out_dir=args.out, **extra)


def _load_graph(path: str | None):
    return load_graph_file(path) if path else reference_graph()


def cmd_validate(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    print(
        f"valid: {graph.n} agents, {len(graph.layers)} layers, "
        f"{len(graph.sources)} sources, sink {graph.names[graph.sink]}"
    )
    return 0


def cmd_coalitions(args: argparse.Namespace) -> int:
    config = _build_config(args)
    graph = _load_graph(args.graph)
    viable = enumerate_viable(graph)
    total = 1 << graph.n
    lines = [coalition_names(graph, mask) for mask in viable]
    summary = (
        f"{len(viable)}/{total} viable ({100.0 * (1.0 - len(viable) / total):.1f}% pruned)"
    )
    for line in lines:
        print(line)
    print(summary)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "coalitions.txt").write_text(
            "\n".join(lines + [summary]) + "\n", encoding="utf-8"
        )
    return 0


def _fixture_episode(graph, config: RunConfig):
    # Deterministic one-day fixture: a short synthetic series; the episode is
    # its final day so the technical window is fully populated.
    _, features = bt.synthesize_market(
        config.seed, days=10, regime=config.regime,
        signal_strength=config.signal_strength, symbol=config.symbol,
    )
    specs = build_system(graph, config.seed)
    return system_runner(specs), features.for_day(9)


def cmd_shapley(args: argparse.Namespace) -> int:
    config = _build_config(args, engine=args.engine)
    graph = _load_graph(args.graph)
    run_agent, episode = _fixture_episode(graph, config)
    viable = enumerate_viable(graph)

    # Each engine values a coalition by its signed sink decision; a coalition
    # whose sink never runs is absent from the table and worth zero.
    results = {}
    if config.engine in ("dag", "both"):
        run = sh.layered_run(graph, viable, run_agent, episode)
        values = {mask: signed_decision_value(out) for mask, out in run.sink_outputs.items()}
        results["dag"] = shapley_dag(graph, values, run.counters)
    if config.engine in ("exact", "both"):
        values, counters = {}, CostCounters()
        for mask in range(1 << graph.n):
            replay = sh.replay_coalition(graph, mask, run_agent, episode)
            counters.agent_executions += replay.executions
            if replay.sink_output is not None:
                values[mask] = signed_decision_value(replay.sink_output)
        results["exact"] = shapley_exact(values, graph.n, counters)

    text = format_attribution_table(graph, results)
    print(text)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "attribution.txt").write_text(text + "\n", encoding="utf-8")
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    try:
        sizes = [int(x) for x in args.layers.split(",") if x != ""]
    except ValueError:
        raise ConfigError(f"bad layer sizes {args.layers!r}") from None
    flags = None
    if args.mandatory is not None:
        parts = [x.strip() for x in args.mandatory.split(",") if x != ""]
        if any(x not in ("0", "1") for x in parts):
            raise ConfigError(f"bad mandatory flags {args.mandatory!r}: use 0 or 1")
        flags = [x == "1" for x in parts]
    predicted = predicted_cost(sizes, flags)
    n = sum(sizes)
    evals, execs = classical_cost(n)
    print(f"layer sizes: {sizes}  mandatory: {flags if flags is not None else [True] * len(sizes)}")
    for i, (size, configs) in enumerate(zip(sizes, predicted.unique_configs)):
        print(f"  layer {i}: size {size}, upstream configs {configs}, executions {configs * size}")
    print(f"viable coalitions: {predicted.viable_coalitions} of {1 << n}")
    print(f"memoized executions: {predicted.total_executions}")
    print(f"classical: evaluations {evals}, executions {execs}")
    print(f"execution reduction: {100.0 * (1.0 - predicted.total_executions / execs):.1f}%")
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    config = _build_config(
        args,
        graph_file=args.graph,
        market_csv=args.market,
        features_csv=args.features,
        days=args.days,
        regime=args.regime,
        signal_strength=args.signal_strength,
        window_len=args.window_len,
        threshold=args.threshold,
        lesson_cap=args.lesson_cap,
        engine=args.engine,
        symbol=args.symbol,
    )
    result = bt.run_backtest(config)
    triggered = sum(1 for c in result.cycles if c.triggered)
    print(
        f"{len(result.windows)} windows, {triggered} triggered cycles, "
        f"{len(result.market)} trading days"
    )
    print(f"{'strategy':<16} {'total_return':>14} {'sharpe_annual':>14} {'max_drawdown':>14}")
    for s in result.strategies:
        print(
            f"{s.name:<16} {s.total_return:>+14.6f} {s.sharpe_annual:>+14.6f} "
            f"{s.max_drawdown:>14.6f}"
        )
    if config.out_dir:
        print(f"reports written to {config.out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
