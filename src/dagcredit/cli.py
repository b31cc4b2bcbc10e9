"""Command-line interface.

One entry point with five subcommands: ``validate`` and ``coalitions``
inspect a workflow graph, ``shapley`` attributes a seeded fixture
episode (day 10 of a 10-day synthetic series), ``cost`` counts memoized
executions on a graph without running agents, and ``backtest`` runs the
full windowed experiment. ``shapley`` and ``backtest`` both attribute
through ``backtest.evaluate_window``. ``shapley`` reads no market, feature
or prompt files and none of the backtest's settings (``days``,
``window_len``, ``threshold``, ``lesson_cap``, ``symbol``), so a config
that names a file or sets one of these to other than its default exits 1.
So does a ``backtest`` on market files that sets ``days``, ``regime`` or
``signal_strength``, which shape only a synthetic market, off its default,
and a ``backtest`` whose ``--out`` already holds an earlier run's
``summary.txt``, ``cycles.jsonl``, ``windows/``, ``frozen/`` or
``prompts/``, which it names before any work, so that no report tree mixes
two runs' files. Identical invocations with the same config and seed print
and write byte-identical output.

Each flag's argparse ``dest`` is the ``RunConfig`` field it sets (``--out``
sets ``out_dir``; ``--graph`` and the graph argument set ``graph_file``), and
a flag that is given wins over the ``--config`` file, which wins over the
defaults. So every command that takes a graph runs the config file's
``graph_file`` unless a flag names another.

The ``engine`` option is ``dag`` (the pruned engine) or ``both``, which also
replays every subset classically and requires each subset's replay value
to equal the pruned engine's bit for bit. ``shapley`` prints the
contributions and the pruned engine's runner calls, then under ``both`` the
replay's runner calls, the execution reduction and the number of subsets
that agreed. Engines that differ end the command with exit 3.

Exit codes: 0 success, 1 an ``InputError`` (the root of every bad-input
error the package raises: a graph, config, data file or setting it cannot
run, a malformed or cyclic input file included), 2 I/O error or a
command-line usage error (such as an unknown flag or an engine other than
``dag`` and ``both``), 3 runtime failure (an agent that raised, or engines
that disagree under ``both``), 141 standard output closed by its reader
before the command finished, as ``| head`` does (128 + SIGPIPE, the code a
shell reports for a command that signal ends), with nothing on stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from pathlib import Path

from . import backtest as bt
from .agents import build_system, signed_decision_value, system_runner
from .coalitions import coalition_names, enumerate_viable
from .config import (
    ENGINES, REGIMES, RunConfig, config_graph, load_config, merge_flags, reject_unread,
)
from .graph import InputError
from .shapley import (
    classical_cost, format_attribution, format_replay_check, live_plan, predicted_cost,
)

# What main returns when the reader of standard output closes it early.
EXIT_PIPE_CLOSED = 141

_GRAPH_HELP = "graph JSON file (default: built-in reference)"


def _common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON run config file")
    sub.add_argument(
        "--out", dest="out_dir", metavar="OUT", help="output directory for report files"
    )


def _graph_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", dest="graph_file", metavar="GRAPH", help=_GRAPH_HELP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagcredit",
        description="Shapley credit assignment and prompt tuning for layered agent workflows",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a workflow graph definition")
    p.add_argument("graph_file", nargs="?", metavar="graph", help=_GRAPH_HELP)
    p.set_defaults(func=cmd_validate)

    p = subs.add_parser("coalitions", help="list viable coalitions")
    p.add_argument("graph_file", nargs="?", metavar="graph", help=_GRAPH_HELP)
    _common_flags(p)
    p.set_defaults(func=cmd_coalitions)

    p = subs.add_parser("shapley", help="attribute a seeded fixture episode")
    _graph_flag(p)
    p.add_argument("--engine", choices=ENGINES, help="attribution engine")
    _common_flags(p)
    p.add_argument("--seed", type=int, help="run seed (overrides config)")
    p.set_defaults(func=cmd_shapley)

    p = subs.add_parser("cost", help="count memoized executions without running agents")
    _graph_flag(p)
    p.set_defaults(func=cmd_cost)

    p = subs.add_parser("backtest", help="run the windowed trading experiment")
    _graph_flag(p)
    p.add_argument("--market", dest="market_csv", metavar="MARKET",
                   help="OHLCV CSV file (requires --features)")
    p.add_argument("--features", dest="features_csv", metavar="FEATURES",
                   help="per-day feature CSV file")
    p.add_argument("--days", type=int, help="synthetic run length in trading days")
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--signal-strength", type=float, dest="signal_strength")
    p.add_argument("--window-len", type=int, dest="window_len")
    p.add_argument("--threshold", type=float, help="tuning trigger threshold")
    p.add_argument("--lesson-cap", type=int, dest="lesson_cap")
    p.add_argument("--engine", choices=ENGINES)
    p.add_argument("--symbol")
    _common_flags(p)
    p.add_argument("--seed", type=int, help="run seed (overrides config)")
    p.set_defaults(func=cmd_backtest)

    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file (or the defaults) with every given flag laid over it."""
    flags = vars(args)
    config = load_config(flags["config"]) if flags.get("config") else RunConfig()
    return merge_flags(config, flags)


def cmd_validate(args: argparse.Namespace) -> int:
    graph = config_graph(_build_config(args))
    print(
        f"valid: {graph.n} agents, {len(graph.layers)} layers, "
        f"{len(graph.sources)} sources, sink {graph.names[graph.sink]}"
    )
    return 0


def cmd_coalitions(args: argparse.Namespace) -> int:
    config = _build_config(args)
    graph = config_graph(config)
    viable = enumerate_viable(graph)
    total = 1 << graph.n
    summary = (
        f"{len(viable)}/{total} viable ({100.0 * (1.0 - len(viable) / total):.1f}% pruned)"
    )
    # Each line is written as it is named, so no list of lines is held: the
    # wide graph has 239,367 of them.
    with contextlib.ExitStack() as stack:
        sinks = [sys.stdout]
        if config.out_dir:
            out = Path(config.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            sinks.append(stack.enter_context(
                (out / "coalitions.txt").open("w", encoding="utf-8", newline="\n")
            ))
        for line in itertools.chain(
            (coalition_names(graph, mask) for mask in viable), [summary]
        ):
            line += "\n"
            for sink in sinks:
                sink.write(line)
    return 0


def cmd_shapley(args: argparse.Namespace) -> int:
    config = _build_config(args)
    reject_unread(config, (
        "market_csv", "features_csv", "prompts_dir",
        "days", "window_len", "threshold", "lesson_cap", "symbol",
    ), "shapley attributes a synthetic fixture episode; remove {} from the config")
    graph = config_graph(config)
    # The fixture episode is the last day of a 10-day synthetic series, so
    # the technical window is fully populated. Its symbol is never printed.
    market = bt.synthesize_market(
        config.seed, days=10, regime=config.regime, signal_strength=config.signal_strength
    )
    # A coalition is valued by its signed sink decision, the score of its one
    # episode; one whose sink never runs is worth zero.
    game = bt.evaluate_window(
        live_plan(graph, enumerate_viable(graph)),
        system_runner(build_system(graph, config.seed)),
        [market.for_day(9)],
        signed_decision_value,
        lambda scores: scores[0],
        config.engine,
    )
    text = format_attribution(graph, game.attribution)
    text += f"\ncost: agent_executions={game.agent_executions}"
    if config.engine == "both":
        text += "\n" + format_replay_check(graph, game.agent_executions, game.replay_executions)
    print(text)
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "attribution.txt").write_text(text + "\n", encoding="utf-8", newline="\n")
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    graph = config_graph(_build_config(args))
    predicted = predicted_cost(graph)
    evals, execs = classical_cost(graph.n)
    print(f"layer sizes: {[len(layer) for layer in graph.layers]}")
    for i, (layer, count) in enumerate(zip(graph.layers, predicted.layer_executions)):
        print(f"  layer {i}: size {len(layer)}, executions {count}")
    print(f"viable coalitions: {predicted.viable_coalitions} of {1 << graph.n}")
    print(f"memoized executions: {predicted.total_executions}")
    print(f"classical: evaluations {evals}, executions {execs}")
    print(f"execution reduction: {100.0 * (1.0 - predicted.total_executions / execs):.1f}%")
    return 0


def cmd_backtest(args: argparse.Namespace) -> int:
    config = _build_config(args)
    result = bt.run_backtest(config)
    triggered = sum(1 for c in result.cycles if c.triggered)
    print(
        f"{len(result.windows)} windows, {triggered} triggered cycles, "
        f"{len(result.market.days)} trading days"
    )
    print("\n".join(bt.format_strategies(result.strategies)))
    if config.out_dir:
        print(f"reports written to {config.out_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here, so that a reader gone early is caught below and not
        # at the interpreter's exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Not an I/O failure: the reader has all it wanted. Python flushes
        # stdout again at exit, so point it at devnull to keep that silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE_CLOSED
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
