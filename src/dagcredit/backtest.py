"""Windowed trading backtest with coalition games and the tuning loop.

Decisions made on day t earn day t+1's simple return. Trading days are
partitioned into fixed-length windows; within each window every viable
coalition is replayed share-aware (one memoized episode per day), the
per-coalition window Sharpe defines the coalition game, Shapley contributions
are computed, and at most one agent's prompt is updated for the next window.
A frozen-prompt pass and three classic baselines run on exactly the same
decision days for comparison.

The two agent passes run window by window. Both passes of a window share one
execution memo, so on each day the frozen pass calls an agent only where the
agent or a member upstream of it in the coalition has a prompt the tuned pass
had changed; the memo is dropped after the window, which keeps memory
bounded by one window.
"""
from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass
from datetime import date, timedelta
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Sequence

from .agents import (
    AgentSpec,
    Decision,
    MarketFeatures,
    TradeDecision,
    build_system,
    render_prompt,
    system_runner,
)
from .coalitions import coalition_names, enumerate_viable
from .config import ConfigError, RunConfig, load_graph_file, load_prompts_dir
from .graph import WorkflowGraph, reference_graph
from .optimizer import (
    CycleRecord,
    HistoryRecord,
    WindowTooShort,
    run_cycle,
)
from .shapley import (
    AttributionResult,
    CostCounters,
    ExecutionMemo,
    LivePlan,
    format_attribution,
    layered_run,
    live_plan,
    replay_coalition,
    shapley_dag,
    shapley_exact,
)

TRADING_DAYS_PER_YEAR = 252

MARKET_HEADER = ["date", "open", "high", "low", "close", "volume"]
FEATURE_HEADER = ["date", "sentiment", "fundamental"]

STRATEGY_TUNED = "tuned-agents"
STRATEGY_FROZEN = "frozen-agents"
STRATEGY_BUY_HOLD = "buy-hold"
STRATEGY_MACD = "macd-12-26-9"
STRATEGY_SMA = "sma-20-50"


class ParseError(ValueError):
    pass


class NonPositivePrice(ValueError):
    pass


class DuplicateDate(ValueError):
    pass


class UnsortedDates(ValueError):
    pass


class TooFewReturns(ValueError):
    pass


class InsufficientData(ValueError):
    pass


# ---------------------------------------------------------------------------
# market data


@dataclass(frozen=True)
class Bar:
    day: date
    open: float
    high: float
    low: float
    close: float
    volume: float


@dataclass(frozen=True)
class MarketSeries:
    symbol: str
    bars: tuple[Bar, ...]

    def __len__(self) -> int:
        return len(self.bars)

    @cached_property
    def days(self) -> tuple[date, ...]:
        return tuple(b.day for b in self.bars)

    @property
    def closes(self) -> tuple[float, ...]:
        return tuple(b.close for b in self.bars)

    def step_return(self, i: int) -> float:
        """Simple return earned holding from day i to day i+1."""
        if not 0 <= i < len(self.bars) - 1:
            raise IndexError(f"no next-day return for day index {i}")
        return self.bars[i + 1].close / self.bars[i].close - 1.0


@dataclass(frozen=True)
class FeatureView:
    """Per-day external data for source agents, aligned with the market days."""

    days: tuple[date, ...]
    sentiment: tuple[float, ...]
    fundamental: tuple[float, ...]
    closes: tuple[float, ...]
    lookback: int = 10

    def for_day(self, i: int) -> MarketFeatures:
        start = max(0, i - self.lookback + 1)
        return MarketFeatures(
            sentiment=self.sentiment[i],
            fundamental=self.fundamental[i],
            closes=self.closes[start : i + 1],
        )


def load_market_csv(path: str | Path, symbol: str = "CSV") -> MarketSeries:
    """Parse and validate an OHLCV file.

    The header must be exactly ``date,open,high,low,close,volume``; dates are
    ISO format, strictly increasing, prices strictly positive.
    """
    rows = _read_csv(path, MARKET_HEADER)
    bars: list[Bar] = []
    prev: date | None = None
    for lineno, row in rows:
        day = _parse_date(row["date"], lineno)
        numbers = {}
        for col in ("open", "high", "low", "close", "volume"):
            try:
                numbers[col] = float(row[col])
            except ValueError:
                raise ParseError(f"line {lineno}: bad number in column {col!r}") from None
        for col in ("open", "high", "low", "close"):
            if not numbers[col] > 0:
                raise NonPositivePrice(f"line {lineno}: {col} must be positive")
        if numbers["volume"] < 0:
            raise ParseError(f"line {lineno}: volume must be non-negative")
        if prev is not None:
            if day == prev:
                raise DuplicateDate(f"line {lineno}: duplicate date {day.isoformat()}")
            if day < prev:
                raise UnsortedDates(f"line {lineno}: dates must be increasing")
        prev = day
        bars.append(Bar(day, **numbers))
    if len(bars) < 2:
        raise InsufficientData("need at least two market days")
    return MarketSeries(symbol=symbol, bars=tuple(bars))


def load_features_csv(path: str | Path, market: MarketSeries) -> FeatureView:
    """Parse the per-day feature file and check it covers every market day."""
    rows = _read_csv(path, FEATURE_HEADER)
    by_day: dict[date, tuple[float, float]] = {}
    for lineno, row in rows:
        day = _parse_date(row["date"], lineno)
        if day in by_day:
            raise DuplicateDate(f"line {lineno}: duplicate date {day.isoformat()}")
        try:
            sent = float(row["sentiment"])
            fund = float(row["fundamental"])
        except ValueError:
            raise ParseError(f"line {lineno}: bad feature number") from None
        for name, value in (("sentiment", sent), ("fundamental", fund)):
            if not -1.0 <= value <= 1.0:
                raise ParseError(f"line {lineno}: {name} outside [-1, 1]")
        by_day[day] = (sent, fund)
    missing = [d for d in market.days if d not in by_day]
    if missing:
        raise InsufficientData(
            f"features missing for {len(missing)} market days, first {missing[0]}"
        )
    sent = tuple(by_day[d][0] for d in market.days)
    fund = tuple(by_day[d][1] for d in market.days)
    return FeatureView(market.days, sent, fund, market.closes)


def _read_csv(path: str | Path, header: list[str]) -> list[tuple[int, dict[str, str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if [c.strip() for c in first] != header:
            raise ParseError(f"{path}: header must be {','.join(header)}")
        out = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"line {lineno}: expected {len(header)} columns")
            out.append((lineno, dict(zip(header, row))))
    return out


def _parse_date(text: str, lineno: int) -> date:
    try:
        return date.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"line {lineno}: bad date {text!r}") from None


def _next_weekday(d: date) -> date:
    d = d + timedelta(days=1)
    while d.weekday() >= 5:
        d += timedelta(days=1)
    return d


def synthesize_market(
    seed: int,
    days: int,
    regime: str = "bull",
    signal_strength: float = 0.6,
    symbol: str = "SYNTH",
) -> tuple[MarketSeries, FeatureView]:
    """Seeded geometric random walk plus features that lead the returns.

    Regimes set the daily drift (bull +, bear -, sideways 0). The sentiment
    feature mixes the next day's standardized return with noise at
    ``signal_strength``; the fundamental feature does the same for the
    forward five-day mean through a slow exponential smooth. At strength zero
    both features are pure noise.
    """
    drifts = {"bull": 0.0012, "bear": -0.0012, "sideways": 0.0}
    if regime not in drifts:
        raise ConfigError(f"unknown regime {regime!r}")
    if days < 2:
        raise InsufficientData("need at least two synthetic days")
    if not 0.0 <= signal_strength <= 1.0:
        raise ConfigError("signal_strength must be in [0, 1]")
    vol = 0.015
    rng = random.Random(seed)
    shocks = [rng.gauss(0.0, 1.0) for _ in range(days)]
    noise_sent = [rng.uniform(-1.0, 1.0) for _ in range(days)]
    noise_fund = [rng.uniform(-1.0, 1.0) for _ in range(days)]
    noise_vol = [rng.uniform(0.0, 1.0) for _ in range(days)]

    rets = [drifts[regime] + vol * z for z in shocks]
    closes = []
    level = 100.0
    for r in rets:
        level *= 1.0 + r
        closes.append(level)

    bars = []
    day = date(2024, 1, 2)
    for i in range(days):
        open_ = closes[i - 1] if i > 0 else 100.0
        body_hi = max(open_, closes[i])
        body_lo = min(open_, closes[i])
        wiggle = 0.3 * abs(rets[i]) + 0.001
        bars.append(
            Bar(
                day=day,
                open=open_,
                high=body_hi * (1.0 + wiggle),
                low=body_lo * (1.0 - wiggle),
                close=closes[i],
                volume=float(round(1_000_000 * (0.75 + 0.5 * noise_vol[i]))),
            )
        )
        day = _next_weekday(day)
    market = MarketSeries(symbol=symbol, bars=tuple(bars))

    sentiment = []
    for i in range(days):
        lead = math.tanh(rets[i + 1] / vol) if i + 1 < days else 0.0
        raw = signal_strength * lead + (1.0 - signal_strength) * noise_sent[i]
        sentiment.append(max(-1.0, min(1.0, raw)))

    fundamental = []
    smooth = 0.0
    for i in range(days):
        horizon = rets[i + 1 : i + 6]
        lead = math.tanh(sum(horizon) / (vol * max(1, len(horizon)))) if horizon else 0.0
        smooth = 0.8 * smooth + 0.2 * lead
        raw = signal_strength * smooth + (1.0 - signal_strength) * 0.5 * noise_fund[i]
        fundamental.append(max(-1.0, min(1.0, raw)))

    view = FeatureView(market.days, tuple(sentiment), tuple(fundamental), market.closes)
    return market, view


# ---------------------------------------------------------------------------
# metrics


def sharpe(returns: Sequence[float], rf_daily: float = 0.0) -> float:
    """Raw (non-annualized) Sharpe ratio with sample standard deviation.

    A zero-variance series scores 0 by convention; fewer than two returns is
    an error rather than a silent zero.
    """
    if len(returns) < 2:
        raise TooFewReturns("sharpe needs at least two returns")
    excess = [r - rf_daily for r in returns]
    sd = statistics.stdev(excess)
    if sd == 0.0:
        return 0.0
    return statistics.mean(excess) / sd


def annualized_sharpe(returns: Sequence[float], rf_daily: float = 0.0) -> float:
    return sharpe(returns, rf_daily) * math.sqrt(TRADING_DAYS_PER_YEAR)


def build_equity(returns: Sequence[float], initial: float = 1.0) -> list[float]:
    """Compound an equity curve from simple returns, starting at ``initial``."""
    equity = [initial]
    for r in returns:
        equity.append(equity[-1] * (1.0 + r))
    return equity


def total_return(equity: Sequence[float]) -> float:
    if not equity:
        raise InsufficientData("empty equity curve")
    return equity[-1] / equity[0] - 1.0


def max_drawdown(equity: Sequence[float]) -> float:
    """Largest peak-to-trough decline as a fraction of the running peak."""
    if not equity:
        raise InsufficientData("empty equity curve")
    peak = equity[0]
    worst = 0.0
    for value in equity:
        peak = max(peak, value)
        worst = max(worst, 1.0 - value / peak)
    return worst


_POSITION = {Decision.BUY: 1, Decision.HOLD: 0, Decision.SELL: -1}


def decision_to_position(decision: Any) -> int:
    """Buy -> +1, Hold -> 0, Sell -> -1. ``None`` (no trader ran) is flat."""
    if decision is None:
        return 0
    action = decision.action if isinstance(decision, TradeDecision) else decision
    return _POSITION[action]


# ---------------------------------------------------------------------------
# coalition games over windows


def day_windows(total_days: int, window_len: int) -> list[list[int]]:
    """Consecutive full windows of day indices; a short tail is dropped."""
    if window_len < 2:
        raise ConfigError("window_len must be at least 2")
    windows = [
        list(range(start, start + window_len))
        for start in range(0, total_days - window_len + 1, window_len)
    ]
    if not windows:
        raise InsufficientData(
            f"{total_days} days cannot fill a {window_len}-day window"
        )
    return windows


@dataclass
class WindowGame:
    """One window's coalition games plus the grand coalition's actions and
    rewards on each decision day."""

    values_dag: dict[int, float] | None
    counters_dag: CostCounters | None
    values_exact: dict[int, float] | None
    counters_exact: CostCounters | None
    grand_actions: list[dict[int, Any]]
    rewards: list[float]


def evaluate_window(
    graph: WorkflowGraph,
    viable: Sequence[int],
    run_agent: Callable,
    market: MarketSeries,
    features: FeatureView,
    day_indices: Sequence[int],
    rf_daily: float = 0.0,
    engine: str = "dag",
    *,
    plan: LivePlan | None = None,
    memo: ExecutionMemo | None = None,
    prompts: Sequence[Any] | None = None,
) -> WindowGame:
    """Value every coalition's window Sharpe under the requested engine(s).

    The pruned engine runs one memoized episode per decision day over the
    viable coalitions (given by mask), with the tasks of ``plan`` (built when
    not given) and, when ``memo`` is given, the outputs it kept from earlier
    episodes under the agents' ``prompts`` (see ``layered_run``). The
    exhaustive engine replays every subset without sharing (the classical
    comparator). Both value a coalition by the raw Sharpe of its next-day
    return series. That series is a function of the coalition's positions on
    the decision days, so Sharpe runs once per distinct position vector in
    the window, shared by both engines.
    """
    if engine not in ("dag", "exact", "both"):
        raise ConfigError(f"unknown engine {engine!r}")
    if len(day_indices) < 3:
        raise WindowTooShort("need at least three days for a two-return window game")
    decision_days = list(day_indices[:-1])
    step_returns = [market.step_return(i) for i in decision_days]
    sharpe_by_positions: dict[tuple[int, ...], float] = {}

    def coalition_sharpe(decisions: Sequence[Any]) -> float:
        positions = tuple(decision_to_position(d) for d in decisions)
        if positions not in sharpe_by_positions:
            series = [p * r for p, r in zip(positions, step_returns)]
            sharpe_by_positions[positions] = sharpe(series, rf_daily)
        return sharpe_by_positions[positions]

    values_dag = counters_dag = None
    values_exact = counters_exact = None
    grand_actions: list[dict[int, Any]] = []

    if engine in ("dag", "both"):
        counters_dag = CostCounters()
        if plan is None:
            plan = live_plan(graph, viable)
        day_outputs: list[dict[int, Any]] = []
        for i in decision_days:
            run = layered_run(
                graph, viable, run_agent, features.for_day(i),
                plan=plan, memo=memo, prompts=prompts,
            )
            day_outputs.append(run.sink_outputs)
            grand_actions.append(run.grand_outputs)
            counters_dag = counters_dag.merged(run.counters)
        values_dag = {
            mask: coalition_sharpe([outputs[mask] for outputs in day_outputs])
            for mask in viable
        }
        counters_dag.coalition_evaluations = len(viable)

    if engine in ("exact", "both"):
        counters_exact = CostCounters()
        full = graph.full_mask
        exact_day_outputs: list[dict[int, Any]] = []
        exact_grand: list[dict[int, Any]] = []
        for i in decision_days:
            per_mask: dict[int, Any] = {}
            episode = features.for_day(i)
            for mask in range(1 << graph.n):
                result = replay_coalition(graph, mask, run_agent, episode)
                counters_exact.agent_executions += result.executions
                per_mask[mask] = result.sink_output
                if mask == full:
                    exact_grand.append(result.outputs)
            exact_day_outputs.append(per_mask)
        values_exact = {
            mask: coalition_sharpe([outputs[mask] for outputs in exact_day_outputs])
            for mask in range(1 << graph.n)
        }
        counters_exact.coalition_evaluations = 1 << graph.n
        if engine == "exact":
            grand_actions = exact_grand

    rewards = [
        decision_to_position(grand[graph.sink]) * r
        for grand, r in zip(grand_actions, step_returns)
    ]

    return WindowGame(
        values_dag=values_dag,
        counters_dag=counters_dag,
        values_exact=values_exact,
        counters_exact=counters_exact,
        grand_actions=grand_actions,
        rewards=rewards,
    )


def describe_output(output: Any) -> str:
    if isinstance(output, TradeDecision):
        return f"{output.action.value}@{output.confidence:.3f}"
    score = getattr(output, "score", None)
    if score is not None:
        return f"signal={score:.4f}"
    return repr(output)


# ---------------------------------------------------------------------------
# baselines


def _ema(values: Sequence[float], span: int) -> list[float]:
    k = 2.0 / (span + 1.0)
    out = [values[0]]
    for v in values[1:]:
        out.append(k * v + (1.0 - k) * out[-1])
    return out


def macd_positions(closes: Sequence[float], fast: int = 12, slow: int = 26, signal: int = 9) -> list[int]:
    """+1 when the MACD line is above its signal line, -1 below, 0 when equal."""
    line = [f - s for f, s in zip(_ema(closes, fast), _ema(closes, slow))]
    sig = _ema(line, signal)
    return [(1 if m > s else -1 if m < s else 0) for m, s in zip(line, sig)]


def sma_positions(closes: Sequence[float], fast: int = 20, slow: int = 50) -> list[int]:
    """+1/-1 on the fast/slow average cross; flat until both windows fill."""
    out = []
    for i in range(len(closes)):
        if i + 1 < slow:
            out.append(0)
            continue
        f = math.fsum(closes[i + 1 - fast : i + 1]) / fast
        s = math.fsum(closes[i + 1 - slow : i + 1]) / slow
        out.append(1 if f > s else -1 if f < s else 0)
    return out


# ---------------------------------------------------------------------------
# full run


@dataclass(frozen=True)
class WindowReport:
    index: int
    start: date
    end: date
    decision_days: tuple[date, ...]
    returns: tuple[float, ...]
    window_sharpe: float
    attribution: AttributionResult
    coalition_values: tuple[tuple[str, float], ...]
    exact_diff: float | None


@dataclass(frozen=True)
class StrategyReport:
    name: str
    returns: tuple[float, ...]
    total_return: float
    sharpe_annual: float
    max_drawdown: float


@dataclass
class BacktestResult:
    graph: WorkflowGraph
    config: RunConfig
    market: MarketSeries
    windows: list[WindowReport]
    frozen_windows: list[WindowReport]
    cycles: list[CycleRecord]
    strategies: list[StrategyReport]
    prompt_lineage: dict[tuple[str, int], str]
    history: list[HistoryRecord]


def load_inputs(config: RunConfig) -> tuple[MarketSeries, FeatureView]:
    if config.market_csv:
        if not config.features_csv:
            raise ConfigError("market_csv requires features_csv")
        market = load_market_csv(config.market_csv, symbol=config.symbol)
        return market, load_features_csv(config.features_csv, market)
    return synthesize_market(
        config.seed, config.days, config.regime, config.signal_strength, config.symbol
    )


def _strategy_report(name: str, returns: Sequence[float], rf_daily: float) -> StrategyReport:
    equity = build_equity(returns)
    return StrategyReport(
        name=name,
        returns=tuple(returns),
        total_return=total_return(equity),
        sharpe_annual=annualized_sharpe(returns, rf_daily) if len(returns) >= 2 else 0.0,
        max_drawdown=max_drawdown(equity),
    )


def run_backtest(config: RunConfig) -> BacktestResult:
    """Execute the full experiment described by ``config``.

    Two agent passes (tuned and frozen prompts) and three baselines are
    evaluated on identical decision days. The passes run window by window,
    sharing one execution memo per window. Every window of the tuned pass
    ends in a tuning cycle, which reads the history records and may update
    one prompt for the next window. Reports are written under
    ``config.out_dir`` when set; the same config and seed always produce
    byte-identical files.
    """
    graph = load_graph_file(config.graph_file) if config.graph_file else reference_graph()
    market, features = load_inputs(config)
    viable = enumerate_viable(graph)
    plan = live_plan(graph, viable) if config.engine != "exact" else None
    windows = day_windows(len(market), config.window_len)
    viable_names = [coalition_names(graph, mask) for mask in viable]

    base_prompts = load_prompts_dir(config.prompts_dir) if config.prompts_dir else None
    specs0 = build_system(graph, config.seed, base_prompts=base_prompts)

    def attributed_window(
        specs: dict[int, AgentSpec], memo: ExecutionMemo, w_index: int, day_idx: list[int]
    ) -> tuple[WindowGame, WindowReport]:
        game = evaluate_window(
            graph,
            viable,
            system_runner(specs),
            market,
            features,
            day_idx,
            rf_daily=config.rf_daily,
            engine=config.engine,
            plan=plan,
            memo=memo,
            prompts=[specs[a].prompt for a in range(graph.n)],
        )
        exact_diff = None
        if config.engine == "exact":
            attribution = shapley_exact(game.values_exact, graph.n, game.counters_exact)
        else:
            attribution = shapley_dag(graph, game.values_dag, game.counters_dag)
            if config.engine == "both":
                exact_att = shapley_exact(
                    game.values_exact, graph.n, game.counters_exact
                )
                exact_diff = max(
                    abs(a - b) for a, b in zip(attribution.values, exact_att.values)
                )

        values = game.values_dag if game.values_dag is not None else game.values_exact
        report = WindowReport(
            index=w_index,
            start=market.days[day_idx[0]],
            end=market.days[day_idx[-1]],
            decision_days=tuple(market.days[i] for i in day_idx[:-1]),
            returns=tuple(game.rewards),
            window_sharpe=sharpe(game.rewards, config.rf_daily),
            attribution=attribution,
            coalition_values=tuple(
                (names, values[mask]) for names, mask in zip(viable_names, viable)
            ),
            exact_diff=exact_diff,
        )
        return game, report

    specs = dict(specs0)
    lineage = {
        (spec.name, spec.prompt.version): render_prompt(spec.prompt)
        for spec in specs.values()
    }
    tuned_reports: list[WindowReport] = []
    frozen_reports: list[WindowReport] = []
    cycles: list[CycleRecord] = []
    history: list[HistoryRecord] = []
    for w_index, day_idx in enumerate(windows):
        memo = ExecutionMemo()
        game, tuned = attributed_window(specs, memo, w_index, day_idx)
        _, frozen = attributed_window(specs0, memo, w_index, day_idx)
        tuned_reports.append(tuned)
        frozen_reports.append(frozen)

        decision_dates = list(tuned.decision_days)
        for k, day in enumerate(decision_dates):
            reward = game.rewards[k]
            state = f"{market.symbol}:{day.isoformat()}"
            for a in range(graph.n):
                history.append(
                    HistoryRecord(
                        day=day,
                        agent=a,
                        state=state,
                        action=describe_output(game.grand_actions[k][a]),
                        reward=reward,
                    )
                )
        record, specs = run_cycle(
            graph,
            specs,
            history,
            decision_dates,
            tuned.attribution,
            cycle_index=w_index,
            threshold=config.threshold,
            lesson_cap=config.lesson_cap,
        )
        cycles.append(record)
        if record.triggered:
            target = record.bottleneck
            lineage[(specs[target].name, specs[target].prompt.version)] = (
                render_prompt(specs[target].prompt)
            )

    decision_days = [i for win in windows for i in win[:-1]]
    tuned_returns = [r for rep in tuned_reports for r in rep.returns]
    frozen_returns = [r for rep in frozen_reports for r in rep.returns]
    closes = market.closes
    macd_pos = macd_positions(closes)
    sma_pos = sma_positions(closes)
    bh_returns = [market.step_return(i) for i in decision_days]
    macd_returns = [macd_pos[i] * market.step_return(i) for i in decision_days]
    sma_returns = [sma_pos[i] * market.step_return(i) for i in decision_days]

    strategies = [
        _strategy_report(STRATEGY_TUNED, tuned_returns, config.rf_daily),
        _strategy_report(STRATEGY_FROZEN, frozen_returns, config.rf_daily),
        _strategy_report(STRATEGY_BUY_HOLD, bh_returns, config.rf_daily),
        _strategy_report(STRATEGY_MACD, macd_returns, config.rf_daily),
        _strategy_report(STRATEGY_SMA, sma_returns, config.rf_daily),
    ]

    result = BacktestResult(
        graph=graph,
        config=config,
        market=market,
        windows=tuned_reports,
        frozen_windows=frozen_reports,
        cycles=cycles,
        strategies=strategies,
        prompt_lineage=lineage,
        history=history,
    )
    if config.out_dir:
        write_reports(result, Path(config.out_dir))
    return result


# ---------------------------------------------------------------------------
# reports


def _window_report_text(graph: WorkflowGraph, rep: WindowReport) -> str:
    lines = [
        f"window {rep.index}",
        f"days: {rep.start.isoformat()} .. {rep.end.isoformat()}",
        "returns: " + " ".join(f"{r:+.8f}" for r in rep.returns),
        f"window_sharpe_raw: {rep.window_sharpe:+.6f}",
        format_attribution(graph, rep.attribution),
    ]
    if rep.exact_diff is not None:
        lines.append(f"exact_vs_pruned_max_diff: {rep.exact_diff:.3e}")
    lines.append("coalition window sharpe:")
    for names, value in rep.coalition_values:
        lines.append(f"  {names} {value:+.6f}")
    return "\n".join(lines) + "\n"


def _cycle_record_json(graph: WorkflowGraph, record: CycleRecord) -> str:
    payload = {
        "cycle": record.cycle,
        "start": record.start_day.isoformat(),
        "end": record.end_day.isoformat(),
        "contributions": {
            name: record.attribution.values[i] for i, name in enumerate(graph.names)
        },
        "cost": {
            "coalition_evaluations": record.attribution.counters.coalition_evaluations,
            "agent_executions": record.attribution.counters.agent_executions,
            "executions_reused": record.attribution.counters.executions_reused,
            "cache_hits": record.attribution.counters.cache_hits,
        },
        "bottleneck": graph.names[record.bottleneck] if record.bottleneck is not None else None,
        "triggered": record.triggered,
        "lesson_blocks": list(record.lesson.text_blocks) if record.lesson else [],
        "failure_count": record.lesson.failure_count if record.lesson else 0,
        "success_count": record.lesson.success_count if record.lesson else 0,
        "prompt_versions": {
            name: record.prompt_versions[i] for i, name in enumerate(graph.names)
        },
    }
    return json.dumps(payload, sort_keys=True)


def write_reports(result: BacktestResult, out_dir: Path) -> None:
    """Write summary, per-window files for both passes, cycle records, and
    the prompt lineage. Purely a function of the result: no timestamps."""
    out_dir.mkdir(parents=True, exist_ok=True)
    graph = result.graph

    for sub, reports in (("windows", result.windows), ("frozen", result.frozen_windows)):
        directory = out_dir / sub
        directory.mkdir(exist_ok=True)
        for rep in reports:
            path = directory / f"window_{rep.index:02d}.txt"
            path.write_text(_window_report_text(graph, rep), encoding="utf-8")

    with open(out_dir / "cycles.jsonl", "w", encoding="utf-8") as fh:
        for record in result.cycles:
            fh.write(_cycle_record_json(graph, record) + "\n")

    prompts_dir = out_dir / "prompts"
    prompts_dir.mkdir(exist_ok=True)
    for (name, version), text in sorted(result.prompt_lineage.items()):
        (prompts_dir / f"{name}_v{version}.txt").write_text(text, encoding="utf-8")

    cfg = result.config
    lines = [
        "backtest summary",
        f"symbol: {result.market.symbol}",
        f"days: {len(result.market)}  window_len: {cfg.window_len}  seed: {cfg.seed}",
        f"engine: {cfg.engine}  threshold: {cfg.threshold:+.4f}  lesson_cap: {cfg.lesson_cap}",
        f"windows: {len(result.windows)}  triggered_cycles: "
        f"{sum(1 for c in result.cycles if c.triggered)}",
        "",
        f"{'strategy':<16} {'total_return':>14} {'sharpe_annual':>14} {'max_drawdown':>14}",
    ]
    for s in result.strategies:
        lines.append(
            f"{s.name:<16} {s.total_return:>+14.6f} {s.sharpe_annual:>+14.6f} "
            f"{s.max_drawdown:>14.6f}"
        )
    lines.append("")
    lines.append("per-window grand-coalition sharpe (raw), tuned pass:")
    for rep in result.windows:
        trig = ""
        for c in result.cycles:
            if c.cycle == rep.index and c.triggered:
                trig = f"  tuned: {graph.names[c.bottleneck]}"
        lines.append(f"  window {rep.index:02d}: {rep.window_sharpe:+.6f}{trig}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
