"""Windowed trading backtest with coalition games and the tuning loop.

Decisions made on day t earn day t+1's simple return. Trading days are
partitioned into fixed-length windows; within each window every viable
coalition is replayed share-aware (one memoized episode per day), the
per-coalition window Sharpe defines the coalition game, Shapley contributions
are computed, and at most one agent's prompt is updated for the next window.
A frozen-prompt pass and three classic baselines run on exactly the same
decision days for comparison.

``evaluate_window`` is the one routine that turns episodes into an
attributed game, for any score of a sink output and any coalition value of
those scores: the backtest scores a decision by its position and values a
window by ``sharpe_value``, and the ``shapley`` command scores its one
fixture episode by the signed sink decision and values a coalition by that
score. Under engine ``both`` it also replays each subset once over all the
window's episodes, by its mask.

The two agent passes run window by window. On each day the frozen pass takes
its outputs from the tuned pass's run of that day and calls an agent only
where the agent or a member upstream of it in the coalition has a prompt the
tuned pass had changed. Only the tuned pass's runs are kept past the frozen
pass, and only until the next window. Each window adds two reports of one
value per sink task: 16 bytes a sink task, and a few KiB for the rest.
"""
from __future__ import annotations

import codecs
import csv
import io
import json
import math
import random
import sys
from datetime import date, timedelta
from pathlib import Path
from typing import Any, Callable, NamedTuple, Sequence

from .agents import (
    AgentSpec,
    MarketFeatures,
    TradeDecision,
    build_system,
    system_runner,
)
from .coalitions import coalition_names, enumerate_viable
from .config import ENGINES, ConfigError, RunConfig, config_graph, load_prompts_dir, reject_unread
from .graph import InputError, WorkflowGraph
from .optimizer import CycleRecord, run_cycle
from .shapley import (
    AttributionResult,
    CostCounters,
    LayeredRunResult,
    LivePlan,
    format_attribution,
    layered_run,
    live_plan,
    replay_coalition,
    shapley_exact,
)

TRADING_DAYS_PER_YEAR = 252

MARKET_HEADER = ["date", "open", "high", "low", "close", "volume"]
FEATURE_HEADER = ["date", "sentiment", "fundamental"]

STRATEGY_TUNED = "tuned-agents"
STRATEGY_FROZEN = "frozen-agents"
STRATEGY_BUY_HOLD = "buy-hold"
# The baselines' spans in days, which their strategy names give.
MACD_FAST, MACD_SLOW, MACD_SIGNAL = 12, 26, 9
SMA_FAST, SMA_SLOW = 20, 50
STRATEGY_MACD = f"macd-{MACD_FAST}-{MACD_SLOW}-{MACD_SIGNAL}"
STRATEGY_SMA = f"sma-{SMA_FAST}-{SMA_SLOW}"


class ParseError(InputError):
    pass


class NonPositivePrice(InputError):
    pass


class DuplicateDate(InputError):
    pass


class UnsortedDates(InputError):
    pass


class TooFewReturns(InputError):
    pass


class InsufficientData(InputError):
    pass


class EnginesDisagree(RuntimeError):
    """Under engine ``both``, the classical replay valued a subset otherwise
    than the pruned engine did."""


# ---------------------------------------------------------------------------
# market data


# Trading days of closes, up to and including the current one, that a source
# agent sees.
LOOKBACK_DAYS = 10


class Market(NamedTuple):
    """One symbol's trading days, each day's close, and the external data
    that source agents read on each day. ``len(market)`` is the field
    count: the number of days is ``len(market.days)``."""

    symbol: str
    days: tuple[date, ...]
    closes: tuple[float, ...]
    sentiment: tuple[float, ...]
    fundamental: tuple[float, ...]

    def step_return(self, i: int) -> float:
        """Simple return earned holding from day i to day i+1."""
        if not 0 <= i < len(self.closes) - 1:
            raise IndexError(f"no next-day return for day index {i}")
        return self.closes[i + 1] / self.closes[i] - 1.0

    def for_day(self, i: int) -> MarketFeatures:
        """What a source agent sees on day i."""
        start = max(0, i - LOOKBACK_DAYS + 1)
        return MarketFeatures(
            sentiment=self.sentiment[i],
            fundamental=self.fundamental[i],
            closes=self.closes[start : i + 1],
        )


def load_market(market_csv: str | Path, features_csv: str | Path) -> Market:
    """Parse and validate an OHLCV file, then the per-day feature file,
    which must cover every market day, as a market named ``CSV``.

    The market header must be exactly ``date,open,high,low,close,volume``;
    dates are ISO format, strictly increasing, every number finite, prices
    strictly positive, volume non-negative and each close over the one
    before it finite. Only the dates and closes are kept. Feature values lie
    in [-1, 1].
    """
    days: list[date] = []
    closes: list[float] = []
    for lineno, row in _read_csv(market_csv, MARKET_HEADER):
        day = _parse_date(row["date"], lineno)
        numbers = {}
        for col in ("open", "high", "low", "close", "volume"):
            try:
                numbers[col] = float(row[col])
            except ValueError:
                raise ParseError(f"line {lineno}: bad number in column {col!r}") from None
            if not math.isfinite(numbers[col]):
                raise ParseError(f"line {lineno}: non-finite number in column {col!r}")
        for col in ("open", "high", "low", "close"):
            if not numbers[col] > 0:
                raise NonPositivePrice(f"line {lineno}: {col} must be positive")
        if numbers["volume"] < 0:
            raise ParseError(f"line {lineno}: volume must be non-negative")
        if days:
            if day == days[-1]:
                raise DuplicateDate(f"line {lineno}: duplicate date {day.isoformat()}")
            if day < days[-1]:
                raise UnsortedDates(f"line {lineno}: dates must be increasing")
            # Each day's return is this ratio less one, so it must be finite.
            if not math.isfinite(numbers["close"] / closes[-1]):
                raise ParseError(f"line {lineno}: close over the previous close is not finite")
        days.append(day)
        closes.append(numbers["close"])
    if len(days) < 2:
        raise InsufficientData("need at least two market days")

    by_day: dict[date, tuple[float, float]] = {}
    for lineno, row in _read_csv(features_csv, FEATURE_HEADER):
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
    missing = [d for d in days if d not in by_day]
    if missing:
        raise InsufficientData(
            f"features missing for {len(missing)} market days, first {missing[0]}"
        )
    return Market(
        "CSV",
        tuple(days),
        tuple(closes),
        tuple(by_day[d][0] for d in days),
        tuple(by_day[d][1] for d in days),
    )


def _read_csv(path: str | Path, header: list[str]) -> list[tuple[int, dict[str, str]]]:
    # A byte-order mark (Excel's "CSV UTF-8") is not text. Cut before decoding,
    # it leaves a bad byte's offset counted from the first line's start.
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}: line {line}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: empty file")
    if [c.strip() for c in rows[0]] != header:
        raise ParseError(f"{path}: header must be {','.join(header)}")
    out = []
    for lineno, row in enumerate(rows[1:], start=2):
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
    seed: int, days: int, regime: str = "bull", signal_strength: float = 0.6
) -> Market:
    """Seeded geometric random walk plus features that lead the returns, as
    a market named ``SYNTH``.

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

    rets = [drifts[regime] + vol * z for z in shocks]
    closes = []
    level = 100.0
    for r in rets:
        level *= 1.0 + r
        closes.append(level)

    trading_days = [date(2024, 1, 2)]
    while len(trading_days) < days:
        trading_days.append(_next_weekday(trading_days[-1]))

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

    return Market(
        "SYNTH", tuple(trading_days), tuple(closes), tuple(sentiment), tuple(fundamental)
    )


# ---------------------------------------------------------------------------
# metrics


def sharpe(returns: Sequence[float], rf_daily: float = 0.0) -> float:
    """Raw (non-annualized) Sharpe ratio with sample standard deviation.

    Exact: each excess return is a dyadic rational, so over their largest
    denominator ``d`` they are integers ``A`` with sums ``S`` and ``Q`` of
    ``A`` and ``A**2``. The mean ``S / (k*d)`` and the standard deviation
    ``sqrt((k*Q - S*S) / (k*(k-1)*d*d))`` are each rounded once, so the
    result equals ``statistics.mean / statistics.stdev`` of Python 3.11+ bit
    for bit, and is the same on every supported Python.

    A zero-variance series scores 0 by convention; fewer than two returns is
    an error rather than a silent zero.
    """
    k = len(returns)
    if k < 2:
        raise TooFewReturns("sharpe needs at least two returns")
    ratios = [(r - rf_daily).as_integer_ratio() for r in returns]
    d = max(den for _, den in ratios)
    nums = [num * (d // den) for num, den in ratios]
    s = sum(nums)
    sd = _sqrt_of_ratio(k * sum(a * a for a in nums) - s * s, k * (k - 1) * d * d)
    if sd == 0.0:
        return 0.0
    return s / (k * d) / sd


# The radicand is scaled to at least 2p+3 bits for p-bit floats, so its integer
# root rounded to odd keeps the two extra bits that make the one rounding to a
# float correct (https://bugs.python.org/msg407078).
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_ratio(n: int, m: int) -> float:
    """Correctly rounded square root of ``n / m`` for ``n >= 0``, ``m > 0``."""
    q = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n  # round to odd: an inexact root gets its low bit set
    return (root << q) / 1 if q >= 0 else root / (1 << -q)


def annualized_sharpe(returns: Sequence[float], rf_daily: float = 0.0) -> float:
    return sharpe(returns, rf_daily) * math.sqrt(TRADING_DAYS_PER_YEAR)


def build_equity(returns: Sequence[float]) -> list[float]:
    """Compound an equity curve from simple returns, starting at 1.0."""
    equity = [1.0]
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


def decision_to_position(decision: TradeDecision | None) -> int:
    """Buy -> +1, Hold -> 0, Sell -> -1. ``None`` (no trader ran) is flat.

    The backtest's ``score`` for ``evaluate_window``: a window game keeps
    each sink decision's position, which is all ``sharpe_value`` reads.
    """
    return 0 if decision is None else decision.action.sign


# ---------------------------------------------------------------------------
# coalition games over windows


def day_windows(total_days: int, window_len: int) -> list[list[int]]:
    """Consecutive full windows of day indices; a short tail is dropped.

    A window of w days gives w - 1 next-day returns, and a Sharpe needs two.
    """
    if window_len < 3:
        raise ConfigError("window_len must be at least 3")
    windows = [
        list(range(start, start + window_len))
        for start in range(0, total_days - window_len + 1, window_len)
    ]
    if not windows:
        raise InsufficientData(
            f"{total_days} days cannot fill a {window_len}-day window"
        )
    return windows


class WindowGame(NamedTuple):
    """One game over a set of episodes: its value of each sink task of the
    plan, in task order, the run of each episode (its sink row holds
    scores) and the pruned engine's attribution. A viable mask takes its
    sink task's value (see ``LivePlan``), so the grand coalition's is the
    last, and any other mask 0.0. ``replay`` is the classical replay's
    cost, set only under engine ``both``; the replay's value of every subset
    is then the pruned engine's, bit for bit, or ``evaluate_window`` would
    have raised."""

    task_values: tuple[float, ...]
    runs: list[LayeredRunResult]
    attribution: AttributionResult
    replay: CostCounters | None


def evaluate_window(
    plan: LivePlan,
    run_agent: Callable,
    episodes: Sequence[Any],
    score: Callable[[Any], Any],
    value: Callable[[Sequence[Any]], float],
    engine: str = "dag",
    *,
    reuse: tuple[WindowGame, int] | None = None,
) -> WindowGame:
    """Play and attribute one coalition game over ``episodes``.

    The pruned engine runs one memoized episode per item of ``episodes``
    (each a source agent's external data) with the tasks of ``plan``, over
    the viable masks of ``plan.graph``. ``score`` is what the game reads of
    one sink output, applied as each sink output is produced: a run keeps
    the score in the sink's row, and the output is dropped. A coalition is
    worth ``value`` of its sink scores, one per episode; the game keeps a
    value per sink task. ``shapley_exact`` attributes the ``2**(n - 1)``
    values of the coalitions holding the sink, by configuration (the mask
    of the other members), 0.0 off the viable masks, in a list dropped on
    return, with the runs' summed counters and one coalition evaluation per
    viable mask.
    ``reuse`` is an earlier game on the same episodes, played with the same
    ``score``, and the mask of the agents whose prompts have changed since;
    each episode's run then reuses the earlier run of that episode (see
    ``layered_run``), sink scores included. Engine ``both`` also replays
    every subset without sharing (the classical comparator), one
    ``replay_coalition`` call per subset over all the episodes, in mask
    order. The replay scores each sink output (``None`` where the sink did
    not run) and values the scores with the same ``value``.

    ``score`` and ``value`` must be pure functions, as the backtest's and
    the ``shapley`` command's are: the pruned engine calls ``value`` once
    per sink task of the plan, not once per viable mask.

    Under ``both``, every subset's replay value must equal the pruned
    engine's value of it (+0.0 for a non-viable subset, and for every
    subset without the sink), by ``==`` and in the sign of zero, or be NaN
    where it is NaN; the first subset where it does not raises
    EnginesDisagree as it is replayed. As the replay runs every agent
    afresh, this checks the pruned engine, that the agents are
    deterministic and, in a game with ``reuse``, that the reused outputs
    are still current. One aggregation of games that agree
    subset by subset gives the same contributions, so the replay's game is
    not aggregated.
    """
    if engine not in ENGINES:
        raise ConfigError(f"unknown engine {engine!r}")
    if not episodes:
        raise ValueError("a game needs at least one episode")
    graph, viable = plan.graph, plan.viable
    earlier: Sequence[tuple[LayeredRunResult, int] | None] = [None] * len(episodes)
    if reuse is not None:
        game, changed = reuse
        if len(game.runs) != len(episodes):
            raise ValueError("the earlier game has another number of episodes")
        earlier = [(run, changed) for run in game.runs]
    sink = graph.sink

    def scored(agent: int, upstream: Any, external: Any) -> Any:
        # No sink output outlives its call: the run keeps its score.
        if agent == sink:
            return score(run_agent(agent, upstream, external))
        return run_agent(agent, upstream, external)

    runs = [
        layered_run(graph, viable, scored, episode, plan=plan, reuse=done)
        for episode, done in zip(episodes, earlier)
    ]
    counters = CostCounters(*map(sum, zip(*(run.counters for run in runs))))
    # Every run shares the plan, so the sink's scores line up in one column
    # per sink task: value each task once. Each configuration of the other
    # agents takes its sink task's value from the sink's table; masks that
    # share a sink task share its value. A configuration without a task
    # (-1) is not viable and reads the +0.0 appended past the last task,
    # not the last task's value.
    by_task = list(map(value, zip(*(run.outputs[sink] for run in runs))))
    by_task.append(0.0)
    table = list(map(by_task.__getitem__, plan.task_tables[sink]))
    del by_task  # the table holds every value: free the list before the aggregation peak
    attribution = AttributionResult(
        shapley_exact(table, graph.n), counters._replace(coalition_evaluations=len(viable))
    )
    # The same floats again, each at its task's live key, a viable configuration.
    task_values = tuple(map(table.__getitem__, plan.keys[sink]))

    replay_cost = None
    if engine == "both":
        replay_executions = 0
        last = len(table) - 1
        for mask in range(1 << graph.n):
            replay = replay_coalition(graph, mask, run_agent, episodes=episodes)
            replay_executions += replay.executions
            # A subset without the sink is worth +0.0 to the pruned engine.
            pruned = table[mask & last] if mask >> sink & 1 else 0.0
            replayed = value(list(map(score, replay.sink_outputs)))
            if not _same_float(replayed, pruned):
                raise EnginesDisagree(
                    f"engines disagree on coalition {{{coalition_names(graph, mask)}}} "
                    f"(mask {mask:#b}): replay {replayed!r}, pruned {pruned!r}"
                )
        replay_cost = CostCounters(1 << graph.n, replay_executions)
    return WindowGame(task_values, runs, attribution, replay_cost)


def _same_float(a: float, b: float) -> bool:
    """``a == b``, with zeros of different sign told apart, or both NaN."""
    return (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
        or math.isnan(a) and math.isnan(b)
    )


def sharpe_value(
    step_returns: Sequence[float], rf_daily: float = 0.0
) -> Callable[[Sequence[int]], float]:
    """A window game's coalition value: the raw Sharpe of the next-day
    returns that its positions, one per decision day, earn. The positions
    are the sink scores of ``evaluate_window`` with ``decision_to_position``
    as ``score``.

    The return series is a function of the positions, so the returned
    function runs Sharpe once per distinct position vector and shares it
    between every coalition, both engines and every game it values.
    """
    by_positions: dict[tuple[int, ...], float] = {}

    def value(positions: Sequence[int]) -> float:
        key = tuple(positions)
        if key not in by_positions:
            series = [p * r for p, r in zip(key, step_returns)]
            by_positions[key] = sharpe(series, rf_daily)
        return by_positions[key]

    return value


# ---------------------------------------------------------------------------
# baselines


def _ema(values: Sequence[float], span: int) -> list[float]:
    k = 2.0 / (span + 1.0)
    out = [values[0]]
    for v in values[1:]:
        out.append(k * v + (1.0 - k) * out[-1])
    return out


def macd_positions(closes: Sequence[float]) -> list[int]:
    """+1 when the MACD line is above its signal line, -1 below, 0 when equal."""
    line = [f - s for f, s in zip(_ema(closes, MACD_FAST), _ema(closes, MACD_SLOW))]
    sig = _ema(line, MACD_SIGNAL)
    return [(1 if m > s else -1 if m < s else 0) for m, s in zip(line, sig)]


def sma_positions(closes: Sequence[float]) -> list[int]:
    """+1/-1 on the fast/slow average cross; flat until both windows fill."""
    out = []
    for i in range(len(closes)):
        if i + 1 < SMA_SLOW:
            out.append(0)
            continue
        f = math.fsum(closes[i + 1 - SMA_FAST : i + 1]) / SMA_FAST
        s = math.fsum(closes[i + 1 - SMA_SLOW : i + 1]) / SMA_SLOW
        out.append(1 if f > s else -1 if f < s else 0)
    return out


# ---------------------------------------------------------------------------
# full run


class WindowReport(NamedTuple):
    """One window pass as its report prints it. Whether the classical
    replay checked it is the run's ``config.engine``; ``task_values`` is its game's."""

    index: int
    start: date
    end: date
    returns: tuple[float, ...]
    window_sharpe: float
    attribution: AttributionResult
    task_values: tuple[float, ...]


class StrategyReport(NamedTuple):
    name: str
    returns: tuple[float, ...]
    total_return: float
    sharpe_annual: float
    max_drawdown: float


class BacktestResult(NamedTuple):
    """A run's reports, with the ``plan`` that indexes their ``task_values``."""

    graph: WorkflowGraph
    plan: LivePlan
    config: RunConfig
    market: Market
    windows: list[WindowReport]
    frozen_windows: list[WindowReport]
    cycles: list[CycleRecord]
    strategies: list[StrategyReport]
    prompt_lineage: dict[tuple[str, int], str]


def load_inputs(config: RunConfig) -> Market:
    """The run's market, named ``config.symbol`` when set, else by its
    source: ``CSV`` for market files, ``SYNTH`` for a synthetic market."""
    if config.market_csv:
        if not config.features_csv:
            raise ConfigError("market_csv requires features_csv")
        # These shape only a synthetic market.
        reject_unread(config, ("days", "regime", "signal_strength"),
                      "a backtest on market files does not read {}; remove them")
        market = load_market(config.market_csv, config.features_csv)
    else:
        market = synthesize_market(config.seed, config.days, config.regime, config.signal_strength)
    return market if config.symbol is None else market._replace(symbol=config.symbol)


def _strategy_report(name: str, returns: Sequence[float], rf_daily: float) -> StrategyReport:
    equity = build_equity(returns)
    return StrategyReport(
        name=name,
        returns=tuple(returns),
        total_return=total_return(equity),
        sharpe_annual=annualized_sharpe(returns, rf_daily),
        max_drawdown=max_drawdown(equity),
    )


def run_backtest(config: RunConfig) -> BacktestResult:
    """Execute the full experiment described by ``config``.

    Two agent passes (tuned and frozen prompts) and three baselines are
    evaluated on identical decision days. The passes run window by window,
    and the frozen pass reuses the tuned pass's runs. Every window of the
    tuned pass ends in a tuning cycle, which reads that window's daily
    rewards and may update one prompt for the next window. The live plan
    is built once per run.
    Reports are written under ``config.out_dir`` when set; the same config
    and seed always produce byte-identical files. An ``out_dir`` that
    already holds any of ``REPORT_ENTRIES`` raises ``ConfigError`` before
    any work, so that no tree mixes two runs' files.
    """
    if config.out_dir:
        for name in REPORT_ENTRIES:
            path = Path(config.out_dir) / name
            if path.exists():
                raise ConfigError(
                    f"{path} exists: write the reports to a new or empty directory"
                )
    graph = config_graph(config)
    market = load_inputs(config)
    plan = live_plan(graph, enumerate_viable(graph))
    windows = day_windows(len(market.days), config.window_len)

    base_prompts = load_prompts_dir(config.prompts_dir) if config.prompts_dir else None
    unknown = sorted(set(base_prompts or ()) - set(graph.names))
    if unknown:
        raise ConfigError(
            f"{config.prompts_dir}: prompt files name no agent of the graph: "
            + ", ".join(f"{stem}.txt" for stem in unknown)
        )
    specs0 = build_system(graph, config.seed, base_prompts=base_prompts)

    def attributed_window(
        specs: dict[int, AgentSpec],
        w_index: int,
        day_idx: list[int],
        episodes: list[MarketFeatures],
        step_returns: list[float],
        value: Callable[[Sequence[int]], float],
        reuse: tuple[WindowGame, int] | None = None,
    ) -> tuple[WindowGame, WindowReport]:
        game = evaluate_window(
            plan,
            system_runner(specs),
            episodes,
            decision_to_position,
            value,
            config.engine,
            reuse=reuse,
        )
        # The grand coalition's sink score is its position, under the sink's
        # last task (see ``LivePlan``).
        rewards = [run.outputs[graph.sink][-1] * r for run, r in zip(game.runs, step_returns)]
        return game, WindowReport(
            index=w_index,
            start=market.days[day_idx[0]],
            end=market.days[day_idx[-1]],
            returns=tuple(rewards),
            # The grand coalition's value, the last, is the Sharpe of the rewards.
            window_sharpe=game.task_values[-1],
            attribution=game.attribution,
            task_values=game.task_values,
        )

    specs = dict(specs0)
    lineage = {
        (spec.name, spec.prompt.version): spec.prompt.rendered
        for spec in specs.values()
    }
    tuned_reports: list[WindowReport] = []
    frozen_reports: list[WindowReport] = []
    cycles: list[CycleRecord] = []
    for w_index, day_idx in enumerate(windows):
        # Both passes play the same episodes, so the frozen pass's reuse of
        # the tuned pass's runs finds the same external data by identity.
        episodes = [market.for_day(i) for i in day_idx[:-1]]
        step_returns = [market.step_return(i) for i in day_idx[:-1]]
        # Both passes value the window with one memo, so the frozen pass
        # runs Sharpe only on position vectors the tuned pass did not value.
        value = sharpe_value(step_returns, config.rf_daily)
        game, tuned = attributed_window(specs, w_index, day_idx, episodes, step_returns, value)
        changed = sum(1 << a for a in range(graph.n) if specs[a].prompt != specs0[a].prompt)
        frozen = attributed_window(
            specs0, w_index, day_idx, episodes, step_returns, value, (game, changed)
        )[1]
        tuned_reports.append(tuned)
        frozen_reports.append(frozen)
        record, specs = run_cycle(
            graph,
            specs,
            tuned.returns,
            tuned.attribution.values,
            threshold=config.threshold,
            lesson_cap=config.lesson_cap,
        )
        cycles.append(record)
        if record.triggered:
            spec = specs[record.bottleneck]
            lineage[(spec.name, spec.prompt.version)] = spec.prompt.rendered

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
        plan=plan,
        config=config,
        market=market,
        windows=tuned_reports,
        frozen_windows=frozen_reports,
        cycles=cycles,
        strategies=strategies,
        prompt_lineage=lineage,
    )
    if config.out_dir:
        write_reports(result, Path(config.out_dir))
    return result


# ---------------------------------------------------------------------------
# reports

# What ``write_reports`` writes under the output directory.
REPORT_ENTRIES = ("summary.txt", "cycles.jsonl", "windows", "frozen", "prompts")


def _window_report_text(
    result: BacktestResult, rep: WindowReport, rows: Sequence[tuple[str, int]]
) -> str:
    lines = [
        f"window {rep.index}",
        f"days: {rep.start.isoformat()} .. {rep.end.isoformat()}",
        "returns: " + " ".join(f"{r:+.8f}" for r in rep.returns),
        f"window_sharpe_raw: {rep.window_sharpe:+.6f}",
        format_attribution(result.graph, rep.attribution),
    ]
    # Under ``both`` the replay agreed on every subset, or the run had raised.
    if result.config.engine == "both":
        lines.append("exact_vs_pruned_max_diff: 0.000e+00")
    lines.append("coalition window sharpe:")
    for names, task in rows:
        lines.append(f"  {names} {rep.task_values[task]:+.6f}")
    return "\n".join(lines) + "\n"


def _cycle_record_json(graph: WorkflowGraph, window: WindowReport, record: CycleRecord) -> str:
    """One line of ``cycles.jsonl``: the cycle that ``window`` (the tuned
    pass's report) ended in, with the window's index, span and attribution."""
    payload = {
        "cycle": window.index,
        "start": window.start.isoformat(),
        "end": window.end.isoformat(),
        "contributions": dict(zip(graph.names, window.attribution.values)),
        "cost": window.attribution.counters._asdict(),
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


def format_strategies(strategies: Sequence[StrategyReport]) -> list[str]:
    """The strategy table's header and one row per strategy."""
    lines = [f"{'strategy':<16} {'total_return':>14} {'sharpe_annual':>14} {'max_drawdown':>14}"]
    lines.extend(
        f"{s.name:<16} {s.total_return:>+14.6f} {s.sharpe_annual:>+14.6f} "
        f"{s.max_drawdown:>14.6f}"
        for s in strategies
    )
    return lines


def write_reports(result: BacktestResult, out_dir: Path) -> None:
    """Write summary, per-window files for both passes, cycle records, and
    the prompt lineage. Purely a function of the result: no timestamps."""
    out_dir.mkdir(parents=True, exist_ok=True)
    graph = result.graph

    # Each window report has a line per viable mask: name each mask once.
    sink_table = result.plan.task_tables[graph.sink]
    last = len(sink_table) - 1
    rows = [(coalition_names(graph, m), sink_table[m & last]) for m in result.plan.viable]
    for sub, reports in (("windows", result.windows), ("frozen", result.frozen_windows)):
        directory = out_dir / sub
        directory.mkdir(exist_ok=True)
        for rep in reports:
            path = directory / f"window_{rep.index:02d}.txt"
            path.write_text(_window_report_text(result, rep, rows), encoding="utf-8", newline="\n")

    with open(out_dir / "cycles.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        for window, record in zip(result.windows, result.cycles):
            fh.write(_cycle_record_json(graph, window, record) + "\n")

    prompts_dir = out_dir / "prompts"
    prompts_dir.mkdir(exist_ok=True)
    for (name, version), text in sorted(result.prompt_lineage.items()):
        (prompts_dir / f"{name}_v{version}.txt").write_text(text, encoding="utf-8", newline="\n")

    cfg = result.config
    lines = [
        "backtest summary",
        f"symbol: {result.market.symbol}",
        f"days: {len(result.market.days)}  window_len: {cfg.window_len}  seed: {cfg.seed}",
        f"engine: {cfg.engine}  threshold: {cfg.threshold:+.4f}  lesson_cap: {cfg.lesson_cap}",
        f"windows: {len(result.windows)}  triggered_cycles: "
        f"{sum(1 for c in result.cycles if c.triggered)}",
        "",
        *format_strategies(result.strategies),
        "",
        "per-window grand-coalition sharpe (raw), tuned pass:",
    ]
    for rep, c in zip(result.windows, result.cycles):
        trig = f"  tuned: {graph.names[c.bottleneck]}" if c.triggered else ""
        lines.append(f"  window {rep.index:02d}: {rep.window_sharpe:+.6f}{trig}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
