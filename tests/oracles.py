"""Slow reference checks, written apart from the code in ``dagcredit`` that
they test: a depth-first path search and the three viability conditions
built on it, one coalition at a time, the steps of replaying every
coalition, the exact Shapley values of a float game with the a priori
bound on the engine's float error, the baselines' indicators in
rationals, and a plain backtest that replays every subset of every window
pass and attributes it exactly."""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from dagcredit.agents import build_system, system_runner
from dagcredit.backtest import load_inputs
from dagcredit.config import RunConfig, config_graph, load_prompts_dir
from dagcredit.graph import WorkflowGraph
from dagcredit.optimizer import append_lessons, mock_reflector


def path_exists(graph: WorkflowGraph, mask: int, src: int, dst: int) -> bool:
    """Whether ``dst`` is reachable from ``src`` inside the subgraph induced
    by the coalition ``mask``, whose members both endpoints are.
    ``src == dst`` counts as reachable (empty path)."""
    if src == dst:
        return True
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        for w in graph.succs[u]:
            if w == dst:
                return True
            if (mask >> w) & 1 and w not in seen:
                seen.add(w)
                stack.append(w)
    return False


@dataclass(frozen=True)
class ViabilityReport:
    """Outcome of the three viability conditions for one coalition."""

    has_trader: bool
    has_source: bool
    connected: bool

    @property
    def viable(self) -> bool:
        return self.has_trader and self.has_source and self.connected


def check_viability(graph: WorkflowGraph, mask: int) -> ViabilityReport:
    """The three conditions a coalition (a mask of ``graph``'s agents) needs
    to produce a decision. Connectivity asks for a member source with a path
    to the sink through members only. The empty coalition fails all three."""
    has_trader = (mask >> graph.sink) & 1 == 1
    has_source = any((mask >> s) & 1 for s in graph.sources)
    connected = has_trader and any(
        (mask >> s) & 1 and path_exists(graph, mask, s, graph.sink) for s in graph.sources
    )
    return ViabilityReport(has_trader, has_source, connected)



def replay_steps_by_brute_force(graph: WorkflowGraph) -> list[tuple]:
    """Per mask, the steps of replaying that coalition: each member in
    index order, with the members that have an edge into it, in increasing
    order, and whether it is one of the graph's sources. Reads the edges
    from ``succs``, one pair of agents at a time."""
    per_mask = []
    for mask in range(1 << graph.n):
        members = [a for a in range(graph.n) if (mask >> a) & 1]
        per_mask.append(tuple(
            (v, tuple(u for u in members if v in graph.succs[u]), v in graph.sources)
            for v in members
        ))
    return per_mask


# The unit roundoff of a double: half the gap between 1.0 and the next float.
UNIT_ROUNDOFF = Fraction(1, 2**53)


def exact_shapley(table: list[float], n: int) -> list[tuple[Fraction, Fraction]]:
    """Per agent, its Shapley value of the game ``table`` (``2**n`` finite
    floats indexed by mask) exactly, and the sum of its terms' magnitudes.

    Scaled integers, one division at the end: every float is a dyadic
    rational, so over the table's largest denominator ``d`` every value is
    an integer ``A[m]``, and over ``n! * d`` agent i's term for a subset T
    without i, ``s! (n - s - 1)! / n! * (v(T + i) - v(T))`` with ``s = |T|``,
    is the integer ``s! (n - s - 1)! * (A[T + i] - A[T])``."""
    ratios = [value.as_integer_ratio() for value in table]
    d = max(den for _, den in ratios)
    ints = [num * (d // den) for num, den in ratios]
    weights = [math.factorial(s) * math.factorial(n - s - 1) for s in range(n)]
    scale = math.factorial(n) * d
    out = []
    for i in range(n):
        bit = 1 << i
        total = magnitude = 0
        for mask in range(1 << n):
            if not mask & bit:
                term = weights[mask.bit_count()] * (ints[mask | bit] - ints[mask])
                total += term
                magnitude += abs(term)
        out.append((Fraction(total, scale), Fraction(magnitude, scale)))
    return out


def float_phi_bound(magnitude: Fraction, phi: float) -> Fraction:
    """The a priori bound on ``|phi - exact|`` for a float ``phi`` summed
    as the engine sums it from terms of total magnitude ``magnitude``.

    Each term's weight, difference and product is rounded once, by at most
    the unit roundoff u relative to it, so each term is off by at most
    ``(1 + u)**3 - 1`` (about 3u) times its magnitude; ``math.fsum`` adds
    the rounded terms exactly and rounds once more, by at most half an ulp
    of the result. This holds while every rounded product is a normal
    float."""
    u = UNIT_ROUNDOFF
    return ((1 + u) ** 3 - 1) * magnitude + Fraction(math.ulp(phi)) / 2


def _ema_exact(values: list[Fraction], span: int) -> list[Fraction]:
    """The exponential moving average of ``values`` with smoothing
    ``2 / (span + 1)``, seeded with the first value, in rationals."""
    k = Fraction(2, span + 1)
    out = [values[0]]
    for v in values[1:]:
        out.append(k * v + (1 - k) * out[-1])
    return out


def macd_gaps_exact(closes: list[float], fast: int, slow: int, signal: int) -> list[Fraction]:
    """Per day, the MACD line (fast EMA less slow EMA of the closes) less
    its signal line (the line's EMA), exactly."""
    exact = [Fraction(c) for c in closes]
    line = [f - s for f, s in zip(_ema_exact(exact, fast), _ema_exact(exact, slow))]
    return [m - s for m, s in zip(line, _ema_exact(line, signal))]


def sma_gaps_exact(closes: list[float], fast: int, slow: int) -> list[Fraction | None]:
    """Per day, the mean of the last ``fast`` closes less the mean of the
    last ``slow``, exactly; ``None`` until ``slow`` closes have been seen."""
    exact = [Fraction(c) for c in closes]
    return [
        None if i + 1 < slow
        else sum(exact[i + 1 - fast : i + 1]) / fast - sum(exact[i + 1 - slow : i + 1]) / slow
        for i in range(len(exact))
    ]


def sqrt_rounded(q: Fraction) -> float:
    """The float nearest the square root of ``q > 0``, ties to even: the
    float whose rounding interval, bounded by the midpoints to its two
    neighbours, holds the exact root, found by stepping from a libm root
    and squaring the midpoints exactly. The radicand is scaled by a power
    of 4 to near 1 first, so that the first guess is off by an ulp or so
    even where ``float(q)`` would underflow or overflow."""
    e = (q.numerator.bit_length() - q.denominator.bit_length()) // 2
    x = math.ldexp(math.sqrt(q / Fraction(4) ** e), e)
    while True:
        below, above = math.nextafter(x, 0.0), math.nextafter(x, math.inf)
        low = ((Fraction(x) + Fraction(below)) / 2) ** 2
        high = ((Fraction(x) + Fraction(above)) / 2) ** 2
        if q < low:
            x = below
        elif q > high:
            x = above
        else:
            break
    # On a midpoint, the neighbour whose significand is even wins.
    if q in (low, high) and int(math.frexp(x)[0] * 2**53) % 2:
        x = below if q == low else above
    return x


def sharpe_rounded(returns: list[float]) -> float:
    """The raw Sharpe ratio of ``returns``, sample standard deviation, with
    the mean and the standard deviation each computed exactly and rounded
    once, then divided; 0.0 where the standard deviation rounds to zero."""
    exact = [Fraction(r) for r in returns]
    mean = sum(exact) / len(exact)
    variance = sum((r - mean) ** 2 for r in exact) / (len(exact) - 1)
    sd = sqrt_rounded(variance) if variance else 0.0
    return 0.0 if sd == 0.0 else float(mean) / sd


class ReferencePass(NamedTuple):
    """One window pass: the value of every subset, indexed by mask, its
    Shapley values exactly with their magnitudes (see ``exact_shapley``),
    and the grand coalition's daily returns."""

    values: list[float]
    phi: list[tuple[Fraction, Fraction]]
    returns: tuple[float, ...]


class ReferenceBacktest(NamedTuple):
    """Per window, the tuned pass, the frozen pass, the agent its cycle
    tuned (or None) and the prompt versions after it."""

    tuned: list[ReferencePass]
    frozen: list[ReferencePass]
    bottlenecks: list[int | None]
    prompt_versions: list[tuple[int, ...]]


def _reference_pass(graph: WorkflowGraph, specs, episodes, step_returns) -> ReferencePass:
    """Replay every subset of ``graph`` on every episode in a straight line,
    each member once in index order with its member predecessors' outputs,
    and value it by the Sharpe of the returns its sink's positions earn."""
    runner = system_runner(specs)
    by_positions: dict[tuple[int, ...], float] = {}
    values = []
    for mask in range(1 << graph.n):
        positions = []
        for external in episodes:
            out = {}
            for agent in range(graph.n):
                if mask >> agent & 1:
                    preds = graph.preds[agent]
                    upstream = {p: out[p] for p in preds if p in out}
                    out[agent] = runner(agent, upstream, None if preds else external)
            decision = out.get(graph.sink)
            positions.append(0 if decision is None else decision.action.sign)
        key = tuple(positions)
        if key not in by_positions:
            by_positions[key] = sharpe_rounded([p * r for p, r in zip(key, step_returns)])
        values.append(by_positions[key])
    # The last mask replayed is the grand coalition.
    grand = tuple(p * r for p, r in zip(positions, step_returns))
    return ReferencePass(values, exact_shapley(values, graph.n), grand)


def _reference_bottleneck(phi: list[tuple[Fraction, Fraction]], threshold: float) -> int | None:
    """The agent of the least exact Shapley value when it is below
    ``threshold`` and no other agent's equals it, else None."""
    exact = [value for value, _ in phi]
    low = min(exact)
    return exact.index(low) if low < threshold and exact.count(low) == 1 else None


def reference_backtest(config: RunConfig) -> ReferenceBacktest:
    """The backtest of ``config`` without the engine: no plan, no reuse of
    an earlier run, no pruning. Each full window of ``window_len`` days
    plays its days but the last; its tuned pass runs the prompts tuned so
    far, its frozen pass the first ones. Each pass replays all ``2**n``
    subsets and takes exact Shapley values, and the tuned pass's least one
    picks the agent whose prompt gets the mock reflector's lessons."""
    graph = config_graph(config)
    market = load_inputs(config)
    base = load_prompts_dir(config.prompts_dir) if config.prompts_dir else None
    frozen_specs = build_system(graph, config.seed, base_prompts=base)
    specs = dict(frozen_specs)
    run = ReferenceBacktest([], [], [], [])
    length = config.window_len
    for start in range(0, len(market.days) - length + 1, length):
        days = range(start, start + length - 1)
        episodes = [market.for_day(i) for i in days]
        step_returns = [market.closes[i + 1] / market.closes[i] - 1.0 for i in days]
        tuned = _reference_pass(graph, specs, episodes, step_returns)
        run.tuned.append(tuned)
        run.frozen.append(_reference_pass(graph, frozen_specs, episodes, step_returns))
        target = _reference_bottleneck(tuned.phi, config.threshold)
        if target is not None:
            lessons = mock_reflector(graph.names[target], tuned.returns)
            prompt = append_lessons(specs[target].prompt, lessons.text_blocks, config.lesson_cap)
            specs[target] = specs[target]._replace(prompt=prompt)
        run.bottlenecks.append(target)
        run.prompt_versions.append(tuple(specs[a].prompt.version for a in range(graph.n)))
    return run
