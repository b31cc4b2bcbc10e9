"""Slow reference checks, written apart from the code in ``dagcredit`` that
they test: a depth-first path search and the three viability conditions
built on it, one coalition at a time, the steps of replaying every
coalition, the exact Shapley values of a float game with the a priori
bound on the engine's float error, and the baselines' indicators in
rationals."""

import math
from dataclasses import dataclass
from fractions import Fraction

from dagcredit.graph import WorkflowGraph


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
    schedule = []
    for mask in range(1 << graph.n):
        members = [a for a in range(graph.n) if (mask >> a) & 1]
        schedule.append(tuple(
            (v, tuple(u for u in members if v in graph.succs[u]), v in graph.sources)
            for v in members
        ))
    return schedule


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
