"""Coalitions and viability pruning.

A coalition is a subset of agents, stored as a bitmask over agent indices.
Only viable coalitions (trader present, at least one source, and a source
connected to the trader within the induced subgraph) can produce a trading
decision; everything else is assigned value zero by definition, so the
attribution engine never needs to execute it. Bit ``i`` of a mask is agent
``i``; plain ``int`` masks are the only coalition type.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .graph import WorkflowGraph

MAX_AGENTS = 24


class GraphTooLarge(ValueError):
    """Exhaustive enumeration refused beyond MAX_AGENTS agents."""


class InvalidCoalition(ValueError):
    pass


def coalition_names(graph: WorkflowGraph, mask: int) -> str:
    """The members' names, comma-joined in ascending agent index order."""
    return ",".join(a.name for a in graph.agents if (mask >> a.index) & 1)


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
    """Evaluate the three conditions a coalition (given by mask) needs to
    produce a decision.

    Connectivity asks for at least one source inside the coalition with a
    path to the sink through coalition members only. The empty coalition
    fails all three conditions. A negative mask, or one with bits beyond
    the graph's agents, raises InvalidCoalition.
    """
    if mask >> graph.n:
        # Non-zero for a negative mask too: the shift keeps the sign.
        raise InvalidCoalition(f"mask {mask} is not a coalition of {graph.n} agents")
    has_trader = (mask >> graph.sink) & 1 == 1
    has_source = any((mask >> s) & 1 for s in graph.sources)
    connected = has_trader and has_source and _sink_reached(
        graph, [(mask >> a) & 1 for a in range(graph.n)]
    ) == 1
    return ViabilityReport(has_trader, has_source, connected)


def _sink_reached(graph: WorkflowGraph, member: Sequence[int]) -> int:
    # Bit-parallel reachability: every bit position ("lane") of the ints is
    # one coalition, and member[a] has agent a's membership in each lane. An
    # agent is reached in a lane when it is a member there and is a source or
    # has a reached predecessor; the sink's reached lanes are the viable ones.
    reached = [0] * graph.n
    for a in graph.order:
        if graph.preds[a]:
            via = 0
            for p in graph.preds[a]:
                via |= reached[p]
            reached[a] = member[a] & via
        else:
            reached[a] = member[a]
    return reached[graph.sink]


def enumerate_viable(graph: WorkflowGraph) -> list[int]:
    """Masks of all viable coalitions, ascending.

    All 2**n coalitions are checked at once, one lane each (lane m is mask
    m), so graphs beyond MAX_AGENTS agents are rejected rather than silently
    running out of memory.
    """
    if graph.n > MAX_AGENTS:
        raise GraphTooLarge(f"{graph.n} agents exceeds the limit of {MAX_AGENTS}")
    lanes = 1 << graph.n
    member = []
    for a in range(graph.n):
        # Lane m holds agent a iff bit a of m is set: runs of 2**a lanes
        # without it alternate with runs of 2**a lanes with it.
        run = 1 << a
        pattern, span = ((1 << run) - 1) << run, 2 * run
        while span < lanes:
            pattern |= pattern << span
            span *= 2
        member.append(pattern)
    flags = bin(_sink_reached(graph, member))[:1:-1]  # flags[m] is lane m
    return list(itertools.compress(range(len(flags)), map("1".__eq__, flags)))
