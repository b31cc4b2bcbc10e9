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
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .graph import WorkflowGraph

# The power-set limit: enumeration and aggregation both refuse larger graphs.
MAX_AGENTS = 24

# Lane flags, one byte of 0 or 1 per lane, to binary digits and back.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


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
        graph, lambda a: (mask >> a) & 1
    ) == 1
    return ViabilityReport(has_trader, has_source, connected)


def _sink_reached(graph: WorkflowGraph, member: Callable[[int], int]) -> int:
    # Bit-parallel reachability: every bit position ("lane") of the ints is
    # one coalition, and member(a) has agent a's membership in each lane. An
    # agent is reached in a lane when it is a member there and is a source or
    # has a reached predecessor; the sink's reached lanes are the viable ones.
    reached = [0] * graph.n
    for a in range(graph.n):
        if graph.preds[a]:
            via = 0
            for p in graph.preds[a]:
                via |= reached[p]
            reached[a] = member(a) & via
        else:
            reached[a] = member(a)
    return reached[graph.sink]


def member_lanes(agent: int, n: int) -> int:
    """Agent ``agent``'s membership in every mask of ``n`` agents: lane (bit)
    m of the result is bit ``agent`` of m."""
    # Runs of 2**agent lanes without the agent alternate with runs of
    # 2**agent lanes with it.
    run = 1 << agent
    pattern, span = ((1 << run) - 1) << run, 2 * run
    while span < 1 << n:
        pattern |= pattern << span
        span *= 2
    return pattern


def lanes_of(masks: Iterable[int], n: int) -> int:
    """The int whose lane (bit) m is set for each m of ``masks``, masks of
    ``n`` agents."""
    flags = bytearray(1 << n)
    for mask in masks:
        flags[mask] = 1
    return int(flags.translate(_TO_DIGITS)[::-1], 2)


def lane_flags(lanes: int) -> bytes:
    """Byte m is 1 where lane m of ``lanes`` is set and 0 elsewhere, up to
    its highest set lane."""
    return bin(lanes)[:1:-1].encode().translate(_TO_FLAGS)


def masks_of(lanes: int) -> list[int]:
    """The set lanes of ``lanes``, ascending: the inverse of ``lanes_of``."""
    return list(itertools.compress(itertools.count(), lane_flags(lanes)))


def enumerate_viable(graph: WorkflowGraph) -> list[int]:
    """Masks of all viable coalitions, ascending.

    All 2**n coalitions are checked at once, one lane each (lane m is mask
    m), so graphs beyond MAX_AGENTS agents are rejected rather than silently
    running out of memory.
    """
    if graph.n > MAX_AGENTS:
        raise GraphTooLarge(f"{graph.n} agents exceeds the limit of {MAX_AGENTS}")
    return masks_of(_sink_reached(graph, lambda a: member_lanes(a, graph.n)))
