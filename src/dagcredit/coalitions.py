"""Coalitions and viability pruning.

A coalition is a subset of agents, stored as a bitmask over agent indices.
Only viable coalitions (trader present, at least one source, and a source
connected to the trader within the induced subgraph) can produce a trading
decision; everything else is assigned value zero by definition, so the
attribution engine never needs to execute it. The engine works on plain
``int`` masks; :class:`Coalition` wraps one for membership tests and names.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graph import WorkflowGraph

MAX_AGENTS = 24


class GraphTooLarge(ValueError):
    """Exhaustive enumeration refused beyond MAX_AGENTS agents."""


class InvalidCoalition(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Coalition:
    """Immutable agent subset. Equality, hashing and ordering use the bitmask."""

    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise InvalidCoalition("coalition mask must be non-negative")

    @classmethod
    def of(cls, indices: Iterable[int]) -> "Coalition":
        mask = 0
        for i in indices:
            if i < 0:
                raise InvalidCoalition(f"negative agent index {i}")
            mask |= 1 << i
        return cls(mask)

    @classmethod
    def full(cls, n: int) -> "Coalition":
        return cls((1 << n) - 1)

    @classmethod
    def empty(cls) -> "Coalition":
        return cls(0)

    def __contains__(self, index: int) -> bool:
        return index >= 0 and (self.mask >> index) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def add(self, index: int) -> "Coalition":
        return Coalition(self.mask | (1 << index))

    def without(self, index: int) -> "Coalition":
        return Coalition(self.mask & ~(1 << index))

    def __or__(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask | other.mask)

    def __and__(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask & other.mask)

    def issubset(self, other: "Coalition") -> bool:
        return self.mask & ~other.mask == 0

    def names(self, graph: WorkflowGraph) -> list[str]:
        return [graph.names[i] for i in self]

    def __repr__(self) -> str:
        return f"Coalition({bin(self.mask)})"


@dataclass(frozen=True)
class ViabilityReport:
    """Outcome of the three viability conditions for one coalition."""

    has_trader: bool
    has_source: bool
    connected: bool

    @property
    def viable(self) -> bool:
        return self.has_trader and self.has_source and self.connected


def check_viability(graph: WorkflowGraph, coalition: Coalition) -> ViabilityReport:
    """Evaluate the three conditions a coalition needs to produce a decision.

    Connectivity asks for at least one source inside the coalition with a
    path to the sink through coalition members only. The empty coalition
    fails all three conditions.
    """
    mask = coalition.mask
    if mask >> graph.n:
        raise InvalidCoalition("coalition references agents outside the graph")
    has_trader = graph.sink in coalition
    has_source = any(s in coalition for s in graph.sources)
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
