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
from array import array
from collections.abc import Collection

from .graph import WorkflowGraph

# The power-set limit: enumeration and aggregation both refuse larger graphs.
MAX_AGENTS = 24

# Array type of a mask, which has at most MAX_AGENTS bits: "I" is 32 bits
# wide on every platform CPython supports.
MASK_TYPECODE = "I"

# Binary digits to lane flags, one byte of 0 or 1 per lane.
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


class GraphTooLarge(ValueError):
    """Exhaustive enumeration refused beyond MAX_AGENTS agents."""


def coalition_names(graph: WorkflowGraph, mask: int) -> str:
    """The members' names, comma-joined in ascending agent index order."""
    return ",".join(a.name for a in graph.agents if (mask >> a.index) & 1)


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


def lanes_of(masks: Collection[int], n: int) -> int:
    """The int whose lane (bit) m is set for each m of ``masks``, masks of
    ``n`` agents. A mask outside ``[0, 2**n)`` raises ValueError."""
    if masks:
        low, high = min(masks), max(masks)
        if low < 0 or high >> n:
            bad = low if low < 0 else high
            raise ValueError(f"mask {bad} is outside [0, 2**{n}) for n={n} agents")
    # One buffer of binary digits, lane 0 last once reversed in place.
    digits = bytearray(b"0") * (1 << n)
    for mask in masks:
        digits[mask] = 0x31  # b"1"
    digits.reverse()
    return int(digits, 2)


def lane_flags(lanes: int) -> bytes:
    """Byte m is 1 where lane m of ``lanes`` is set and 0 elsewhere, up to
    its highest set lane."""
    return bin(lanes)[:1:-1].encode().translate(_TO_FLAGS)


def masks_of(lanes: int) -> array:
    """The set lanes of ``lanes``, ascending, packed 4 bytes each in an
    ``array(MASK_TYPECODE)``: the inverse of ``lanes_of``."""
    return array(MASK_TYPECODE, itertools.compress(itertools.count(), lane_flags(lanes)))


def enumerate_viable(graph: WorkflowGraph) -> array:
    """Masks of all viable coalitions, ascending, as an
    ``array(MASK_TYPECODE)`` of 4 bytes a mask (a list would hold an int
    object of about 36 bytes per mask).

    All 2**n coalitions are checked at once, one lane each (lane m is mask
    m), so graphs beyond MAX_AGENTS agents are rejected rather than silently
    running out of memory.
    """
    if graph.n > MAX_AGENTS:
        raise GraphTooLarge(f"{graph.n} agents exceeds the limit of {MAX_AGENTS}")
    # Bit-parallel reachability: an agent is reached in a lane when it is a
    # member there and is a source or has a reached predecessor; the sink's
    # reached lanes are the viable masks.
    reached = [0] * graph.n
    for a in range(graph.n):
        member = member_lanes(a, graph.n)
        if graph.preds[a]:
            via = 0
            for p in graph.preds[a]:
                via |= reached[p]
            reached[a] = member & via
        else:
            reached[a] = member
    return masks_of(reached[graph.sink])
