"""Slow reference checks for one coalition at a time, written apart from the
bit-parallel code in ``dagcredit`` that they test: a depth-first path search
and the three viability conditions built on it."""

from dataclasses import dataclass

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
