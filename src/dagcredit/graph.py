"""Layered workflow graphs.

Agents are organized into ordered layers with edges running strictly from
earlier layers to later ones (forward layer-skipping is allowed). Exactly one
agent has no outgoing edges; that agent is the sink whose output becomes the
system decision. Agents with no incoming edges are sources and are the only
ones allowed to read external data.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence


class GraphValidationError(Exception):
    """Raised when a graph definition violates a structural rule."""


class CycleDetected(GraphValidationError):
    pass


class MultipleSinks(GraphValidationError):
    pass


class NoSource(GraphValidationError):
    pass


class CrossLayerViolation(GraphValidationError):
    pass


class LayerPartitionInvalid(GraphValidationError):
    pass


class EndpointNotInCoalition(ValueError):
    pass


@dataclass(frozen=True)
class Agent:
    """An agent identity: dense index plus a unique display name."""

    index: int
    name: str


@dataclass(frozen=True)
class WorkflowGraph:
    """Validated layered DAG. Build via :func:`build_graph`, not directly.

    ``layers`` holds agent indices per layer in declaration order. Derived
    fields (``sources``, ``sink``, adjacency, per-layer bitmasks and the
    topological ``order``) are computed once at construction and treated as
    read-only.
    """

    agents: tuple[Agent, ...]
    edges: frozenset[tuple[int, int]]
    layers: tuple[tuple[int, ...], ...]
    layer_of: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    sources: tuple[int, ...]
    sink: int
    layer_masks: tuple[int, ...]
    prefix_masks: tuple[int, ...]
    order: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.agents)

    def index_of(self, name: str) -> int:
        for a in self.agents:
            if a.name == name:
                return a.index
        raise KeyError(name)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1


def build_graph(
    layers: Sequence[Sequence[str]],
    edges: Iterable[tuple[str, str]],
    *,
    agents: Sequence[str] | None = None,
) -> WorkflowGraph:
    """Validate and assemble a :class:`WorkflowGraph`.

    Agent indices are assigned densely in layer declaration order. When
    ``agents`` is given it must list exactly the names appearing in ``layers``
    (an external roster to check the partition against). Which layers a
    viable coalition may leave empty follows from the edges alone.

    Raises:
        LayerPartitionInvalid: empty layers, duplicate names, or a roster
            mismatch against ``agents``.
        CycleDetected: the raw edge set is cyclic.
        CrossLayerViolation: an acyclic edge that is not strictly forward
            across layers (same-layer or backward).
        MultipleSinks: more than one agent has no outgoing edge.
        NoSource: no agent has in-degree zero (unreachable for valid input,
            kept as a defensive check).
    """
    if not layers or any(not layer for layer in layers):
        raise LayerPartitionInvalid("every layer must contain at least one agent")

    names: list[str] = []
    for layer in layers:
        names.extend(layer)
    if len(set(names)) != len(names):
        raise LayerPartitionInvalid("agent names must be unique across layers")
    if agents is not None and sorted(agents) != sorted(names):
        raise LayerPartitionInvalid("layers must cover exactly the declared agents")

    index = {name: i for i, name in enumerate(names)}
    n = len(names)

    edge_idx: set[tuple[int, int]] = set()
    for u_name, v_name in edges:
        if u_name not in index or v_name not in index:
            raise LayerPartitionInvalid(f"edge endpoint not an agent: ({u_name}, {v_name})")
        if u_name == v_name:
            raise CycleDetected(f"self-loop on {u_name}")
        edge_idx.add((index[u_name], index[v_name]))

    # Cycle check runs on the raw edge set before layer monotonicity so that a
    # genuine cycle reports as such rather than as a layer violation. The
    # order it returns is kept for replay.
    order = _toposort(n, edge_idx)

    layer_of = [0] * n
    layer_tuples: list[tuple[int, ...]] = []
    for li, layer in enumerate(layers):
        row = tuple(index[name] for name in layer)
        layer_tuples.append(row)
        for i in row:
            layer_of[i] = li

    for u, v in edge_idx:
        if layer_of[u] >= layer_of[v]:
            raise CrossLayerViolation(
                f"edge {names[u]} -> {names[v]} does not go to a strictly later layer"
            )

    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(edge_idx):
        preds[v].append(u)
        succs[u].append(v)

    sinks = [i for i in range(n) if not succs[i]]
    if len(sinks) != 1:
        raise MultipleSinks(f"expected exactly one sink, found {[names[i] for i in sinks]}")
    sources = tuple(i for i in range(n) if not preds[i])
    if not sources:
        raise NoSource("graph has no agent with in-degree zero")

    layer_masks = []
    prefix_masks = []
    prefix = 0
    for row in layer_tuples:
        mask = 0
        for i in row:
            mask |= 1 << i
        layer_masks.append(mask)
        prefix_masks.append(prefix)
        prefix |= mask

    return WorkflowGraph(
        agents=tuple(Agent(i, name) for i, name in enumerate(names)),
        edges=frozenset(edge_idx),
        layers=tuple(layer_tuples),
        layer_of=tuple(layer_of),
        preds=tuple(tuple(sorted(p)) for p in preds),
        succs=tuple(tuple(sorted(s)) for s in succs),
        sources=sources,
        sink=sinks[0],
        layer_masks=tuple(layer_masks),
        prefix_masks=tuple(prefix_masks),
        order=tuple(order),
    )


def _toposort(n: int, edges: set[tuple[int, int]]) -> list[int]:
    indeg = [0] * n
    succs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        indeg[v] += 1
        succs[u].append(v)
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in sorted(succs[u]):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != n:
        raise CycleDetected("edge set contains a cycle")
    return order


def path_exists(graph: WorkflowGraph, mask: int, src: int, dst: int) -> bool:
    """Whether ``dst`` is reachable from ``src`` inside the subgraph induced
    by the coalition ``mask``.

    Both endpoints must be coalition members. ``src == dst`` counts as
    reachable (empty path).
    """
    # A negative mask is no coalition, and a negative index must not reach
    # a shift (it would raise a bare ValueError).
    if min(mask, src, dst) < 0 or not (mask >> src) & (mask >> dst) & 1:
        raise EndpointNotInCoalition("both endpoints must be coalition members")
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


def reference_graph() -> WorkflowGraph:
    """The seven-agent trading workflow used throughout the tests and CLI.

    Three analyst sources feed three outlook aggregators which feed a single
    trader sink; both inter-layer stages are fully connected.
    """
    analysts = ["NAA", "TAA", "FAA"]
    outlooks = ["BOA", "BeOA", "NOA"]
    edges = [(a, o) for a in analysts for o in outlooks]
    edges += [(o, "TRA") for o in outlooks]
    return build_graph([analysts, outlooks, ["TRA"]], edges)
