"""Layered workflow graphs.

Agents are organized into ordered layers with edges running strictly from
earlier layers to later ones (forward layer-skipping is allowed), so no graph
has a cycle. Exactly one agent has no outgoing edges; that agent is the sink
whose output becomes the system decision. Agents with no incoming edges are
sources and are the only ones allowed to read external data.

``InputError`` is defined here, in the module every other one imports: each
error the package raises for bad input derives from it.
"""
from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Sequence

# Agent names become report file names, so each is one safe path component.
_AGENT_NAME = re.compile(r"[A-Za-z0-9_-]+")


class InputError(ValueError):
    """A graph, config, data file or setting the program cannot run; the
    CLI exits 1 on it."""


class GraphValidationError(InputError):
    """Raised when a graph definition violates a structural rule."""


class WorkflowGraph(NamedTuple):
    """Validated layered DAG. Build via :func:`build_graph`, not directly.

    ``names`` holds each agent's unique name at its index, and ``layers``
    the agent indices per layer in declaration order. Derived fields
    (``sources``, ``sink``, adjacency and each agent's layer) are computed
    once at construction and treated as read-only. The edges are held once,
    as ``preds`` and ``succs``. Every edge runs from a lower index to a
    higher one, so index order is an execution order.
    """

    names: tuple[str, ...]
    layers: tuple[tuple[int, ...], ...]
    layer_of: tuple[int, ...]
    preds: tuple[tuple[int, ...], ...]
    succs: tuple[tuple[int, ...], ...]
    sources: tuple[int, ...]
    sink: int

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Every edge as an index pair, read off ``preds``.

        The package reads ``preds`` and ``succs``; the benchmark's workload
        self-test reads this.
        """
        return frozenset((u, v) for v, row in enumerate(self.preds) for u in row)


def build_graph(
    layers: Sequence[Sequence[str]],
    edges: Iterable[tuple[str, str]],
    *,
    agents: Sequence[str] | None = None,
) -> WorkflowGraph:
    """Validate and assemble a :class:`WorkflowGraph`.

    Agent indices are assigned densely in layer declaration order, and every
    edge must reach a strictly later layer, so every edge runs from a lower
    index to a higher one: ascending index order runs each agent after all
    its predecessors, and each layer is a consecutive run of indices. When
    ``agents`` is given it must list exactly the names appearing in ``layers``
    (an external roster to check the partition against). Which layers a
    viable coalition may leave empty follows from the edges alone.

    Every agent name must match ``[A-Za-z0-9_-]+`` and be unique when case
    is ignored: names become report file names, and some file systems fold
    case.

    Raises:
        GraphValidationError: empty layers, a name that breaks the rule
            above, a roster mismatch against ``agents``, an edge endpoint
            that names no agent, an edge that does not reach a strictly
            later layer (same-layer, backward or a self-loop; every cycle
            holds such an edge, so this rule is what rules out cycles), or
            more than one agent without an outgoing edge.

    An acyclic graph with agents always has one without predecessors, so
    every valid graph has a source.
    """
    if not layers or any(not layer for layer in layers):
        raise GraphValidationError("every layer must contain at least one agent")

    names: list[str] = []
    for layer in layers:
        names.extend(layer)
    folded: dict[str, str] = {}
    for name in names:
        if not _AGENT_NAME.fullmatch(name):
            raise GraphValidationError(f"agent name {name!r} must match [A-Za-z0-9_-]+")
        if name.lower() in folded:
            raise GraphValidationError(
                "agent names must be unique across layers, ignoring case: "
                f"{folded[name.lower()]!r} and {name!r}"
            )
        folded[name.lower()] = name
    if agents is not None and sorted(agents) != sorted(names):
        raise GraphValidationError("layers must cover exactly the declared agents")

    index = {name: i for i, name in enumerate(names)}
    n = len(names)

    edge_idx: set[tuple[int, int]] = set()
    for u_name, v_name in edges:
        if u_name not in index or v_name not in index:
            raise GraphValidationError(f"edge endpoint not an agent: ({u_name}, {v_name})")
        edge_idx.add((index[u_name], index[v_name]))

    layer_of = [0] * n
    layer_tuples: list[tuple[int, ...]] = []
    for li, layer in enumerate(layers):
        row = tuple(index[name] for name in layer)
        layer_tuples.append(row)
        for i in row:
            layer_of[i] = li

    # Every cycle, a self-loop included, holds an edge that fails this test,
    # so it also rules out cycles.
    for u, v in edge_idx:
        if layer_of[u] >= layer_of[v]:
            raise GraphValidationError(
                f"edge {names[u]} -> {names[v]} does not go to a strictly later layer"
            )

    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(edge_idx):
        preds[v].append(u)
        succs[u].append(v)

    sinks = [i for i in range(n) if not succs[i]]
    if len(sinks) != 1:
        raise GraphValidationError(f"expected exactly one sink, found {[names[i] for i in sinks]}")
    return WorkflowGraph(
        names=tuple(names),
        layers=tuple(layer_tuples),
        layer_of=tuple(layer_of),
        preds=tuple(tuple(sorted(p)) for p in preds),
        succs=tuple(tuple(sorted(s)) for s in succs),
        sources=tuple(i for i in range(n) if not preds[i]),
        sink=sinks[0],
    )


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
