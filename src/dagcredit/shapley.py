"""Exact Shapley attribution over coalition value tables, with layer-wise
shared execution for layered workflows.

A game is a table from coalition bitmask to value; masks missing from the
table are worth zero. Two entry points aggregate a table into per-agent
contributions with the same routine:

* ``shapley_exact`` takes a table over every subset (the classical path).
* ``shapley_dag`` takes a table over the viable coalitions only; every other
  subset cannot trade and is worth zero by the game definition.

Tables for the pruned engine come from ``layered_run``. An agent in a
coalition is fed only by its predecessors inside the coalition, so its output
depends only on its live key: the coalition members with a path to it inside
the coalition. Every distinct (agent, live key) pair runs once per episode,
and ``predicted_cost`` counts those pairs without running an agent.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any

from .coalitions import MAX_AGENTS, enumerate_viable
from .graph import WorkflowGraph

# An agent runner: (agent index, upstream outputs by agent index, external
# data or None) -> opaque output. Engines pass external data to source
# agents only.
AgentRunner = Callable[[int, Mapping[int, Any], Any], Any]


class TooManyAgents(ValueError):
    pass


class InvalidSize(ValueError):
    pass


class ExecutorFailure(RuntimeError):
    """An agent runner raised during engine-driven execution."""


class NonDeterminismDetected(RuntimeError):
    """Optional debug re-execution produced a different output for a cached key."""


def shapley_weight(s: int, n: int) -> Fraction:
    """Exact weight ``s! (n - s - 1)! / n!`` for a coalition of size ``s``.

    Kept rational so that summing the weights over all subset sizes is
    exactly 1; conversion to float happens only when terms are accumulated.
    """
    if n <= 0 or s < 0 or s >= n:
        raise InvalidSize(f"need 0 <= s < n, got s={s} n={n}")
    return Fraction(
        math.factorial(s) * math.factorial(n - s - 1), math.factorial(n)
    )


@dataclass
class CostCounters:
    """Work performed while valuing a game."""

    coalition_evaluations: int = 0
    agent_executions: int = 0
    cache_hits: int = 0

    def merged(self, other: "CostCounters") -> "CostCounters":
        return CostCounters(
            self.coalition_evaluations + other.coalition_evaluations,
            self.agent_executions + other.agent_executions,
            self.cache_hits + other.cache_hits,
        )


@dataclass(frozen=True)
class AttributionResult:
    """Per-agent Shapley values plus the cost of obtaining them."""

    values: tuple[float, ...]
    counters: CostCounters

    def total(self) -> float:
        return math.fsum(self.values)


def _phi_from_values(
    n: int, values: Mapping[int, float], exact_arith: bool
) -> list[float]:
    # phi_i sums w(|T|) * (v(T + i) - v(T)) over the subsets T without i. A
    # term is non-zero only when T + i or T is in the table, so the loop runs
    # over the table: an entry S holding i gives the term with T = S - i, an
    # entry S without i gives T = S unless S + i is an entry itself (then that
    # entry already gave it). The skipped terms are all +0.0, and both sums
    # below are exact before their single rounding, so the result is the same
    # as summing over all 2**n subsets.
    weights = [shapley_weight(s, n) for s in range(n)]
    wf = [float(w) for w in weights]
    entries = [(mask, value, mask.bit_count()) for mask, value in values.items()]
    phi = []
    for i in range(n):
        bit = 1 << i
        if exact_arith:
            acc = sum(
                (
                    weights[size - 1]
                    * (Fraction(value) - Fraction(values.get(mask ^ bit, 0.0)))
                    if mask & bit
                    else weights[size] * -Fraction(value)
                    for mask, value, size in entries
                    if mask & bit or mask | bit not in values
                ),
                Fraction(0),
            )
            phi.append(float(acc))
        else:
            # One agent's terms at a time: a list for all agents would hold
            # n times the table.
            terms = [
                wf[size - 1] * (value - values.get(mask ^ bit, 0.0))
                if mask & bit
                else wf[size] * (0.0 - value)
                for mask, value, size in entries
                if mask & bit or mask | bit not in values
            ]
            phi.append(math.fsum(terms))
    return phi


def shapley_exact(
    values: Mapping[int, float],
    n: int,
    counters: CostCounters,
    *,
    exact_arith: bool = False,
) -> AttributionResult:
    """Exact Shapley values from a table over the full power set of ``n`` agents.

    ``counters`` is the work spent filling the table; the result reports it
    with ``coalition_evaluations`` set to ``2**n``. With ``exact_arith`` the
    weighted marginals accumulate as rationals, which makes null players
    exactly zero; the default path converts weights to float and uses
    compensated summation.
    """
    if n <= 0:
        raise InvalidSize("need at least one agent")
    if n > MAX_AGENTS:
        raise TooManyAgents(f"{n} agents exceeds the limit of {MAX_AGENTS}")
    phi = _phi_from_values(n, values, exact_arith)
    return AttributionResult(tuple(phi), replace(counters, coalition_evaluations=1 << n))


def shapley_dag(
    graph: WorkflowGraph, values: Mapping[int, float], counters: CostCounters
) -> AttributionResult:
    """Exact Shapley values from a table over the viable coalitions only.

    Every other subset takes value zero by the game definition, so the result
    is identical to ``shapley_exact`` on the zero-extended table.
    ``counters`` is the work spent filling the table; the result reports it
    with ``coalition_evaluations`` set to the table size.
    """
    if graph.n > MAX_AGENTS:
        raise TooManyAgents(f"{graph.n} agents exceeds the limit of {MAX_AGENTS}")
    phi = _phi_from_values(graph.n, values, False)
    return AttributionResult(
        tuple(phi), replace(counters, coalition_evaluations=len(values))
    )


@dataclass(frozen=True)
class LayeredRunResult:
    """One episode of memoized execution across all viable coalitions.

    ``cache`` maps (agent, live key) to the agent's output, one entry per
    execution; ``sink_outputs`` maps each viable coalition's mask to its sink
    output; ``grand_outputs`` maps each agent to its output in the grand
    coalition, and is empty when the grand coalition is not among the viable
    masks.
    """

    cache: Mapping[tuple[int, int], Any]
    sink_outputs: dict[int, Any]
    counters: CostCounters
    grand_outputs: dict[int, Any]


class _OutputsByKey(Mapping[tuple[int, int], Any]):
    """(agent, live key) -> output over the per-agent output dicts, without
    copying them into a second index."""

    def __init__(self, outputs: list[dict[int, Any]]):
        self._outputs = outputs

    def __getitem__(self, item: tuple[int, int]) -> Any:
        agent, key = item
        if not 0 <= agent < len(self._outputs):
            raise KeyError(item)
        return self._outputs[agent][key]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for agent, done in enumerate(self._outputs):
            for key in done:
                yield agent, key

    def __len__(self) -> int:
        return sum(map(len, self._outputs))


def _pred_keys(graph: WorkflowGraph) -> list[list[tuple[int, int, int]]]:
    # Per agent, its direct predecessors as (index, bit, mask of the layers
    # before the predecessor's).
    return [
        [(p, 1 << p, graph.prefix_masks[graph.layer_of[p]]) for p in graph.preds[a]]
        for a in range(graph.n)
    ]


def _live_keys(graph: WorkflowGraph, viable: Sequence[int]) -> list[dict[int, int]]:
    """Per agent, its live key under each upstream configuration it meets.

    An agent's upstream configuration in a coalition is the coalition's
    membership in the layers before the agent's; every distinct one among
    the viable masks that hold the agent is a key of the agent's dict. The
    live key is the set of the configuration's members with a path to the
    agent inside the coalition: the union, over the predecessors p in the
    configuration, of p's bit and p's live key under the configuration
    masked to the layers before p's. Mask arithmetic only: no agent runs.
    """
    live: list[dict[int, int]] = [{} for _ in range(graph.n)]
    pred_keys = _pred_keys(graph)
    for li, layer in enumerate(graph.layers):
        prefix = graph.prefix_masks[li]
        # Coalitions that agree on this layer and the ones before it give the
        # same configurations, so each distinct membership pattern is looked
        # at once.
        patterns = {mask & (prefix | graph.layer_masks[li]) for mask in viable}
        for agent in layer:
            bit = 1 << agent
            keys = live[agent]
            for cfg in {pattern & prefix for pattern in patterns if pattern & bit}:
                key = 0
                for p, p_bit, p_prefix in pred_keys[agent]:
                    if cfg & p_bit:
                        key |= p_bit | live[p][cfg & p_prefix]
                keys[cfg] = key
    return live


def layered_run(
    graph: WorkflowGraph,
    viable: Sequence[int],
    run_agent: AgentRunner,
    external: Any = None,
    *,
    verify_determinism: bool = False,
) -> LayeredRunResult:
    """Execute every viable coalition (given by mask) for one episode with
    layer-wise sharing.

    An agent's output in a coalition depends only on the outputs of its
    predecessors inside the coalition, so only on the members with a path
    to it inside the coalition: its live key. Layer by layer, each agent runs
    exactly once per distinct live key among the viable coalitions that hold
    it, and the output is kept under that key. Inputs to an agent are the
    kept outputs of its direct predecessors inside the live key; external
    data goes to source agents only. Per-coalition sink outputs are then
    read through the sink's live key, keyed by mask. ``cache_hits`` counts
    every read of a kept output.

    ``verify_determinism`` re-executes the last task of the episode and raises
    NonDeterminismDetected on a mismatch.
    """
    live = _live_keys(graph, viable)
    outputs: list[dict[int, Any]] = [{} for _ in range(graph.n)]
    reads = 0
    last_task: tuple[int, int, int] | None = None
    pred_keys = _pred_keys(graph)
    inputs = [external if a in graph.sources else None for a in range(graph.n)]

    def upstream_of(agent: int, cfg: int) -> dict[int, Any]:
        # Any configuration with the live key gives the same inputs: the
        # predecessors in it, each under its own live key.
        return {
            p: outputs[p][live[p][cfg & prefix]]
            for p, bit, prefix in pred_keys[agent]
            if cfg & bit
        }

    for layer in graph.layers:
        for agent in layer:
            # One configuration per live key to read the inputs through.
            tasks = {key: cfg for cfg, key in live[agent].items()}
            done = outputs[agent]
            for key in sorted(tasks):
                upstream = upstream_of(agent, tasks[key])
                reads += len(upstream)
                try:
                    done[key] = run_agent(agent, upstream, inputs[agent])
                except Exception as exc:
                    raise ExecutorFailure(
                        f"agent {graph.names[agent]} failed under live key {bin(key)}"
                    ) from exc
                last_task = (agent, key, tasks[key])

    if verify_determinism and last_task is not None:
        agent, key, cfg = last_task
        upstream = upstream_of(agent, cfg)
        reads += len(upstream) + 1
        if run_agent(agent, upstream, inputs[agent]) != outputs[agent][key]:
            raise NonDeterminismDetected(
                f"agent {graph.names[agent]} is not deterministic under live key {bin(key)}"
            )

    sink, sink_prefix = graph.sink, graph.prefix_masks[len(graph.layers) - 1]
    sink_live, sink_done = live[sink], outputs[sink]
    sink_outputs = {mask: sink_done[sink_live[mask & sink_prefix]] for mask in viable}
    reads += len(viable)
    full = graph.full_mask
    grand_outputs = (
        {
            a: outputs[a][live[a][full & graph.prefix_masks[graph.layer_of[a]]]]
            for a in range(graph.n)
        }
        if full in sink_outputs
        else {}
    )
    cache = _OutputsByKey(outputs)
    counters = CostCounters(agent_executions=len(cache), cache_hits=reads)
    return LayeredRunResult(cache, sink_outputs, counters, grand_outputs)


@dataclass(frozen=True)
class ReplayResult:
    outputs: dict[int, Any]
    sink_output: Any
    executions: int


def replay_coalition(
    graph: WorkflowGraph,
    mask: int,
    run_agent: AgentRunner,
    external: Any = None,
) -> ReplayResult:
    """Cache-free straight-line execution of one coalition, given by mask.

    Every member runs once in topological order, receiving the outputs of its
    direct predecessors that are also members. This is the classical
    (unshared) evaluation path and the reference oracle for the memoized one.
    """
    outputs: dict[int, Any] = {}
    for agent in graph.order:
        if not (mask >> agent) & 1:
            continue
        upstream = {p: outputs[p] for p in graph.preds[agent] if (mask >> p) & 1}
        data = external if agent in graph.sources else None
        try:
            outputs[agent] = run_agent(agent, upstream, data)
        except Exception as exc:
            raise ExecutorFailure(f"agent {graph.names[agent]} failed") from exc
    return ReplayResult(outputs, outputs.get(graph.sink), len(outputs))


@dataclass(frozen=True)
class PredictedCost:
    """Memoized execution counts of one episode on a graph."""

    layer_executions: tuple[int, ...]
    total_executions: int
    viable_coalitions: int


def predicted_cost(graph: WorkflowGraph) -> PredictedCost:
    """Count the executions ``layered_run`` makes in one episode on ``graph``
    without running any agent.

    Each layer's count is the number of distinct live keys of its agents
    over the viable coalitions, from the same routine ``layered_run`` keys
    its executions by, so the prediction equals the measured counter on any
    valid graph.
    """
    viable = enumerate_viable(graph)
    live = _live_keys(graph, viable)
    per_layer = tuple(
        sum(len(set(live[agent].values())) for agent in layer) for layer in graph.layers
    )
    return PredictedCost(per_layer, sum(per_layer), len(viable))


def classical_cost(n: int) -> tuple[int, int]:
    """(coalition evaluations, agent executions) for unshared full enumeration.

    Every one of the 2**n subsets is replayed and each member executes, so
    executions total n * 2**(n-1).
    """
    if n < 1:
        raise InvalidSize("need at least one agent")
    return (1 << n, n * (1 << (n - 1)))


def format_attribution(graph: WorkflowGraph, result: AttributionResult) -> str:
    """Per-agent contributions plus the cost block, as stable text."""
    lines = ["agent contributions:"]
    for i, name in enumerate(graph.names):
        lines.append(f"  {name:<8} {result.values[i]:+.10f}")
    lines.append(f"  total    {result.total():+.10f}")
    c = result.counters
    lines.append(
        "cost: "
        f"coalition_evaluations={c.coalition_evaluations} "
        f"agent_executions={c.agent_executions} "
        f"cache_hits={c.cache_hits}"
    )
    return "\n".join(lines)


def format_attribution_table(
    graph: WorkflowGraph, results: Mapping[str, AttributionResult]
) -> str:
    """Side-by-side engine comparison; single-engine input degrades cleanly."""
    engines = list(results)
    if len(engines) == 1:
        return format_attribution(graph, results[engines[0]])
    header = f"{'agent':<8}" + "".join(f" {e:>16}" for e in engines) + f" {'|diff|':>12}"
    lines = [header]
    for i, name in enumerate(graph.names):
        row = [f"{name:<8}"]
        row.extend(f" {results[e].values[i]:>+16.10f}" for e in engines)
        spread = max(results[e].values[i] for e in engines) - min(
            results[e].values[i] for e in engines
        )
        row.append(f" {spread:>12.3e}")
        lines.append("".join(row))
    for e in engines:
        c = results[e].counters
        lines.append(
            f"cost ({e}): coalition_evaluations={c.coalition_evaluations} "
            f"agent_executions={c.agent_executions} cache_hits={c.cache_hits}"
        )
    execs = {e: results[e].counters.agent_executions for e in engines}
    if "exact" in execs and "dag" in execs and execs["exact"]:
        reduction = 1.0 - execs["dag"] / execs["exact"]
        lines.append(f"execution reduction: {100.0 * reduction:.1f}%")
    return "\n".join(lines)
