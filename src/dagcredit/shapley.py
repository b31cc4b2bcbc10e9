"""Exact Shapley attribution over coalition value tables, with layer-wise
shared execution for layered workflows.

A game is a table from coalition bitmask to value; masks missing from the
table are worth zero. Two entry points aggregate a table into per-agent
contributions with the same routine:

* ``shapley_exact`` takes a table over every subset (the classical path).
* ``shapley_dag`` takes a table over the viable coalitions only; every other
  subset cannot trade and is worth zero by the game definition.

Tables for the pruned engine come from ``layered_run``: agents in one layer
are keyed by the exact upstream membership they see, so every distinct
(agent, upstream configuration) pair runs once per episode.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from .graph import WorkflowGraph

MAX_EXACT_AGENTS = 24

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
    if n > MAX_EXACT_AGENTS:
        raise TooManyAgents(f"{n} agents exceeds the limit of {MAX_EXACT_AGENTS}")
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
    if graph.n > MAX_EXACT_AGENTS:
        raise TooManyAgents(f"{graph.n} agents exceeds the limit of {MAX_EXACT_AGENTS}")
    phi = _phi_from_values(graph.n, values, False)
    return AttributionResult(
        tuple(phi), replace(counters, coalition_evaluations=len(values))
    )


@dataclass(frozen=True)
class LayeredRunResult:
    """One episode of memoized execution across all viable coalitions.

    ``cache`` maps (agent, upstream configuration mask) to the agent's output;
    ``sink_outputs`` maps each viable coalition's mask to its sink output.
    """

    cache: dict[tuple[int, int], Any]
    sink_outputs: dict[int, Any]
    counters: CostCounters


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

    Layer by layer, each agent runs exactly once under every distinct upstream
    configuration (the members of earlier layers) of a viable coalition that
    holds it, and the output is cached under (agent, configuration). Inputs
    to an agent are the cached outputs of its direct predecessors inside the
    configuration; external data goes to source agents only. Per-coalition
    sink outputs are then read straight from the cache, keyed by mask.
    ``cache_hits`` counts every cache read.

    ``verify_determinism`` re-executes the last task of the episode and raises
    NonDeterminismDetected on a mismatch.
    """
    cache: dict[tuple[int, int], Any] = {}
    reads = 0
    last_task: tuple[int, int] | None = None
    # Per agent, its direct predecessors as (index, bit, mask of the layers
    # before the predecessor's): a predecessor inside a configuration is read
    # under its own upstream membership, the configuration & that mask.
    upstream_keys = [
        [(p, 1 << p, graph.prefix_masks[graph.layer_of[p]]) for p in graph.preds[a]]
        for a in range(graph.n)
    ]
    inputs = [external if a in graph.sources else None for a in range(graph.n)]

    def upstream_of(agent: int, cfg: int) -> dict[int, Any]:
        return {
            p: cache[(p, cfg & prefix)]
            for p, bit, prefix in upstream_keys[agent]
            if cfg & bit
        }

    for li, layer in enumerate(graph.layers):
        prefix = graph.prefix_masks[li]
        # Coalitions that agree on this layer and the ones before it give the
        # same tasks, so each distinct membership pattern is looked at once.
        patterns = {mask & (prefix | graph.layer_masks[li]) for mask in viable}
        for agent in layer:
            bit = 1 << agent
            for cfg in sorted({key & prefix for key in patterns if key & bit}):
                upstream = upstream_of(agent, cfg)
                reads += len(upstream)
                try:
                    cache[(agent, cfg)] = run_agent(agent, upstream, inputs[agent])
                except Exception as exc:
                    raise ExecutorFailure(
                        f"agent {graph.names[agent]} failed under config {bin(cfg)}"
                    ) from exc
                last_task = (agent, cfg)

    if verify_determinism and last_task is not None:
        agent, cfg = last_task
        upstream = upstream_of(agent, cfg)
        reads += len(upstream) + 1
        if run_agent(agent, upstream, inputs[agent]) != cache[last_task]:
            raise NonDeterminismDetected(
                f"agent {graph.names[agent]} is not deterministic under config {bin(cfg)}"
            )

    sink, sink_prefix = graph.sink, graph.prefix_masks[len(graph.layers) - 1]
    sink_outputs = {mask: cache[(sink, mask & sink_prefix)] for mask in viable}
    reads += len(viable)
    counters = CostCounters(agent_executions=len(cache), cache_hits=reads)
    return LayeredRunResult(cache, sink_outputs, counters)


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
    """Closed-form execution counts for a fully connected layered graph."""

    unique_configs: tuple[int, ...]
    total_executions: int
    viable_coalitions: int


def predicted_cost(
    layer_sizes: Sequence[int], mandatory: Sequence[bool] | None = None
) -> PredictedCost:
    """Predict memoized execution counts from layer sizes alone.

    For each layer the number of distinct upstream configurations is the
    product over earlier layers of (2**size - 1 if the layer is mandatory
    else 2**size); total executions add size * configs per layer. Matches the
    measured counter of ``layered_run`` on fully connected layered graphs.
    """
    if not layer_sizes or any(s < 1 for s in layer_sizes):
        raise InvalidSize("layer sizes must be positive")
    if mandatory is None:
        mandatory = [True] * len(layer_sizes)
    if len(mandatory) != len(layer_sizes):
        raise InvalidSize("one mandatory flag per layer")
    configs = []
    total = 0
    for i, size in enumerate(layer_sizes):
        u = 1
        for j in range(i):
            u *= (1 << layer_sizes[j]) - (1 if mandatory[j] else 0)
        configs.append(u)
        total += u * size
    viable = 1
    for size, flag in zip(layer_sizes, mandatory):
        viable *= (1 << size) - (1 if flag else 0)
    return PredictedCost(tuple(configs), total, viable)


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
