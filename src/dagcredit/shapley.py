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

from .coalitions import Coalition
from .graph import WorkflowGraph, topological_order

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
    n: int, value_of: Callable[[int], float], exact_arith: bool
) -> list[float]:
    # Sum over all subsets not containing i of w(|S|) * (v(S + i) - v(S)).
    weights = [shapley_weight(s, n) for s in range(n)]
    if exact_arith:
        phi = []
        for i in range(n):
            bit = 1 << i
            acc = Fraction(0)
            for mask in range(1 << n):
                if mask & bit:
                    continue
                marginal = Fraction(value_of(mask | bit)) - Fraction(value_of(mask))
                acc += weights[mask.bit_count()] * marginal
            phi.append(float(acc))
        return phi
    wf = [float(w) for w in weights]
    phi = []
    for i in range(n):
        bit = 1 << i
        terms = [
            wf[mask.bit_count()] * (value_of(mask | bit) - value_of(mask))
            for mask in range(1 << n)
            if not mask & bit
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
    phi = _phi_from_values(n, lambda mask: values.get(mask, 0.0), exact_arith)
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
    phi = _phi_from_values(graph.n, lambda mask: values.get(mask, 0.0), False)
    return AttributionResult(
        tuple(phi), replace(counters, coalition_evaluations=len(values))
    )


@dataclass(frozen=True)
class LayeredRunResult:
    """One episode of memoized execution across all viable coalitions.

    ``cache`` maps (agent, upstream configuration mask) to the agent's output.
    """

    cache: dict[tuple[int, int], Any]
    sink_outputs: dict[Coalition, Any]
    counters: CostCounters


def _upstream(
    graph: WorkflowGraph, cache: Mapping[tuple[int, int], Any], agent: int, cfg: int
) -> dict[int, Any]:
    # Direct predecessors inside the configuration, each read under its own
    # upstream membership: the members of layers before the predecessor's.
    return {
        p: cache[(p, cfg & graph.prefix_masks[graph.layer_of[p]])]
        for p in graph.preds[agent]
        if (cfg >> p) & 1
    }


def layered_run(
    graph: WorkflowGraph,
    viable: Sequence[Coalition],
    run_agent: AgentRunner,
    external: Any = None,
    *,
    verify_determinism: bool = False,
) -> LayeredRunResult:
    """Execute every viable coalition for one episode with layer-wise sharing.

    Layer by layer, viable coalitions are grouped by upstream configuration;
    each agent active under a configuration is executed exactly once and the
    output is cached under (agent, configuration). Inputs to an agent are the
    cached outputs of its direct predecessors inside the configuration;
    external data goes to source agents only. Per-coalition sink outputs are
    then read straight from the cache. ``cache_hits`` counts every cache read.

    ``verify_determinism`` re-executes the last task of the episode and raises
    NonDeterminismDetected on a mismatch.
    """
    cache: dict[tuple[int, int], Any] = {}
    reads = 0
    last_task: tuple[int, int] | None = None

    for li in range(len(graph.layers)):
        layer_mask = graph.layer_masks[li]
        groups: dict[int, int] = {}
        for c in viable:
            active_bits = c.mask & layer_mask
            if active_bits:
                cfg = c.mask & graph.prefix_masks[li]
                groups[cfg] = groups.get(cfg, 0) | active_bits

        for cfg in sorted(groups):
            bits = groups[cfg]
            while bits:
                low = bits & -bits
                bits ^= low
                agent = low.bit_length() - 1
                upstream = _upstream(graph, cache, agent, cfg)
                reads += len(upstream)
                data = external if agent in graph.sources else None
                try:
                    cache[(agent, cfg)] = run_agent(agent, upstream, data)
                except Exception as exc:
                    raise ExecutorFailure(
                        f"agent {graph.names[agent]} failed under config {bin(cfg)}"
                    ) from exc
                last_task = (agent, cfg)

    if verify_determinism and last_task is not None:
        agent, cfg = last_task
        upstream = _upstream(graph, cache, agent, cfg)
        reads += len(upstream) + 1
        data = external if agent in graph.sources else None
        if run_agent(agent, upstream, data) != cache[last_task]:
            raise NonDeterminismDetected(
                f"agent {graph.names[agent]} is not deterministic under config {bin(cfg)}"
            )

    sink_prefix = graph.prefix_masks[len(graph.layers) - 1]
    sink_outputs = {c: cache[(graph.sink, c.mask & sink_prefix)] for c in viable}
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
    coalition: Coalition,
    run_agent: AgentRunner,
    external: Any = None,
) -> ReplayResult:
    """Cache-free straight-line execution of one coalition.

    Every member runs once in topological order, receiving the outputs of its
    direct predecessors that are also members. This is the classical
    (unshared) evaluation path and the reference oracle for the memoized one.
    """
    outputs: dict[int, Any] = {}
    executed = 0
    for agent in topological_order(graph):
        if agent not in coalition:
            continue
        upstream = {p: outputs[p] for p in graph.preds[agent] if p in coalition}
        data = external if agent in graph.sources else None
        try:
            outputs[agent] = run_agent(agent, upstream, data)
        except Exception as exc:
            raise ExecutorFailure(f"agent {graph.names[agent]} failed") from exc
        executed += 1
    return ReplayResult(outputs, outputs.get(graph.sink), executed)


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
