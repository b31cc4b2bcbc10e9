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
the coalition. Every distinct (agent, live key) pair is one task per episode;
``live_plan`` lists the tasks of a graph's viable masks once, and
``predicted_cost`` counts them without running an agent. Given an
``ExecutionMemo``, a task takes its output from an earlier episode on the
same external data whose prompts were the same for its agent and live key,
instead of running the agent again.
"""
from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Callable, Hashable, Iterator, Mapping, Sequence
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
    """Work performed while valuing a game.

    ``agent_executions`` counts runner calls; ``executions_reused`` counts
    the tasks that took their output from an earlier episode kept in an
    ``ExecutionMemo`` instead of calling the runner.
    """

    coalition_evaluations: int = 0
    agent_executions: int = 0
    cache_hits: int = 0
    executions_reused: int = 0

    def merged(self, other: "CostCounters") -> "CostCounters":
        return CostCounters(
            self.coalition_evaluations + other.coalition_evaluations,
            self.agent_executions + other.agent_executions,
            self.cache_hits + other.cache_hits,
            self.executions_reused + other.executions_reused,
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
    task, whether it ran or came from the memo;
    ``sink_outputs`` maps each viable coalition's mask to its sink output;
    ``grand_outputs`` maps each agent to its output in the grand coalition,
    and is empty when the grand coalition is not among the viable masks.
    """

    cache: Mapping[tuple[int, int], Any]
    sink_outputs: dict[int, Any]
    counters: CostCounters
    grand_outputs: dict[int, Any]


@dataclass(frozen=True)
class LivePlan:
    """The tasks of one episode on a graph's viable masks, from masks alone.

    A task is an agent under one of its live keys. ``keys`` lists each
    agent's live keys in increasing order, one task each. ``inputs`` gives,
    per agent and per direct predecessor, the predecessor's task under each
    of the agent's tasks, or -1 where the predecessor is outside it.
    ``sink_tasks`` is the sink's task of each mask of ``viable``, in order;
    ``grand_tasks`` each agent's task in the grand coalition, or None when
    the grand coalition is not viable. ``upstream_reads`` is the number of
    predecessor outputs the tasks read.
    """

    graph: WorkflowGraph
    viable: Sequence[int]
    keys: tuple[list[int], ...]
    inputs: tuple[tuple[tuple[int, array], ...], ...]
    sink_tasks: array
    grand_tasks: tuple[int, ...] | None
    upstream_reads: int

    @property
    def tasks(self) -> int:
        return sum(map(len, self.keys))

    def serves(self, graph: WorkflowGraph, viable: Sequence[int]) -> bool:
        """Whether the plan was built for ``graph`` and ``viable``."""
        return (self.graph is graph or self.graph == graph) and (
            self.viable is viable or list(self.viable) == list(viable)
        )


class ExecutionMemo:
    """Task outputs of earlier episodes, shared by every ``layered_run``
    handed the same memo.

    A task's output is fixed by the episode's external data and the prompt
    states of its agent and of the members of its live key: nothing else
    reaches the agent. The memo keeps each episode that ran a task, by its
    external data, with its prompts and its outputs by task. A task of a
    later episode on equal external data takes its output from the first
    kept episode whose prompts are equal on the task's agent and live key;
    only the other tasks call the runner. Outputs are never compared, so
    which tasks run follows from the graph, the masks and the prompts
    alone. A backtest keeps one memo per window, shared by the window's
    tuned and frozen passes, and then drops it.
    """

    def __init__(self) -> None:
        self.plan: LivePlan | None = None
        # external data -> [(prompt states, per agent its outputs by task)]
        self._episodes: dict[Hashable, list[tuple[tuple[Any, ...], list[list[Any]]]]] = {}

    def earlier(
        self, plan: LivePlan, external: Hashable, prompts: Sequence[Any]
    ) -> list[tuple[int, list[list[Any]]]]:
        """The kept episodes on ``external``, each as (mask of the agents
        whose kept prompt differs from ``prompts``, outputs by task)."""
        if self.plan is None:
            self.plan = plan
        elif self.plan is not plan and not self.plan.serves(plan.graph, plan.viable):
            raise ValueError("the memo holds tasks of other viable masks")
        return [
            (sum(1 << a for a, (p, q) in enumerate(zip(prompts, kept)) if p != q), outputs)
            for kept, outputs in self._episodes.get(external, ())
        ]

    def keep(self, external: Hashable, prompts: Sequence[Any], outputs: list[list[Any]]) -> None:
        self._episodes.setdefault(external, []).append((tuple(prompts), outputs))


class _OutputsByKey(Mapping[tuple[int, int], Any]):
    """(agent, live key) -> output over an episode's outputs by task,
    without building a second index."""

    def __init__(self, plan: LivePlan, outputs: list[list[Any]]):
        self._plan = plan
        self._outputs = outputs

    def __getitem__(self, item: tuple[int, int]) -> Any:
        agent, key = item
        if not 0 <= agent < len(self._outputs):
            raise KeyError(item)
        keys = self._plan.keys[agent]
        task = bisect_left(keys, key)
        if task == len(keys) or keys[task] != key:
            raise KeyError(item)
        return self._outputs[agent][task]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for agent, keys in enumerate(self._plan.keys):
            for key in keys:
                yield agent, key

    def __len__(self) -> int:
        return self._plan.tasks


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


def live_plan(graph: WorkflowGraph, viable: Sequence[int]) -> LivePlan:
    """List the tasks of ``layered_run`` on ``viable`` (masks of ``graph``).

    Mask arithmetic only: no agent runs. The plan depends on the graph and
    the masks alone, so one plan serves every episode over them.
    """
    live = _live_keys(graph, viable)
    keys = tuple(sorted(set(live[a].values())) for a in range(graph.n))
    task_of = [{key: task for task, key in enumerate(agent_keys)} for agent_keys in keys]
    inputs = []
    for agent, preds in enumerate(_pred_keys(graph)):
        # Any configuration with the live key gives the same inputs: the
        # predecessors in it, each under its own live key.
        cfg_of = {key: cfg for cfg, key in live[agent].items()}
        cfgs = [cfg_of[key] for key in keys[agent]]
        inputs.append(tuple(
            (p, array("q", [
                task_of[p][live[p][cfg & prefix]] if cfg & bit else -1 for cfg in cfgs
            ]))
            for p, bit, prefix in preds
        ))
    sink, sink_prefix = graph.sink, graph.prefix_masks[len(graph.layers) - 1]
    sink_live, sink_task = live[sink], task_of[sink]
    sink_tasks = array("q", [sink_task[sink_live[mask & sink_prefix]] for mask in viable])
    full = graph.full_mask
    grand_tasks = (
        tuple(
            task_of[a][live[a][full & graph.prefix_masks[graph.layer_of[a]]]]
            for a in range(graph.n)
        )
        if full in viable
        else None
    )
    upstream_reads = sum(
        len(col) - col.count(-1) for agent_inputs in inputs for _, col in agent_inputs
    )
    return LivePlan(
        graph, viable, keys, tuple(inputs), sink_tasks, grand_tasks, upstream_reads
    )


def layered_run(
    graph: WorkflowGraph,
    viable: Sequence[int],
    run_agent: AgentRunner,
    external: Any = None,
    *,
    plan: LivePlan | None = None,
    memo: ExecutionMemo | None = None,
    prompts: Sequence[Any] | None = None,
    verify_determinism: bool = False,
) -> LayeredRunResult:
    """Execute every viable coalition (given by mask) for one episode with
    layer-wise sharing.

    An agent's output in a coalition depends only on the outputs of its
    predecessors inside the coalition, so only on the members with a path
    to it inside the coalition: its live key. Layer by layer, each agent has
    one task per distinct live key among the viable coalitions that hold it
    (``plan``, built from the masks when not given). A task's inputs are the
    outputs of its direct predecessors' tasks inside the live key; external
    data goes to source agents only. Per-coalition sink outputs are then
    read through the sink's live key, keyed by mask.

    Without ``memo`` every task calls ``run_agent``. With one, a task whose
    agent and live-key members had the same prompt states (``prompts``, per
    agent; all None when not given) in an episode the memo kept on equal
    external data, which must then be hashable, takes that episode's output
    (see ``ExecutionMemo``), and an episode that called the runner is kept.

    ``agent_executions`` counts runner calls and ``executions_reused`` the
    other tasks; the two sum to the plan's task count. ``cache_hits`` counts
    every read of a kept output: each task's predecessor outputs and each
    viable mask's sink output.

    ``verify_determinism`` re-executes the last task that called the runner
    and raises NonDeterminismDetected on a mismatch.
    """
    if plan is None:
        plan = live_plan(graph, viable)
    elif not plan.serves(graph, viable):
        raise ValueError("the plan was built for other viable masks")
    if prompts is None:
        prompts = (None,) * graph.n
    earlier = [] if memo is None else memo.earlier(plan, external, prompts)
    # Per agent, its output under each of its tasks.
    outputs: list[list[Any]] = [[] for _ in range(graph.n)]
    executions = 0
    last_run: tuple[int, int, dict[int, Any]] | None = None

    for layer in graph.layers:
        for agent in layer:
            bit = 1 << agent
            # Kept episodes with this agent's prompt; a task reuses one whose
            # prompts also agree on its live key.
            kept = [(changed, done[agent]) for changed, done in earlier if not changed & bit]
            inputs = plan.inputs[agent]
            # Sources are the agents without predecessors.
            data = None if inputs else external
            row = outputs[agent]
            for task, key in enumerate(plan.keys[agent]):
                for changed, done in kept:
                    if not key & changed:
                        row.append(done[task])
                        break
                else:
                    upstream = {
                        p: outputs[p][col[task]] for p, col in inputs if col[task] >= 0
                    }
                    try:
                        row.append(run_agent(agent, upstream, data))
                    except Exception as exc:
                        raise ExecutorFailure(
                            f"agent {graph.names[agent]} failed under live key {bin(key)}"
                        ) from exc
                    executions += 1
                    last_run = (agent, task, upstream)

    reads = plan.upstream_reads + len(viable)
    if verify_determinism and last_run is not None:
        agent, task, upstream = last_run
        reads += len(upstream) + 1
        data = None if plan.inputs[agent] else external
        if run_agent(agent, upstream, data) != outputs[agent][task]:
            raise NonDeterminismDetected(
                f"agent {graph.names[agent]} is not deterministic under live key "
                f"{bin(plan.keys[agent][task])}"
            )
    if memo is not None and executions:
        memo.keep(external, prompts, outputs)

    sink_row = outputs[graph.sink]
    sink_outputs = dict(zip(viable, map(sink_row.__getitem__, plan.sink_tasks)))
    grand_outputs = (
        {}
        if plan.grand_tasks is None
        else {a: outputs[a][task] for a, task in enumerate(plan.grand_tasks)}
    )
    counters = CostCounters(
        agent_executions=executions,
        cache_hits=reads,
        executions_reused=plan.tasks - executions,
    )
    return LayeredRunResult(_OutputsByKey(plan, outputs), sink_outputs, counters, grand_outputs)


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
    """Task counts of one episode on a graph: its runner calls without an
    ``ExecutionMemo``, which a memo can only lower."""

    layer_executions: tuple[int, ...]
    total_executions: int
    viable_coalitions: int


def predicted_cost(graph: WorkflowGraph) -> PredictedCost:
    """Count the tasks of one ``layered_run`` episode on ``graph`` without
    running any agent.

    Each layer's count is the number of distinct live keys of its agents
    over the viable coalitions, from the same routine ``layered_run`` keys
    its tasks by. It depends on the graph alone and equals
    ``agent_executions + executions_reused`` of any episode; the runner
    calls reach it when no memo serves the episode.
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
        f"executions_reused={c.executions_reused} "
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
            f"agent_executions={c.agent_executions} "
            f"executions_reused={c.executions_reused} cache_hits={c.cache_hits}"
        )
    execs = {e: results[e].counters.agent_executions for e in engines}
    if "exact" in execs and "dag" in execs and execs["exact"]:
        reduction = 1.0 - execs["dag"] / execs["exact"]
        lines.append(f"execution reduction: {100.0 * reduction:.1f}%")
    return "\n".join(lines)
