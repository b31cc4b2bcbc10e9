"""Exact Shapley attribution over dense coalition value tables, with
layer-wise shared execution for layered workflows.

A game is a list of ``2**n`` floats, the value of every coalition indexed by
its bitmask. Two entry points aggregate it into per-agent contributions with
the same float routine, which sums, for each agent, over a sequence of masks
that hold it, streaming the terms into one exactly rounded ``math.fsum``:

* ``shapley_exact`` walks every subset (the classical path).
* ``shapley_dag`` walks the viable coalitions only; every other subset
  cannot trade and is worth zero by the game definition, so the table must
  be zero there. It checks that, and that the viable masks hold every
  superset of each of their members, with one bit-lane test per agent.

The dense list costs 8 bytes per subset (128 MiB at ``MAX_AGENTS``), where a
dict keyed by viable mask costs about 44 bytes per viable mask, so the list
is the smaller once about 18% of the masks are viable: 38% are on the
reference graph and 46% on the benchmark's wide graph. The viable masks and
the plan's live keys and task indices are packed arrays of 4 bytes an item,
where a list would hold an int object of about 36 bytes for each. Walking
an array makes an int object for each item it yields, so the aggregation
pays for its walks by keeping only the non-zero terms.

Tables for the pruned engine come from ``layered_run``. An agent in a
coalition is fed only by its predecessors inside the coalition, so its output
depends only on its live key: the coalition members with a path to it inside
the coalition. Every distinct (agent, live key) pair is one task per episode;
``live_plan`` lists the tasks of a graph's viable masks once, and
``predicted_cost`` counts them without running an agent. Both take the live
keys from per-agent tables over every configuration of the agent's
ancestors' indices, built from whole byte runs of the predecessors' tables.
Handed an earlier run on the same external data and the mask of the agents
whose prompts have changed since, a task whose agent and live key hold none
of them takes the earlier run's output instead of running the agent again.
"""
from __future__ import annotations

import functools
import math
import operator
import sys
from array import array
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import compress
from typing import Any

from .coalitions import (
    MASK_TYPECODE, MAX_AGENTS, GraphTooLarge, enumerate_viable, lane_flags, lanes_of,
    member_lanes,
)
from .graph import WorkflowGraph

# An agent runner: (agent index, upstream outputs by agent index, external
# data or None) -> opaque output. Engines pass external data to source
# agents only.
AgentRunner = Callable[[int, Mapping[int, Any], Any], Any]

# Array types of a live key, which is a mask, and of a task index, which is
# -1 for no task: an agent has at most 2**MAX_AGENTS tasks, below 2**31.
_KEY = MASK_TYPECODE
_KEY_BYTES = array(_KEY).itemsize
_TASK = "i"


class InvalidSize(ValueError):
    pass


class ExecutorFailure(RuntimeError):
    """An agent runner raised during engine-driven execution."""


@dataclass
class CostCounters:
    """Work performed while valuing a game.

    ``agent_executions`` counts runner calls; ``executions_reused`` counts
    the tasks that took their output from an earlier run instead of calling
    the runner.
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


@functools.cache
def _weights(n: int) -> tuple[float, ...]:
    # The weight s! (n - s - 1)! / n! of each coalition size s below n. An
    # int / int division is correctly rounded, so each is the float nearest
    # the exact rational.
    total = math.factorial(n)
    return tuple(math.factorial(s) * math.factorial(n - s - 1) / total for s in range(n))


def _check_game(n: int, table: Sequence[float]) -> None:
    if n < 1:
        raise InvalidSize("need at least one agent")
    if n > MAX_AGENTS:
        raise GraphTooLarge(f"{n} agents exceeds the limit of {MAX_AGENTS}")
    if len(table) != 1 << n:
        raise ValueError(f"the table has {len(table)} entries, not 2**{n} = {1 << n}")


def _phi(n: int, masks: Sequence[int], table: Sequence[float]) -> list[float]:
    # phi_i sums w(|T|) * (v(T + i) - v(T)) over the subsets T without i.
    # The caller's masks hold every superset of each of their members and
    # the table is zero off them, so when T + i is not one of the masks,
    # neither is T, and the term is a zero: each agent's sum walks only the
    # masks that hold i, and keeps only the non-zero differences (NaN is
    # truthy, so an inf - inf difference is kept). fsum is exact before its
    # single rounding and gives +0.0 for a sum of zeros of either sign, so
    # dropping zero terms leaves every bit of the result, in any order. The
    # terms stream into fsum one at a time, so no list of them is built.
    w = _weights(n)
    phi = []
    for i in range(n):
        bit = 1 << i
        phi.append(math.fsum(
            w[mask.bit_count() - 1] * d
            for mask in masks
            if mask & bit and (d := table[mask] - table[mask ^ bit])
        ))
    return phi


def shapley_exact(
    table: Sequence[float], n: int, counters: CostCounters
) -> AttributionResult:
    """Exact Shapley values of the game ``table`` over ``n`` agents: the
    value of every subset, indexed by mask (ValueError unless it has
    ``2**n`` entries).

    ``counters`` is the work spent filling the table; the result reports it
    with ``coalition_evaluations`` set to ``2**n``.
    """
    _check_game(n, table)
    phi = _phi(n, range(1 << n), table)
    return AttributionResult(tuple(phi), replace(counters, coalition_evaluations=1 << n))


def shapley_dag(
    graph: WorkflowGraph, viable: Sequence[int], table: Sequence[float], counters: CostCounters
) -> AttributionResult:
    """Exact Shapley values of the game ``table`` (indexed by mask, ``2**n``
    entries) walking only the masks of ``viable``.

    Every other subset cannot trade and is worth zero by the game
    definition, so ``table`` must be zero (0.0 or -0.0) off ``viable``, and
    the result is identical to ``shapley_exact`` on the same table. Adding
    a member keeps a coalition viable, so ``viable`` holds every superset of
    each of its masks. Each of these raises ValueError when it fails: a
    mask of ``viable`` outside ``[0, 2**n)``, one listed twice, a missing
    superset, a table of another length, a non-zero entry off ``viable``.
    ``counters`` is the work spent filling the table; the result reports it
    with ``coalition_evaluations`` set to the number of viable masks.
    """
    n = graph.n
    _check_game(n, table)
    # Range-checks the masks before any of them indexes the table, where a
    # negative one would read from its end.
    present = lanes_of(viable, n)
    if present.bit_count() != len(viable):
        raise ValueError("viable lists a mask more than once")
    # One lane test per agent checks the superset rule: shifting the lanes
    # up by 2**i moves each mask S without i to lane S + i, which holds i (a
    # mask holding i lands on a lane without i, and the membership lanes
    # drop it), so every such S + i is present exactly when the shifted
    # lanes that hold i are all present.
    for i in range(n):
        bit = 1 << i
        missing = present << bit & member_lanes(i, n) & ~present
        if missing:
            superset = (missing & -missing).bit_length() - 1
            raise ValueError(
                f"viable lacks the superset {superset:#b} of its mask {superset ^ bit:#b}"
            )
    # The table's non-zero entries (NaN included) all lie on viable masks
    # exactly when they are as many as the viable masks' non-zero entries.
    if len(table) - table.count(0.0) != sum(map(bool, map(table.__getitem__, viable))):
        masks = set(viable)
        mask = next(m for m, value in enumerate(table) if value and m not in masks)
        raise ValueError(f"the table holds {table[mask]!r} at the non-viable mask {mask:#b}")
    phi = _phi(n, viable, table)
    return AttributionResult(
        tuple(phi), replace(counters, coalition_evaluations=len(viable))
    )


@dataclass(frozen=True)
class LayeredRunResult:
    """One episode of memoized execution across all viable coalitions.

    ``outputs`` holds, per agent, what the runner returned under each of
    its tasks in ``plan``, whether it ran or was reused: the agent's output,
    except that in a run ``backtest.evaluate_window`` makes, the sink's row
    holds the score of each sink output. ``cache`` builds a dict of them by
    (agent, live key), one entry per task, and ``sink_outputs`` a list of
    the sink's entry for each viable mask, in the plan's ``viable`` order,
    each time they are read. ``external`` is the episode's external data;
    ``grand_outputs`` maps each agent to its entry in the grand coalition,
    and is empty when the grand coalition is not among the viable masks.
    """

    plan: LivePlan
    external: Any
    outputs: list[list[Any]]
    counters: CostCounters
    grand_outputs: dict[int, Any]

    @property
    def cache(self) -> dict[tuple[int, int], Any]:
        return {
            (agent, key): output
            for agent, (keys, row) in enumerate(zip(self.plan.keys, self.outputs))
            for key, output in zip(keys, row)
        }

    @property
    def sink_outputs(self) -> list[Any]:
        return list(map(self.outputs[self.plan.graph.sink].__getitem__, self.plan.sink_tasks))


@dataclass(frozen=True)
class LivePlan:
    """The tasks of one episode on a graph's viable masks, from masks alone.

    A task is an agent under one of its live keys. ``keys`` lists each
    agent's live keys in increasing order, one task each, as an
    ``array("I")``. ``inputs`` gives, per agent and per direct predecessor,
    the predecessor's task under each of the agent's tasks, or -1 where the
    predecessor is outside it, as an ``array("i")``. ``sink_tasks`` is the
    sink's task of each mask of ``viable``, in order, packed the same way;
    ``grand_tasks`` each agent's task in the grand coalition, or None when
    the grand coalition is not viable. ``upstream_reads`` is the number of
    predecessor outputs the tasks read. Packed, a key or task index costs 4
    bytes, where a list would hold an int object of about 36 bytes.
    """

    graph: WorkflowGraph
    viable: Sequence[int]
    keys: tuple[array, ...]
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
            self.viable is viable
            or len(self.viable) == len(viable) and all(map(operator.eq, self.viable, viable))
        )


def _live_keys(
    graph: WorkflowGraph, viable: Sequence[int]
) -> tuple[list[array], list[array]]:
    """Per agent, its live key under every configuration, and its tasks.

    Every edge runs from a lower index to a higher one, so every agent with
    a path to agent a has an index no higher than a's highest predecessor
    h. a's configuration in a coalition is the coalition's
    membership below h + 1, and entry c of a's table is a's live key under
    configuration c: the members of c with a path to a inside c, which is
    the union, over the predecessors p in c, of p's bit and p's live key
    under c. As c counts up, p's membership alternates in runs of 2**p
    configurations, and within a run with p, p's entries repeat with the
    period of p's own table. So each table is built from its predecessors'
    by repeating and OR-ing whole runs of entries, with no loop over
    configurations.

    An agent's tasks are the distinct live keys, in increasing order, under
    the configurations of the viable masks that hold it; folding the lanes
    of those masks onto their low bits lists the configurations. Mask
    arithmetic only: no agent runs.
    """
    n = graph.n
    order = sys.byteorder
    tables: list[array] = []
    # Per agent, its table with its own bit added, as bytes: what it adds to
    # its successors' tables where it is in the configuration.
    terms: list[bytes] = []
    for agent in range(n):
        preds = graph.preds[agent]
        if preds:
            size = 1 << max(preds) + 1
            acc = 0
            for p in preds:
                # A run of 2**p configurations without p, then one with it.
                with_p = terms[p] * ((1 << p) // len(tables[p]))
                acc |= int.from_bytes((bytes(len(with_p)) + with_p) * (size >> p + 1), order)
            table = array(_KEY, acc.to_bytes(size * _KEY_BYTES, order))
        else:
            table = array(_KEY, [0])
        tables.append(table)
        bit = 1 << agent
        terms.append(
            array(_KEY, [key | bit for key in table]).tobytes() if graph.succs[agent] else b""
        )
    lanes = lanes_of(viable, n)
    keys = []
    for agent, table in enumerate(tables):
        # Lane m of the masks holding the agent moves to m mod len(table).
        held = lanes & member_lanes(agent, n)
        for b in reversed(range(len(table).bit_length() - 1, n)):
            run = 1 << b
            held = held >> run | held & (1 << run) - 1
        keys.append(array(_KEY, sorted(set(compress(table, lane_flags(held))))))
    return tables, keys


def live_plan(graph: WorkflowGraph, viable: Sequence[int]) -> LivePlan:
    """List the tasks of ``layered_run`` on ``viable`` (masks of ``graph``).

    Mask arithmetic only: no agent runs. The plan depends on the graph and
    the masks alone, so one plan serves every episode over them.
    """
    tables, keys = _live_keys(graph, viable)
    # Per agent, its task under each live key, or -1 where a key is none of
    # its tasks. A live key under a configuration is a subset of the
    # configuration's bits, so it indexes an array as long as the table.
    task_of = []
    for table, agent_keys in zip(tables, keys):
        by_key = array(_TASK, [-1]) * len(table)
        for task, key in enumerate(agent_keys):
            by_key[key] = task
        task_of.append(by_key)
    # Per agent with successors, its task under each configuration of its
    # table, or -1 where no viable mask gives that live key.
    tasks = [
        array(_TASK, map(task_of[a].__getitem__, table)) if graph.succs[a] else None
        for a, table in enumerate(tables)
    ]
    inputs = []
    for agent in range(graph.n):
        # A predecessor p in live key K has the same live key under K as
        # under any configuration with live key K: the members with a path
        # to p inside the coalition are all in K.
        columns = []
        for p in graph.preds[agent]:
            bit, last, p_tasks = 1 << p, len(tables[p]) - 1, tasks[p]
            columns.append((p, array(_TASK, [
                p_tasks[key & last] if key & bit else -1 for key in keys[agent]
            ])))
        inputs.append(tuple(columns))
    sink_table, sink_task = tables[graph.sink], task_of[graph.sink]
    sink_last = len(sink_table) - 1
    # Packed as they come: a list would hold an int object per viable mask.
    sink_tasks = array(_TASK, (sink_task[sink_table[mask & sink_last]] for mask in viable))
    full = graph.full_mask
    grand_tasks = (
        tuple(task_of[a][table[full & len(table) - 1]] for a, table in enumerate(tables))
        if full in viable
        else None
    )
    upstream_reads = sum(
        len(col) - col.count(-1) for agent_inputs in inputs for _, col in agent_inputs
    )
    return LivePlan(
        graph, viable, tuple(keys), tuple(inputs), sink_tasks, grand_tasks, upstream_reads
    )


def layered_run(
    graph: WorkflowGraph,
    viable: Sequence[int],
    run_agent: AgentRunner,
    external: Any = None,
    *,
    plan: LivePlan | None = None,
    reuse: tuple[LayeredRunResult, int] | None = None,
) -> LayeredRunResult:
    """Execute every viable coalition (given by mask) for one episode with
    layer-wise sharing.

    An agent's output in a coalition depends only on the outputs of its
    predecessors inside the coalition, so only on the members with a path
    to it inside the coalition: its live key. In index order, which runs
    every agent after its predecessors, each agent has one task per
    distinct live key among the viable coalitions that hold it (``plan``,
    built from the masks when not given). A task's inputs are the
    outputs of its direct predecessors' tasks inside the live key; external
    data goes to source agents only. A coalition's sink output is the
    output of the sink's task under its live key (``plan.sink_tasks``).

    Without ``reuse`` every task calls ``run_agent``. ``reuse`` is an
    earlier run of the same plan on equal external data, with the mask of
    the agents whose prompts have changed since: a task whose agent and
    live key hold none of those agents takes the earlier run's output, as
    nothing else reaches the agent, and only the other tasks call the
    runner. Outputs are never compared, so which tasks run follows from the
    masks alone. An earlier run of another plan or on unequal external data
    raises ValueError.

    ``agent_executions`` counts runner calls and ``executions_reused`` the
    other tasks; the two sum to the plan's task count. ``cache_hits`` is
    ``plan.upstream_reads`` (each task's reads of its predecessors' outputs)
    plus one per viable mask. The second term is not a count of reads:
    ``backtest.evaluate_window`` reads the sink's scores once per sink task.

    Outputs are trusted, not checked: an agent must be a pure function of
    its inputs. Engine ``both`` of ``backtest.evaluate_window`` is the check,
    as its replay runs every agent of every subset again.
    """
    if plan is None:
        plan = live_plan(graph, viable)
    elif not plan.serves(graph, viable):
        raise ValueError("the plan was built for other viable masks")
    done: list[list[Any]] | None = None
    changed = 0
    if reuse is not None:
        earlier, changed = reuse
        if earlier.plan is not plan and not earlier.plan.serves(graph, viable):
            raise ValueError("the earlier run was built from another plan")
        if earlier.external is not external and earlier.external != external:
            raise ValueError("the earlier run was on other external data")
        done = earlier.outputs
    # Per agent, its output under each of its tasks.
    outputs: list[list[Any]] = [[] for _ in range(graph.n)]
    executions = 0

    for agent in range(graph.n):
        # The earlier outputs when this agent's prompt is unchanged; a task
        # reuses its own when its live key is unchanged too.
        kept = done[agent] if done is not None and not changed >> agent & 1 else None
        # Per predecessor, its outputs and its task under each of this
        # agent's tasks.
        inputs = [(p, outputs[p], col) for p, col in plan.inputs[agent]]
        # Sources are the agents without predecessors.
        data = None if inputs else external
        row = outputs[agent]
        for task, key in enumerate(plan.keys[agent]):
            if kept is not None and not key & changed:
                row.append(kept[task])
                continue
            upstream = {p: outs[t] for p, outs, col in inputs if (t := col[task]) >= 0}
            try:
                row.append(run_agent(agent, upstream, data))
            except Exception as exc:
                raise ExecutorFailure(
                    f"agent {graph.names[agent]} failed under live key {bin(key)}"
                ) from exc
            executions += 1

    grand_outputs = (
        {}
        if plan.grand_tasks is None
        else {a: outputs[a][task] for a, task in enumerate(plan.grand_tasks)}
    )
    counters = CostCounters(
        agent_executions=executions,
        cache_hits=plan.upstream_reads + len(viable),
        executions_reused=plan.tasks - executions,
    )
    return LayeredRunResult(plan, external, outputs, counters, grand_outputs)


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

    Every member runs once in index order, receiving the outputs of its
    direct predecessors that are also members; members without predecessors
    in the graph are sources and receive the external data. This is the
    classical (unshared) evaluation path and the reference oracle for the
    memoized one.
    """
    outputs: dict[int, Any] = {}
    for agent in range(graph.n):
        if not (mask >> agent) & 1:
            continue
        upstream = {p: outputs[p] for p in graph.preds[agent] if (mask >> p) & 1}
        data = None if graph.preds[agent] else external
        try:
            outputs[agent] = run_agent(agent, upstream, data)
        except Exception as exc:
            raise ExecutorFailure(f"agent {graph.names[agent]} failed") from exc
    return ReplayResult(outputs, outputs.get(graph.sink), len(outputs))


@dataclass(frozen=True)
class PredictedCost:
    """Task counts of one episode on a graph: its runner calls without
    ``reuse``, which reuse can only lower."""

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
    calls reach it when the episode reuses nothing.
    """
    viable = enumerate_viable(graph)
    _, keys = _live_keys(graph, viable)
    per_layer = tuple(sum(len(keys[agent]) for agent in layer) for layer in graph.layers)
    return PredictedCost(per_layer, sum(per_layer), len(viable))


def classical_cost(n: int) -> tuple[int, int]:
    """(coalition evaluations, agent executions) for unshared full enumeration.

    Every one of the 2**n subsets is replayed and each member executes, so
    executions total n * 2**(n-1).
    """
    if n < 1:
        raise InvalidSize("need at least one agent")
    return (1 << n, n * (1 << (n - 1)))


def _cost_fields(c: CostCounters) -> str:
    """The four counters as every cost line prints them."""
    return (
        f"coalition_evaluations={c.coalition_evaluations} "
        f"agent_executions={c.agent_executions} "
        f"executions_reused={c.executions_reused} cache_hits={c.cache_hits}"
    )


def format_attribution(graph: WorkflowGraph, result: AttributionResult) -> str:
    """Per-agent contributions plus the cost block, as stable text."""
    lines = ["agent contributions:"]
    for i, name in enumerate(graph.names):
        lines.append(f"  {name:<8} {result.values[i]:+.10f}")
    lines.append(f"  total    {result.total():+.10f}")
    lines.append(f"cost: {_cost_fields(result.counters)}")
    return "\n".join(lines)


def format_attribution_table(
    graph: WorkflowGraph, dag: AttributionResult, exact: AttributionResult
) -> str:
    """The pruned engine's and the classical replay's attributions side by
    side, with both cost lines and the execution reduction."""
    lines = [f"{'agent':<8} {'dag':>16} {'exact':>16} {'|diff|':>12}"]
    for i, name in enumerate(graph.names):
        pair = (dag.values[i], exact.values[i])
        spread = max(pair) - min(pair)
        lines.append(f"{name:<8} {pair[0]:>+16.10f} {pair[1]:>+16.10f} {spread:>12.3e}")
    lines.append(f"cost (dag): {_cost_fields(dag.counters)}")
    lines.append(f"cost (exact): {_cost_fields(exact.counters)}")
    execs_dag, execs_exact = dag.counters.agent_executions, exact.counters.agent_executions
    if execs_exact:
        reduction = 1.0 - execs_dag / execs_exact
        lines.append(f"execution reduction: {100.0 * reduction:.1f}%")
    return "\n".join(lines)
