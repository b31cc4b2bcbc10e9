"""Exact Shapley attribution over tables of the sink's configurations, with
layer-wise shared execution for layered workflows.

Only a coalition holding the sink (the trader, agent ``n - 1``) can trade,
so every other coalition is worth 0.0, and a game is a list of the
``2**(n - 1)`` values of the coalitions that hold the sink, one per
configuration: the mask of the coalition's other members. ``shapley_exact``
aggregates it into per-agent contributions, summing, for each agent, over
the configurations of non-zero value, and streaming the terms into one
exactly rounded ``math.fsum``: a term is non-zero only where one of its two
values is, so each walk skips the zero-valued coalitions. It is the one
aggregation. The pruned engine's game is zero at every non-viable
coalition, which cannot trade, so its walks touch only viable masks; its
saving lies in execution, through the live plan. The classical replay's
game, checked equal to it subset by subset, needs no aggregation of its own.

The table costs 8 bytes per configuration (64 MiB at ``MAX_AGENTS``), where
a dict keyed by viable mask costs about 44 bytes per viable mask, so the
list is the smaller once about 18% of the configurations are viable: 49 of
64 are on the reference graph and 239,367 of 262,144 on the benchmark's wide
graph. The viable masks and the plan's live keys and task indices are packed
arrays of 4 bytes an item, where a list would hold an int object of about
36 bytes for each, and so are the configurations of non-zero value that the
aggregation walks. Walking an array makes an int object for each item it
yields, so the aggregation pays for its walks by walking only the
configurations of non-zero value.

Tables for the pruned engine come from ``layered_run``. An agent in a
coalition is fed only by its predecessors inside the coalition, so its output
depends only on its live key: the coalition members with a path to it inside
the coalition. Every distinct (agent, live key) pair is one task per episode;
``live_plan`` lists the tasks of a graph's viable masks once, and
``predicted_cost`` counts them without running an agent. Both take the live
keys from per-agent tables over every configuration of the agent's
ancestors' indices, built from whole byte runs of the predecessors' tables.
The plan keeps each agent's task under every configuration of its table; a
task reads a predecessor's output at the configuration its own live key
gives, so the plan stores nothing per task beyond its key, and a run holds
each output once, as its task's, with no copy per configuration.
Handed an earlier run on the same external data and the mask of the agents
whose prompts have changed since, a task whose agent and live key hold none
of them takes the earlier run's output instead of running the agent again.

The classical comparator, ``replay_coalition``, shares nothing: it runs one
coalition, given by its mask, over a list of episodes, every member once per
episode, and holds nothing for any other coalition.
"""
from __future__ import annotations

import functools
import math
import operator
import sys
from array import array
from collections.abc import Callable, Mapping, Sequence
from itertools import compress
from typing import Any, NamedTuple

from .coalitions import (
    MASK_TYPECODE, MAX_AGENTS, GraphTooLarge, enumerate_viable, lane_flags, lanes_of,
    member_lanes,
)
from .graph import InputError, WorkflowGraph

# An agent runner: (agent index, upstream outputs by agent index, external
# data or None) -> opaque output. Engines pass external data to source
# agents only.
AgentRunner = Callable[[int, Mapping[int, Any], Any], Any]

# Array types of a live key, which is a mask, and of a task index, which is
# -1 for no task: an agent has at most 2**MAX_AGENTS tasks, below 2**31.
_KEY = MASK_TYPECODE
_KEY_BYTES = array(_KEY).itemsize
_TASK = "i"


class ExecutorFailure(RuntimeError):
    """An agent runner raised during engine-driven execution."""


class CostCounters(NamedTuple):
    """What one ``layered_run`` cost: ``agent_executions`` counts its
    runner calls, and ``cache_hits`` is its plan's ``upstream_reads`` plus
    one per viable mask."""

    agent_executions: int
    cache_hits: int


class AttributionResult(NamedTuple):
    """Per-agent Shapley values, in index order."""

    values: tuple[float, ...]

    def total(self) -> float:
        return math.fsum(self.values)


@functools.cache
def _weights(n: int) -> tuple[float, ...]:
    # The weight s! (n - s - 1)! / n! of each coalition size s below n. An
    # int / int division is correctly rounded, so each is the float nearest
    # the exact rational.
    total = math.factorial(n)
    return tuple(math.factorial(s) * math.factorial(n - s - 1) / total for s in range(n))


def _phi(n: int, nonzero: Sequence[int], table: Sequence[float]) -> list[float]:
    # phi_i sums w(|S| - 1) * (v(S) - v(S - i)) over the masks S holding i,
    # and a term is non-zero only where v(S) or v(S - i) is. Only masks
    # holding the sink are worth anything, so for an agent i below the sink
    # both S and S - i hold it, and the term is w(|c|) * (t[c] - t[c - i])
    # over the configurations c holding i, c being S without the sink. So
    # each agent's sum walks only ``nonzero``, the configurations whose
    # value is non-zero (NaN is truthy and counts), and derives each such
    # term once: from c itself when t[c] is non-zero, and otherwise from
    # c - i, which is then the non-zero one. Only the non-zero differences
    # are kept (an inf - inf difference is NaN, which is kept). fsum is
    # exact before its single rounding and gives +0.0 for a sum of zeros of
    # either sign, so dropping zero terms leaves every bit of the result, in
    # any order. The terms stream into fsum one at a time, so no list of
    # them is built.
    w = _weights(n)
    phi = []
    for i in range(n - 1):
        bit = 1 << i
        phi.append(math.fsum(
            w[s.bit_count()] * d
            for c in nonzero
            if ((s := c | bit) == c or not table[s]) and (d := table[s] - table[s ^ bit])
        ))
    # The sink's term at c is w(|c|) * (t[c] - v(c)), and v(c) is 0.0: c
    # lacks the sink. t[c] - 0.0 is t[c] to the bit, -0.0 and NaN included.
    phi.append(math.fsum(w[c.bit_count()] * table[c] for c in nonzero))
    return phi


def shapley_exact(table: Sequence[float], n: int) -> tuple[float, ...]:
    """Exact Shapley values of a game over ``n`` agents in which only the
    coalitions holding the sink, agent ``n - 1``, are worth anything, one
    per agent in index order. ``table`` is the value of each coalition
    holding the sink, indexed by the mask of its other members, so
    ``2**(n - 1)`` entries (ValueError for any other length); every other
    coalition is worth 0.0. A pure function of the table: what valuing it
    cost is the caller's to report.
    """
    if n < 1:
        raise InputError("need at least one agent")
    if n > MAX_AGENTS:
        raise GraphTooLarge(f"{n} agents exceeds the limit of {MAX_AGENTS}")
    size = 1 << n - 1
    if len(table) != size:
        raise ValueError(f"the table has {len(table)} entries, not 2**{n - 1} = {size}")
    return tuple(_phi(n, array(MASK_TYPECODE, compress(range(size), table)), table))


class LayeredRunResult(NamedTuple):
    """One episode of memoized execution across all viable coalitions.

    ``outputs`` holds, per agent, what the runner returned under each of
    its tasks in ``plan``, whether it ran or was reused: the agent's output,
    except that in a run ``backtest.evaluate_window`` makes, the sink's row
    holds the score of each sink output. A viable mask's sink entry is the
    sink's row at the mask's task in the sink's table of
    ``plan.task_tables``. ``cache`` builds a dict of them by (agent, live
    key), one entry per task, each time it is read.
    ``external`` is the episode's external data.
    """

    plan: LivePlan
    external: Any
    outputs: list[list[Any]]
    counters: CostCounters

    @property
    def cache(self) -> dict[tuple[int, int], Any]:
        return {
            (agent, key): output
            for agent, (keys, row) in enumerate(zip(self.plan.keys, self.outputs))
            for key, output in zip(keys, row)
        }


class LivePlan(NamedTuple):
    """The tasks of one episode on a graph's viable masks, from masks alone.

    A task is an agent under one of its live keys. ``keys`` lists each
    agent's live keys in increasing order, one task each, as an
    ``array("I")``. ``task_tables`` gives, per agent, its task under each
    configuration of its live-key table (see ``_live_keys``), or -1 where
    no viable mask gives that live key, as an ``array("i")``. A task of
    live key K reads, for each predecessor p in K, p's task
    ``task_tables[p][K & len(task_tables[p]) - 1]``: p has the same live key
    under K as under any coalition where K is the task's live key. The
    sink, agent n - 1, is fed by agent n - 2, so its table has an entry for
    each of the ``2**(n - 1)`` coalitions that hold it: a mask's sink task
    is ``task_tables[sink][mask & len(task_tables[sink]) - 1]``, -1 exactly
    where the mask is not viable, as no source reaches the sink there and so
    the live key holds no source. Every agent reaches the sink, so the
    grand coalition's sink key, every other agent, is the sink's largest:
    its task is the sink's last. ``upstream_reads`` is the number of
    predecessor outputs the tasks read. Packed, a key or task index costs 4
    bytes, where a list would hold an int object of about 36 bytes.
    """

    graph: WorkflowGraph
    viable: Sequence[int]
    keys: tuple[array, ...]
    task_tables: tuple[array, ...]
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
        # A live key is a subset of its configuration's bits, so it is below
        # len(table): marking one byte per key dedupes them in key order.
        seen = bytearray(len(table))
        for key in compress(table, lane_flags(held)):
            seen[key] = 1
        keys.append(array(_KEY, compress(range(len(table)), seen)))
    return tables, keys


def live_plan(graph: WorkflowGraph, viable: Sequence[int]) -> LivePlan:
    """List the tasks of ``layered_run`` on ``viable`` (masks of ``graph``).

    Mask arithmetic only: no agent runs. The plan depends on the graph and
    the masks alone, so one plan serves every episode over them.
    """
    tables, keys = _live_keys(graph, viable)
    # Per agent, its task under each configuration of its table, or -1 where
    # no viable mask gives that live key. A live key under a configuration
    # is a subset of the configuration's bits, so it indexes an array of
    # tasks by key as long as the table.
    task_tables = []
    for table, agent_keys in zip(tables, keys):
        task_of = array(_TASK, [-1]) * len(table)
        for task, key in enumerate(agent_keys):
            task_of[key] = task
        task_tables.append(array(_TASK, map(task_of.__getitem__, table)))
    # A task reads each predecessor in its live key.
    upstream_reads = 0
    for agent, agent_keys in enumerate(keys):
        preds = sum(1 << p for p in graph.preds[agent])
        upstream_reads += sum(map(int.bit_count, map(preds.__and__, agent_keys)))
    return LivePlan(graph, viable, tuple(keys), tuple(task_tables), upstream_reads)


def layered_run(
    graph: WorkflowGraph,
    viable: Sequence[int],
    run_agent: AgentRunner,
    external: Any = None,
    *,
    plan: LivePlan,
    reuse: tuple[LayeredRunResult, int] | None = None,
) -> LayeredRunResult:
    """Execute every viable coalition (given by mask) for one episode with
    layer-wise sharing.

    An agent's output in a coalition depends only on the outputs of its
    predecessors inside the coalition, so only on the members with a path
    to it inside the coalition: its live key. In index order, which runs
    every agent after its predecessors, each agent has one task per
    distinct live key among the viable coalitions that hold it: the tasks
    of ``plan``, which must be ``live_plan(graph, viable)`` or equal to it
    (ValueError otherwise). A task's inputs are the outputs of its direct
    predecessors' tasks inside the live key, read through their tables of
    ``plan.task_tables``, so each output is held once, as its task's;
    external data goes to source agents only. A coalition's sink output is
    the output of the sink's task under its live key, its entry in the
    sink's table of ``plan.task_tables``. ``graph`` and ``viable`` stay the
    leading positional arguments, though the plan holds both: tools that
    observe a run from outside, such as the benchmark's tracer, read them
    there.

    Without ``reuse`` every task calls ``run_agent``. ``reuse`` is an
    earlier run of the same plan on equal external data, with the mask of
    the agents whose prompts have changed since: a task whose agent and
    live key hold none of those agents takes the earlier run's output, as
    nothing else reaches the agent, and only the other tasks call the
    runner. Outputs are never compared, so which tasks run follows from the
    masks alone. An earlier run of another plan or on unequal external data
    raises ValueError.

    ``agent_executions`` counts runner calls, at most the plan's task
    count. ``cache_hits`` is ``plan.upstream_reads`` (each task's reads of
    its predecessors' outputs) plus one per viable mask. The second term is
    not a count of reads: ``backtest.evaluate_window`` reads the sink's
    scores once per sink task.

    Outputs are trusted, not checked: an agent must be a pure function of
    its inputs. Engine ``both`` of ``backtest.evaluate_window`` is the check,
    as its replay runs every agent of every subset that holds the sink
    again: every agent under every input it can get in any subset.
    """
    if not plan.serves(graph, viable):
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
        inputs = [
            (p, 1 << p, len(plan.task_tables[p]) - 1, plan.task_tables[p], outputs[p])
            for p in graph.preds[agent]
        ]
        # Sources are the agents without predecessors.
        data = None if inputs else external
        row = outputs[agent]
        for task, key in enumerate(plan.keys[agent]):
            if kept is not None and not key & changed:
                row.append(kept[task])
                continue
            # A loop, not a comprehension, which before CPython 3.12 costs
            # a function frame per runner call.
            upstream = {}
            for p, bit, last, tasks, outs in inputs:
                if key & bit:
                    upstream[p] = outs[tasks[key & last]]
            try:
                row.append(run_agent(agent, upstream, data))
            except Exception as exc:
                raise ExecutorFailure(
                    f"agent {graph.names[agent]} failed under live key {bin(key)}"
                ) from exc
            executions += 1

    counters = CostCounters(executions, plan.upstream_reads + len(viable))
    return LayeredRunResult(plan, external, outputs, counters)


class ReplayResult(NamedTuple):
    """One coalition replayed over a list of episodes. ``sink_outputs``
    holds the sink's output per episode (``None`` where the sink is not a
    member), and ``executions`` counts the runner calls of all the
    episodes."""

    sink_outputs: list[Any]
    executions: int


def replay_coalition(
    graph: WorkflowGraph,
    mask: int,
    run_agent: AgentRunner,
    *,
    episodes: Sequence[Any],
) -> ReplayResult:
    """Cache-free straight-line execution of the coalition ``mask`` once per
    item of ``episodes`` (each a source agent's external data). A mask
    outside ``[0, 2**n)`` raises ``ValueError``.

    In each episode every member runs once in index order, receiving that
    episode's outputs of its direct predecessors that are also members;
    members without predecessors in the graph are sources and receive the
    episode's external data. This is the classical (unshared) evaluation
    path and the reference oracle for the memoized one.
    """
    if not 0 <= mask < 1 << graph.n:
        raise ValueError(f"mask {mask} is not a coalition of {graph.n} agents")
    members = list(compress(enumerate(graph.preds), lane_flags(mask)))
    sink = graph.sink
    sink_outputs: list[Any] = []
    for external in episodes:
        done: dict[int, Any] = {}
        for agent, preds in members:
            # Predecessors have lower indices, so those already done in this
            # episode are the members among them, in the graph's order. A
            # loop, as in layered_run.
            upstream = {}
            for p in preds:
                if p in done:
                    upstream[p] = done[p]
            try:
                done[agent] = run_agent(agent, upstream, None if preds else external)
            except Exception as exc:
                raise ExecutorFailure(f"agent {graph.names[agent]} failed") from exc
        sink_outputs.append(done.get(sink))
    return ReplayResult(sink_outputs, len(members) * len(sink_outputs))


class PredictedCost(NamedTuple):
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
    its tasks by. It depends on the graph alone, and an episode's runner
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
        raise InputError("need at least one agent")
    return (1 << n, n * (1 << (n - 1)))


def format_attribution(graph: WorkflowGraph, result: AttributionResult) -> str:
    """Per-agent contributions and their total, as stable text."""
    lines = ["agent contributions:"]
    for i, name in enumerate(graph.names):
        lines.append(f"  {name:<8} {result.values[i]:+.10f}")
    lines.append(f"  total    {result.total():+.10f}")
    return "\n".join(lines)


def format_replay_check(graph: WorkflowGraph, executions: int, replay_executions: int) -> str:
    """What engine ``both`` prints below the pruned engine's runner calls
    for one episode, ``executions``: the classical replay's runner calls,
    the execution reduction against the classical n * 2**(n-1) of
    ``classical_cost`` (the baseline ``dagcredit cost`` prints; the replay
    skips the subsets without the sink, so it makes fewer), and that the
    two engines agreed on every subset."""
    reduction = 1.0 - executions / classical_cost(graph.n)[1]
    return "\n".join([
        f"cost (replay): agent_executions={replay_executions}",
        f"execution reduction: {100.0 * reduction:.1f}%",
        f"all 2^{graph.n} = {1 << graph.n} subsets agreed",
    ])
