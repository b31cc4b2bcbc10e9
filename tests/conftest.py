"""Shared fixtures and helpers: the reference workflow, generic layered graphs."""

import itertools

import pytest
from hypothesis import strategies as st

from dagcredit.agents import Decision, build_system, system_runner
from dagcredit.coalitions import coalition_names, enumerate_viable
from dagcredit.graph import build_graph, reference_graph


def layered_graph(sizes):
    """Fully connected layered graph with generic names (L0A0, L0A1, ...)."""
    layers = [[f"L{i}A{j}" for j in range(size)] for i, size in enumerate(sizes)]
    edges = []
    for upper, lower in zip(layers, layers[1:]):
        for src in upper:
            for dst in lower:
                edges.append((src, dst))
    return build_graph(layers, edges)


def sink_table(n, entries):
    """A game over ``n`` agents as the engines take it: a list of the
    2**(n - 1) values of the coalitions holding the sink, agent n - 1,
    indexed by configuration (the mask without the sink's bit), holding the
    value of each (mask, value) of ``entries``, whose masks hold the sink,
    and 0.0 at every other configuration."""
    sink_bit = 1 << n - 1
    table = [0.0] * sink_bit
    for mask, value in entries:
        assert mask & sink_bit, f"mask {mask:#b} lacks the sink"
        table[mask ^ sink_bit] = value
    return table


def dense_view(n, table):
    """The game ``table`` over ``n`` agents as the value of every one of its
    2**n subsets, indexed by mask: the subsets holding the sink, the highest
    bit, are the upper half, and every other one is worth +0.0."""
    assert len(table) == 1 << n - 1
    return [0.0] * len(table) + list(table)


def prefix_mask(graph, layer):
    """The agents of the layers before ``layer``: the upstream configuration
    of an agent in that layer is a coalition's membership among them."""
    return sum(1 << a for row in graph.layers[:layer] for a in row)


def sink_tasks(plan):
    """Each viable mask's sink task, in the plan's ``viable`` order: its
    entry in the sink's table, which holds every configuration of the other
    agents."""
    table = plan.task_tables[plan.graph.sink]
    return [table[mask & len(table) - 1] for mask in plan.viable]


def game_table(plan, task_values):
    """A window game as ``shapley_exact`` takes it, from its one value per
    sink task: per configuration of the agents other than the sink, the
    value of its sink task in ``plan``, and 0.0 where it has none."""
    return [task_values[task] if task >= 0 else 0.0 for task in plan.task_tables[plan.graph.sink]]


def dense_values(plan, task_values):
    """A window game as the value of every one of its 2**n subsets, indexed
    by mask: each viable mask's value the value of its sink task in
    ``plan``, and 0.0 at every other mask."""
    return dense_view(plan.graph.n, game_table(plan, task_values))


def report_rows(plan):
    """What ``write_reports`` hands each window report: every viable mask's
    names and sink task, in the plan's ``viable`` order."""
    return [(coalition_names(plan.graph, m), t) for m, t in zip(plan.viable, sink_tasks(plan))]


def sink_outputs(run):
    """The sink's entry in a layered run for each viable mask, in the
    plan's ``viable`` order: the sink's row at each mask's sink task."""
    row = run.outputs[run.plan.graph.sink]
    return [row[task] for task in sink_tasks(run.plan)]


def grand_outputs(graph, run):
    """Each agent's entry in a layered run under the grand coalition, by
    agent: the task of its live key there, which holds every agent with a
    path to it."""
    keys = []
    for agent in range(graph.n):
        keys.append(0)
        for p in graph.preds[agent]:
            keys[agent] |= 1 << p | keys[p]
    return {a: run.outputs[a][run.plan.keys[a].index(key)] for a, key in enumerate(keys)}


@st.composite
def skip_layered_graphs(draw):
    """Layered graphs of up to ten agents whose edges may skip layers; a
    middle-layer agent without predecessors is a source too."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)) + [1]
    layers = [[f"L{i}N{j}" for j in range(size)] for i, size in enumerate(sizes)]
    edges = set()
    for i, layer in enumerate(layers[:-1]):
        later = [name for down in layers[i + 1:] for name in down]
        for name in layer:
            targets = draw(st.sets(st.sampled_from(later), min_size=1, max_size=3))
            edges.update((name, dst) for dst in targets)
    return build_graph(layers, sorted(edges))


def swapped_trader(runner, sink, every=1):
    """``runner`` with the sink's buys and sells swapped on every ``every``-th
    call of the sink: a changed trader for ``every=1``, and a trader whose
    output changes between calls for ``every=2``."""
    calls = itertools.count(1)
    swap = {Decision.BUY: Decision.SELL, Decision.SELL: Decision.BUY}

    def run(agent, upstream, external):
        output = runner(agent, upstream, external)
        if agent == sink and next(calls) % every == 0:
            output = output._replace(action=swap.get(output.action, output.action))
        return output

    return run


@pytest.fixture
def ref_graph():
    return reference_graph()


@pytest.fixture
def ref_viable(ref_graph):
    return enumerate_viable(ref_graph)


@pytest.fixture
def ref_runner(ref_graph):
    specs = build_system(ref_graph, seed=42)
    return system_runner(specs)


@pytest.fixture
def ref_specs(ref_graph):
    return build_system(ref_graph, seed=42)
