"""Coalition masks, viability checks, and pruning counts."""

import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagcredit.coalitions import (
    MASK_TYPECODE,
    MAX_AGENTS,
    GraphTooLarge,
    coalition_names,
    enumerate_viable,
    lanes_of,
    masks_of,
    member_lanes,
)
from dagcredit.config import load_graph_file
from dagcredit.graph import build_graph, reference_graph
from dagcredit.shapley import live_plan

from conftest import layered_graph, skip_layered_graphs
from golden_runs import WIDE_GRAPH
from oracles import check_viability


def test_coalition_names_follow_index_order():
    g = reference_graph()
    assert coalition_names(g, 0b1010001) == "NAA,BeOA,TRA"
    assert coalition_names(g, g.full_mask) == ",".join(g.names)
    assert coalition_names(g, 0) == ""
    # Index order (the order the layers declare the agents in), not
    # alphabetical order.
    skip = build_graph([["b", "a"], ["t"]], [("b", "t"), ("a", "t")])
    assert skip.names == ("b", "a", "t")
    assert coalition_names(skip, 0b111) == "b,a,t"


def test_viability_requires_trader():
    g = reference_graph()
    report = check_viability(g, 0b0001001)  # NAA, BOA
    assert not report.has_trader
    assert not report.viable


def test_viability_requires_source():
    g = reference_graph()
    report = check_viability(g, 0b1001000)  # BOA, TRA
    assert report.has_trader
    assert not report.has_source
    assert not report.viable


def test_viability_requires_connecting_path():
    g = reference_graph()
    report = check_viability(g, 0b1000001)  # NAA, TRA
    assert report.has_trader and report.has_source
    assert not report.connected
    assert not report.viable


def test_minimal_viable_coalition():
    g = reference_graph()
    report = check_viability(g, 0b1001001)  # NAA, BOA, TRA
    assert report.viable


def test_empty_coalition_fails_everything():
    g = reference_graph()
    report = check_viability(g, 0)
    assert not (report.has_trader or report.has_source or report.connected)


def test_reference_pruning_counts():
    g = reference_graph()
    assert g.n == 7
    assert len(enumerate_viable(g)) == 49


def test_enumerate_viable_is_sorted_and_consistent():
    g = reference_graph()
    masks = enumerate_viable(g)
    assert list(masks) == sorted(masks)
    assert len(set(masks)) == len(masks)
    for mask in masks:
        assert check_viability(g, mask).viable


def test_enumeration_matches_per_coalition_checks():
    g = reference_graph()
    viable_masks = set(enumerate_viable(g))
    for mask in range(1 << g.n):
        assert (mask in viable_masks) == check_viability(g, mask).viable


def reaches_back_to_a_source(graph, mask):
    """Whether the sink is a member and a backward search from it, over
    member predecessors only, meets an agent without predecessors: viability
    decided from the sink's end, apart from the forward path search of
    ``oracles.check_viability``."""
    if not mask >> graph.sink & 1:
        return False
    seen, frontier = {graph.sink}, [graph.sink]
    while frontier:
        agent = frontier.pop()
        if not graph.preds[agent]:
            return True
        found = {p for p in graph.preds[agent] if mask >> p & 1} - seen
        seen |= found
        frontier.extend(found)
    return False


@given(skip_layered_graphs())
@settings(max_examples=60, deadline=None)
def test_enumeration_equals_per_mask_check_on_skip_graphs(g):
    by_check = [m for m in range(1 << g.n) if check_viability(g, m).viable]
    assert list(enumerate_viable(g)) == by_check
    # The same set from the other end: a backward search from the sink.
    by_backward = [m for m in range(1 << g.n) if reaches_back_to_a_source(g, m)]
    assert by_check == by_backward


def test_wide_benchmark_graph_count():
    g = load_graph_file(WIDE_GRAPH)
    assert g.n == 19
    assert len(enumerate_viable(g)) == 239_367


def test_viable_masks_take_four_bytes_each():
    """The viable masks come packed: on fully connected 5-5-5-1 the result
    of ``enumerate_viable`` retains at most 4 bytes a mask plus 8 KiB for
    the array's growth slack (4.07 bytes a mask measured on CPython
    3.10-3.13), where a list of int objects retains about 36 bytes a mask."""
    g = layered_graph([5, 5, 5, 1])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        viable = enumerate_viable(g)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(viable) == 29_791
    assert retained <= 4 * len(viable) + 8 * 1024


def test_mask_and_task_arrays_hold_32_bits():
    """Masks of up to MAX_AGENTS bits and the plan's task indices, below
    2**31, live in ``array("I")`` and ``array("i")``, which C guarantees
    only 2 bytes: a narrower platform would truncate them silently."""
    assert MAX_AGENTS < 32
    assert array(MASK_TYPECODE).itemsize >= 4
    assert array("i").itemsize >= 4
    g = reference_graph()
    plan = live_plan(g, enumerate_viable(g))
    assert enumerate_viable(g).typecode == MASK_TYPECODE
    assert {keys.typecode for keys in plan.keys} == {MASK_TYPECODE}
    assert len(plan.task_tables) == g.n
    assert {table.typecode for table in plan.task_tables} == {"i"}


def test_small_topology_counts():
    assert len(enumerate_viable(layered_graph([2, 2, 1]))) == 9
    assert len(enumerate_viable(layered_graph([2, 1]))) == 3
    assert len(enumerate_viable(layered_graph([4, 2, 1]))) == 45


def test_single_agent_graph_has_one_viable_coalition():
    g = build_graph([["solo"]], [])
    assert list(enumerate_viable(g)) == [1]


def test_enumeration_rejects_oversized_graphs():
    layers = [[f"s{i}"] for i in range(24)] + [["t"]]
    edges = [(f"s{i}", f"s{i+1}") for i in range(23)] + [("s23", "t")]
    g = build_graph(layers, edges)
    assert g.n == 25
    with pytest.raises(GraphTooLarge):
        enumerate_viable(g)


@given(st.integers(min_value=0, max_value=127))
def test_viability_flags_agree_with_viable_property(mask):
    g = reference_graph()
    report = check_viability(g, mask)
    assert report.viable == (
        report.has_trader and report.has_source and report.connected
    )


@given(st.sets(st.integers(min_value=0, max_value=6)))
def test_adding_members_never_breaks_viability(members):
    """Viability is monotone: growing a viable coalition keeps it viable."""
    g = reference_graph()
    mask = sum(1 << i for i in members)
    if check_viability(g, mask).viable:
        assert check_viability(g, g.full_mask).viable
        for extra in range(g.n):
            assert check_viability(g, mask | 1 << extra).viable


@given(st.integers(min_value=0, max_value=8), st.data())
def test_lanes_hold_one_mask_each(n, data):
    masks = data.draw(st.sets(st.integers(0, (1 << n) - 1)))
    lanes = lanes_of(masks, n)
    assert lanes < 1 << (1 << n)
    assert list(masks_of(lanes)) == sorted(masks)
    for agent in range(n):
        want = [m for m in range(1 << n) if m >> agent & 1]
        assert list(masks_of(member_lanes(agent, n))) == want
