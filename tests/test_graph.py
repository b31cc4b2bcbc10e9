"""Graph construction, validation, traversal, and the reference workflow."""

import re

import pytest

from hypothesis import given, settings

from dagcredit.shapley import replay_coalition
from dagcredit.graph import GraphValidationError, build_graph, reference_graph

from conftest import layered_graph, skip_layered_graphs
from golden_runs import SPARSE_SKIP_GRAPH
from oracles import path_exists


def test_reference_graph_shape():
    g = reference_graph()
    assert g.n == 7
    assert g.names == ("NAA", "TAA", "FAA", "BOA", "BeOA", "NOA", "TRA")
    assert len(g.layers) == 3
    assert g.sources == (0, 1, 2)
    assert g.sink == 6
    assert sum(map(len, g.preds)) == 12


def test_reference_graph_adjacency():
    g = reference_graph()
    for analyst in (0, 1, 2):
        assert g.succs[analyst] == (3, 4, 5)
    for outlook in (3, 4, 5):
        assert g.preds[outlook] == (0, 1, 2)
        assert g.succs[outlook] == (6,)
    assert g.preds[6] == (3, 4, 5)


def test_index_of_and_layer_of():
    g = reference_graph()
    # Names are stored in index order: layer by layer, as declared.
    assert g.names == ("NAA", "TAA", "FAA", "BOA", "BeOA", "NOA", "TRA")
    assert g.names.index("BeOA") == 4
    assert g.layer_of[0] == 0
    assert g.layer_of[4] == 1
    assert g.layer_of[6] == 2


def test_build_rejects_duplicate_name():
    with pytest.raises(GraphValidationError, match="must be unique across layers"):
        build_graph([["a", "a"], ["t"]], [("a", "t")])


@pytest.mark.parametrize("bad", ["../x", "/tmp/x", "a,b", "a b", ""])
def test_build_rejects_a_name_that_is_not_one_safe_path_component(bad):
    with pytest.raises(GraphValidationError, match=re.escape(f"agent name {bad!r}")):
        build_graph([[bad], ["t"]], [(bad, "t")])


def test_build_rejects_names_that_differ_only_by_case():
    with pytest.raises(GraphValidationError, match="ignoring case: 'T' and 't'"):
        build_graph([["T"], ["t"]], [("T", "t")])


def test_build_rejects_edge_to_unknown_agent():
    with pytest.raises(GraphValidationError, match="edge endpoint not an agent"):
        build_graph([["a"], ["t"]], [("a", "ghost")])


def test_build_rejects_self_loop():
    with pytest.raises(GraphValidationError, match="edge a -> a does not"):
        build_graph([["a"], ["t"]], [("a", "a"), ("a", "t")])


def test_build_rejects_backward_edge():
    # a -> b -> t -> a is a cycle: every cycle holds an edge that does not
    # reach a later layer, and the error names that edge.
    with pytest.raises(GraphValidationError, match="edge t -> a does not"):
        build_graph([["a"], ["b"], ["t"]], [("a", "b"), ("b", "t"), ("t", "a")])


def test_build_rejects_same_layer_edge():
    with pytest.raises(GraphValidationError, match="edge a -> b does not"):
        build_graph([["a", "b"], ["t"]], [("a", "b"), ("a", "t"), ("b", "t")])


def test_build_rejects_multiple_sinks():
    with pytest.raises(GraphValidationError, match="expected exactly one sink"):
        build_graph([["a", "b"], ["t", "u"]], [("a", "t"), ("b", "u")])


def test_skip_layer_edges_are_legal():
    g = build_graph(
        [["a"], ["b"], ["t"]],
        [("a", "b"), ("b", "t"), ("a", "t")],
    )
    assert g.preds[g.names.index("t")] == (0, 1)


def assert_edges_run_up_the_indices(g):
    for dst, row in enumerate(g.preds):
        for src in row:
            assert src < dst
            assert g.layer_of[src] < g.layer_of[dst]
    # Each layer is a consecutive run of indices.
    assert [a for layer in g.layers for a in layer] == list(range(g.n))


@pytest.mark.parametrize(
    "g",
    [
        reference_graph(),
        build_graph(SPARSE_SKIP_GRAPH["layers"], SPARSE_SKIP_GRAPH["edges"]),
        layered_graph([2, 3, 2, 1]),
    ],
    ids=["reference", "sparse-skip", "2-3-2-1"],
)
def test_every_edge_runs_from_a_lower_index_to_a_higher_one(g):
    """Index order is the execution order: engines and replay run agents in
    ``range(n)`` and rely on every predecessor coming first."""
    assert_edges_run_up_the_indices(g)


@settings(max_examples=100, deadline=None)
@given(skip_layered_graphs())
def test_every_edge_of_a_skip_layered_graph_runs_up_the_indices(g):
    assert_edges_run_up_the_indices(g)


def test_replay_runs_agents_in_index_order():
    g = build_graph(SPARSE_SKIP_GRAPH["layers"], SPARSE_SKIP_GRAPH["edges"])
    seen = []

    def recorder(agent, upstream, external):
        seen.append(agent)
        return agent

    replay_coalition(g, g.full_mask, recorder, episodes=["data"])
    assert seen == list(range(g.n))


def test_information_set_is_direct_predecessors_inside_coalition():
    """A running agent sees exactly its direct predecessors inside the coalition."""
    g = reference_graph()
    seen = {}

    def recorder(agent, upstream, external):
        seen[agent] = set(upstream)
        return agent

    replay_coalition(g, 0b1001001, recorder, episodes=["data"])  # agents 0, 3, 6
    assert seen == {0: set(), 3: {0}, 6: {3}}


def test_path_exists_through_members_only():
    g = reference_graph()
    assert path_exists(g, 0b1001001, 0, 6)  # agents 0, 3, 6
    assert not path_exists(g, 0b1000001, 0, 6)  # agents 0, 6
    assert path_exists(g, 0b1100100, 2, 6)  # agents 2, 5, 6


def test_path_exists_same_endpoint():
    g = reference_graph()
    assert path_exists(g, 1 << 4, 4, 4)


def test_layered_helper_builds_expected_shapes():
    g = layered_graph([2, 2, 1])
    assert g.n == 5
    assert g.sources == (0, 1)
    assert g.sink == 4
    assert sum(map(len, g.preds)) == 2 * 2 + 2 * 1
