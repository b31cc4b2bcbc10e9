"""Graph construction, validation, traversal, and the reference workflow."""

import pytest

from dagcredit import graph as graph_module
from dagcredit.shapley import replay_coalition
from dagcredit.graph import (
    CrossLayerViolation,
    CycleDetected,
    EndpointNotInCoalition,
    LayerPartitionInvalid,
    MultipleSinks,
    build_graph,
    path_exists,
    reference_graph,
)

from conftest import layered_graph


def test_reference_graph_shape():
    g = reference_graph()
    assert g.n == 7
    assert g.names == ("NAA", "TAA", "FAA", "BOA", "BeOA", "NOA", "TRA")
    assert len(g.layers) == 3
    assert g.sources == (0, 1, 2)
    assert g.sink == 6
    assert len(g.edges) == 12


def test_reference_graph_layer_masks():
    g = reference_graph()
    assert g.layer_masks == (0b0000111, 0b0111000, 0b1000000)
    assert g.prefix_masks == (0b0000000, 0b0000111, 0b0111111)


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
    assert g.index_of("BeOA") == 4
    assert g.layer_of[0] == 0
    assert g.layer_of[4] == 1
    assert g.layer_of[6] == 2
    with pytest.raises(KeyError):
        g.index_of("nope")


def test_build_rejects_duplicate_name():
    with pytest.raises(LayerPartitionInvalid):
        build_graph([["a", "a"], ["t"]], [("a", "t")])


def test_build_rejects_edge_to_unknown_agent():
    with pytest.raises(LayerPartitionInvalid):
        build_graph([["a"], ["t"]], [("a", "ghost")])


def test_build_rejects_self_loop():
    with pytest.raises(CycleDetected):
        build_graph([["a"], ["t"]], [("a", "a"), ("a", "t")])


def test_build_rejects_backward_edge():
    with pytest.raises((CycleDetected, CrossLayerViolation)):
        build_graph([["a"], ["b"], ["t"]], [("a", "b"), ("b", "t"), ("t", "a")])


def test_build_rejects_same_layer_edge():
    with pytest.raises(CrossLayerViolation):
        build_graph([["a", "b"], ["t"]], [("a", "b"), ("a", "t"), ("b", "t")])


def test_build_rejects_multiple_sinks():
    with pytest.raises(MultipleSinks):
        build_graph([["a", "b"], ["t", "u"]], [("a", "t"), ("b", "u")])


def test_skip_layer_edges_are_legal():
    g = build_graph(
        [["a"], ["b"], ["t"]],
        [("a", "b"), ("b", "t"), ("a", "t")],
    )
    assert g.preds[g.index_of("t")] == (0, 1)


def test_topological_order_respects_edges_and_breaks_ties_by_index():
    g = reference_graph()
    order = list(g.order)
    position = {agent: k for k, agent in enumerate(order)}
    for src, dst in g.edges:
        assert position[src] < position[dst]
    assert order == sorted(order, key=lambda a: (g.layer_of[a], a))


def test_topological_order_is_computed_once_per_graph(monkeypatch):
    """Replay reads the order that ``build_graph`` kept from its cycle
    check, instead of sorting the edges again."""
    g = reference_graph()

    def no_sort(*args):
        raise AssertionError("topological sort re-run")

    monkeypatch.setattr(graph_module, "_toposort", no_sort)
    replay = replay_coalition(g, g.full_mask, lambda agent, upstream, data: agent, "data")
    assert list(replay.outputs) == list(g.order)


def test_information_set_is_direct_predecessors_inside_coalition():
    """A running agent sees exactly its direct predecessors inside the coalition."""
    g = reference_graph()
    seen = {}

    def recorder(agent, upstream, external):
        seen[agent] = set(upstream)
        return agent

    replay_coalition(g, 0b1001001, recorder, external="data")  # agents 0, 3, 6
    assert seen == {0: set(), 3: {0}, 6: {3}}


def test_path_exists_through_members_only():
    g = reference_graph()
    assert path_exists(g, 0b1001001, 0, 6)  # agents 0, 3, 6
    assert not path_exists(g, 0b1000001, 0, 6)  # agents 0, 6
    assert path_exists(g, 0b1100100, 2, 6)  # agents 2, 5, 6


def test_path_exists_same_endpoint():
    g = reference_graph()
    assert path_exists(g, 1 << 4, 4, 4)


def test_path_exists_requires_endpoints_in_coalition():
    g = reference_graph()
    with pytest.raises(EndpointNotInCoalition):
        path_exists(g, 0b1001000, 0, 6)  # agents 3, 6
    # A negative index or mask names no member; neither reaches a shift.
    with pytest.raises(EndpointNotInCoalition):
        path_exists(g, g.full_mask, -1, 6)
    with pytest.raises(EndpointNotInCoalition):
        path_exists(g, -1, 0, 6)


def test_layered_helper_builds_expected_shapes():
    g = layered_graph([2, 2, 1])
    assert g.n == 5
    assert g.sources == (0, 1)
    assert g.sink == 4
    assert len(g.edges) == 2 * 2 + 2 * 1
