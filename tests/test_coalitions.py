"""Coalition masks, viability checks, and pruning counts."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagcredit.coalitions import (
    GraphTooLarge,
    InvalidCoalition,
    check_viability,
    coalition_names,
    enumerate_viable,
)
from dagcredit.config import load_graph_file
from dagcredit.graph import build_graph, path_exists, reference_graph

from conftest import layered_graph


def test_coalition_rejects_negative_mask():
    g = reference_graph()
    for mask in (-1, -(1 << g.n), ~0b1001001):
        with pytest.raises(InvalidCoalition):
            check_viability(g, mask)


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


def test_viability_rejects_out_of_range_mask():
    g = reference_graph()
    with pytest.raises(InvalidCoalition):
        check_viability(g, 1 << g.n)


def test_reference_pruning_counts():
    g = reference_graph()
    assert g.n == 7
    assert len(enumerate_viable(g)) == 49


def test_enumerate_viable_is_sorted_and_consistent():
    g = reference_graph()
    masks = enumerate_viable(g)
    assert masks == sorted(masks)
    assert len(set(masks)) == len(masks)
    for mask in masks:
        assert check_viability(g, mask).viable


def test_enumeration_matches_per_coalition_checks():
    g = reference_graph()
    viable_masks = set(enumerate_viable(g))
    for mask in range(1 << g.n):
        assert (mask in viable_masks) == check_viability(g, mask).viable


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


@given(skip_layered_graphs())
@settings(max_examples=60, deadline=None)
def test_enumeration_equals_per_mask_check_on_skip_graphs(g):
    by_check = [m for m in range(1 << g.n) if check_viability(g, m).viable]
    assert enumerate_viable(g) == by_check
    # The same set from a search over paths: a member source with a path to
    # the sink through members.
    by_paths = [
        m for m in range(1 << g.n)
        if m >> g.sink & 1
        and any(m >> s & 1 and path_exists(g, m, s, g.sink) for s in g.sources)
    ]
    assert by_check == by_paths


def test_wide_benchmark_graph_count():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "wide_6661.json"
    g = load_graph_file(path)
    assert g.n == 19
    assert len(enumerate_viable(g)) == 239_367


def test_small_topology_counts():
    assert len(enumerate_viable(layered_graph([2, 2, 1]))) == 9
    assert len(enumerate_viable(layered_graph([2, 1]))) == 3
    assert len(enumerate_viable(layered_graph([4, 2, 1]))) == 45


def test_single_agent_graph_has_one_viable_coalition():
    g = build_graph([["solo"]], [])
    assert enumerate_viable(g) == [1]


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
