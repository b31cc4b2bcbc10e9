"""Coalition bitmask arithmetic, viability checks, and pruning counts."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagcredit.coalitions import (
    Coalition,
    GraphTooLarge,
    InvalidCoalition,
    check_viability,
    enumerate_viable,
)
from dagcredit.config import load_graph_file
from dagcredit.graph import build_graph, path_exists, reference_graph

from conftest import layered_graph


def test_coalition_construction_and_iteration():
    c = Coalition.of([4, 0, 2])
    assert c.mask == 0b10101
    assert list(c) == [0, 2, 4]
    assert len(c) == 3
    assert 2 in c
    assert 1 not in c


def test_coalition_full_and_empty():
    assert Coalition.full(3).mask == 0b111
    assert Coalition.empty().mask == 0
    assert not Coalition.empty()
    assert Coalition.full(1)


def test_coalition_rejects_negative_mask():
    with pytest.raises(InvalidCoalition):
        Coalition(-1)


def test_coalition_set_operations():
    a = Coalition.of([0, 1])
    b = Coalition.of([1, 2])
    assert (a | b) == Coalition.of([0, 1, 2])
    assert (a & b) == Coalition.of([1])
    assert a.add(2) == Coalition.of([0, 1, 2])
    assert a.without(0) == Coalition.of([1])
    assert a.issubset(Coalition.of([0, 1, 2]))
    assert not Coalition.of([0, 3]).issubset(a)


def test_coalition_names_and_repr():
    g = reference_graph()
    c = Coalition.of([0, 4, 6])
    assert c.names(g) == ["NAA", "BeOA", "TRA"]
    assert repr(c) == "Coalition(0b1010001)"


def test_viability_requires_trader():
    g = reference_graph()
    report = check_viability(g, Coalition.of([0, 3]))
    assert not report.has_trader
    assert not report.viable


def test_viability_requires_source():
    g = reference_graph()
    report = check_viability(g, Coalition.of([3, 6]))
    assert report.has_trader
    assert not report.has_source
    assert not report.viable


def test_viability_requires_connecting_path():
    g = reference_graph()
    report = check_viability(g, Coalition.of([0, 6]))
    assert report.has_trader and report.has_source
    assert not report.connected
    assert not report.viable


def test_minimal_viable_coalition():
    g = reference_graph()
    report = check_viability(g, Coalition.of([0, 3, 6]))
    assert report.viable


def test_empty_coalition_fails_everything():
    g = reference_graph()
    report = check_viability(g, Coalition.empty())
    assert not (report.has_trader or report.has_source or report.connected)


def test_viability_rejects_out_of_range_mask():
    g = reference_graph()
    with pytest.raises(InvalidCoalition):
        check_viability(g, Coalition(1 << g.n))


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
        assert check_viability(g, Coalition(mask)).viable


def test_enumeration_matches_per_coalition_checks():
    g = reference_graph()
    viable_masks = set(enumerate_viable(g))
    for mask in range(1 << g.n):
        assert (mask in viable_masks) == check_viability(g, Coalition(mask)).viable


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
    by_check = [m for m in range(1 << g.n) if check_viability(g, Coalition(m)).viable]
    assert enumerate_viable(g) == by_check
    # The same set from a search over paths: a member source with a path to
    # the sink through members.
    by_paths = [
        m for m in range(1 << g.n)
        if g.sink in Coalition(m)
        and any(
            s in Coalition(m) and path_exists(g, Coalition(m), s, g.sink)
            for s in g.sources
        )
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
    report = check_viability(g, Coalition(mask))
    assert report.viable == (
        report.has_trader and report.has_source and report.connected
    )


@given(st.sets(st.integers(min_value=0, max_value=6)))
def test_adding_members_never_breaks_viability(members):
    """Viability is monotone: growing a viable coalition keeps it viable."""
    g = reference_graph()
    c = Coalition.of(members)
    if check_viability(g, c).viable:
        grown = c | Coalition.full(g.n)
        assert check_viability(g, grown).viable
        for extra in range(g.n):
            assert check_viability(g, c.add(extra)).viable
