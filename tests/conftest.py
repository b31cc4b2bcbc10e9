"""Shared fixtures: the reference workflow, generic layered graphs, market data."""

import pytest

from dagcredit.agents import MarketFeatures, build_system, system_runner
from dagcredit.backtest import synthesize_market
from dagcredit.coalitions import enumerate_viable
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


FEATURES = MarketFeatures(
    sentiment=0.4,
    fundamental=0.2,
    closes=(100.0, 101.0, 99.5, 102.0, 103.0, 101.5, 104.0, 105.0),
)


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


@pytest.fixture
def market_pair():
    return synthesize_market(seed=7, days=30, regime="bull")
