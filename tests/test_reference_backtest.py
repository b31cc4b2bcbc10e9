"""``run_backtest`` against ``oracles.reference_backtest``, a backtest that
replays every subset of every window pass and attributes it exactly: the
pruned engine, its reuse of the tuned pass's runs and its float
aggregation must decide what the plain definition decides."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagcredit.backtest import run_backtest, sharpe
from dagcredit.config import REGIMES, RunConfig

from conftest import skip_layered_graphs
from golden_runs import SPARSE_SKIP_GRAPH
from oracles import float_phi_bound, reference_backtest, sharpe_rounded, sqrt_rounded

# (graph, seed, regime, window_len, threshold, lesson_cap) of 40-day runs on
# the reference and sparse-skip graphs. Each triggers cycles, so its frozen
# pass reruns tasks after a tuned prompt changed, and four of them meet a
# tie at the least contribution, which tunes no agent.
DAYS = 40
GRID = [
    ("reference", 42, "bull", 5, 0.0, 5),
    ("reference", 3, "bear", 4, 0.0, 1),
    ("reference", 7, "sideways", 6, 0.05, 2),
    ("reference", 11, "bull", 5, -0.02, 5),
    ("reference", 78, "bear", 5, 0.1, 3),
    ("sparse-skip", 42, "bull", 5, 0.0, 5),
    ("sparse-skip", 5, "bear", 4, 0.05, 1),
    ("sparse-skip", 9, "sideways", 6, 0.0, 2),
    ("sparse-skip", 13, "bull", 5, 0.1, 5),
    ("sparse-skip", 21, "bear", 3, -0.02, 3),
]

# Drawn runs: 20-30 days on skip-layered graphs small enough that the
# reference's replay of every subset stays quick.
MAX_AGENTS = 9
MAX_EXAMPLES = 25


@pytest.fixture(scope="module")
def sparse_skip_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graph") / "sparse_skip.json"
    path.write_text(json.dumps(SPARSE_SKIP_GRAPH), encoding="utf-8")
    return str(path)


def assert_decides_as_the_reference(config):
    """Each window's Sharpe and both passes' returns equal the reference's
    by ``==``, every contribution lies within ``float_phi_bound`` of its
    exact value, and each cycle tunes the agent, and leaves the prompt
    versions, that the exact values give."""
    result = run_backtest(config)
    reference = reference_backtest(config)
    grand = (1 << result.graph.n) - 1
    for reports, passes in ((result.windows, reference.tuned), (result.frozen_windows, reference.frozen)):
        assert len(reports) == len(passes)
        for rep, ref in zip(reports, passes):
            assert rep.window_sharpe == ref.values[grand], rep.index
            assert rep.returns == ref.returns, rep.index
            for phi, (exact, magnitude) in zip(rep.attribution.values, ref.phi, strict=True):
                assert abs(phi - exact) <= float_phi_bound(magnitude, phi), rep.index
    names = ("tuned-agents", "frozen-agents")
    strategies = {s.name: s.returns for s in result.strategies if s.name in names}
    assert strategies == {
        name: tuple(r for ref in passes for r in ref.returns)
        for name, passes in zip(names, (reference.tuned, reference.frozen))
    }
    assert [c.bottleneck for c in result.cycles] == reference.bottlenecks
    assert [c.prompt_versions for c in result.cycles] == reference.prompt_versions


@pytest.mark.parametrize("graph,seed,regime,window_len,threshold,lesson_cap", GRID)
def test_backtest_decides_what_the_reference_backtest_decides(
    sparse_skip_file, graph, seed, regime, window_len, threshold, lesson_cap
):
    assert_decides_as_the_reference(RunConfig(
        seed=seed, regime=regime, days=DAYS, window_len=window_len, threshold=threshold,
        lesson_cap=lesson_cap, graph_file=sparse_skip_file if graph == "sparse-skip" else None,
    ).validate())


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn")


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    graph=skip_layered_graphs().filter(lambda g: g.n <= MAX_AGENTS),
    seed=st.integers(0, 2**16),
    regime=st.sampled_from(sorted(REGIMES)),
    days=st.integers(20, 30),
    window_len=st.integers(3, 6),
    threshold=st.sampled_from([-0.02, 0.0, 0.05, 0.1]),
    lesson_cap=st.integers(1, 5),
)
def test_a_short_backtest_on_any_skip_layered_graph_decides_what_the_reference_decides(
    graph_dir, graph, seed, regime, days, window_len, threshold, lesson_cap
):
    path = graph_dir / "graph.json"
    names = graph.names
    path.write_text(json.dumps({
        "layers": [[names[a] for a in layer] for layer in graph.layers],
        "edges": [[names[p], names[a]] for a in range(graph.n) for p in graph.preds[a]],
    }), encoding="utf-8")
    assert_decides_as_the_reference(RunConfig(
        seed=seed, regime=regime, days=days, window_len=window_len, threshold=threshold,
        lesson_cap=lesson_cap, graph_file=str(path),
    ).validate())


def test_sqrt_rounded_breaks_ties_to_even():
    """A radicand on the midpoint between two floats rounds to the one of
    even significand, either way."""
    ulp = Fraction(1, 2**52)
    assert sqrt_rounded(Fraction(4)) == 2.0
    assert sqrt_rounded((1 + ulp / 2) ** 2) == 1.0
    assert sqrt_rounded((1 + 3 * ulp / 2) ** 2) == 1.0 + 2.0**-51
    assert sqrt_rounded((1 + ulp / 2) ** 2 + Fraction(1, 2**200)) == math.nextafter(1.0, 2.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.one_of(
        st.floats(min_value=-0.2, max_value=0.2),
        st.floats(min_value=-1e300, max_value=1e300),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
    ),
    min_size=2, max_size=20,
))
def test_reference_sharpe_equals_sharpe(returns):
    """The reference's Sharpe, computed in rationals, is the backtest's bit
    for bit on every supported Python."""
    assert sharpe_rounded(returns).hex() == sharpe(returns).hex()
