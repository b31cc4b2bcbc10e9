"""Attribution engines, memoized execution, cost model, and axiom properties."""

import dataclasses
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagcredit import backtest
from dagcredit.agents import (
    BOOST_TOKEN,
    MarketFeatures,
    build_system,
    signed_decision_value,
    system_runner,
)
from dagcredit.coalitions import GraphTooLarge, enumerate_viable
from dagcredit.config import RunConfig, load_graph_file
from dagcredit.graph import build_graph, reference_graph
from dagcredit.optimizer import append_lessons
from dagcredit.shapley import (
    CostCounters,
    ExecutorFailure,
    InvalidSize,
    classical_cost,
    format_attribution,
    format_attribution_table,
    layered_run,
    live_plan,
    _weights,
    predicted_cost,
    replay_coalition,
    shapley_dag,
    shapley_exact,
)

from conftest import dense_table, layered_graph, prefix_mask, skip_layered_graphs
from golden_runs import FEATURES, SPARSE_SKIP_GRAPH, WIDE_GRAPH, WIDE_PHI_SHA256, wide_phi_digest
from oracles import exact_shapley, float_phi_bound, path_exists


def memo_table(graph, viable, runner):
    """The viable masks, the dense table of their signed sink decisions from
    one shared episode (0.0 elsewhere) and the episode's work: the
    arguments of ``shapley_dag`` after the graph."""
    run = layered_run(graph, viable, runner, FEATURES)
    values = map(signed_decision_value, run.sink_outputs)
    return viable, dense_table(graph.n, zip(viable, values, strict=True)), run.counters


def replay_table(graph, runner):
    """Signed sink decisions of every subset, each replayed without sharing,
    indexed by mask; subsets whose sink never runs are worth 0.0."""
    values, counters = [], CostCounters()
    for mask in range(1 << graph.n):
        replay = replay_coalition(graph, mask, runner, FEATURES)
        counters.agent_executions += replay.executions
        sink = replay.sink_output
        values.append(0.0 if sink is None else signed_decision_value(sink))
    return values, counters


# ---------------------------------------------------------------------------
# weights


def exact_weight(s, n):
    """The Shapley weight s! (n - s - 1)! / n! of a coalition of size s."""
    return Fraction(math.factorial(s) * math.factorial(n - s - 1), math.factorial(n))


@pytest.mark.parametrize("n", range(1, 25))
def test_weights_sum_to_one_exactly(n):
    """The exact weights sum to one over the subsets without an agent, and
    the engine's float weights are those rationals, each rounded once."""
    exact = [exact_weight(s, n) for s in range(n)]
    assert sum(math.comb(n - 1, s) * w for s, w in enumerate(exact)) == 1
    assert _weights(n) == tuple(map(float, exact))


# ---------------------------------------------------------------------------
# exact engine against a permutation oracle


def permutation_shapley(n, game):
    """Average marginal contribution over every join order. O(n! * n)."""
    totals = [Fraction(0)] * n
    count = 0
    for order in itertools.permutations(range(n)):
        mask = 0
        for agent in order:
            before = game(mask)
            mask |= 1 << agent
            totals[agent] += Fraction(game(mask)) - Fraction(before)
        count += 1
    return [t / count for t in totals]


@pytest.mark.parametrize("seed,n", [(0, 3), (1, 4), (2, 5), (3, 5)])
def test_exact_engine_matches_permutation_oracle(seed, n):
    rng = random.Random(seed)
    table = {0: Fraction(0)}
    for mask in range(1, 1 << n):
        table[mask] = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
    oracle = permutation_shapley(n, table.__getitem__)
    floats = shapley_exact([float(table[m]) for m in range(1 << n)], n, CostCounters())
    for got, want in zip(floats.values, oracle):
        assert abs(got - float(want)) < 1e-9


# ---------------------------------------------------------------------------
# float phi against the exact oracle


def assert_phi_within_bound(table, n, phi):
    """Each float of ``phi`` lies within the a priori bound of the exact
    Shapley value of ``table``."""
    for got, (want, magnitude) in zip(phi, exact_shapley(table, n), strict=True):
        assert abs(Fraction(got) - want) <= float_phi_bound(magnitude, got)


def test_backtest_phi_is_within_its_bound_of_the_exact_value(monkeypatch):
    """Every window game of a 60-day reference backtest, both passes."""
    games = []
    play = backtest.evaluate_window

    def recorded(*args, **kwargs):
        games.append(play(*args, **kwargs))
        return games[-1]

    monkeypatch.setattr(backtest, "evaluate_window", recorded)
    result = backtest.run_backtest(RunConfig(seed=42, days=60).validate())
    assert len(games) == 2 * len(result.windows) == 24
    for game in games:
        assert_phi_within_bound(game.values, result.graph.n, game.attribution.values)


@given(
    skip_layered_graphs().filter(lambda g: g.n <= 8),
    st.randoms(use_true_random=False),
)
@settings(max_examples=25, deadline=None)
def test_phi_is_within_its_bound_of_the_exact_value(graph, rng):
    """Both engines on games of values spread over many binades, zero off
    the viable masks."""
    viable = enumerate_viable(graph)
    table = dense_table(graph.n, (
        (mask, rng.choice([0.0, rng.uniform(-1, 1) * 2.0 ** rng.randint(-30, 30)]))
        for mask in viable
    ))
    dag = shapley_dag(graph, viable, table, CostCounters())
    assert dag.values == shapley_exact(table, graph.n, CostCounters()).values
    assert_phi_within_bound(table, graph.n, dag.values)


def all_masks_phi(n, value_of):
    """Aggregation over all 2**n subsets, pair by pair, as the engine did it
    before it walked only the masks that can be non-zero; the oracle for
    bit-identity."""
    wf = [float(exact_weight(s, n)) for s in range(n)]
    phi = []
    for i in range(n):
        bit = 1 << i
        terms = [
            wf[mask.bit_count()] * (value_of(mask | bit) - value_of(mask))
            for mask in range(1 << n)
            if not mask & bit
        ]
        phi.append(math.fsum(terms))
    return phi


@st.composite
def closed_tables(draw):
    """A size n and a table over some of its 2**n masks that holds every
    superset of each of its masks: a drawn sparse table closed upward, the
    added masks with drawn values too. Absent masks are worth zero, and
    present ones may hold 0.0 or -0.0."""
    n = draw(st.integers(1, 6))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    table = draw(st.dictionaries(st.integers(0, (1 << n) - 1), value))
    drawn = list(table)
    for mask in range(1 << n):
        if mask not in table and any(seed & mask == seed for seed in drawn):
            table[mask] = draw(value)
    return n, table


def same_bits(got, want):
    return list(got) == list(want) and [x.hex() for x in got] == [x.hex() for x in want]


@given(closed_tables())
@settings(max_examples=200, deadline=None)
def test_table_aggregation_is_bit_identical_to_all_masks(case):
    """Both engines equal the sum over all subsets bit for bit: the exact
    engine walking every mask, the pruned one walking only the drawn masks,
    which hold every superset of each of their members, as viable masks
    do (adding a member keeps a coalition viable)."""
    n, entries = case
    table = dense_table(n, entries.items())
    want = all_masks_phi(n, table.__getitem__)
    exact = shapley_exact(table, n, CostCounters())
    assert same_bits(exact.values, want)
    g = layered_graph([n - 1, 1]) if n > 1 else build_graph([["solo"]], [])
    assert same_bits(shapley_dag(g, sorted(entries), table, CostCounters()).values, want)


@given(skip_layered_graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_viable_tables_aggregate_without_superset_probes(g, seed):
    """Adding a member keeps a coalition viable, so the viable masks pass
    the pruned engine's superset test, and a dense table over them
    aggregates to the all-masks sum in both engines."""
    rng = random.Random(seed)
    viable = enumerate_viable(g)
    table = dense_table(
        g.n, ((mask, rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-2, 2)])) for mask in viable)
    )
    want = all_masks_phi(g.n, table.__getitem__)
    assert same_bits(shapley_exact(table, g.n, CostCounters()).values, want)
    assert same_bits(shapley_dag(g, viable, table, CostCounters()).values, want)


@given(skip_layered_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_viable_walk_drops_only_zero_terms(g, data):
    """A table filled as ``evaluate_window`` fills it, one drawn value per
    sink task (signed zeros, units and one uniform value that repeats), and
    a zero of either sign off the viable masks: the pruned engine walking
    only the viable masks and the exact engine walking every mask both give
    the all-masks sum, bit for bit, so the terms the pruned walk skips are
    all zeros."""
    viable = enumerate_viable(g)
    viable_masks = set(viable)
    off = [mask for mask in range(1 << g.n) if mask not in viable_masks]
    negative = data.draw(st.sets(st.sampled_from(off)), label="masks off viable at -0.0")
    plan = live_plan(g, viable)
    shared = data.draw(st.floats(-2, 2), label="repeated value")
    by_task = data.draw(
        st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, shared]),
            min_size=len(plan.keys[g.sink]),
            max_size=len(plan.keys[g.sink]),
        ),
        label="value per sink task",
    )
    table = dense_table(g.n, zip(viable, map(by_task.__getitem__, plan.sink_tasks)))
    for mask in negative:
        table[mask] = -0.0
    want = all_masks_phi(g.n, table.__getitem__)
    assert same_bits(shapley_dag(g, viable, table, CostCounters()).values, want)
    assert same_bits(shapley_exact(table, g.n, CostCounters()).values, want)


def phi_or_error(engine):
    """The hex digits of each agent's value, or the message of the
    ValueError that ``fsum`` raises for an inf + -inf sum."""
    try:
        return [x.hex() for x in engine()]
    except ValueError as exc:
        return str(exc)


@given(skip_layered_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_viable_walk_keeps_every_non_finite_term(g, data):
    """With ±inf and NaN at viable masks, the pruned walk, which drops the
    zero differences, still gives the all-masks sum to the last bit: the
    same infinities and NaNs, and the same ValueError where inf meets -inf.
    Only exact zeros are dropped; an inf - inf difference is NaN, which is
    kept."""
    viable = enumerate_viable(g)
    specials = data.draw(st.sets(st.sampled_from([math.inf, -math.inf, math.nan])))
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, *specials])
    table = dense_table(g.n, ((mask, data.draw(values)) for mask in viable))
    want = phi_or_error(lambda: all_masks_phi(g.n, table.__getitem__))
    assert phi_or_error(lambda: shapley_dag(g, viable, table, CostCounters()).values) == want
    assert phi_or_error(lambda: shapley_exact(table, g.n, CostCounters()).values) == want


@pytest.mark.parametrize(
    "grand, other, want",
    [
        (math.inf, 0.0, ["inf"] * 5),
        (1.0, math.inf, ["inf", "inf", "inf", "-inf", "inf"]),
        (math.inf, math.inf, ["inf", "inf", "inf", "nan", "inf"]),
        (math.nan, 1.0, ["nan"] * 5),
        (math.inf, -math.inf, "-inf + inf in fsum"),
    ],
)
def test_non_finite_values_reach_phi(grand, other, want):
    """On 2-2-1 the grand coalition holds ``grand`` and the mask without
    the second layer's second agent holds ``other``: infinities, the NaN of
    inf - inf, and the ValueError of inf + -inf all come through the pruned
    walk as they come through the sum over every mask."""
    g = layered_graph([2, 2, 1])
    viable = enumerate_viable(g)
    table = dense_table(g.n, [(g.full_mask, grand), (g.full_mask ^ 0b1000, other)])
    assert phi_or_error(lambda: all_masks_phi(g.n, table.__getitem__)) == want
    assert phi_or_error(lambda: shapley_dag(g, viable, table, CostCounters()).values) == want
    assert phi_or_error(lambda: shapley_exact(table, g.n, CostCounters()).values) == want


def test_aggregation_holds_no_list_of_terms():
    """Aggregation streams its terms: on the dense table of the 29,791
    viable masks of 5-5-5-1 its peak allocation stays under 320 KiB, where
    a list of one agent's terms alone would not, and phi is the all-masks
    sum to the last bit."""
    g = layered_graph([5, 5, 5, 1])
    rng = random.Random(18)
    viable = enumerate_viable(g)
    table = dense_table(
        g.n, ((mask, rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-2, 2)])) for mask in viable)
    )
    assert len(viable) == 29_791
    assert {"0x0.0p+0", "-0x0.0p+0"} <= {table[mask].hex() for mask in viable}
    tracemalloc.start()
    try:
        result = shapley_dag(g, viable, table, CostCounters())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 * 1024
    assert same_bits(result.values, all_masks_phi(g.n, table.__getitem__))


def test_engines_reject_a_table_lacking_a_superset():
    # Without the superset 0b11 the walk over 0b01 would miss the term of
    # agent 1 joining agent 0; on every mask the same table is a game.
    with pytest.raises(ValueError, match="lacks the superset 0b11 of its mask 0b1"):
        shapley_dag(layered_graph([1, 1]), [0b01], [0.0, 1.0, 0.0, 0.0], CostCounters())
    table = [0.0, 1.0, 0.0, 0.0]
    result = shapley_exact(table, 2, CostCounters())
    assert result.values == (0.5, -0.5)
    assert list(result.values) == permutation_shapley(2, table.__getitem__)


def test_pruned_engine_rejects_a_value_off_the_viable_masks():
    """The pruned engine reads no table entry off ``viable``, so it refuses
    a table that is not zero there, naming the first such mask; a zero of
    either sign passes."""
    g = layered_graph([1, 1])
    viable = enumerate_viable(g)
    assert list(viable) == [0b11]
    for table, named in (
        ([0.0, 0.0, 2.5, 1.0], "2.5 at the non-viable mask 0b10"),
        ([0.0, -3.0, 2.5, 1.0], "-3.0 at the non-viable mask 0b1"),
        ([math.nan, 0.0, 0.0, 1.0], "nan at the non-viable mask 0b0"),
    ):
        with pytest.raises(ValueError, match=f"^the table holds {named}$"):
            shapley_dag(g, viable, table, CostCounters())
    signed = [-0.0, 0.0, -0.0, 1.0]
    result = shapley_dag(g, viable, signed, CostCounters())
    assert result.values == (0.5, 0.5)
    assert same_bits(result.values, shapley_exact(signed, g.n, CostCounters()).values)


def test_engines_reject_a_table_of_another_length():
    g = layered_graph([1, 1])
    for length in (0, 3, 5, 8):
        with pytest.raises(ValueError, match=f"^the table has {length} entries, not 2\\*\\*2 = 4$"):
            shapley_exact([0.0] * length, 2, CostCounters())
        with pytest.raises(ValueError, match=f"^the table has {length} entries, not 2\\*\\*2 = 4$"):
            shapley_dag(g, [0b11], [0.0] * length, CostCounters())


def test_pruned_engine_rejects_a_mask_listed_twice():
    # Listed twice, a mask's terms would count twice.
    with pytest.raises(ValueError, match="viable lists a mask more than once"):
        shapley_dag(layered_graph([1, 1]), [0b11, 0b11], [0.0, 0.0, 0.0, 1.0], CostCounters())


def test_engines_reject_a_mask_outside_the_power_set():
    # -1 would otherwise land on the lane of the grand coalition 0b111, and
    # index the table from its end.
    g = layered_graph([2, 1])
    for mask in (-1, 8, 1 << 40):
        with pytest.raises(ValueError, match=f"mask {mask} is outside \\[0, 2\\*\\*3\\)"):
            shapley_dag(g, [mask], [0.0] * 8, CostCounters())


def test_exact_engine_counts_evaluations():
    work = CostCounters(agent_executions=5, cache_hits=2)
    result = shapley_exact(dense_table(4, [(0b1111, 1.0)]), 4, work)
    assert result.counters == CostCounters(16, 5, 2)
    assert work == CostCounters(0, 5, 2)


def test_engines_reject_oversized_inputs():
    with pytest.raises(GraphTooLarge, match="25 agents exceeds the limit of 24"):
        shapley_exact([], 25, CostCounters())
    with pytest.raises(InvalidSize):
        shapley_exact([], 0, CostCounters())


# ---------------------------------------------------------------------------
# axioms


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_efficiency_on_random_games(n, seed):
    rng = random.Random(seed)
    table = [0.0] + [rng.uniform(-5, 5) for mask in range(1, 1 << n)]
    result = shapley_exact(table, n, CostCounters())
    assert abs(result.total() - table[(1 << n) - 1]) < 1e-9


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_symmetry_on_cardinality_games(n, seed):
    """A game that only counts heads treats every agent identically."""
    rng = random.Random(seed)
    by_size = [0.0] + [rng.randint(-9, 9) / rng.randint(1, 7) for _ in range(n)]
    table = [by_size[mask.bit_count()] for mask in range(1 << n)]
    result = shapley_exact(table, n, CostCounters())
    # Every agent's terms are the same multiset, and fsum rounds them once.
    assert len(set(result.values)) == 1


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_null_player_gets_exact_zero(n, seed):
    rng = random.Random(seed)
    null_agent = rng.randrange(n)
    strip = ~(1 << null_agent)
    table = {}
    for mask in range(1 << n):
        base = mask & strip
        if base not in table:
            table[base] = rng.randint(-20, 20) / rng.randint(1, 9)
        table[mask] = table[base]
    table[0] = 0.0
    game = [table[mask & strip] for mask in range(1 << n)]
    result = shapley_exact(game, n, CostCounters())
    # Each of the null agent's terms is w * (x - x) = 0.0.
    assert result.values[null_agent] == 0.0


def test_symmetric_pair_in_float_mode():
    table = [0.0, 1.5, 1.5, 2.0, 0.25, 1.75, 1.75, 3.5]
    result = shapley_exact(table, 3, CostCounters())
    assert abs(result.values[0] - result.values[1]) < 1e-12


# ---------------------------------------------------------------------------
# pruned engine equals the exhaustive one across random topologies


def random_layered(rng, n):
    """Random forward-edged DAG with one sink; mid-layer sources allowed."""
    sizes = []
    remaining = n - 1
    while remaining > 0:
        take = rng.randint(1, min(remaining, 4))
        sizes.append(take)
        remaining -= take
    sizes.append(1)
    layers = [[f"L{i}N{j}" for j in range(s)] for i, s in enumerate(sizes)]
    edges = []
    for i, layer in enumerate(layers[:-1]):
        for name in layer:
            later = [m for down in layers[i + 1:] for m in down]
            targets = rng.sample(later, rng.randint(1, min(3, len(later))))
            for dst in targets:
                edges.append((name, dst))
    return build_graph(layers, sorted(set(edges)))


@pytest.mark.parametrize("seed", range(25))
def test_engine_equivalence_on_random_graphs(seed):
    rng = random.Random(1000 + seed)
    g = random_layered(rng, 3 + seed % 8)
    viable = enumerate_viable(g)
    table = dense_table(g.n, ((mask, rng.uniform(-2, 2)) for mask in viable))
    dag = shapley_dag(g, viable, table, CostCounters())
    exact = shapley_exact(table, g.n, CostCounters())
    worst = max(abs(a - b) for a, b in zip(dag.values, exact.values))
    assert worst < 1e-9
    assert abs(dag.total() - table[g.full_mask]) < 1e-9
    assert dag.counters.coalition_evaluations == len(viable)
    assert exact.counters.coalition_evaluations == 1 << g.n


def test_dag_engine_rejects_oversized_graph():
    layers = [[f"s{i}"] for i in range(24)] + [["t"]]
    edges = [(f"s{i}", f"s{i+1}") for i in range(23)] + [("s23", "t")]
    g = build_graph(layers, edges)
    with pytest.raises(GraphTooLarge, match="25 agents exceeds the limit of 24"):
        shapley_dag(g, [], [], CostCounters())


# ---------------------------------------------------------------------------
# upstream configurations


def test_upstream_configuration_masks():
    """An agent's upstream configuration is the coalition's membership in
    earlier layers."""
    g = reference_graph()
    mask = 0b1010101  # agents 0, 2, 4 and 6
    assert [mask & prefix_mask(g, layer) for layer in range(3)] == [
        0, 0b101, 0b10101,
    ]


# ---------------------------------------------------------------------------
# layered memoized execution


def test_memoized_run_execution_counts(ref_graph, ref_viable, ref_runner):
    run = layered_run(ref_graph, ref_viable, ref_runner, FEATURES)
    assert run.counters.agent_executions == 73
    assert run.counters.executions_reused == 0
    assert len(run.cache) == 73
    grand = ref_graph.full_mask
    assert run.cache[(ref_graph.sink, grand & prefix_mask(ref_graph, 2))] == (
        run.sink_outputs[ref_viable.index(grand)]
    )
    # upstream reads: layer 1 pulls 3 * (3 + 6 + 3) / ... = 36, layer 2 pulls
    # 84 across its 49 configurations, plus 49 sink-output reads = 169.
    assert run.counters.cache_hits == 169
    assert len(run.sink_outputs) == 49


def test_layered_run_returns_the_grand_coalitions_outputs(ref_graph, ref_viable, ref_runner):
    run = layered_run(ref_graph, ref_viable, ref_runner, FEATURES)
    replay = replay_coalition(ref_graph, ref_graph.full_mask, ref_runner, FEATURES)
    assert run.grand_outputs == replay.outputs
    assert list(run.grand_outputs) == list(range(ref_graph.n))
    # Without the grand coalition among the masks there is nothing to report.
    assert ref_viable[-1] == ref_graph.full_mask
    partial = layered_run(ref_graph, ref_viable[:-1], ref_runner, FEATURES)
    assert partial.grand_outputs == {}


def test_memoized_outputs_match_cache_free_replay(ref_graph, ref_viable, ref_runner):
    run = layered_run(ref_graph, ref_viable, ref_runner, FEATURES)
    for mask, output in zip(ref_viable, run.sink_outputs, strict=True):
        replay = replay_coalition(ref_graph, mask, ref_runner, FEATURES)
        assert output == replay.sink_output


def test_agent_failure_is_wrapped(ref_graph, ref_viable):
    def broken(agent, upstream, external):
        raise ValueError("boom")

    with pytest.raises(ExecutorFailure):
        layered_run(ref_graph, ref_viable, broken, FEATURES)


def test_executions_stay_inside_declared_configurations(ref_graph, ref_viable):
    """Every execution serves some viable coalition containing the agent,
    and inputs come only from declared predecessors inside its configuration."""
    seen = []

    def recorder(agent, upstream, external):
        seen.append((agent, frozenset(upstream)))
        return len(upstream)

    layered_run(ref_graph, ref_viable, recorder, FEATURES)
    legal = set()
    for mask in ref_viable:
        for agent in (a for a in range(ref_graph.n) if mask >> a & 1):
            cfg = mask & prefix_mask(ref_graph, ref_graph.layer_of[agent])
            legal.add((agent, frozenset(p for p in ref_graph.preds[agent] if cfg >> p & 1)))
    assert set(seen) <= legal


# ---------------------------------------------------------------------------
# value tables from shared and unshared execution


def test_memoized_game_matches_replay_game(ref_graph, ref_viable, ref_runner):
    replay_values, replay_counters = replay_table(ref_graph, ref_runner)
    dag = shapley_dag(ref_graph, *memo_table(ref_graph, ref_viable, ref_runner))
    exact = shapley_exact(replay_values, ref_graph.n, replay_counters)
    assert dag.values == exact.values
    assert dag.counters == CostCounters(49, 73, 169)
    assert exact.counters == CostCounters(128, 448, 0)


def test_replay_game_values_nonviable_as_zero(ref_graph, ref_viable, ref_runner):
    values, _ = replay_table(ref_graph, ref_runner)
    viable_masks = set(ref_viable)
    assert len(values) == 128
    assert values[0].hex() == values[0b11].hex() == "0x0.0p+0"
    assert all(values[mask] == 0.0 for mask in range(128) if mask not in viable_masks)


# ---------------------------------------------------------------------------
# cost model


def closed_form_cost(sizes):
    """Per-layer executions, total and viable count of a fully connected
    layered graph, from layer sizes alone: every layer must be non-empty, so
    a layer meets the product over earlier layers of (2**size - 1) upstream
    configurations, and each is its agents' live key."""
    configs, viable = [], 1
    for size in sizes:
        configs.append(viable)
        viable *= (1 << size) - 1
    per_layer = tuple(c * size for c, size in zip(configs, sizes))
    return per_layer, sum(per_layer), viable


def test_predicted_cost_reference_values():
    cost = predicted_cost(reference_graph())
    assert cost.layer_executions == (3, 21, 49)
    assert cost.total_executions == 73
    assert cost.viable_coalitions == 49
    assert closed_form_cost([3, 3, 1]) == ((3, 21, 49), 73, 49)


@pytest.mark.parametrize(
    "sizes,configs,total,viable",
    [
        ([2, 2, 1], (1, 3, 9), 17, 9),
        ([4, 2, 1], (1, 15, 45), 79, 45),
        ([3, 4, 1], (1, 7, 105), 136, 105),
        ([2, 1], (1, 3), 5, 3),
        ([1], (1,), 1, 1),
    ],
)
def test_predicted_cost_small_topologies(sizes, configs, total, viable):
    per_layer = tuple(c * size for c, size in zip(configs, sizes))
    assert closed_form_cost(sizes) == (per_layer, total, viable)
    cost = predicted_cost(layered_graph(sizes))
    assert cost.layer_executions == per_layer
    assert cost.total_executions == total
    assert cost.viable_coalitions == viable


def test_predicted_cost_rejects_bad_shapes():
    # Counting enumerates every subset, so it has the power-set limit.
    layers = [[f"s{i}"] for i in range(24)] + [["t"]]
    edges = [(f"s{i}", f"s{i+1}") for i in range(23)] + [("s23", "t")]
    with pytest.raises(GraphTooLarge):
        predicted_cost(build_graph(layers, edges))


def test_predicted_cost_matches_measured_counter():
    for sizes in ([2, 2, 1], [3, 3, 1], [2, 3, 2, 1]):
        g = layered_graph(sizes)
        viable = enumerate_viable(g)
        runner = system_runner(build_system(g, seed=5))
        run = layered_run(g, viable, runner, FEATURES)
        cost = predicted_cost(g)
        assert run.counters.agent_executions == cost.total_executions
        assert len(viable) == cost.viable_coalitions
        assert (cost.layer_executions, cost.total_executions, cost.viable_coalitions) == (
            closed_form_cost(sizes)
        )


def test_classical_cost_values():
    assert classical_cost(7) == (128, 448)
    assert classical_cost(1) == (2, 1)
    assert classical_cost(3) == (8, 12)
    with pytest.raises(InvalidSize):
        classical_cost(0)


def test_reference_execution_reduction_fraction():
    memoized = predicted_cost(reference_graph()).total_executions
    _, classical = classical_cost(7)
    reduction = 1 - memoized / classical
    assert abs(reduction - 0.837) < 0.0005


# ---------------------------------------------------------------------------
# live keys


def live_sets(graph, viable, agent):
    """The distinct live sets of an agent over the viable coalitions that
    hold it, by path search: the members of earlier layers with a path to
    the agent inside the coalition."""
    prefix = prefix_mask(graph, graph.layer_of[agent])
    return {
        frozenset(
            p for p in range(graph.n)
            if (mask & prefix) >> p & 1 and path_exists(graph, mask, p, agent)
        )
        for mask in viable
        if mask >> agent & 1
    }


def counting(runner):
    calls = []

    def run(agent, upstream, external):
        calls.append(agent)
        return runner(agent, upstream, external)

    return run, calls


@given(skip_layered_graphs())
@settings(max_examples=40, deadline=None)
def test_each_agent_runs_once_per_live_set(g):
    viable = enumerate_viable(g)
    runner, calls = counting(system_runner(build_system(g, seed=5)))
    run = layered_run(g, viable, runner, FEATURES)
    cost = predicted_cost(g)
    assert len(calls) == run.counters.agent_executions == len(run.cache) == cost.total_executions
    oracle = {a: live_sets(g, viable, a) for a in range(g.n)}
    for a in range(g.n):
        assert calls.count(a) == len(oracle[a])
    assert set(run.cache) == {
        (a, sum(1 << p for p in live)) for a in range(g.n) for live in oracle[a]
    }
    assert cost.layer_executions == tuple(
        sum(calls.count(a) for a in layer) for layer in g.layers
    )


@given(skip_layered_graphs())
@settings(max_examples=40, deadline=None)
def test_live_key_outputs_match_replay_and_exact_engine(g):
    viable = enumerate_viable(g)
    runner = system_runner(build_system(g, seed=11))
    run = layered_run(g, viable, runner, FEATURES)
    for mask, output in zip(viable, run.sink_outputs, strict=True):
        assert output == replay_coalition(g, mask, runner, FEATURES).sink_output
    table = dense_table(g.n, zip(viable, map(signed_decision_value, run.sink_outputs)))
    dag = shapley_dag(g, viable, table, run.counters)
    replay_values, replay_counters = replay_table(g, runner)
    exact = shapley_exact(replay_values, g.n, replay_counters)
    assert [v.hex() for v in dag.values] == [v.hex() for v in exact.values]
    # The replay is worth 0.0 at every mask the pruned table leaves at 0.0,
    # so the exact engine on the pruned table gives every bit of phi too.
    assert [v.hex() for v in replay_values] == [v.hex() for v in table]
    pruned = shapley_exact(table, g.n, replay_counters)
    assert [v.hex() for v in pruned.values] == [v.hex() for v in exact.values]


@pytest.mark.parametrize("name,executions", [("reference", 73), ("sparse-skip", 27), ("wide", 104_820)])
def test_executions_per_episode_are_pinned(name, executions):
    if name == "reference":
        g = reference_graph()
    elif name == "sparse-skip":
        g = build_graph(SPARSE_SKIP_GRAPH["layers"], SPARSE_SKIP_GRAPH["edges"])
    else:
        g = load_graph_file(WIDE_GRAPH)
    runner, calls = counting(lambda agent, upstream, external: None)
    run = layered_run(g, enumerate_viable(g), runner)
    assert len(calls) == run.counters.agent_executions == len(run.cache) == executions
    assert predicted_cost(g).total_executions == executions


def test_wide_attribution_is_pinned():
    """The mock system's contributions on the sparse 6-6-6-1 benchmark graph,
    to the last bit: plan, execution, valuation and aggregation at full
    width. The run and its digest live in ``golden_runs``."""
    assert wide_phi_digest() == WIDE_PHI_SHA256


# ---------------------------------------------------------------------------
# reuse across episodes

OTHER_FEATURES = MarketFeatures(
    sentiment=-0.3,
    fundamental=0.5,
    closes=(100.0, 99.0, 99.5, 98.0, 97.0, 97.5, 96.0, 95.0),
)


def with_lessons(specs, changed):
    """``specs`` with a lesson appended to the prompt of each agent in the
    mask ``changed``."""
    return {
        a: dataclasses.replace(spec, prompt=append_lessons(spec.prompt, [BOOST_TOKEN]))
        if changed >> a & 1
        else spec
        for a, spec in specs.items()
    }


def assert_matches_replay(g, run, runner):
    """Every viable sink output is the replayed one, and the pruned engine's
    contributions equal the exact engine's to the last bit."""
    viable = run.plan.viable
    for mask, output in zip(viable, run.sink_outputs, strict=True):
        assert output == replay_coalition(g, mask, runner, FEATURES).sink_output
    table = dense_table(g.n, zip(viable, map(signed_decision_value, run.sink_outputs)))
    dag = shapley_dag(g, viable, table, run.counters)
    replay_values, _ = replay_table(g, runner)
    exact = shapley_exact(replay_values, g.n, CostCounters())
    assert [v.hex() for v in dag.values] == [v.hex() for v in exact.values]


@given(skip_layered_graphs(), st.data())
@settings(max_examples=30, deadline=None)
def test_runner_calls_are_the_distinct_tasks_and_prompts(g, data):
    """A run reusing an earlier one calls the runner once per distinct
    (agent, live set, prompts of the agent and its live set) among its tasks
    that the earlier run's tasks lack, and no value changes."""
    viable = enumerate_viable(g)
    cost = predicted_cost(g)
    plan = live_plan(g, viable)
    agent = data.draw(st.integers(0, g.n - 1), label="tuned agent")
    frozen = build_system(g, seed=11)
    tuned = with_lessons(frozen, 1 << agent)
    sets = [live_sets(g, viable, a) for a in range(g.n)]
    seen = set()
    runner_calls = 0
    run = None
    for specs in (tuned, frozen):
        prompts = [specs[a].prompt for a in range(g.n)]
        runner = system_runner(specs)
        reuse = None if run is None else (run, 1 << agent)
        run = layered_run(g, viable, runner, FEATURES, plan=plan, reuse=reuse)
        runner_calls += run.counters.agent_executions
        assert run.counters.agent_executions + run.counters.executions_reused == (
            cost.total_executions
        )
        seen |= {
            (a, live, tuple(prompts[m] for m in sorted(live | {a})))
            for a in range(g.n)
            for live in sets[a]
        }
        assert runner_calls == len(seen)
        assert_matches_replay(g, run, runner)
    # With nothing changed since, every task is reused.
    again = layered_run(g, viable, runner, FEATURES, plan=plan, reuse=(run, 0))
    assert again.counters.agent_executions == 0
    assert again.sink_outputs == run.sink_outputs


@given(skip_layered_graphs(), st.data())
@settings(max_examples=30, deadline=None)
def test_reuse_reruns_the_tasks_that_a_changed_agent_reaches(g, data):
    """With any mask of changed agents, the runner runs exactly the tasks
    whose agent or live key holds one of them, in plan order with their
    live predecessors' outputs, and the run is that of the changed system."""
    viable = enumerate_viable(g)
    plan = live_plan(g, viable)
    changed = data.draw(st.integers(0, g.full_mask), label="changed")
    before = build_system(g, seed=11)
    earlier = layered_run(g, viable, system_runner(before), FEATURES, plan=plan)
    after = system_runner(with_lessons(before, changed))
    calls = []

    def recorder(agent, upstream, external):
        calls.append((agent, frozenset(upstream)))
        return after(agent, upstream, external)

    run = layered_run(g, viable, recorder, FEATURES, plan=plan, reuse=(earlier, changed))
    assert calls == [
        (a, frozenset(p for p in g.preds[a] if key >> p & 1))
        for layer in g.layers
        for a in layer
        for key in plan.keys[a]
        if (key | 1 << a) & changed
    ]
    assert run.counters.agent_executions == len(calls)
    assert run.counters.agent_executions + run.counters.executions_reused == (
        predicted_cost(g).total_executions
    )
    assert_matches_replay(g, run, after)


def test_outputs_need_not_be_hashable(ref_graph, ref_viable):
    """Reuse reads outputs by task and compares external data for equality,
    so neither needs to be hashable."""

    def listing(agent, upstream, external):
        return [agent, sorted(upstream)]

    external = {"closes": [100.0, 101.0]}
    first = layered_run(ref_graph, ref_viable, listing, external)
    again = layered_run(ref_graph, ref_viable, listing, dict(external), reuse=(first, 0))
    assert first.counters.agent_executions == 73
    assert again.counters.agent_executions == 0
    assert again.sink_outputs == first.sink_outputs


def test_prompt_states_decide_which_tasks_rerun(ref_graph, ref_viable, ref_runner):
    runner, calls = counting(ref_runner)
    plan = live_plan(ref_graph, ref_viable)
    first = layered_run(ref_graph, ref_viable, runner, FEATURES, plan=plan)
    # A changed prompt for one outlook reruns its 7 tasks and the 28 trader
    # tasks whose live key holds it. Outputs are never compared: those tasks
    # rerun although this runner ignores prompts.
    boa, sink = ref_graph.index_of("BOA"), ref_graph.sink
    assert sum(key >> boa & 1 for key in plan.keys[sink]) == 28
    run = layered_run(
        ref_graph, ref_viable, runner, FEATURES, plan=plan, reuse=(first, 1 << boa)
    )
    assert calls[73:] == [boa] * 7 + [sink] * 28
    assert run.counters.agent_executions == 35
    assert run.counters.executions_reused == 38
    # A changed trader reruns its own 49 tasks only.
    trader = layered_run(
        ref_graph, ref_viable, runner, FEATURES, plan=plan, reuse=(run, 1 << sink)
    )
    assert calls[108:] == [sink] * 49
    assert trader.sink_outputs == first.sink_outputs


def test_agents_outside_every_mask_do_not_run(ref_graph, ref_viable, ref_runner):
    naa = ref_graph.index_of("NAA")
    without_naa = [mask for mask in ref_viable if not mask >> naa & 1]
    runner, calls = counting(ref_runner)
    run = layered_run(ref_graph, without_naa, runner, FEATURES)
    assert naa not in calls
    assert len(calls) == run.counters.agent_executions == len(run.cache)
    assert run.counters.executions_reused == 0
    assert len(run.sink_outputs) == len(without_naa) == 3 * 7


def test_layered_run_rejects_a_mask_outside_the_power_set(ref_graph, ref_runner):
    runner, calls = counting(ref_runner)
    for mask in (-1, 1 << ref_graph.n):
        with pytest.raises(ValueError, match=f"mask {mask} is outside \\[0, 2\\*\\*7\\)"):
            layered_run(ref_graph, [mask], runner, FEATURES)
    assert not calls


def test_plan_and_reuse_must_match_the_masks(ref_graph, ref_viable, ref_runner):
    plan = live_plan(ref_graph, ref_viable[:-1])
    with pytest.raises(ValueError, match="plan was built for other viable masks"):
        layered_run(ref_graph, ref_viable, ref_runner, FEATURES, plan=plan)
    same = layered_run(ref_graph, list(ref_viable[:-1]), ref_runner, FEATURES, plan=plan)
    assert len(same.sink_outputs) == 48
    full = layered_run(ref_graph, ref_viable, ref_runner, FEATURES)
    with pytest.raises(ValueError, match="earlier run was built from another plan"):
        layered_run(
            ref_graph, ref_viable[:-1], ref_runner, FEATURES, plan=plan, reuse=(full, 0)
        )
    with pytest.raises(ValueError, match="earlier run was on other external data"):
        layered_run(ref_graph, ref_viable, ref_runner, OTHER_FEATURES, reuse=(full, 0))


def test_plan_serves_an_equal_list_of_its_masks():
    """A plan serves an equal list copy of its masks without copying either
    sequence (under 4 KiB at the check's peak on 5-5-5-1, where two lists
    of the 29,791 masks take about 0.5 MiB), and refuses a list that
    differs from them in one mask or lacks one."""
    g = layered_graph([5, 5, 5, 1])
    viable = enumerate_viable(g)
    plan = live_plan(g, viable)
    copy = list(viable)
    tracemalloc.start()
    try:
        served = plan.serves(g, copy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert served
    assert peak < 4 * 1024
    assert not plan.serves(g, copy[:100] + [0] + copy[101:])
    assert not plan.serves(g, copy[:-1])


def test_live_plan_is_packed():
    """The plan of fully connected 5-5-5-1 (34,756 tasks) retains at most
    1.25 MiB and peaks at most 4.5 MiB above its input: measured 0.92 and
    3.46 MiB on CPython 3.10-3.13, with about 30% headroom. Key -> task
    dicts and lists of int keys took 2.73 and 5.59 MiB."""
    g = layered_graph([5, 5, 5, 1])
    viable = enumerate_viable(g)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        plan = live_plan(g, viable)
        retained, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert plan.tasks == 34_756
    assert retained <= 1.25 * 2**20
    assert peak <= 4.5 * 2**20


# ---------------------------------------------------------------------------
# formatting


def test_format_attribution_lists_agents_and_cost(ref_graph, ref_viable, ref_runner):
    result = shapley_dag(ref_graph, *memo_table(ref_graph, ref_viable, ref_runner))
    text = format_attribution(ref_graph, result)
    for name in ref_graph.names:
        assert name in text
    assert "agent_executions=73 executions_reused=0 cache_hits=169" in text


def test_format_attribution_table_reports_reduction(ref_graph, ref_viable, ref_runner):
    replay_values, replay_counters = replay_table(ref_graph, ref_runner)
    dag = shapley_dag(ref_graph, *memo_table(ref_graph, ref_viable, ref_runner))
    exact = shapley_exact(replay_values, ref_graph.n, replay_counters)
    text = format_attribution_table(ref_graph, dag, exact)
    assert "execution reduction: 83.7%" in text
    assert "TRA" in text
