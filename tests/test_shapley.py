"""Attribution engines, memoized execution, cost model, and axiom properties."""

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
from dagcredit.graph import InputError, build_graph, reference_graph
from dagcredit.optimizer import append_lessons
from dagcredit.shapley import (
    AttributionResult,
    ExecutorFailure,
    classical_cost,
    format_attribution,
    format_replay_check,
    layered_run,
    live_plan,
    _weights,
    predicted_cost,
    replay_coalition,
    shapley_exact,
)

from conftest import (
    dense_view, game_table, grand_outputs, layered_graph, prefix_mask, recording, sink_outputs,
    sink_table, sink_tasks, skip_layered_graphs,
)
from golden_runs import FEATURES, SPARSE_SKIP_GRAPH, WIDE_GRAPH, WIDE_PHI_SHA256, wide_phi_digest
from oracles import exact_shapley, float_phi_bound, path_exists, replay_steps_by_brute_force


def named_graph(name):
    """The reference graph, the golden runs' sparse-skip graph, a lone
    agent or the wide benchmark graph."""
    if name == "reference":
        return reference_graph()
    if name == "sparse-skip":
        return build_graph(SPARSE_SKIP_GRAPH["layers"], SPARSE_SKIP_GRAPH["edges"])
    if name == "one-agent":
        return build_graph([["T"]], [])
    return load_graph_file(WIDE_GRAPH)


def pruned_attribution(graph, viable, runner):
    """The pruned engine's attribution of one shared episode, the table of
    the viable masks' signed sink decisions (0.0 elsewhere) aggregated, and
    the episode's runner calls."""
    run = layered_run(graph, viable, runner, FEATURES, plan=live_plan(graph, viable))
    values = map(signed_decision_value, sink_outputs(run))
    table = sink_table(graph.n, zip(viable, values, strict=True))
    return AttributionResult(shapley_exact(table, graph.n)), run.counters.agent_executions


def replay_table(graph, runner):
    """Signed sink decisions of every subset, each replayed without sharing,
    indexed by mask, and the replay's runner calls; subsets whose sink never
    runs are worth 0.0."""
    values, executions = [], 0
    for mask in range(1 << graph.n):
        replay = replay_coalition(graph, mask, runner, episodes=[FEATURES])
        executions += replay.executions
        sink = replay.sink_outputs[0]
        values.append(0.0 if sink is None else signed_decision_value(sink))
    return values, executions


def held_by_sink(values, n):
    """The table ``shapley_exact`` takes of a game given by the value of
    every subset, indexed by mask: its upper half, the subsets holding the
    sink, once every other subset is checked to be worth +0.0."""
    half = 1 << n - 1
    assert [v.hex() for v in values[:half]] == ["0x0.0p+0"] * half
    return values[half:]


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
    """Random values at the coalitions holding the sink, zero elsewhere."""
    rng = random.Random(seed)
    held = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(1 << n - 1)]
    oracle = permutation_shapley(n, ([Fraction(0)] * len(held) + held).__getitem__)
    floats = shapley_exact(list(map(float, held)), n)
    for got, want in zip(floats, oracle):
        assert abs(got - float(want)) < 1e-9


# ---------------------------------------------------------------------------
# float phi against the exact oracle


def assert_phi_within_bound(table, n, phi):
    """Each float of ``phi`` lies within the a priori bound of the exact
    Shapley value of the game ``table``."""
    exact = exact_shapley(dense_view(n, table), n)
    for got, (want, magnitude) in zip(phi, exact, strict=True):
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
        table = game_table(result.plan, game.task_values)
        assert_phi_within_bound(table, result.graph.n, game.attribution.values)


@given(
    skip_layered_graphs().filter(lambda g: g.n <= 8),
    st.randoms(use_true_random=False),
)
@settings(max_examples=25, deadline=None)
def test_phi_is_within_its_bound_of_the_exact_value(graph, rng):
    """Games of values spread over many binades, zero off the viable
    masks."""
    viable = enumerate_viable(graph)
    table = sink_table(graph.n, (
        (mask, rng.choice([0.0, rng.uniform(-1, 1) * 2.0 ** rng.randint(-30, 30)]))
        for mask in viable
    ))
    assert_phi_within_bound(table, graph.n, shapley_exact(table, graph.n))


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
    """A size n and a table over some of the 2**(n - 1) configurations of
    the agents other than the sink that holds every superset of each of its
    configurations: a drawn sparse table closed upward, the added
    configurations with drawn values too. Absent ones are worth zero, and
    present ones may hold 0.0 or -0.0."""
    n = draw(st.integers(1, 6))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    table = draw(st.dictionaries(st.integers(0, (1 << n - 1) - 1), value))
    drawn = list(table)
    for config in range(1 << n - 1):
        if config not in table and any(seed & config == seed for seed in drawn):
            table[config] = draw(value)
    return n, table


def same_bits(got, want):
    return list(got) == list(want) and [x.hex() for x in got] == [x.hex() for x in want]


@given(closed_tables())
@settings(max_examples=200, deadline=None)
def test_table_aggregation_is_bit_identical_to_all_masks(case):
    """The aggregation equals the sum over all subsets bit for bit on a
    game that is non-zero only on coalitions holding the sink and every
    superset of each of their members, as viable masks do (adding a member
    keeps a coalition viable)."""
    n, entries = case
    table = [entries.get(config, 0.0) for config in range(1 << n - 1)]
    want = all_masks_phi(n, dense_view(n, table).__getitem__)
    assert same_bits(shapley_exact(table, n), want)


@given(skip_layered_graphs(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_viable_tables_aggregate_without_superset_probes(g, seed):
    """A table over the viable masks, zero elsewhere, aggregates to the
    all-masks sum."""
    rng = random.Random(seed)
    viable = enumerate_viable(g)
    table = sink_table(
        g.n, ((mask, rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-2, 2)])) for mask in viable)
    )
    want = all_masks_phi(g.n, dense_view(g.n, table).__getitem__)
    assert same_bits(shapley_exact(table, g.n), want)


def phi_or_error(engine):
    """The hex digits of each agent's value, or the message of the
    ValueError that ``fsum`` raises for an inf + -inf sum."""
    try:
        return [x.hex() for x in engine()]
    except ValueError as exc:
        return str(exc)


@given(skip_layered_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_viable_walk_drops_only_zero_terms(g, data):
    """A table filled as ``evaluate_window`` fills it, one drawn value per
    sink task (signed zeros, units, NaN, ±inf and one uniform value that
    repeats), with all but a few sink tasks at zero in some draws, and a
    zero of either sign at the configurations with no viable mask: the
    aggregation, walking only the configurations of non-zero value, gives
    the all-masks sum, bit for bit, or the same error, so the terms its
    walks skip are all zeros."""
    viable = enumerate_viable(g)
    plan = live_plan(g, viable)
    off = [config for config, task in enumerate(plan.task_tables[g.sink]) if task < 0]
    negative = data.draw(st.sets(st.sampled_from(off)), label="configurations off viable at -0.0")
    shared = data.draw(st.floats(-2, 2), label="repeated value")
    tasks = len(plan.keys[g.sink])
    by_task = data.draw(
        st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, shared, math.nan, math.inf, -math.inf]),
            min_size=tasks,
            max_size=tasks,
        ),
        label="value per sink task",
    )
    if data.draw(st.booleans(), label="mostly zero"):
        kept = data.draw(st.sets(st.integers(0, tasks - 1), max_size=2), label="non-zero tasks")
        by_task = [
            v if task in kept else math.copysign(0.0, v) for task, v in enumerate(by_task)
        ]
    table = sink_table(g.n, zip(viable, map(by_task.__getitem__, sink_tasks(plan))))
    for config in negative:
        table[config] = -0.0
    want = phi_or_error(lambda: all_masks_phi(g.n, dense_view(g.n, table).__getitem__))
    assert phi_or_error(lambda: shapley_exact(table, g.n)) == want


@given(skip_layered_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_viable_walk_keeps_every_non_finite_term(g, data):
    """With ±inf and NaN at viable masks, the walk, which drops the zero
    differences, still gives the all-masks sum to the last bit: the
    same infinities and NaNs, and the same ValueError where inf meets -inf.
    Only exact zeros are dropped; an inf - inf difference is NaN, which is
    kept."""
    viable = enumerate_viable(g)
    specials = data.draw(st.sets(st.sampled_from([math.inf, -math.inf, math.nan])))
    values = st.sampled_from([0.0, -0.0, 1.0, -1.0, *specials])
    table = sink_table(g.n, ((mask, data.draw(values)) for mask in viable))
    want = phi_or_error(lambda: all_masks_phi(g.n, dense_view(g.n, table).__getitem__))
    assert phi_or_error(lambda: shapley_exact(table, g.n)) == want


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
    inf - inf, and the ValueError of inf + -inf all come through the walk
    over the configurations of non-zero value as they come through the sum
    over every mask."""
    g = layered_graph([2, 2, 1])
    table = sink_table(g.n, [(g.full_mask, grand), (g.full_mask ^ 0b1000, other)])
    assert phi_or_error(lambda: all_masks_phi(g.n, dense_view(g.n, table).__getitem__)) == want
    assert phi_or_error(lambda: shapley_exact(table, g.n)) == want


def test_aggregation_holds_no_list_of_terms():
    """Aggregation streams its terms: on the table of the 29,791 viable
    masks of 5-5-5-1 its peak allocation stays under 320 KiB, where a list
    of one agent's terms alone would not, and phi is the all-masks sum to
    the last bit."""
    g = layered_graph([5, 5, 5, 1])
    rng = random.Random(18)
    viable = enumerate_viable(g)
    table = sink_table(
        g.n, ((mask, rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-2, 2)])) for mask in viable)
    )
    assert len(viable) == 29_791
    sink_bit = 1 << g.sink
    assert {"0x0.0p+0", "-0x0.0p+0"} <= {table[mask ^ sink_bit].hex() for mask in viable}
    tracemalloc.start()
    try:
        phi = shapley_exact(table, g.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 * 1024
    assert same_bits(phi, all_masks_phi(g.n, dense_view(g.n, table).__getitem__))


class CountingTable(list):
    """A table that counts its reads by index."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_aggregation_reads_three_entries_per_agent_and_non_zero_mask():
    """Each agent's walk reads at most three entries per configuration of
    non-zero value and none for a zero one, as a term is non-zero only where
    one of its two values is. On 5-5-5-1 with over 90% of the 29,791 viable
    values zero, it reads besides at most one pass over the 2**15 entries,
    to find the configurations of non-zero value."""
    g = layered_graph([5, 5, 5, 1])
    rng = random.Random(32)
    viable = enumerate_viable(g)
    values = sink_table(g.n, (
        (mask, rng.choice([1.0, -1.0, rng.uniform(-2, 2)] if rng.random() < 0.05 else [0.0, -0.0]))
        for mask in viable
    ))
    nonzero = sum(map(bool, values))
    assert 0 < nonzero <= len(viable) // 10
    want = all_masks_phi(g.n, dense_view(g.n, values).__getitem__)
    table = CountingTable(values)
    assert same_bits(shapley_exact(table, g.n), want)
    assert table.reads <= (1 << g.sink) + 3 * g.n * nonzero


def test_engines_reject_a_table_of_another_length():
    for length in (0, 3, 5, 8):
        with pytest.raises(ValueError, match=f"^the table has {length} entries, not 2\\*\\*2 = 4$"):
            shapley_exact([0.0] * length, 3)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_exact_engine_rejects_a_table_of_every_subset(n):
    """A table of all 2**n subsets is not a game of the coalitions holding
    the sink: it raises, rather than being read as one of twice as many
    agents' configurations."""
    message = f"^the table has {1 << n} entries, not 2\\*\\*{n - 1} = {1 << n - 1}$"
    with pytest.raises(ValueError, match=message):
        shapley_exact([1.0] * (1 << n), n)


def test_exact_engine_returns_only_the_contributions():
    """The aggregation is a function of the table alone: one float per
    agent, in index order. What valuing the table cost is the caller's."""
    phi = shapley_exact(sink_table(4, [(0b1111, 1.0)]), 4)
    assert type(phi) is tuple
    assert phi == (0.25, 0.25, 0.25, 0.25)


def test_engines_reject_oversized_inputs():
    with pytest.raises(GraphTooLarge, match="25 agents exceeds the limit of 24"):
        shapley_exact([], 25)
    with pytest.raises(InputError, match="need at least one agent"):
        shapley_exact([], 0)


# ---------------------------------------------------------------------------
# axioms


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_efficiency_on_random_games(n, seed):
    """The contributions sum to the grand coalition's value, the last
    configuration's."""
    rng = random.Random(seed)
    table = [rng.uniform(-5, 5) for _ in range(1 << n - 1)]
    assert abs(math.fsum(shapley_exact(table, n)) - table[-1]) < 1e-9


@given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_symmetry_on_cardinality_games(n, seed):
    """A game that only counts the heads of the coalitions holding the sink
    treats every other agent identically."""
    rng = random.Random(seed)
    by_size = [rng.randint(-9, 9) / rng.randint(1, 7) for _ in range(n)]
    table = [by_size[config.bit_count()] for config in range(1 << n - 1)]
    # Every such agent's terms are the same multiset, and fsum rounds them once.
    assert len(set(shapley_exact(table, n)[:-1])) == 1


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_null_player_gets_exact_zero(n, seed):
    rng = random.Random(seed)
    null_agent = rng.randrange(n - 1)
    strip = ~(1 << null_agent)
    by_base = {}
    for config in range(1 << n - 1):
        if config & strip not in by_base:
            by_base[config & strip] = rng.randint(-20, 20) / rng.randint(1, 9)
    game = [by_base[config & strip] for config in range(1 << n - 1)]
    # Each of the null agent's terms is w * (x - x) = 0.0.
    assert shapley_exact(game, n)[null_agent] == 0.0


def test_symmetric_pair_in_float_mode():
    table = [0.25, 1.75, 1.75, 3.5]
    phi = shapley_exact(table, 3)
    assert abs(phi[0] - phi[1]) < 1e-12


# ---------------------------------------------------------------------------
# the aggregation on random topologies


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
    table = sink_table(g.n, ((mask, rng.uniform(-2, 2)) for mask in viable))
    phi = shapley_exact(table, g.n)
    assert same_bits(phi, all_masks_phi(g.n, dense_view(g.n, table).__getitem__))
    assert abs(math.fsum(phi) - table[-1]) < 1e-9


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


def test_memoized_run_execution_counts(ref_graph, ref_viable, ref_plan, ref_runner):
    run = layered_run(ref_graph, ref_viable, ref_runner, FEATURES, plan=ref_plan)
    assert run.counters.agent_executions == 73
    assert len(run.cache) == 73
    grand = ref_graph.full_mask
    assert run.cache[(ref_graph.sink, grand & prefix_mask(ref_graph, 2))] == (
        sink_outputs(run)[ref_viable.index(grand)]
    )
    # upstream reads: layer 1 pulls 3 * (3 + 6 + 3) / ... = 36, layer 2 pulls
    # 84 across its 49 configurations, plus 49 sink-output reads = 169.
    assert run.counters.cache_hits == 169
    assert len(sink_outputs(run)) == 49


def test_layered_run_returns_the_grand_coalitions_outputs(
    ref_graph, ref_viable, ref_plan, ref_runner
):
    run = layered_run(ref_graph, ref_viable, ref_runner, FEATURES, plan=ref_plan)
    runner, calls = recording(ref_runner)
    replay = replay_coalition(ref_graph, ref_graph.full_mask, runner, episodes=[FEATURES])
    # The replay runs every agent once, in index order.
    assert [agent for agent, *_ in calls] == list(range(ref_graph.n))
    assert grand_outputs(ref_graph, run) == {agent: output for agent, _, _, output in calls}
    # The grand coalition's sink task is the sink's last, which the
    # backtest reads.
    assert run.outputs[ref_graph.sink][-1] == replay.sink_outputs[0]


def test_memoized_outputs_match_cache_free_replay(ref_graph, ref_viable, ref_plan, ref_runner):
    run = layered_run(ref_graph, ref_viable, ref_runner, FEATURES, plan=ref_plan)
    for mask, output in zip(ref_viable, sink_outputs(run), strict=True):
        replay = replay_coalition(ref_graph, mask, ref_runner, episodes=[FEATURES])
        assert output == replay.sink_outputs[0]


def test_agent_failure_is_wrapped(ref_graph, ref_viable, ref_plan):
    def broken(agent, upstream, external):
        raise ValueError("boom")

    with pytest.raises(ExecutorFailure):
        layered_run(ref_graph, ref_viable, broken, FEATURES, plan=ref_plan)


def test_executions_stay_inside_declared_configurations(ref_graph, ref_viable, ref_plan):
    """Every execution serves some viable coalition containing the agent,
    and inputs come only from declared predecessors inside its configuration."""
    seen = []

    def recorder(agent, upstream, external):
        seen.append((agent, frozenset(upstream)))
        return len(upstream)

    layered_run(ref_graph, ref_viable, recorder, FEATURES, plan=ref_plan)
    legal = set()
    for mask in ref_viable:
        for agent in (a for a in range(ref_graph.n) if mask >> a & 1):
            cfg = mask & prefix_mask(ref_graph, ref_graph.layer_of[agent])
            legal.add((agent, frozenset(p for p in ref_graph.preds[agent] if cfg >> p & 1)))
    assert set(seen) <= legal


# ---------------------------------------------------------------------------
# value tables from shared and unshared execution


def test_memoized_game_matches_replay_game(ref_graph, ref_viable, ref_runner):
    replay_values, replay_executions = replay_table(ref_graph, ref_runner)
    dag, executions = pruned_attribution(ref_graph, ref_viable, ref_runner)
    assert dag.values == shapley_exact(held_by_sink(replay_values, ref_graph.n), ref_graph.n)
    assert (executions, replay_executions) == (73, 448)


def test_replay_game_values_nonviable_as_zero(ref_graph, ref_viable, ref_runner):
    values, _ = replay_table(ref_graph, ref_runner)
    viable_masks = set(ref_viable)
    assert len(values) == 128
    assert values[0].hex() == values[0b11].hex() == "0x0.0p+0"
    assert all(values[mask] == 0.0 for mask in range(128) if mask not in viable_masks)


# ---------------------------------------------------------------------------
# the classical replay


def assert_replay_follows_the_brute_force_steps(g):
    """Engine ``both`` replays every subset that holds the sink, in mask
    order, by the steps the oracle derives one member at a time: past the
    pruned engine's runner calls, each call is one step's agent, handed its
    predecessors' outputs in the step's order, and the episode's data only
    at a source."""
    expected = [
        (agent, preds, FEATURES if source else None)
        for coalition in replay_steps_by_brute_force(g)[1 << g.sink:]
        for agent, preds, source in coalition
    ]
    runner = system_runner(build_system(g, seed=5))
    plan = live_plan(g, enumerate_viable(g))
    calls = []

    def recorder(agent, upstream, external):
        calls.append((agent, tuple(upstream), external))
        return runner(agent, upstream, external)

    game = backtest.evaluate_window(
        plan, recorder, [FEATURES], signed_decision_value, lambda scores: scores[0], "both"
    )
    assert calls[game.agent_executions:] == expected


@pytest.mark.parametrize("name", ["reference", "sparse-skip"])
def test_replay_follows_the_brute_force_steps(name):
    assert_replay_follows_the_brute_force_steps(named_graph(name))


@given(skip_layered_graphs())
@settings(max_examples=40, deadline=None)
def test_replay_follows_the_brute_force_steps_on_skip_graphs(g):
    assert_replay_follows_the_brute_force_steps(g)


def assert_sink_adds_only_its_own_calls(g):
    """For every subset S without the sink, replaying S with the sink added
    makes exactly the runner calls of replaying S, each with the same
    agent, upstream outputs, external data and output, in the same order,
    plus the sink's: so engine ``both``, which replays only the subsets
    that hold the sink, still makes every call a subset without it would."""
    runner = system_runner(build_system(g, seed=5))
    episodes = [FEATURES, OTHER_FEATURES]
    for mask in range(1 << g.sink):
        run, alone = recording(runner)
        replay_coalition(g, mask, run, episodes=episodes)
        run, with_sink = recording(runner)
        replay_coalition(g, mask | 1 << g.sink, run, episodes=episodes)
        assert [call for call in with_sink if call[0] != g.sink] == alone
        assert sum(call[0] == g.sink for call in with_sink) == len(episodes)


@pytest.mark.parametrize("name", ["reference", "sparse-skip"])
def test_sink_adds_only_its_own_calls(name):
    assert_sink_adds_only_its_own_calls(named_graph(name))


@given(skip_layered_graphs())
@settings(max_examples=40, deadline=None)
def test_sink_adds_only_its_own_calls_on_skip_graphs(g):
    assert_sink_adds_only_its_own_calls(g)


@pytest.mark.parametrize("mask", [-1, 1 << 7, 1 << 7 | 1])
def test_replay_rejects_a_mask_outside_the_graph(ref_graph, ref_runner, mask):
    runner, calls = recording(ref_runner)
    with pytest.raises(ValueError, match=f"^mask {mask} is not a coalition of 7 agents$"):
        replay_coalition(ref_graph, mask, runner, episodes=[FEATURES])
    assert calls == []


def test_replay_runs_each_episode_on_its_own_outputs(ref_graph, ref_runner):
    """One call replays the coalition once per episode, as separate
    one-episode calls do."""
    episodes = [FEATURES, OTHER_FEATURES, FEATURES]
    grand = ref_graph.full_mask
    runner, alone_calls = recording(ref_runner)
    alone = [replay_coalition(ref_graph, grand, runner, episodes=[e]) for e in episodes]
    runner, calls = recording(ref_runner)
    replay = replay_coalition(ref_graph, grand, runner, episodes=episodes)
    # Every call, its inputs and output included, is the one-episode call's.
    assert calls == alone_calls
    assert replay.sink_outputs == [r.sink_outputs[0] for r in alone]
    assert replay.executions == 3 * ref_graph.n
    assert replay.sink_outputs[0] != replay.sink_outputs[1]


def test_replay_refuses_a_mask_and_a_single_episode(ref_graph, ref_runner):
    """The episodes are a keyword list, so the call shape of a mask and one
    episode's data fails instead of replaying each field of the data as an
    episode."""
    with pytest.raises(TypeError):
        replay_coalition(ref_graph, ref_graph.full_mask, ref_runner, FEATURES)


def test_replay_failure_names_the_agent(ref_graph, ref_runner):
    """A runner that raises in any episode fails the replay, naming the agent."""
    def broken(agent, upstream, external):
        if external is OTHER_FEATURES:
            raise ValueError("boom")
        return ref_runner(agent, upstream, external)

    with pytest.raises(ExecutorFailure, match="^agent NAA failed$"):
        replay_coalition(
            ref_graph, ref_graph.full_mask, broken, episodes=[FEATURES, OTHER_FEATURES]
        )


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
        run = layered_run(g, viable, runner, FEATURES, plan=live_plan(g, viable))
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
    with pytest.raises(InputError, match="need at least one agent"):
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
    run = layered_run(g, viable, runner, FEATURES, plan=live_plan(g, viable))
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
    run = layered_run(g, viable, runner, FEATURES, plan=live_plan(g, viable))
    for mask, output in zip(viable, sink_outputs(run), strict=True):
        replay = replay_coalition(g, mask, runner, episodes=[FEATURES])
        assert output == replay.sink_outputs[0]
    table = sink_table(g.n, zip(viable, map(signed_decision_value, sink_outputs(run))))
    replay_values, _ = replay_table(g, runner)
    # The replay is worth 0.0 at every mask the pruned game leaves at 0.0,
    # so the two games give every bit of phi alike.
    assert [v.hex() for v in replay_values] == [v.hex() for v in dense_view(g.n, table)]
    pruned = shapley_exact(table, g.n)
    exact = shapley_exact(held_by_sink(replay_values, g.n), g.n)
    assert [v.hex() for v in pruned] == [v.hex() for v in exact]


def assert_upstream_is_the_live_keys_replay(g):
    """Each runner call of ``layered_run``, the agent of one task with its
    live key, gets exactly the agent's predecessors in the key, in the
    graph's order, each with the output a replay of the key and the agent
    hands it. An output is an id interned for its whole computation (agent,
    upstream items in order, data), so two outputs are equal only when they
    were computed alike."""
    ids = {}

    def interned(agent, upstream, external):
        return ids.setdefault((agent, tuple(upstream.items()), external), len(ids))

    calls = []

    def recorder(agent, upstream, external):
        calls.append((agent, tuple(upstream.items()), external))
        return interned(agent, upstream, external)

    viable = enumerate_viable(g)
    run = layered_run(g, viable, recorder, FEATURES, plan=live_plan(g, viable))
    tasks = [(agent, key) for agent, keys in enumerate(run.plan.keys) for key in keys]
    assert len(calls) == len(tasks)
    for call, (agent, key) in zip(calls, tasks):
        assert call[0] == agent
        assert [p for p, _ in call[1]] == [p for p in g.preds[agent] if key >> p & 1]
        replayed = []

        def replayer(a, upstream, external):
            if a == agent:
                replayed.append((a, tuple(upstream.items()), external))
            return interned(a, upstream, external)

        replay_coalition(g, key | 1 << agent, replayer, episodes=[FEATURES])
        assert replayed == [call]


@pytest.mark.parametrize("name", ["reference", "sparse-skip"])
def test_upstream_is_the_live_keys_replay(name):
    assert_upstream_is_the_live_keys_replay(named_graph(name))


@given(skip_layered_graphs())
@settings(max_examples=40, deadline=None)
def test_upstream_is_the_live_keys_replay_on_skip_graphs(g):
    assert_upstream_is_the_live_keys_replay(g)


@pytest.mark.parametrize("name,executions", [("reference", 73), ("sparse-skip", 27), ("wide", 104_820)])
def test_executions_per_episode_are_pinned(name, executions):
    """Runner calls per episode, and the predecessor outputs the runner is
    handed in all, which the plan counts from its live keys alone."""
    g = named_graph(name)
    reads = []
    runner, calls = counting(lambda agent, upstream, external: reads.append(len(upstream)))
    viable = enumerate_viable(g)
    run = layered_run(g, viable, runner, plan=live_plan(g, viable))
    assert len(calls) == run.counters.agent_executions == len(run.cache) == executions
    assert sum(reads) == run.plan.upstream_reads
    assert predicted_cost(g).total_executions == executions


def assert_sink_table_marks_the_viable_masks(g):
    """The sink, the last agent, has a task under each configuration of the
    other agents, 2**(n - 1) in all, exactly where that configuration with
    the sink is a viable mask; the other entries are -1. Every agent
    reaches the sink, so the grand coalition's sink key holds every other
    agent: the sink's largest key, and so its last task, which the
    backtest reads."""
    viable = enumerate_viable(g)
    plan = live_plan(g, viable)
    table = plan.task_tables[g.sink]
    sink_bit = 1 << g.sink
    assert g.sink == g.n - 1
    assert len(table) == sink_bit
    held = set(viable)
    assert [task >= 0 for task in table] == [c | sink_bit in held for c in range(sink_bit)]
    assert min(table) >= -1
    assert plan.keys[g.sink][-1] == sink_bit - 1
    assert table[-1] == len(plan.keys[g.sink]) - 1


@pytest.mark.parametrize("name", ["reference", "sparse-skip", "one-agent", "wide"])
def test_sink_table_marks_the_viable_masks(name):
    assert_sink_table_marks_the_viable_masks(named_graph(name))


@given(skip_layered_graphs())
@settings(max_examples=60, deadline=None)
def test_sink_table_marks_the_viable_masks_on_skip_graphs(g):
    assert_sink_table_marks_the_viable_masks(g)


def test_sink_table_reads_the_replayed_sink_outputs(ref_graph, ref_viable, ref_plan, ref_runner):
    run = layered_run(ref_graph, ref_viable, ref_runner, FEATURES, plan=ref_plan)
    table, row = run.plan.task_tables[ref_graph.sink], run.outputs[ref_graph.sink]
    for mask in ref_viable:
        replay = replay_coalition(ref_graph, mask, ref_runner, episodes=[FEATURES])
        assert row[table[mask & len(table) - 1]] == replay.sink_outputs[0]


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
        a: spec._replace(prompt=append_lessons(spec.prompt, [BOOST_TOKEN], cap=5))
        if changed >> a & 1
        else spec
        for a, spec in specs.items()
    }


def assert_matches_replay(g, run, runner):
    """Every viable sink output is the replayed one, and the pruned table's
    contributions equal the replayed table's to the last bit."""
    viable = run.plan.viable
    for mask, output in zip(viable, sink_outputs(run), strict=True):
        replay = replay_coalition(g, mask, runner, episodes=[FEATURES])
        assert output == replay.sink_outputs[0]
    table = sink_table(g.n, zip(viable, map(signed_decision_value, sink_outputs(run))))
    dag = shapley_exact(table, g.n)
    replay_values, _ = replay_table(g, runner)
    exact = shapley_exact(held_by_sink(replay_values, g.n), g.n)
    assert [v.hex() for v in dag] == [v.hex() for v in exact]


@given(skip_layered_graphs(), st.data())
@settings(max_examples=30, deadline=None)
def test_runner_calls_are_the_distinct_tasks_and_prompts(g, data):
    """A run reusing an earlier one calls the runner once per distinct
    (agent, live set, prompts of the agent and its live set) among its tasks
    that the earlier run's tasks lack, and no value changes."""
    viable = enumerate_viable(g)
    cost = predicted_cost(g)
    plan = live_plan(g, viable)
    assert plan.tasks == cost.total_executions
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
    assert sink_outputs(again) == sink_outputs(run)


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
    assert run.counters.agent_executions == len(calls) <= plan.tasks
    assert plan.tasks == predicted_cost(g).total_executions
    assert_matches_replay(g, run, after)


def test_outputs_need_not_be_hashable(ref_graph, ref_viable, ref_plan):
    """Reuse reads outputs by task and compares external data for equality,
    so neither needs to be hashable."""

    def listing(agent, upstream, external):
        return [agent, sorted(upstream)]

    external = {"closes": [100.0, 101.0]}
    first = layered_run(ref_graph, ref_viable, listing, external, plan=ref_plan)
    again = layered_run(
        ref_graph, ref_viable, listing, dict(external), plan=first.plan, reuse=(first, 0)
    )
    assert first.counters.agent_executions == 73
    assert again.counters.agent_executions == 0
    assert sink_outputs(again) == sink_outputs(first)


def test_prompt_states_decide_which_tasks_rerun(ref_graph, ref_viable, ref_runner):
    runner, calls = counting(ref_runner)
    plan = live_plan(ref_graph, ref_viable)
    first = layered_run(ref_graph, ref_viable, runner, FEATURES, plan=plan)
    # A changed prompt for one outlook reruns its 7 tasks and the 28 trader
    # tasks whose live key holds it. Outputs are never compared: those tasks
    # rerun although this runner ignores prompts.
    boa, sink = ref_graph.names.index("BOA"), ref_graph.sink
    assert sum(key >> boa & 1 for key in plan.keys[sink]) == 28
    run = layered_run(
        ref_graph, ref_viable, runner, FEATURES, plan=plan, reuse=(first, 1 << boa)
    )
    assert calls[73:] == [boa] * 7 + [sink] * 28
    assert run.counters.agent_executions == 35
    assert plan.tasks - run.counters.agent_executions == 38
    # A changed trader reruns its own 49 tasks only.
    trader = layered_run(
        ref_graph, ref_viable, runner, FEATURES, plan=plan, reuse=(run, 1 << sink)
    )
    assert calls[108:] == [sink] * 49
    assert sink_outputs(trader) == sink_outputs(first)


def test_agents_outside_every_mask_do_not_run(ref_graph, ref_viable, ref_runner):
    naa = ref_graph.names.index("NAA")
    without_naa = [mask for mask in ref_viable if not mask >> naa & 1]
    runner, calls = counting(ref_runner)
    plan = live_plan(ref_graph, without_naa)
    run = layered_run(ref_graph, without_naa, runner, FEATURES, plan=plan)
    assert naa not in calls
    assert len(calls) == run.counters.agent_executions == len(run.cache) == plan.tasks
    assert len(sink_outputs(run)) == len(without_naa) == 3 * 7


def test_layered_run_rejects_a_mask_outside_the_power_set(ref_graph, ref_runner):
    """A mask outside the power set fails as the run's plan is built,
    before any agent runs."""
    runner, calls = counting(ref_runner)
    for mask in (-1, 1 << ref_graph.n):
        with pytest.raises(ValueError, match=f"mask {mask} is outside \\[0, 2\\*\\*7\\)"):
            layered_run(ref_graph, [mask], runner, FEATURES, plan=live_plan(ref_graph, [mask]))
    assert not calls


def test_plan_and_reuse_must_match_the_masks(ref_graph, ref_viable, ref_plan, ref_runner):
    plan = live_plan(ref_graph, ref_viable[:-1])
    with pytest.raises(ValueError, match="plan was built for other viable masks"):
        layered_run(ref_graph, ref_viable, ref_runner, FEATURES, plan=plan)
    same = layered_run(ref_graph, list(ref_viable[:-1]), ref_runner, FEATURES, plan=plan)
    assert len(sink_outputs(same)) == 48
    full = layered_run(ref_graph, ref_viable, ref_runner, FEATURES, plan=ref_plan)
    with pytest.raises(ValueError, match="earlier run was built from another plan"):
        layered_run(
            ref_graph, ref_viable[:-1], ref_runner, FEATURES, plan=plan, reuse=(full, 0)
        )
    with pytest.raises(ValueError, match="earlier run was on other external data"):
        layered_run(
            ref_graph, ref_viable, ref_runner, OTHER_FEATURES, plan=full.plan, reuse=(full, 0)
        )


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
    """The plan retains and peaks at most the given MiB above its input.
    Measured on CPython 3.10-3.13: 0.28 and 0.58 MiB on fully connected
    5-5-5-1 (caps with about 30% headroom), 1.45 and 3.83 MiB on the wide
    graph (caps at 1.6 and 4.5 MiB). Per-task predecessor columns and a set
    of int keys took 0.92 and 3.46, and 4.17 and 11.21. The sink's table of
    one task per configuration retains 0.29 and 1.51 MiB on CPython 3.11."""
    cases = [
        (layered_graph([5, 5, 5, 1]), 34_756, 0.375, 0.75),
        (load_graph_file(WIDE_GRAPH), 104_820, 1.6, 4.5),
    ]
    for g, tasks, retained_mib, peak_mib in cases:
        viable = enumerate_viable(g)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            plan = live_plan(g, viable)
            retained, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert plan.tasks == tasks
        assert retained <= retained_mib * 2**20, g.n
        assert peak <= peak_mib * 2**20, g.n


# ---------------------------------------------------------------------------
# formatting


def test_format_attribution_lists_agents_and_total(ref_graph, ref_viable, ref_runner):
    """The contributions block prints each agent and the total, and no cost."""
    result, _ = pruned_attribution(ref_graph, ref_viable, ref_runner)
    lines = format_attribution(ref_graph, result).splitlines()
    assert lines[0] == "agent contributions:"
    assert [line.split()[0] for line in lines[1:]] == [*ref_graph.names, "total"]
    assert lines[-1] == f"  total    {result.total():+.10f}"


def test_format_replay_check_reports_reduction(ref_graph, ref_viable, ref_runner):
    _, replay_executions = replay_table(ref_graph, ref_runner)
    _, executions = pruned_attribution(ref_graph, ref_viable, ref_runner)
    text = format_replay_check(ref_graph, executions, replay_executions)
    assert text.splitlines() == [
        "cost (replay): agent_executions=448",
        "execution reduction: 83.7%",
        "all 2^7 = 128 subsets agreed",
    ]
    # The reduction is against the classical n * 2**(n-1), whatever the
    # replay's own runner calls were.
    assert format_replay_check(ref_graph, executions, 256).splitlines()[1:] == (
        text.splitlines()[1:]
    )
