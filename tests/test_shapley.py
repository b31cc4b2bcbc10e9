"""Attribution engines, memoized execution, cost model, and axiom properties."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagcredit.agents import build_system, signed_decision_value, system_runner
from dagcredit.coalitions import enumerate_viable
from dagcredit.graph import build_graph, reference_graph
from dagcredit.shapley import (
    CostCounters,
    ExecutorFailure,
    InvalidSize,
    NonDeterminismDetected,
    TooManyAgents,
    classical_cost,
    format_attribution,
    format_attribution_table,
    layered_run,
    predicted_cost,
    replay_coalition,
    shapley_dag,
    shapley_exact,
    shapley_weight,
)

from conftest import FEATURES, layered_graph


def memo_table(graph, viable, runner):
    """Signed sink decisions of the viable coalitions from one shared episode."""
    run = layered_run(graph, viable, runner, FEATURES)
    values = {mask: signed_decision_value(out) for mask, out in run.sink_outputs.items()}
    return values, run.counters


def replay_table(graph, runner):
    """Signed sink decisions of every subset, each replayed without sharing;
    subsets whose sink never runs are left out (worth zero)."""
    values, counters = {}, CostCounters()
    for mask in range(1 << graph.n):
        replay = replay_coalition(graph, mask, runner, FEATURES)
        counters.agent_executions += replay.executions
        if replay.sink_output is not None:
            values[mask] = signed_decision_value(replay.sink_output)
    return values, counters


# ---------------------------------------------------------------------------
# weights


def test_weight_endpoints():
    assert shapley_weight(0, 4) == Fraction(1, 4)
    assert shapley_weight(3, 4) == Fraction(1, 4)
    assert shapley_weight(1, 3) == Fraction(1, 6)


@pytest.mark.parametrize("n", range(1, 13))
def test_weights_sum_to_one_exactly(n):
    total = sum(
        math.comb(n - 1, s) * shapley_weight(s, n) for s in range(n)
    )
    assert total == Fraction(1)


def test_weight_rejects_bad_sizes():
    with pytest.raises(InvalidSize):
        shapley_weight(-1, 3)
    with pytest.raises(InvalidSize):
        shapley_weight(3, 3)
    with pytest.raises(InvalidSize):
        shapley_weight(0, 0)


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
    result = shapley_exact(table, n, CostCounters(), exact_arith=True)
    assert list(result.values) == [float(v) for v in oracle]
    floats = shapley_exact({m: float(v) for m, v in table.items()}, n, CostCounters())
    for got, want in zip(floats.values, oracle):
        assert abs(got - float(want)) < 1e-9


def all_masks_phi(n, value_of, exact_arith):
    """Aggregation over all 2**n subsets, as the engine did it before it
    looped over table entries only; the oracle for bit-identity."""
    weights = [shapley_weight(s, n) for s in range(n)]
    if exact_arith:
        phi = []
        for i in range(n):
            bit = 1 << i
            acc = Fraction(0)
            for mask in range(1 << n):
                if mask & bit:
                    continue
                marginal = Fraction(value_of(mask | bit)) - Fraction(value_of(mask))
                acc += weights[mask.bit_count()] * marginal
            phi.append(float(acc))
        return phi
    wf = [float(w) for w in weights]
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
def sparse_tables(draw):
    """A size n and a table over some of its 2**n masks; absent masks are
    worth zero, and present ones may hold 0.0 or -0.0."""
    n = draw(st.integers(1, 6))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    table = draw(st.dictionaries(st.integers(0, (1 << n) - 1), value))
    return n, table


def same_bits(got, want):
    return list(got) == list(want) and [x.hex() for x in got] == [x.hex() for x in want]


@given(sparse_tables(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_table_aggregation_is_bit_identical_to_all_masks(case, exact_arith):
    n, table = case
    want = all_masks_phi(n, lambda mask: table.get(mask, 0.0), exact_arith)
    exact = shapley_exact(table, n, CostCounters(), exact_arith=exact_arith)
    assert same_bits(exact.values, want)
    if not exact_arith:
        g = layered_graph([n - 1, 1]) if n > 1 else build_graph([["solo"]], [])
        assert same_bits(shapley_dag(g, table, CostCounters()).values, want)


def test_exact_engine_counts_evaluations():
    work = CostCounters(agent_executions=5, cache_hits=2)
    result = shapley_exact({0b1111: 1.0}, 4, work)
    assert result.counters == CostCounters(16, 5, 2)
    assert work == CostCounters(0, 5, 2)


def test_engines_reject_oversized_inputs():
    with pytest.raises(TooManyAgents):
        shapley_exact({}, 25, CostCounters())
    with pytest.raises(InvalidSize):
        shapley_exact({}, 0, CostCounters())


# ---------------------------------------------------------------------------
# axioms


@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_efficiency_on_random_games(n, seed):
    rng = random.Random(seed)
    table = {mask: rng.uniform(-5, 5) for mask in range(1, 1 << n)}
    result = shapley_exact(table, n, CostCounters())
    assert abs(result.total() - table[(1 << n) - 1]) < 1e-9


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_symmetry_on_cardinality_games(n, seed):
    """A game that only counts heads treats every agent identically."""
    rng = random.Random(seed)
    by_size = [Fraction(0)] + [
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)
    ]
    table = {mask: by_size[mask.bit_count()] for mask in range(1 << n)}
    result = shapley_exact(table, n, CostCounters(), exact_arith=True)
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
            table[base] = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        table[mask] = table[base]
    table[0] = Fraction(0)
    game = {mask: table[mask & strip] for mask in range(1 << n)}
    result = shapley_exact(game, n, CostCounters(), exact_arith=True)
    assert result.values[null_agent] == 0


def test_symmetric_pair_in_float_mode():
    table = {0: 0.0, 0b001: 1.5, 0b010: 1.5, 0b100: 0.25,
             0b011: 2.0, 0b101: 1.75, 0b110: 1.75, 0b111: 3.5}
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
    table = {mask: rng.uniform(-2, 2) for mask in viable}
    dag = shapley_dag(g, table, CostCounters())
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
    with pytest.raises(TooManyAgents):
        shapley_dag(g, {}, CostCounters())


# ---------------------------------------------------------------------------
# upstream configurations


def test_upstream_configuration_masks():
    """A layer's memo key is the coalition's membership in earlier layers."""
    g = reference_graph()
    mask = 0b1010101  # agents 0, 2, 4 and 6
    assert [mask & g.prefix_masks[layer] for layer in range(3)] == [
        0, 0b101, 0b10101,
    ]


# ---------------------------------------------------------------------------
# layered memoized execution


def test_memoized_run_execution_counts(ref_graph, ref_viable, ref_runner):
    run = layered_run(ref_graph, ref_viable, ref_runner, FEATURES)
    assert run.counters.agent_executions == 73
    assert len(run.cache) == 73
    grand = ref_graph.full_mask
    assert run.cache[(ref_graph.sink, grand & ref_graph.prefix_masks[2])] == (
        run.sink_outputs[grand]
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
    for mask in ref_viable:
        replay = replay_coalition(ref_graph, mask, ref_runner, FEATURES)
        assert run.sink_outputs[mask] == replay.sink_output


def test_determinism_verification_passes_for_pure_agents(ref_graph, ref_viable, ref_runner):
    run = layered_run(
        ref_graph, ref_viable, ref_runner, FEATURES, verify_determinism=True
    )
    assert run.counters.agent_executions == 73


def test_determinism_verification_catches_impure_agents(ref_graph, ref_viable):
    ticks = itertools.count()

    def flaky(agent, upstream, external):
        return next(ticks)

    with pytest.raises(NonDeterminismDetected):
        layered_run(
            ref_graph, ref_viable, flaky, FEATURES, verify_determinism=True
        )


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
            cfg = mask & ref_graph.prefix_masks[ref_graph.layer_of[agent]]
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
    assert 0 not in values
    assert 0b11 not in values
    assert all(values.get(mask, 0.0) == 0.0 for mask in range(128) if mask not in viable_masks)


# ---------------------------------------------------------------------------
# cost model


def test_predicted_cost_reference_values():
    cost = predicted_cost([3, 3, 1])
    assert cost.unique_configs == (1, 7, 49)
    assert cost.total_executions == 73
    assert cost.viable_coalitions == 49


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
    cost = predicted_cost(sizes)
    assert cost.unique_configs == configs
    assert cost.total_executions == total
    assert cost.viable_coalitions == viable


def test_predicted_cost_rejects_bad_shapes():
    with pytest.raises(InvalidSize):
        predicted_cost([])
    with pytest.raises(InvalidSize):
        predicted_cost([3, 0, 1])
    with pytest.raises(InvalidSize):
        predicted_cost([2, 1], mandatory=[True])


def test_predicted_cost_matches_measured_counter():
    for sizes in ([2, 2, 1], [3, 3, 1]):
        g = layered_graph(sizes)
        viable = enumerate_viable(g)
        runner = system_runner(build_system(g, seed=5))
        run = layered_run(g, viable, runner, FEATURES)
        cost = predicted_cost(sizes)
        assert run.counters.agent_executions == cost.total_executions
        assert len(viable) == cost.viable_coalitions


def test_classical_cost_values():
    assert classical_cost(7) == (128, 448)
    assert classical_cost(1) == (2, 1)
    assert classical_cost(3) == (8, 12)
    with pytest.raises(InvalidSize):
        classical_cost(0)


def test_reference_execution_reduction_fraction():
    memoized = predicted_cost([3, 3, 1]).total_executions
    _, classical = classical_cost(7)
    reduction = 1 - memoized / classical
    assert abs(reduction - 0.837) < 0.0005


# ---------------------------------------------------------------------------
# formatting


def test_format_attribution_lists_agents_and_cost(ref_graph, ref_viable, ref_runner):
    result = shapley_dag(ref_graph, *memo_table(ref_graph, ref_viable, ref_runner))
    text = format_attribution(ref_graph, result)
    for name in ref_graph.names:
        assert name in text
    assert "agent_executions=73" in text


def test_format_attribution_table_reports_reduction(ref_graph, ref_viable, ref_runner):
    replay_values, replay_counters = replay_table(ref_graph, ref_runner)
    results = {
        "dag": shapley_dag(ref_graph, *memo_table(ref_graph, ref_viable, ref_runner)),
        "exact": shapley_exact(replay_values, ref_graph.n, replay_counters),
    }
    text = format_attribution_table(ref_graph, results)
    assert "execution reduction: 83.7%" in text
    assert "TRA" in text
