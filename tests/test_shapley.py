"""Attribution engines, memoized execution, cost model, and axiom properties."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagcredit.agents import (
    BOOST_TOKEN,
    MarketFeatures,
    build_system,
    signed_decision_value,
    system_runner,
)
from dagcredit.coalitions import GraphTooLarge, enumerate_viable
from dagcredit.config import load_graph_file
from dagcredit.graph import build_graph, path_exists, reference_graph
from dagcredit.optimizer import append_lessons
from dagcredit.shapley import (
    CostCounters,
    ExecutionMemo,
    ExecutorFailure,
    InvalidSize,
    NonDeterminismDetected,
    TooManyAgents,
    classical_cost,
    format_attribution,
    format_attribution_table,
    layered_run,
    live_plan,
    predicted_cost,
    replay_coalition,
    shapley_dag,
    shapley_exact,
    shapley_weight,
)

from conftest import FEATURES, layered_graph, skip_layered_graphs
from test_golden import SPARSE_SKIP_GRAPH


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
    """An agent's upstream configuration is the coalition's membership in
    earlier layers."""
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
    assert run.counters.executions_reused == 0
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
    prefix = graph.prefix_masks[graph.layer_of[agent]]
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
    for mask in viable:
        assert run.sink_outputs[mask] == replay_coalition(g, mask, runner, FEATURES).sink_output
    values = {mask: signed_decision_value(out) for mask, out in run.sink_outputs.items()}
    dag = shapley_dag(g, values, run.counters)
    replay_values, replay_counters = replay_table(g, runner)
    exact = shapley_exact(replay_values, g.n, replay_counters)
    assert [v.hex() for v in dag.values] == [v.hex() for v in exact.values]


@pytest.mark.parametrize("name,executions", [("reference", 73), ("sparse-skip", 27), ("wide", 104_820)])
def test_executions_per_episode_are_pinned(name, executions):
    if name == "reference":
        g = reference_graph()
    elif name == "sparse-skip":
        g = build_graph(SPARSE_SKIP_GRAPH["layers"], SPARSE_SKIP_GRAPH["edges"])
    else:
        g = load_graph_file(Path(__file__).resolve().parents[1] / "benchmarks" / "wide_6661.json")
    runner, calls = counting(lambda agent, upstream, external: None)
    run = layered_run(g, enumerate_viable(g), runner)
    assert len(calls) == run.counters.agent_executions == len(run.cache) == executions
    assert predicted_cost(g).total_executions == executions


# ---------------------------------------------------------------------------
# reuse across episodes

OTHER_FEATURES = MarketFeatures(
    sentiment=-0.3,
    fundamental=0.5,
    closes=(100.0, 99.0, 99.5, 98.0, 97.0, 97.5, 96.0, 95.0),
)


@given(skip_layered_graphs(), st.data())
@settings(max_examples=30, deadline=None)
def test_runner_calls_are_the_distinct_tasks_and_prompts(g, data):
    """With one memo over several episodes, the runner runs once per distinct
    (external data, agent, live set, prompts of the agent and its live set)
    among the episodes' tasks, and no value changes."""
    viable = enumerate_viable(g)
    cost = predicted_cost(g)
    plan = live_plan(g, viable)
    frozen = build_system(g, seed=11)
    tuned = dict(frozen)
    agent = data.draw(st.integers(0, g.n - 1), label="tuned agent")
    tuned[agent] = dataclasses.replace(
        frozen[agent], prompt=append_lessons(frozen[agent].prompt, [BOOST_TOKEN])
    )
    sets = [live_sets(g, viable, a) for a in range(g.n)]
    memo = ExecutionMemo()
    seen = set()
    runner_calls = 0
    episodes = [(tuned, FEATURES), (tuned, OTHER_FEATURES), (frozen, FEATURES), (tuned, FEATURES)]
    for specs, external in episodes:
        prompts = [specs[a].prompt for a in range(g.n)]
        runner = system_runner(specs)
        run = layered_run(
            g, viable, runner, external, plan=plan, memo=memo, prompts=prompts
        )
        runner_calls += run.counters.agent_executions
        assert run.counters.agent_executions + run.counters.executions_reused == (
            cost.total_executions
        )
        seen |= {
            (external, a, live, tuple(prompts[m] for m in sorted(live | {a})))
            for a in range(g.n)
            for live in sets[a]
        }
        assert runner_calls == len(seen)

        replay_values = {}
        for mask in range(1 << g.n):
            replay = replay_coalition(g, mask, runner, external)
            if replay.sink_output is not None:
                replay_values[mask] = signed_decision_value(replay.sink_output)
            if mask in run.sink_outputs:
                assert run.sink_outputs[mask] == replay.sink_output
        values = {mask: signed_decision_value(out) for mask, out in run.sink_outputs.items()}
        dag = shapley_dag(g, values, run.counters)
        exact = shapley_exact(replay_values, g.n, CostCounters())
        assert [v.hex() for v in dag.values] == [v.hex() for v in exact.values]
    # The last episode repeats the first.
    assert run.counters.agent_executions == 0


def test_outputs_need_not_be_hashable(ref_graph, ref_viable):
    def listing(agent, upstream, external):
        return [agent, sorted(upstream)]

    memo = ExecutionMemo()
    first = layered_run(ref_graph, ref_viable, listing, FEATURES, memo=memo)
    again = layered_run(ref_graph, ref_viable, listing, FEATURES, memo=memo)
    assert first.counters.agent_executions == 73
    assert again.counters.agent_executions == 0
    assert again.sink_outputs == first.sink_outputs


def test_determinism_check_reruns_the_last_task_that_ran(ref_graph, ref_viable, ref_runner):
    runner, calls = counting(ref_runner)
    memo = ExecutionMemo()
    run = layered_run(ref_graph, ref_viable, runner, FEATURES, memo=memo, verify_determinism=True)
    assert len(calls) == run.counters.agent_executions + 1 == 74
    assert calls[-1] == calls[-2] == ref_graph.sink
    # With every task already in the memo nothing runs, and nothing is rerun.
    again = layered_run(
        ref_graph, ref_viable, runner, FEATURES, memo=memo, verify_determinism=True
    )
    assert again.counters.agent_executions == 0
    assert len(calls) == 74
    assert again.sink_outputs == run.sink_outputs


def test_prompt_states_decide_which_tasks_rerun(ref_graph, ref_viable, ref_runner):
    runner, calls = counting(ref_runner)
    memo = ExecutionMemo()
    plan = live_plan(ref_graph, ref_viable)
    prompts = ["v1"] * ref_graph.n
    layered_run(ref_graph, ref_viable, runner, FEATURES, plan=plan, memo=memo, prompts=prompts)
    # A new prompt for one outlook reruns its 7 tasks and the 28 trader tasks
    # whose live key holds it. Outputs are never compared: those tasks rerun
    # although this runner ignores prompts.
    boa, sink = ref_graph.index_of("BOA"), ref_graph.sink
    assert sum(key >> boa & 1 for key in plan.keys[sink]) == 28
    prompts[boa] = "v2"
    run = layered_run(
        ref_graph, ref_viable, runner, FEATURES, plan=plan, memo=memo, prompts=prompts
    )
    assert calls[73:] == [boa] * 7 + [sink] * 28
    assert run.counters.agent_executions == 35
    assert run.counters.executions_reused == 38
    # A different external day shares nothing.
    other = layered_run(
        ref_graph, ref_viable, runner, OTHER_FEATURES, plan=plan, memo=memo, prompts=prompts
    )
    assert other.counters.agent_executions == 73
    # Back to the first prompts, the first episode serves every task.
    prompts[boa] = "v1"
    back = layered_run(
        ref_graph, ref_viable, runner, FEATURES, plan=plan, memo=memo, prompts=prompts
    )
    assert back.counters.agent_executions == 0


def test_agents_outside_every_mask_do_not_run(ref_graph, ref_viable, ref_runner):
    naa = ref_graph.index_of("NAA")
    without_naa = [mask for mask in ref_viable if not mask >> naa & 1]
    runner, calls = counting(ref_runner)
    run = layered_run(ref_graph, without_naa, runner, FEATURES)
    assert naa not in calls
    assert len(calls) == run.counters.agent_executions == len(run.cache)
    assert run.counters.executions_reused == 0
    assert len(run.sink_outputs) == len(without_naa) == 3 * 7


def test_plan_and_memo_must_match_the_masks(ref_graph, ref_viable, ref_runner):
    plan = live_plan(ref_graph, ref_viable[:-1])
    with pytest.raises(ValueError, match="plan was built for other viable masks"):
        layered_run(ref_graph, ref_viable, ref_runner, FEATURES, plan=plan)
    same = layered_run(ref_graph, list(ref_viable[:-1]), ref_runner, FEATURES, plan=plan)
    assert len(same.sink_outputs) == 48
    memo = ExecutionMemo()
    layered_run(ref_graph, ref_viable, ref_runner, FEATURES, memo=memo)
    with pytest.raises(ValueError, match="memo holds tasks of other viable masks"):
        layered_run(ref_graph, ref_viable[:-1], ref_runner, FEATURES, plan=plan, memo=memo)


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
    results = {
        "dag": shapley_dag(ref_graph, *memo_table(ref_graph, ref_viable, ref_runner)),
        "exact": shapley_exact(replay_values, ref_graph.n, replay_counters),
    }
    text = format_attribution_table(ref_graph, results)
    assert "execution reduction: 83.7%" in text
    assert "TRA" in text
