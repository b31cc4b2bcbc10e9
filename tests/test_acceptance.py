"""Acceptance gate: one test per shipping criterion, budgets enforced.

Each test prints a single PASS line (visible with -s); under plain -v the
per-test PASSED/FAILED entry is the per-criterion verdict.
"""

import filecmp
import math
import random
import time
from fractions import Fraction

import pytest

from dagcredit.agents import (
    AgentSpec,
    ForbiddenExternalAccess,
    MissingExternalData,
    PromptState,
    Role,
    build_system,
    system_runner,
)
from dagcredit.backtest import (
    build_equity,
    day_windows,
    decision_to_position,
    evaluate_window,
    max_drawdown,
    run_backtest,
    sharpe,
    sharpe_value,
    synthesize_market,
    write_reports,
    _window_report_text,
)
from dagcredit.cli import main
from dagcredit.coalitions import enumerate_viable
from dagcredit.config import RunConfig
from dagcredit.graph import reference_graph
from dagcredit.shapley import (
    classical_cost,
    layered_run,
    live_plan,
    predicted_cost,
    replay_coalition,
    shapley_exact,
    _weights,
)

from conftest import dense_view, layered_graph, prefix_mask, report_rows, sink_table
from golden_runs import FEATURES
from test_shapley import all_masks_phi, closed_form_cost, random_layered


def report(criterion, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {criterion} PASS ({elapsed:.2f}s < {budget}s): {detail}")


def test_criterion_1_coalition_pruning_counts(capsys):
    start = time.perf_counter()
    g = reference_graph()
    viable = len(enumerate_viable(g))
    assert 1 << g.n == 128
    assert viable == 49
    assert round(100.0 * (1.0 - viable / 128), 1) == 61.7
    assert main(["coalitions"]) == 0
    out = capsys.readouterr().out
    assert "49/128 viable (61.7% pruned)" in out
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(1, elapsed, 1.0, "128 total / 49 viable / 61.7% pruned")


def test_criterion_2_execution_count_reproduction():
    start = time.perf_counter()
    g = reference_graph()
    viable = enumerate_viable(g)
    runner = system_runner(build_system(g, seed=42))
    run = layered_run(g, viable, runner, FEATURES, plan=live_plan(g, viable))
    assert run.counters.agent_executions == 73
    assert 1 * 3 + 7 * 3 + 49 * 1 == 73
    assert classical_cost(7) == (128, 448)
    reduction_pp = 100.0 * (1.0 - 73 / 448)
    assert abs(reduction_pp - 83.7) < 0.05
    elapsed = time.perf_counter() - start
    report(2, elapsed, 1.0, f"73 memoized executions, reduction {reduction_pp:.2f}%")


def test_criterion_3_attribution_equivalence():
    start = time.perf_counter()
    games = 0
    worst_diff = 0.0
    worst_eff = 0.0
    for seed in range(24):
        rng = random.Random(4000 + seed)
        g = random_layered(rng, 3 + seed % 8)
        viable = enumerate_viable(g)
        table = sink_table(g.n, ((mask, rng.uniform(-2.0, 2.0)) for mask in viable))
        phi = shapley_exact(table, g.n)
        oracle = all_masks_phi(g.n, dense_view(g.n, table).__getitem__)
        worst_diff = max(worst_diff, max(abs(a - b) for a, b in zip(phi, oracle)))
        # The grand coalition's value, at the last configuration.
        worst_eff = max(worst_eff, abs(math.fsum(phi) - table[-1]))
        games += 1
    assert games >= 20
    assert worst_diff < 1e-9
    assert worst_eff < 1e-9
    elapsed = time.perf_counter() - start
    report(
        3, elapsed, 30.0,
        f"{games} games, max diff from the all-masks sum {worst_diff:.2e}, "
        f"efficiency gap {worst_eff:.2e}",
    )


def test_criterion_4_shapley_axioms():
    start = time.perf_counter()
    # efficiency on seeded float games, worth something only with the sink
    for seed in range(6):
        rng = random.Random(seed)
        n = 3 + seed % 4
        table = [rng.uniform(-5, 5) for _ in range(1 << n - 1)]
        phi = shapley_exact(table, n)
        assert abs(math.fsum(phi) - table[-1]) < 1e-9
    # symmetry: games that count the heads of the coalitions holding the
    # sink value every other agent identically
    for n in (3, 5):
        by_size = [(k + 1) / 3 for k in range(n)]
        table = [by_size[config.bit_count()] for config in range(1 << n - 1)]
        assert len(set(shapley_exact(table, n)[:-1])) == 1
    # null player: ignored agent gets exactly zero
    rng = random.Random(99)
    n, null_agent = 5, 2
    strip = ~(1 << null_agent)
    cache = {}
    for config in range(1 << n - 1):
        cache.setdefault(config & strip, rng.randint(-9, 9) / 4)
    table = [cache[config & strip] for config in range(1 << n - 1)]
    assert shapley_exact(table, n)[null_agent] == 0.0
    # the weights sum to one for every agent count, and the engine's are
    # those rationals rounded once
    for n in range(1, 13):
        exact = [
            Fraction(math.factorial(s) * math.factorial(n - s - 1), math.factorial(n))
            for s in range(n)
        ]
        assert sum(math.comb(n - 1, s) * w for s, w in enumerate(exact)) == 1
        assert _weights(n) == tuple(map(float, exact))
    elapsed = time.perf_counter() - start
    report(4, elapsed, 5.0, "efficiency, symmetry, null player, weight sums")


def test_criterion_5_predicted_vs_measured_cost():
    start = time.perf_counter()
    topologies = [[3, 3, 1], [2, 2, 1], [4, 2, 1], [3, 4, 1], [2, 1], [1]]
    measured = {}
    for sizes in topologies:
        g = layered_graph(sizes)
        viable = enumerate_viable(g)
        runner = system_runner(build_system(g, seed=9))
        run = layered_run(g, viable, runner, FEATURES, plan=live_plan(g, viable))
        predicted = predicted_cost(g)
        assert run.counters.agent_executions == predicted.total_executions
        assert len(viable) == predicted.viable_coalitions
        assert predicted.layer_executions == closed_form_cost(sizes)[0]
        measured[tuple(sizes)] = run.counters.agent_executions
    assert measured[(2, 2, 1)] == 17
    assert measured[(4, 2, 1)] == 79
    assert measured[(3, 3, 1)] == 73
    elapsed = time.perf_counter() - start
    report(5, elapsed, 5.0, f"{len(topologies)} topologies, all counters exact")


def test_criterion_6_tuning_loop_behavior(tmp_path):
    start = time.perf_counter()
    # this seed leaves window 0 untriggered, so the agreement check below
    # covers a window that runs after the loop had its first chance to tune
    config = RunConfig(seed=19, days=60, threshold=-0.05).validate()
    result = run_backtest(config)
    g = result.graph
    assert not result.cycles[0].triggered
    assert any(c.triggered for c in result.cycles)

    # (a) at most one version increments per window, (b) only when triggered
    previous = (1,) * g.n
    for cycle in result.cycles:
        bumps = [
            agent for agent in range(g.n)
            if cycle.prompt_versions[agent] != previous[agent]
        ]
        for agent in bumps:
            assert cycle.prompt_versions[agent] == previous[agent] + 1
        assert len(bumps) <= 1
        if cycle.triggered:
            assert bumps == [cycle.bottleneck]
        else:
            assert bumps == []
        previous = cycle.prompt_versions

    # (c) frozen and tuned passes agree through the first triggered window,
    # where the frozen pass takes every output from the tuned pass's runs
    first = next(i for i, c in enumerate(result.cycles) if c.triggered)
    rows = report_rows(result.plan)
    for w in range(first + 1):
        tuned, frozen = result.windows[w], result.frozen_windows[w]
        assert frozen.agent_executions == 0
        assert result.plan.tasks * len(frozen.returns) - frozen.agent_executions == 4 * 73
        assert _window_report_text(result, tuned, rows) == _window_report_text(
            result, frozen, rows
        )

    # (d) reruns are byte-identical on disk
    again = run_backtest(config)
    write_reports(result, tmp_path / "a")
    write_reports(again, tmp_path / "b")

    def assert_identical(node):
        assert not node.diff_files and not node.left_only and not node.right_only
        for child in node.subdirs.values():
            assert_identical(child)

    assert_identical(filecmp.dircmp(tmp_path / "a", tmp_path / "b"))
    elapsed = time.perf_counter() - start
    triggered = sum(1 for c in result.cycles if c.triggered)
    report(
        6, elapsed, 60.0,
        f"{len(result.windows)} windows, {triggered} triggered, "
        f"first trigger at cycle {first}, reruns byte-identical",
    )


def test_criterion_7_metric_correctness():
    start = time.perf_counter()
    assert max_drawdown([1.0, 1.2, 0.9, 1.1]) == 0.25
    assert abs(sharpe([0.02, 0.00]) - 0.70711) < 1e-4
    assert sharpe([0.03, 0.03, 0.03]) == 0.0
    rng = random.Random(1)
    for _ in range(50):
        returns = [rng.uniform(-0.05, 0.05) for _ in range(rng.randint(2, 30))]
        equity = build_equity(returns)
        product = 1.0
        for r in returns:
            product *= 1.0 + r
        assert abs(equity[-1] - product) < 1e-12
    elapsed = time.perf_counter() - start
    report(7, elapsed, 1.0, "drawdown 0.25, sharpe 0.70711, compounding 1e-12")


def test_criterion_8_information_flow_enforcement():
    start = time.perf_counter()
    g = reference_graph()
    specs = build_system(g, seed=42)

    # negative tests: externals may only reach sources, sources need them
    base = system_runner(specs)
    assert not specs[3].is_source
    with pytest.raises(ForbiddenExternalAccess):
        base(3, {}, FEATURES)
    with pytest.raises(ForbiddenExternalAccess):
        base(g.sink, {}, FEATURES)
    with pytest.raises(MissingExternalData):
        base(0, {}, None)

    # instrumented full backtest: both engines, every window, every coalition
    market = synthesize_market(seed=42, days=30, regime="bull")
    viable = enumerate_viable(g)

    legal = set()
    for mask in viable:
        for agent in (a for a in range(g.n) if mask >> a & 1):
            cfg = mask & prefix_mask(g, g.layer_of[agent])
            legal.add((agent, frozenset(p for p in g.preds[agent] if cfg >> p & 1)))

    replay_calls = []
    memo_calls = []

    def recorder(agent, upstream, external):
        recorder.sink.append((agent, frozenset(upstream)))
        return base(agent, upstream, external)

    windows = day_windows(len(market.days), 5)
    for day_indices in windows:
        recorder.sink = memo_calls
        decision_days = day_indices[:-1]
        evaluate_window(
            live_plan(g, viable),
            recorder,
            [market.for_day(day) for day in decision_days],
            decision_to_position,
            sharpe_value([market.step_return(day) for day in decision_days]),
        )
        for day in day_indices[:-1]:
            for mask in range(1 << g.n):
                recorder.sink = replay_calls
                coalition = {a for a in range(g.n) if mask >> a & 1}
                before = len(replay_calls)
                replay_coalition(
                    g, mask, recorder, episodes=[market.for_day(day)]
                )
                invoked = {agent for agent, _ in replay_calls[before:]}
                assert invoked <= coalition

    assert set(memo_calls) <= legal
    for agent, upstream in replay_calls:
        assert upstream <= set(g.preds[agent])
    elapsed = time.perf_counter() - start
    report(
        8, elapsed, 10.0,
        f"{len(memo_calls)} shared and {len(replay_calls)} replay executions, "
        "all inside coalition bounds",
    )
