"""Data loading, metrics, windowed coalition games, and the full backtest."""

import json
import math
import statistics
import sys
import tracemalloc
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagcredit import backtest
from dagcredit.agents import (
    DAMP_TOKEN,
    DEFAULT_BASE_PROMPTS,
    Decision,
    Role,
    TradeDecision,
    build_system,
    signed_decision_value,
    system_runner,
)
from dagcredit.backtest import (
    STRATEGY_BUY_HOLD,
    STRATEGY_FROZEN,
    STRATEGY_MACD,
    STRATEGY_SMA,
    STRATEGY_TUNED,
    DuplicateDate,
    EnginesDisagree,
    InsufficientData,
    NonPositivePrice,
    ParseError,
    TooFewReturns,
    UnsortedDates,
    annualized_sharpe,
    build_equity,
    day_windows,
    decision_to_position,
    evaluate_window,
    load_features_csv,
    load_market_csv,
    macd_positions,
    max_drawdown,
    run_backtest,
    sharpe,
    sharpe_value,
    sma_positions,
    synthesize_market,
    total_return,
    _window_report_text,
)
from dagcredit.coalitions import enumerate_viable
from dagcredit.cli import main
from dagcredit.config import ConfigError, RunConfig
from dagcredit.graph import build_graph, reference_graph
from dagcredit.shapley import live_plan, replay_coalition, shapley_dag, shapley_exact

from conftest import layered_graph, swapped_trader
from golden_runs import SPARSE_SKIP_GRAPH

returns_lists = st.lists(
    st.floats(min_value=-0.2, max_value=0.2, allow_nan=False), min_size=2, max_size=40
)


MARKET_CSV = """date,open,high,low,close,volume
2024-01-02,100,101,99,100,1000
2024-01-03,100,112,99,110,1000
2024-01-04,110,111,98,99,1500
"""

FEATURES_CSV = """date,sentiment,fundamental
2024-01-02,0.5,0.1
2024-01-03,-0.2,0.0
2024-01-04,0.1,-0.3
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# loaders


def test_load_market_csv_happy_path(tmp_path):
    market = load_market_csv(write(tmp_path, "m.csv", MARKET_CSV), symbol="TEST")
    assert market.symbol == "TEST"
    assert len(market) == 3
    assert market.closes == (100.0, 110.0, 99.0)
    assert market.days[0] == date(2024, 1, 2)
    assert market.step_return(0) == pytest.approx(0.10)
    assert market.step_return(1) == pytest.approx(-0.10)


def test_load_market_csv_rejects_bad_header(tmp_path):
    path = write(tmp_path, "m.csv", "date,open,close\n2024-01-02,1,1\n")
    with pytest.raises(ParseError):
        load_market_csv(path)


def test_load_market_csv_rejects_bad_number(tmp_path):
    bad = MARKET_CSV.replace("110,1000", "abc,1000")
    with pytest.raises(ParseError):
        load_market_csv(write(tmp_path, "m.csv", bad))


def test_load_market_csv_rejects_nonpositive_price(tmp_path):
    bad = MARKET_CSV.replace("2024-01-03,100,112,99,110,1000", "2024-01-03,100,112,0,110,1000")
    with pytest.raises(NonPositivePrice):
        load_market_csv(write(tmp_path, "m.csv", bad))


def test_load_market_csv_rejects_duplicate_date(tmp_path):
    bad = MARKET_CSV.replace("2024-01-03", "2024-01-02", 1)
    with pytest.raises(DuplicateDate):
        load_market_csv(write(tmp_path, "m.csv", bad))


def test_load_market_csv_rejects_unsorted_dates(tmp_path):
    bad = MARKET_CSV.replace("2024-01-04", "2024-01-01")
    with pytest.raises(UnsortedDates):
        load_market_csv(write(tmp_path, "m.csv", bad))


def test_load_market_csv_needs_two_days(tmp_path):
    one = "date,open,high,low,close,volume\n2024-01-02,100,101,99,100,0\n"
    with pytest.raises(InsufficientData):
        load_market_csv(write(tmp_path, "m.csv", one))


def test_load_features_csv_happy_path(tmp_path):
    market = load_market_csv(write(tmp_path, "m.csv", MARKET_CSV))
    view = load_features_csv(write(tmp_path, "f.csv", FEATURES_CSV), market)
    feats = view.for_day(1)
    assert feats.sentiment == -0.2
    assert feats.fundamental == 0.0
    assert feats.closes[-1] == 110.0


def test_load_features_csv_requires_full_coverage(tmp_path):
    market = load_market_csv(write(tmp_path, "m.csv", MARKET_CSV))
    partial = "\n".join(FEATURES_CSV.splitlines()[:-1]) + "\n"
    with pytest.raises(InsufficientData):
        load_features_csv(write(tmp_path, "f.csv", partial), market)


def test_load_features_csv_rejects_out_of_range(tmp_path):
    market = load_market_csv(write(tmp_path, "m.csv", MARKET_CSV))
    bad = FEATURES_CSV.replace("0.5", "1.5")
    with pytest.raises(ParseError):
        load_features_csv(write(tmp_path, "f.csv", bad), market)


def test_feature_view_lookback_window(tmp_path):
    market = load_market_csv(write(tmp_path, "m.csv", MARKET_CSV))
    view = load_features_csv(write(tmp_path, "f.csv", FEATURES_CSV), market)
    assert view.for_day(0).closes == (100.0,)
    assert view.for_day(2).closes == (100.0, 110.0, 99.0)


# ---------------------------------------------------------------------------
# synthetic data


def test_synthesize_market_is_deterministic():
    m1, f1 = synthesize_market(seed=3, days=20, regime="bull")
    m2, f2 = synthesize_market(seed=3, days=20, regime="bull")
    assert m1.closes == m2.closes
    assert f1.sentiment == f2.sentiment
    m3, _ = synthesize_market(seed=4, days=20, regime="bull")
    assert m1.closes != m3.closes


def test_synthesize_market_shape_and_ranges():
    market, view = synthesize_market(seed=5, days=40, regime="sideways")
    assert len(market) == 40
    assert all(c > 0 for c in market.closes)
    assert all(d.weekday() < 5 for d in market.days)
    assert all(-1.0 <= s <= 1.0 for s in view.sentiment)
    assert all(-1.0 <= f <= 1.0 for f in view.fundamental)
    assert len(set(market.days)) == 40


def test_synthesize_market_regimes_differ():
    bull, _ = synthesize_market(seed=6, days=60, regime="bull")
    bear, _ = synthesize_market(seed=6, days=60, regime="bear")
    assert bull.closes[-1] > bear.closes[-1]


# ---------------------------------------------------------------------------
# metrics


def test_sharpe_frozen_value():
    assert sharpe([0.02, 0.00], 0.0).hex() == "0x1.6a09e667f3bcdp-1"


# Bounded so that no excess return, and no standard deviation, overflows.
finite_returns = st.one_of(
    st.floats(min_value=-0.2, max_value=0.2),
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]),
)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.stdev rounds twice before 3.11")
@settings(max_examples=300, deadline=None)
@given(
    returns=st.one_of(
        st.lists(finite_returns, min_size=2, max_size=64),
        st.builds(lambda x, k: [x] * k, finite_returns, st.integers(2, 64)),
    ),
    rf_daily=st.one_of(st.just(0.0), finite_returns),
)
def test_sharpe_equals_statistics_bit_for_bit(returns, rf_daily):
    excess = [r - rf_daily for r in returns]
    sd = statistics.stdev(excess)
    expected = 0.0 if sd == 0.0 else statistics.mean(excess) / sd
    assert sharpe(returns, rf_daily).hex() == expected.hex()


def test_sharpe_zero_variance_is_zero():
    assert sharpe([0.01, 0.01, 0.01], 0.0) == 0.0
    assert sharpe([0.0, 0.0], 0.0) == 0.0


def test_sharpe_subtracts_risk_free_rate():
    assert sharpe([0.03, 0.01], 0.01) == pytest.approx(sharpe([0.02, 0.00], 0.0))


def test_sharpe_needs_two_returns():
    with pytest.raises(TooFewReturns):
        sharpe([0.02], 0.0)


def test_annualized_sharpe_scaling():
    raw = sharpe([0.02, 0.00], 0.0)
    assert annualized_sharpe([0.02, 0.00], 0.0) == pytest.approx(raw * math.sqrt(252))


def test_max_drawdown_frozen_value():
    assert max_drawdown([1.0, 1.2, 0.9, 1.1]) == 0.25


def test_max_drawdown_monotone_curve_is_zero():
    assert max_drawdown([1.0, 1.1, 1.2]) == 0.0


def test_build_equity_compounds():
    equity = build_equity([0.10, -0.10])
    assert equity == pytest.approx([1.0, 1.1, 0.99], abs=1e-15)
    assert total_return(equity) == pytest.approx(-0.01, abs=1e-15)


@given(returns_lists)
@settings(max_examples=60, deadline=None)
def test_compounding_identity(returns):
    equity = build_equity(returns)
    product = 1.0
    for r in returns:
        product *= 1.0 + r
    assert abs(equity[-1] - product) < 1e-12
    assert abs(total_return(equity) - (product - 1.0)) < 1e-12


@given(returns_lists)
@settings(max_examples=60, deadline=None)
def test_max_drawdown_bounds(returns):
    equity = build_equity(returns)
    dd = max_drawdown(equity)
    assert 0.0 <= dd < 1.0


def test_decision_to_position():
    assert decision_to_position(TradeDecision(Decision.BUY, 0.5)) == 1
    assert decision_to_position(TradeDecision(Decision.SELL, 0.5)) == -1
    assert decision_to_position(TradeDecision(Decision.HOLD, 0.0)) == 0
    assert decision_to_position(Decision.BUY) == 1
    assert decision_to_position(None) == 0


# ---------------------------------------------------------------------------
# windows


def test_day_windows_drops_partial_tail():
    assert day_windows(12, 5) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]


def test_day_windows_exact_fit():
    assert day_windows(10, 5) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]


def test_day_windows_requires_one_full_window():
    with pytest.raises(InsufficientData):
        day_windows(4, 5)


def test_day_windows_rejects_tiny_window():
    for window_len in (1, 2):
        with pytest.raises(ConfigError, match="window_len must be at least 3"):
            day_windows(10, window_len)


# ---------------------------------------------------------------------------
# window games


@pytest.fixture(scope="module")
def window_setup():
    g = reference_graph()
    market, view = synthesize_market(seed=11, days=12, regime="bull")
    runner = system_runner(build_system(g, seed=11))
    viable = enumerate_viable(g)
    return g, market, view, runner, viable


def window_game_args(market, view, day_indices, rf_daily=0.0):
    """The episodes, the position score and the Sharpe value of the window
    game on ``day_indices``, as ``run_backtest`` hands them to
    ``evaluate_window``."""
    decision_days = day_indices[:-1]
    step_returns = [market.step_return(i) for i in decision_days]
    return (
        [view.for_day(i) for i in decision_days],
        decision_to_position,
        sharpe_value(step_returns, rf_daily),
    )


def assert_dense_game(g, viable, values):
    """``values`` is a game as the engines take it: a list of 2**n floats,
    +0.0 at every non-viable mask."""
    viable_masks = set(viable)
    assert type(values) is list and len(values) == 1 << g.n
    assert all(type(v) is float for v in values)
    assert all(
        values[mask].hex() == "0x0.0p+0" for mask in range(1 << g.n) if mask not in viable_masks
    )


def test_evaluate_window_dag_engine_counts(window_setup):
    g, market, view, runner, viable = window_setup
    game = evaluate_window(g, viable, runner, *window_game_args(market, view, [0, 1, 2, 3, 4]))
    counters = game.attribution.counters
    assert counters.coalition_evaluations == 49
    # four decision days, 73 shared executions each
    assert counters.agent_executions == 4 * 73
    assert counters.executions_reused == 0
    assert_dense_game(g, viable, game.values)
    assert game.attribution == shapley_dag(g, viable, game.values, counters)
    assert game.exact is None


def test_evaluate_window_reuses_an_earlier_game(window_setup):
    g, market, view, runner, viable = window_setup
    episodes, score, value = window_game_args(market, view, [0, 1, 2, 3, 4])
    first = evaluate_window(g, viable, runner, episodes, score, value)
    assert len(first.runs) == 4
    again = evaluate_window(g, viable, runner, episodes, score, value, reuse=(first, 0))
    assert again.attribution.counters.agent_executions == 0
    assert again.attribution.counters.executions_reused == 4 * 73
    assert again.values == first.values
    assert [run.grand_outputs for run in again.runs] == [
        run.grand_outputs for run in first.runs
    ]
    # A changed trader reruns its 49 tasks on each day.
    trader = evaluate_window(
        g, viable, runner, episodes, score, value, reuse=(first, 1 << g.sink)
    )
    assert trader.attribution.counters.agent_executions == 4 * 49
    with pytest.raises(ValueError, match="another number of episodes"):
        evaluate_window(g, viable, runner, episodes[:-1], score, value, reuse=(first, 0))
    with pytest.raises(ValueError, match="other external data"):
        evaluate_window(
            g, viable, runner, *window_game_args(market, view, [1, 2, 3, 4, 5]), reuse=(first, 0)
        )
    with pytest.raises(ValueError, match="at least one episode"):
        evaluate_window(g, viable, runner, [], score, value)


def test_evaluate_window_engines_agree(window_setup):
    g, market, view, runner, viable = window_setup
    game = evaluate_window(
        g, viable, runner, *window_game_args(market, view, [0, 1, 2, 3, 4]), engine="both"
    )
    replay_values, classical = game.exact
    assert_dense_game(g, viable, game.values)
    assert type(replay_values) is list and len(replay_values) == 1 << g.n
    for mask in viable:
        assert game.values[mask] == replay_values[mask]
    assert classical.counters.coalition_evaluations == 128
    assert classical.counters.agent_executions == 4 * 448
    assert classical == shapley_exact(replay_values, g.n, classical.counters)


def test_evaluate_window_nonviable_subsets_are_worthless(window_setup):
    g, market, view, runner, viable = window_setup
    game = evaluate_window(
        g, viable, runner, *window_game_args(market, view, [0, 1, 2, 3, 4]), engine="both"
    )
    viable_masks = set(viable)
    replay_values, _ = game.exact
    for mask, value in enumerate(replay_values):
        if mask not in viable_masks:
            assert value == 0.0


def test_evaluate_window_both_rejects_a_runner_whose_outputs_change(window_setup):
    g, market, view, runner, viable = window_setup
    args = window_game_args(market, view, [0, 1, 2, 3, 4])
    with pytest.raises(EnginesDisagree, match=r"^engines disagree on coalition \{.*TRA\}"):
        evaluate_window(g, viable, swapped_trader(runner, g.sink, every=2), *args, "both")


def test_evaluate_window_both_rejects_a_nonviable_subset_worth_something(window_setup):
    """A trader that buys with no upstream gives the lone-trader subset a
    value, though the game makes every non-viable subset worth zero; the
    pruned engine never runs it, the replay does."""
    g, market, view, runner, viable = window_setup
    args = window_game_args(market, view, [0, 1, 2, 3, 4])

    def eager(agent, upstream, external):
        if agent == g.sink and not upstream:
            return TradeDecision(Decision.BUY, 1.0)
        return runner(agent, upstream, external)

    assert evaluate_window(g, viable, eager, *args).values == (
        evaluate_window(g, viable, runner, *args).values
    )
    with pytest.raises(
        EnginesDisagree, match=r"^engines disagree on coalition \{TRA\} \(mask 0b1000000\): "
        r"replay [-\d.e]+, pruned 0\.0$",
    ):
        evaluate_window(g, viable, eager, *args, "both")


def test_evaluate_window_both_checks_the_sign_of_zero(window_setup):
    """A value that gives a subset without a trader -0.0 equals the pruned
    engine's implied 0.0 by ``==``, but not in sign. The replay scores the
    missing sink output ``None``, and this score keeps it."""
    g, market, view, runner, viable = window_setup
    episodes, _, value = window_game_args(market, view, [0, 1, 2, 3, 4])

    def score(decision):
        return None if decision is None else decision_to_position(decision)

    def signed_zero(positions):
        return -0.0 if positions[0] is None else value(positions)

    with pytest.raises(
        EnginesDisagree, match=r"^engines disagree on coalition \{\} \(mask 0b0\): "
        r"replay -0\.0, pruned 0\.0$",
    ):
        evaluate_window(g, viable, runner, episodes, score, signed_zero, "both")


def test_evaluate_window_both_rejects_a_reuse_that_hides_a_changed_agent(window_setup):
    """Reusing every output after the trader changed keeps the old values in
    the pruned engine, and the fresh replay shows it; naming the trader as
    changed reruns its tasks and the engines agree."""
    g, market, view, runner, viable = window_setup
    episodes, score, value = window_game_args(market, view, [0, 1, 2, 3, 4])
    first = evaluate_window(g, viable, runner, episodes, score, value)
    changed = swapped_trader(runner, g.sink)
    with pytest.raises(EnginesDisagree):
        evaluate_window(g, viable, changed, episodes, score, value, "both", reuse=(first, 0))
    game = evaluate_window(
        g, viable, changed, episodes, score, value, "both", reuse=(first, 1 << g.sink)
    )
    assert game.values != first.values
    assert game.attribution.counters.agent_executions == 4 * 49


def test_evaluate_window_values_each_sink_task_once():
    """On a graph whose sink has fewer tasks than there are viable masks,
    the pruned engine calls ``value`` once per sink task, with and without
    reuse, and every mask still takes the value of its own replayed sink
    outputs, bit for bit."""
    g = build_graph(SPARSE_SKIP_GRAPH["layers"], SPARSE_SKIP_GRAPH["edges"])
    viable = enumerate_viable(g)
    sink_tasks = len(live_plan(g, viable).keys[g.sink])
    assert sink_tasks < len(viable)
    market, view = synthesize_market(seed=5, days=8, regime="bull")
    runner = system_runner(build_system(g, seed=5))
    episodes, score, value = window_game_args(market, view, [2, 3, 4])
    calls = []

    def counted(positions):
        calls.append(positions)
        return value(positions)

    first = evaluate_window(g, viable, runner, episodes, score, counted)
    changed = swapped_trader(runner, g.sink)
    again = evaluate_window(
        g, viable, changed, episodes, score, counted, reuse=(first, 1 << g.sink)
    )
    assert len(calls) == 2 * sink_tasks
    assert again.values != first.values
    for game, run_agent in ((first, runner), (again, changed)):
        per_mask = [
            value([
                score(replay_coalition(g, mask, run_agent, e).sink_output) for e in episodes
            ])
            for mask in viable
        ]
        assert_dense_game(g, viable, game.values)
        assert [game.values[mask].hex() for mask in viable] == [v.hex() for v in per_mask]
        evaluate_window(g, viable, run_agent, episodes, score, value, "both", reuse=(game, 0))


@given(st.integers(0, 10_000), st.integers(0, 7))
@settings(max_examples=12, deadline=None)
def test_evaluate_window_values_are_each_coalitions_own_sharpe(seed, start):
    """Each value is the Sharpe of the coalition's own return series, though
    Sharpe runs once per distinct position vector and coalitions share them."""
    g = reference_graph()
    market, view = synthesize_market(seed=seed, days=12, regime="sideways")
    runner = system_runner(build_system(g, seed=seed))
    days = list(range(start, start + 5))
    calls = []

    def counted(returns, rf_daily=0.0):
        calls.append(tuple(returns))
        return sharpe(returns, rf_daily)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backtest, "sharpe", counted)
        game = evaluate_window(
            g, enumerate_viable(g), runner, *window_game_args(market, view, days), engine="both"
        )
    vectors = set()
    for mask in range(1 << g.n):
        decisions = [
            replay_coalition(g, mask, runner, view.for_day(i)).sink_output
            for i in days[:-1]
        ]
        vectors.add(tuple(decision_to_position(d) for d in decisions))
        own = sharpe([
            decision_to_position(d) * market.step_return(i)
            for d, i in zip(decisions, days[:-1])
        ])
        assert game.exact[0][mask] == own
        # Engine ``both`` raised nothing, so the pruned table holds the
        # replay's value at every mask, 0.0 off the viable ones.
        assert game.values[mask] == own
    assert len(calls) == len(set(calls)) == len(vectors) < 1 << g.n


def test_evaluate_window_keeps_the_sink_scores_not_the_decisions():
    """A game keeps each sink output's score, not the output: on fully
    connected 5-5-5-1 (29,791 sink tasks) ``evaluate_window`` retains at
    most 2.5 MiB and peaks at most 3 MiB above its inputs, plan included.
    Measured on CPython 3.11: 1.93 and 2.16 MiB, where keeping the sink's
    decisions took 4.87 and 5.10 MiB."""
    g = layered_graph([5, 5, 5, 1])
    viable = enumerate_viable(g)
    plan = live_plan(g, viable)
    _, view = synthesize_market(seed=3, days=10, regime="bull")
    runner = system_runner(build_system(g, seed=3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        game = evaluate_window(
            g, viable, runner, [view.for_day(9)], signed_decision_value,
            lambda scores: scores[0], plan=plan,
        )
        retained, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    sink_row = game.runs[0].outputs[g.sink]
    assert len(sink_row) == 29_791
    assert not any(isinstance(entry, TradeDecision) for entry in sink_row)
    assert retained <= 2.5 * 2**20
    assert peak <= 3 * 2**20


@pytest.mark.parametrize("engine", ["fast", "exact"])
def test_evaluate_window_rejects_unknown_engine(window_setup, engine):
    g, market, view, runner, viable = window_setup
    with pytest.raises(ConfigError, match="unknown engine"):
        evaluate_window(
            g, viable, runner, *window_game_args(market, view, [0, 1, 2]), engine=engine
        )


# ---------------------------------------------------------------------------
# baselines


def test_macd_positions_shape():
    closes = [100.0 + i for i in range(60)]
    positions = macd_positions(closes)
    assert len(positions) == 60
    assert set(positions) <= {-1, 0, 1}
    assert positions[-1] == 1


def test_sma_positions_flat_until_slow_window():
    closes = [100.0 + i for i in range(60)]
    positions = sma_positions(closes)
    assert positions[:49] == [0] * 49
    assert positions[-1] == 1
    falling = [200.0 - i for i in range(60)]
    assert sma_positions(falling)[-1] == -1


# ---------------------------------------------------------------------------
# the full backtest


@pytest.fixture(scope="module")
def result_30():
    return run_backtest(RunConfig(seed=78, days=30).validate())


def test_backtest_window_and_strategy_shapes(result_30):
    assert len(result_30.windows) == 6
    assert len(result_30.frozen_windows) == 6
    assert len(result_30.cycles) == 6
    names = [s.name for s in result_30.strategies]
    assert names == [
        STRATEGY_TUNED,
        STRATEGY_FROZEN,
        STRATEGY_BUY_HOLD,
        STRATEGY_MACD,
        STRATEGY_SMA,
    ]
    lengths = {len(s.returns) for s in result_30.strategies}
    assert lengths == {24}


def test_backtest_at_most_one_increment_per_window(result_30):
    previous = (1,) * 7
    for cycle in result_30.cycles:
        bumped = [
            agent
            for agent in range(7)
            if cycle.prompt_versions[agent] == previous[agent] + 1
        ]
        unchanged = [
            agent
            for agent in range(7)
            if cycle.prompt_versions[agent] == previous[agent]
        ]
        assert len(bumped) + len(unchanged) == 7
        assert len(bumped) <= 1
        if cycle.triggered:
            assert bumped == [cycle.bottleneck]
        else:
            assert not bumped
        previous = cycle.prompt_versions


def test_backtest_passes_agree_until_first_trigger(result_30):
    """Until a prompt changes, the passes report the same window, and the
    frozen pass takes every output from the tuned pass's runs."""
    g = result_30.graph
    first = next(c.cycle for c in result_30.cycles if c.triggered)
    for w in range(first + 1):
        tuned, frozen = result_30.windows[w], result_30.frozen_windows[w]
        assert frozen.attribution.counters.agent_executions == 0
        same_cost = replace(frozen.attribution, counters=tuned.attribution.counters)
        assert _window_report_text(g, tuned) == _window_report_text(
            g, replace(frozen, attribution=same_cost)
        )


@pytest.mark.parametrize("engine", ["dag", "both"])
def test_backtest_runner_calls_are_the_reported_executions(engine, monkeypatch, tmp_path):
    """The frozen pass reuses the tuned pass's runs: the runners are called
    exactly as often as the reports say, and frozen window 0 runs nothing."""
    calls = [0]
    make_runner = backtest.system_runner

    def counted_runner(specs):
        runner = make_runner(specs)

        def run(agent, upstream, external):
            calls[0] += 1
            return runner(agent, upstream, external)

        return run

    monkeypatch.setattr(backtest, "system_runner", counted_runner)
    config = RunConfig(seed=78, days=30, engine=engine, out_dir=str(tmp_path))
    result = run_backtest(config.validate())
    reports = result.windows + result.frozen_windows
    replayed = 6 * 2 * 4 * 448 if engine == "both" else 0
    assert calls[0] == sum(r.attribution.counters.agent_executions for r in reports) + replayed
    for rep in reports:
        counters = rep.attribution.counters
        assert counters.agent_executions + counters.executions_reused == 4 * 73
    text = (tmp_path / "frozen" / "window_00.txt").read_text(encoding="utf-8")
    assert "agent_executions=0 executions_reused=292 " in text


def test_backtest_lesson_changes_later_bottleneck(result_30):
    """Window 2's argmin differs between passes, so cycle 1's lesson is
    causally steering the optimizer, not just decorating prompts."""
    tuned = result_30.windows[2].attribution.values
    frozen = result_30.frozen_windows[2].attribution.values
    t_arg = min(range(7), key=lambda i: (tuned[i], i))
    f_arg = min(range(7), key=lambda i: (frozen[i], i))
    assert result_30.cycles[1].triggered
    assert t_arg != f_arg


def test_backtest_returns_follow_the_grand_decisions(monkeypatch):
    """Each window report's returns, in both passes, are the grand
    coalition's position on each decision day times that day's step return.
    The runs keep the sink's position, not its decision, so the decisions
    come from a fresh replay of the grand coalition with the pass's runner."""
    games = []
    play = backtest.evaluate_window

    def recorded(*args, **kwargs):
        games.append((args, play(*args, **kwargs)))
        return games[-1][1]

    monkeypatch.setattr(backtest, "evaluate_window", recorded)
    result = run_backtest(RunConfig(seed=78, days=15).validate())
    g, market = result.graph, result.market
    reports = [rep for pair in zip(result.windows, result.frozen_windows) for rep in pair]
    assert len(games) == len(reports) == 6
    for ((_, _, runner, episodes, *_), game), rep in zip(games, reports):
        days = [market.days.index(d) for d in rep.decision_days]
        assert len(rep.returns) == len(days) == len(game.runs) == len(episodes) == 4
        positions = [
            decision_to_position(replay_coalition(g, g.full_mask, runner, e).sink_output)
            for e in episodes
        ]
        assert [run.grand_outputs[g.sink] for run in game.runs] == positions
        assert list(rep.returns) == [
            p * market.step_return(i) for p, i in zip(positions, days)
        ]


def test_backtest_is_deterministic():
    a = run_backtest(RunConfig(seed=78, days=30).validate())
    b = run_backtest(RunConfig(seed=78, days=30).validate())
    g = a.graph
    for wa, wb in zip(a.windows, b.windows):
        assert _window_report_text(g, wa) == _window_report_text(g, wb)
    assert [s.returns for s in a.strategies] == [s.returns for s in b.strategies]
    assert a.prompt_lineage == b.prompt_lineage


def test_backtest_baselines_share_decision_days(result_30):
    market = result_30.market
    decision_indices = [
        market.days.index(d) for w in result_30.windows for d in w.decision_days
    ]
    buy_hold = next(
        s for s in result_30.strategies if s.name == STRATEGY_BUY_HOLD
    )
    expected = tuple(market.step_return(i) for i in decision_indices)
    assert buy_hold.returns == pytest.approx(expected)


def test_backtest_engine_both_reports_exact_diff():
    result = run_backtest(RunConfig(seed=78, days=10, engine="both").validate())
    assert len(result.windows) == 2
    for rep in result.windows:
        assert rep.exact_diff == 0.0


@pytest.mark.parametrize("engine,evaluations", [("dag", 49), ("both", 49)])
def test_cycle_records_carry_their_window_attribution(engine, evaluations, tmp_path):
    """Each tuning cycle acts on, and records, the pruned engine's attribution
    that its window report prints, also when the classical replay runs beside
    it."""
    config = RunConfig(seed=78, days=15, engine=engine, out_dir=str(tmp_path))
    result = run_backtest(config.validate())
    lines = (tmp_path / "cycles.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(result.windows) == 3
    for line, rep in zip(lines, result.windows):
        record = json.loads(line)
        counters = rep.attribution.counters
        assert record["contributions"] == dict(zip(result.graph.names, rep.attribution.values))
        assert record["cost"] == {
            "coalition_evaluations": counters.coalition_evaluations,
            "agent_executions": counters.agent_executions,
            "executions_reused": counters.executions_reused,
            "cache_hits": counters.cache_hits,
        }
        assert counters.coalition_evaluations == evaluations
        text = (tmp_path / "windows" / f"window_{rep.index:02d}.txt").read_text(encoding="utf-8")
        assert f"cost: coalition_evaluations={evaluations} " in text


def test_backtest_csv_inputs(tmp_path):
    rows = ["date,open,high,low,close,volume"]
    frows = ["date,sentiment,fundamental"]
    market, view = synthesize_market(seed=2, days=12, regime="bull")
    for i, day in enumerate(market.days):
        close = market.closes[i]
        rows.append(f"{day.isoformat()},{close:.6f},{close:.6f},{close:.6f},{close:.6f},100")
        frows.append(f"{day.isoformat()},{view.sentiment[i]:.6f},{view.fundamental[i]:.6f}")
    mpath = write(tmp_path, "m.csv", "\n".join(rows) + "\n")
    fpath = write(tmp_path, "f.csv", "\n".join(frows) + "\n")
    config = RunConfig(
        seed=2, market_csv=str(mpath), features_csv=str(fpath), symbol="FILE"
    ).validate()
    result = run_backtest(config)
    assert result.market.symbol == "FILE"
    assert len(result.windows) == 2


# ---------------------------------------------------------------------------
# base prompts from a directory


def test_prompts_dir_base_prompt_starts_the_lineage(tmp_path):
    prompts = tmp_path / "prompts_in"
    prompts.mkdir()
    write(prompts, "NAA.txt", "Read the news closely.\n")
    out = tmp_path / "out"
    run_backtest(
        RunConfig(seed=78, days=15, prompts_dir=str(prompts), out_dir=str(out)).validate()
    )
    assert (out / "prompts" / "NAA_v1.txt").read_text(encoding="utf-8") == (
        "Read the news closely."
    )


def test_prompts_dir_calibration_token_changes_that_agents_outputs(monkeypatch, tmp_path):
    prompts = tmp_path / "prompts_in"
    prompts.mkdir()
    # The built-in text plus one token, so the token is the only difference.
    write(prompts, "NAA.txt", f"{DEFAULT_BASE_PROMPTS[Role.NEWS_ANALYST]} {DAMP_TOKEN}")
    games = []
    play = backtest.evaluate_window

    def recorded(*args, **kwargs):
        games.append(play(*args, **kwargs))
        return games[-1]

    monkeypatch.setattr(backtest, "evaluate_window", recorded)

    def first_tuned_outputs(config):
        """Each agent's grand-coalition outputs over the first tuned window."""
        games.clear()
        result = run_backtest(config.validate())
        return result.graph, [run.grand_outputs for run in games[0].runs]

    g, plain = first_tuned_outputs(RunConfig(seed=78, days=15))
    _, damped = first_tuned_outputs(RunConfig(seed=78, days=15, prompts_dir=str(prompts)))
    assert len(plain) == len(damped) == 4

    def outputs_of(runs, name):
        return [outputs[g.index_of(name)] for outputs in runs]

    # Before any tuning cycle, only the damped agent's outputs move; the
    # other sources read the same data with the same prompts.
    assert outputs_of(damped, "NAA") != outputs_of(plain, "NAA")
    for name in ("TAA", "FAA"):
        assert outputs_of(damped, name) == outputs_of(plain, name)


def test_prompts_dir_must_be_a_directory(capsys, tmp_path):
    not_a_dir = write(tmp_path, "NAA.txt", "base")
    config = write(
        tmp_path, "run.json", json.dumps({"days": 15, "prompts_dir": str(not_a_dir)})
    )
    assert main(["backtest", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "not a directory" in captured.err
