"""Data loading, metrics, windowed coalition games, and the full backtest."""

import hashlib
import json
import math
import statistics
import sys
import tracemalloc
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagcredit import backtest, shapley
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
    EnginesDisagree,
    InsufficientData,
    ParseError,
    annualized_sharpe,
    build_equity,
    day_windows,
    decision_to_position,
    evaluate_window,
    load_market,
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
from dagcredit.config import ConfigError, RunConfig, load_prompts_dir
from dagcredit.graph import build_graph, reference_graph
from dagcredit.shapley import live_plan, replay_coalition, shapley_exact

from conftest import (
    dense_values, game_table, grand_outputs, layered_graph, report_rows, swapped_trader,
)
from golden_runs import SPARSE_SKIP_GRAPH
from oracles import macd_gaps_exact, sma_gaps_exact

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


def load(tmp_path, market=MARKET_CSV, features=FEATURES_CSV, **kwargs):
    """``load_market`` on the two texts, each written to a file."""
    return load_market(
        write(tmp_path, "m.csv", market), write(tmp_path, "f.csv", features), **kwargs
    )


# ---------------------------------------------------------------------------
# loaders


def test_load_market_csv_happy_path(tmp_path):
    market = load(tmp_path)
    assert market.symbol == "CSV"
    assert len(market.days) == 3
    assert market.closes == (100.0, 110.0, 99.0)
    assert market.days[0] == date(2024, 1, 2)
    assert market.step_return(0) == pytest.approx(0.10)
    assert market.step_return(1) == pytest.approx(-0.10)
    with pytest.raises(IndexError):
        market.step_return(2)


def test_load_market_csv_rejects_bad_header(tmp_path):
    with pytest.raises(ParseError):
        load(tmp_path, "date,open,close\n2024-01-02,1,1\n")


def test_load_market_csv_rejects_bad_number(tmp_path):
    bad = MARKET_CSV.replace("110,1000", "abc,1000")
    with pytest.raises(ParseError):
        load(tmp_path, bad)


def test_load_market_csv_rejects_nonpositive_price(tmp_path):
    bad = MARKET_CSV.replace("2024-01-03,100,112,99,110,1000", "2024-01-03,100,112,0,110,1000")
    with pytest.raises(ParseError, match="line 3: low must be positive"):
        load(tmp_path, bad)


def test_load_market_csv_rejects_duplicate_date(tmp_path):
    bad = MARKET_CSV.replace("2024-01-03", "2024-01-02", 1)
    with pytest.raises(ParseError, match="line 3: duplicate date 2024-01-02"):
        load(tmp_path, bad)


def test_load_market_csv_rejects_unsorted_dates(tmp_path):
    bad = MARKET_CSV.replace("2024-01-04", "2024-01-01")
    with pytest.raises(ParseError, match="dates must be increasing"):
        load(tmp_path, bad)


def test_load_market_csv_needs_two_days(tmp_path):
    one = "date,open,high,low,close,volume\n2024-01-02,100,101,99,100,0\n"
    with pytest.raises(InsufficientData):
        load(tmp_path, one)


def test_load_market_checks_the_market_file_before_the_features(tmp_path):
    bad_market = MARKET_CSV.replace("2024-01-04", "2024-01-01")
    bad_features = FEATURES_CSV.replace("0.5", "1.5")
    with pytest.raises(ParseError, match="dates must be increasing"):
        load(tmp_path, bad_market, bad_features)


def test_load_features_csv_happy_path(tmp_path):
    feats = load(tmp_path).for_day(1)
    assert feats.sentiment == -0.2
    assert feats.fundamental == 0.0
    assert feats.closes[-1] == 110.0


def test_load_features_csv_requires_full_coverage(tmp_path):
    partial = "\n".join(FEATURES_CSV.splitlines()[:-1]) + "\n"
    with pytest.raises(InsufficientData):
        load(tmp_path, features=partial)


def test_load_features_csv_rejects_out_of_range(tmp_path):
    bad = FEATURES_CSV.replace("0.5", "1.5")
    with pytest.raises(ParseError):
        load(tmp_path, features=bad)


def test_feature_view_lookback_window(tmp_path):
    market = load(tmp_path)
    assert market.for_day(0).closes == (100.0,)
    assert market.for_day(2).closes == (100.0, 110.0, 99.0)


# ---------------------------------------------------------------------------
# synthetic data


def test_synthesize_market_is_deterministic():
    m1 = synthesize_market(seed=3, days=20, regime="bull")
    m2 = synthesize_market(seed=3, days=20, regime="bull")
    assert m1.closes == m2.closes
    assert m1.sentiment == m2.sentiment
    m3 = synthesize_market(seed=4, days=20, regime="bull")
    assert m1.closes != m3.closes


def test_synthesize_market_shape_and_ranges():
    market = synthesize_market(seed=5, days=40, regime="sideways")
    assert len(market.days) == len(market.closes) == 40
    assert len(market.sentiment) == len(market.fundamental) == 40
    assert all(c > 0 for c in market.closes)
    assert all(d.weekday() < 5 for d in market.days)
    assert all(-1.0 <= s <= 1.0 for s in market.sentiment)
    assert all(-1.0 <= f <= 1.0 for f in market.fundamental)
    assert len(set(market.days)) == 40


def test_synthesize_market_regimes_differ():
    bull = synthesize_market(seed=6, days=60, regime="bull")
    bear = synthesize_market(seed=6, days=60, regime="bear")
    assert bull.closes[-1] > bear.closes[-1]


# sha256 of each synthetic market's ISO days, then the float.hex() of its
# closes, sentiment and fundamental values, one a line: 60 days of each
# regime at three seeds.
SYNTHETIC_MARKET_SHA256 = {
    (1, "bull"): "caba585ec8b62961a72fa2f7607a1d00c9645a78e2e44c55eb136cf8d2dff10b",
    (1, "bear"): "520600a2f81fa26940f9f4be8e12ed3c990269f91a2e012ca26e5cea9b8a37d0",
    (1, "sideways"): "2e2068e2181d8d96fbd4b31cf2ef3671a3064c6a56a69da408a55ea90478796e",
    (42, "bull"): "e64e5910619ffb5d7552a6733f72808900ea2b36e624cc2d55324b0657662cf2",
    (42, "bear"): "7726888060c263ec270712dc5c0cbddbb0f957a88023b67bceb646bef04859e0",
    (42, "sideways"): "855b24e0a74bb8c98e9d9d5af5a1b542cea5553a6d514bbb6f6f45d23b325c68",
    (1301, "bull"): "5843a6f9387f840773e5726e00f01915fe741c274cbbdd5f49e12b748d6b5cab",
    (1301, "bear"): "22282782e5cd91a53e8daf7bdd6b7c67e4541cc67d0286e66c3d2193f6374fdb",
    (1301, "sideways"): "c0319346b9539db3cbc06f3a174f542133e05f6793cce54f22d5f96207ca0019",
}


def test_synthesize_market_content_is_pinned():
    # Every value of the generator's stream, bit for bit, in all regimes:
    # a draw added, dropped or moved changes these.
    got = {}
    for seed, regime in SYNTHETIC_MARKET_SHA256:
        m = synthesize_market(seed, 60, regime)
        lines = [d.isoformat() for d in m.days]
        for values in (m.closes, m.sentiment, m.fundamental):
            lines.extend(map(float.hex, values))
        got[seed, regime] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert got == SYNTHETIC_MARKET_SHA256


# ---------------------------------------------------------------------------
# metrics


def test_sharpe_frozen_value():
    assert sharpe([0.02, 0.00]).hex() == "0x1.6a09e667f3bcdp-1"


# Bounded so that no standard deviation overflows.
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
)
def test_sharpe_equals_statistics_bit_for_bit(returns):
    sd = statistics.stdev(returns)
    expected = 0.0 if sd == 0.0 else statistics.mean(returns) / sd
    assert sharpe(returns).hex() == expected.hex()


def test_sharpe_zero_variance_is_zero():
    assert sharpe([0.01, 0.01, 0.01]) == 0.0
    assert sharpe([0.0, 0.0]) == 0.0


def test_sharpe_needs_two_returns():
    with pytest.raises(InsufficientData, match="at least two returns"):
        sharpe([0.02])


def test_annualized_sharpe_scaling():
    raw = sharpe([0.02, 0.00])
    assert annualized_sharpe([0.02, 0.00]) == pytest.approx(raw * math.sqrt(252))


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
    market = synthesize_market(seed=11, days=12, regime="bull")
    runner = system_runner(build_system(g, seed=11))
    return g, market, runner, live_plan(g, enumerate_viable(g))


def window_game_args(market, day_indices):
    """The episodes, the position score and the Sharpe value of the window
    game on ``day_indices``, as ``run_backtest`` hands them to
    ``evaluate_window``."""
    decision_days = day_indices[:-1]
    step_returns = [market.step_return(i) for i in decision_days]
    return (
        [market.for_day(i) for i in decision_days],
        decision_to_position,
        sharpe_value(step_returns),
    )


def assert_task_values(plan, game):
    """``game`` holds one float per sink task of ``plan``, and its dense
    view is +0.0 at every non-viable mask."""
    values = game.task_values
    assert type(values) is tuple and len(values) == len(plan.keys[plan.graph.sink])
    assert all(type(v) is float for v in values)
    viable_masks = set(plan.viable)
    dense = dense_values(plan, values)
    assert all(
        dense[mask].hex() == "0x0.0p+0" for mask in range(len(dense)) if mask not in viable_masks
    )


def test_evaluate_window_dag_engine_counts(window_setup):
    g, market, runner, plan = window_setup
    game = evaluate_window(plan, runner, *window_game_args(market, [0, 1, 2, 3, 4]))
    # four decision days, 73 shared executions each
    assert plan.tasks == 73
    assert game.agent_executions == 4 * 73
    assert [run.counters.agent_executions for run in game.runs] == [73] * 4
    assert_task_values(plan, game)
    assert game.attribution.values == shapley_exact(game_table(plan, game.task_values), g.n)
    assert game.replay_executions == 0


def test_evaluate_window_reuses_an_earlier_game(window_setup):
    g, market, runner, plan = window_setup
    episodes, score, value = window_game_args(market, [0, 1, 2, 3, 4])
    first = evaluate_window(plan, runner, episodes, score, value)
    assert len(first.runs) == 4
    again = evaluate_window(plan, runner, episodes, score, value, reuse=(first, 0))
    assert again.agent_executions == 0
    # Every task of every episode was reused.
    assert plan.tasks * len(episodes) - again.agent_executions == 4 * 73
    assert again.task_values == first.task_values
    assert [grand_outputs(g, run) for run in again.runs] == [
        grand_outputs(g, run) for run in first.runs
    ]
    # A changed trader reruns its 49 tasks on each day.
    trader = evaluate_window(plan, runner, episodes, score, value, reuse=(first, 1 << g.sink))
    assert trader.agent_executions == 4 * 49
    with pytest.raises(ValueError, match="another number of episodes"):
        evaluate_window(plan, runner, episodes[:-1], score, value, reuse=(first, 0))
    with pytest.raises(ValueError, match="other external data"):
        evaluate_window(plan, runner, *window_game_args(market, [1, 2, 3, 4, 5]), reuse=(first, 0))
    with pytest.raises(ValueError, match="at least one episode"):
        evaluate_window(plan, runner, [], score, value)


def test_evaluate_window_engines_agree(window_setup):
    g, market, runner, plan = window_setup
    game = evaluate_window(plan, runner, *window_game_args(market, [0, 1, 2, 3, 4]), engine="both")
    assert_task_values(plan, game)
    # Engine ``both`` raised nothing, so the replay valued every subset as
    # the pruned table does. It replays the 64 subsets that hold the trader:
    # 64 trader calls and 6 * 32 others per episode.
    assert game.replay_executions == 4 * 256 == 4 * (64 + 6 * 32)
    assert game.attribution.values == shapley_exact(game_table(plan, game.task_values), g.n)


def test_evaluate_window_both_aggregates_once(window_setup, monkeypatch):
    """The replay's table matched the pruned one entry by entry, so engine
    ``both`` aggregates only the pruned table."""
    _, market, runner, plan = window_setup
    phi = shapley._phi
    calls = []

    def counted(*args):
        calls.append(args)
        return phi(*args)

    monkeypatch.setattr(shapley, "_phi", counted)
    game = evaluate_window(plan, runner, *window_game_args(market, [0, 1, 2, 3, 4]), engine="both")
    assert len(calls) == 1
    assert game.attribution.values == tuple(phi(*calls[0]))


def test_evaluate_window_both_replays_every_subset_unshared(window_setup):
    """The classical comparator shares nothing. After the pruned engine's
    runner calls come 2**(n-1) + (n-1) * 2**(n-2) calls per episode, those
    of every subset that holds the sink: mask by mask, then episode by
    episode, then member by member in index order, each handed exactly that
    episode's outputs of the member's predecessors inside the coalition,
    and external data only at a source."""
    g, market, runner, plan = window_setup
    episodes, score, value = window_game_args(market, [0, 1, 2, 3])
    calls = []

    def recorder(agent, upstream, external):
        calls.append((agent, upstream, external))
        return runner(agent, upstream, external)

    game = evaluate_window(plan, recorder, episodes, score, value, "both")
    replayed = calls[game.agent_executions:]
    assert len(replayed) == (2 ** (g.n - 1) + (g.n - 1) * 2 ** (g.n - 2)) * len(episodes)
    assert len(replayed) == 256 * 3
    assert game.replay_executions == len(replayed)
    expected = []
    for mask in range(1 << g.sink, 1 << g.n):
        members = [a for a in range(g.n) if mask >> a & 1]
        for external in episodes:
            outputs = {}
            for agent in members:
                upstream = {p: outputs[p] for p in members if agent in g.succs[p]}
                data = external if agent in g.sources else None
                expected.append((agent, upstream, data))
                outputs[agent] = runner(agent, upstream, data)
    # The episodes feed the agents different outputs, so a call handed
    # another episode's outputs differs from the expected one.
    grand = expected[-len(episodes) * g.n:]
    for agent in range(g.n):
        fed = [repr(upstream) for a, upstream, _ in grand if a == agent and upstream]
        assert len(set(fed)) == len(fed)
    assert replayed == expected


@pytest.mark.parametrize("name", ["reference", "sparse-skip"])
def test_evaluate_window_both_replays_no_subset_without_the_sink(name, monkeypatch):
    """Engine ``both`` makes no replay runner call for a subset without the
    sink: it replays only the masks that hold the sink, in mask order, and
    its runner calls are 2**(n-1) + (n-1) * 2**(n-2) per episode."""
    if name == "reference":
        g = reference_graph()
    else:
        g = build_graph(SPARSE_SKIP_GRAPH["layers"], SPARSE_SKIP_GRAPH["edges"])
    market = synthesize_market(seed=11, days=12, regime="bull")
    runner = system_runner(build_system(g, seed=11))
    episodes, score, value = window_game_args(market, [0, 1, 2, 3])
    replay = backtest.replay_coalition
    masks = []

    def counted(graph, mask, *rest, **kwargs):
        masks.append(mask)
        return replay(graph, mask, *rest, **kwargs)

    monkeypatch.setattr(backtest, "replay_coalition", counted)
    calls = [0]

    def counting(agent, upstream, external):
        calls[0] += 1
        return runner(agent, upstream, external)

    game = evaluate_window(
        live_plan(g, enumerate_viable(g)), counting, episodes, score, value, "both"
    )
    assert masks == list(range(1 << g.sink, 1 << g.n))
    n = g.n
    assert game.replay_executions == (2 ** (n - 1) + (n - 1) * 2 ** (n - 2)) * len(episodes)
    assert calls[0] == game.agent_executions + game.replay_executions


def test_evaluate_window_nonviable_subsets_are_worthless(window_setup):
    g, market, runner, plan = window_setup
    episodes, score, value = window_game_args(market, [0, 1, 2, 3, 4])
    game = evaluate_window(plan, runner, episodes, score, value, engine="both")
    viable_masks = set(plan.viable)
    dense = dense_values(plan, game.task_values)
    for mask in range(1 << g.n):
        if mask not in viable_masks:
            # The replay's value of the subset, as engine ``both`` takes it.
            replay = replay_coalition(g, mask, runner, episodes=episodes)
            assert value(list(map(score, replay.sink_outputs))) == 0.0
            assert dense[mask] == 0.0


def test_evaluate_window_table_is_zero_at_every_non_viable_configuration(
    window_setup, monkeypatch
):
    """The table ``evaluate_window`` aggregates has one entry per
    configuration of the agents other than the sink. With every sink task,
    the grand coalition's last among them, worth a non-zero value, each
    configuration without a viable mask still reads +0.0, and each other
    one reads its sink task's value."""
    g, market, runner, plan = window_setup
    tables = []
    aggregate = backtest.shapley_exact

    def recorded(table, n):
        tables.append(list(table))
        return aggregate(table, n)

    monkeypatch.setattr(backtest, "shapley_exact", recorded)
    # A signed decision lies in [-1, 1], so every value lies in [1, 3].
    game = evaluate_window(
        plan, runner, [market.for_day(9)], signed_decision_value,
        lambda scores: 2.0 + scores[0],
    )
    (table,) = tables
    assert len(table) == 1 << g.n - 1
    assert game.task_values[-1] == table[-1] != 0.0
    assert 0.0 not in game.task_values
    # ``game_table`` reads +0.0 at the 15 configurations without a sink task.
    assert sum(task < 0 for task in plan.task_tables[g.sink]) == 15
    assert [v.hex() for v in table] == [v.hex() for v in game_table(plan, game.task_values)]


def test_evaluate_window_both_rejects_a_runner_whose_outputs_change(window_setup):
    g, market, runner, plan = window_setup
    args = window_game_args(market, [0, 1, 2, 3, 4])
    with pytest.raises(EnginesDisagree, match=r"^engines disagree on coalition \{.*TRA\}"):
        evaluate_window(plan, swapped_trader(runner, g.sink, every=2), *args, "both")


def test_evaluate_window_both_rejects_a_nonviable_subset_worth_something(
    window_setup, monkeypatch
):
    """A trader that buys with no upstream gives the lone-trader subset a
    value, though the game makes every non-viable subset worth zero; the
    pruned engine never runs it, the replay does. Each subset is checked as
    it is replayed, so that subset, mask 64, the first that holds the
    trader, is the only one replayed."""
    g, market, runner, plan = window_setup
    args = window_game_args(market, [0, 1, 2, 3, 4])

    def eager(agent, upstream, external):
        if agent == g.sink and not upstream:
            return TradeDecision(Decision.BUY, 1.0)
        return runner(agent, upstream, external)

    assert evaluate_window(plan, eager, *args).task_values == (
        evaluate_window(plan, runner, *args).task_values
    )
    replay = backtest.replay_coalition
    masks = []

    def counted(graph, mask, *rest, **kwargs):
        masks.append(mask)
        return replay(graph, mask, *rest, **kwargs)

    monkeypatch.setattr(backtest, "replay_coalition", counted)
    with pytest.raises(
        EnginesDisagree, match=r"^engines disagree on coalition \{TRA\} \(mask 0b1000000\): "
        r"replay [-\d.e]+, pruned 0\.0$",
    ):
        evaluate_window(plan, eager, *args, "both")
    assert masks == [1 << g.sink]


def test_evaluate_window_both_checks_the_sign_of_zero(window_setup):
    """A value that gives a subset without a trader -0.0 equals the pruned
    engine's implied 0.0 by ``==``, but not in sign. The replay scores the
    missing sink output ``None``, and this score keeps it."""
    _, market, runner, plan = window_setup
    episodes, _, value = window_game_args(market, [0, 1, 2, 3, 4])

    def score(decision):
        return None if decision is None else decision_to_position(decision)

    def signed_zero(positions):
        return -0.0 if positions[0] is None else value(positions)

    with pytest.raises(
        EnginesDisagree, match=r"^engines disagree on coalition \{\} \(mask 0b0\): "
        r"replay -0\.0, pruned 0\.0$",
    ):
        evaluate_window(plan, runner, episodes, score, signed_zero, "both")


def test_evaluate_window_both_agrees_on_a_nan_value(window_setup):
    """A game worth NaN wherever the trader takes a position is NaN at
    those subsets in both engines, and two NaNs agree: ``both`` returns the
    contributions ``dag`` does, NaN included, by ``float.hex``. A NaN
    against a number still disagrees."""
    _, market, runner, plan = window_setup
    episodes, _, _ = window_game_args(market, [0, 1, 2, 3, 4])

    def score(decision):
        return None if decision is None else decision_to_position(decision)

    def value(positions):
        return math.nan if any(positions) else 0.0

    dag = evaluate_window(plan, runner, episodes, score, value)
    both = evaluate_window(plan, runner, episodes, score, value, "both")
    assert any(map(math.isnan, dag.attribution.values))
    assert [v.hex() for v in both.attribution.values] == [v.hex() for v in dag.attribution.values]

    def nan_without_trader(positions):
        return math.nan if positions[0] is None else value(positions)

    with pytest.raises(
        EnginesDisagree, match=r"^engines disagree on coalition \{\} \(mask 0b0\): "
        r"replay nan, pruned 0\.0$",
    ):
        evaluate_window(plan, runner, episodes, score, nan_without_trader, "both")


def test_evaluate_window_both_rejects_a_reuse_that_hides_a_changed_agent(window_setup):
    """Reusing every output after the trader changed keeps the old values in
    the pruned engine, and the fresh replay shows it; naming the trader as
    changed reruns its tasks and the engines agree."""
    g, market, runner, plan = window_setup
    episodes, score, value = window_game_args(market, [0, 1, 2, 3, 4])
    first = evaluate_window(plan, runner, episodes, score, value)
    changed = swapped_trader(runner, g.sink)
    with pytest.raises(EnginesDisagree):
        evaluate_window(plan, changed, episodes, score, value, "both", reuse=(first, 0))
    game = evaluate_window(
        plan, changed, episodes, score, value, "both", reuse=(first, 1 << g.sink)
    )
    assert game.task_values != first.task_values
    assert game.agent_executions == 4 * 49


def test_evaluate_window_values_each_sink_task_once():
    """On a graph whose sink has fewer tasks than there are viable masks,
    the pruned engine calls ``value`` once per sink task, with and without
    reuse, and every mask still takes the value of its own replayed sink
    outputs, bit for bit."""
    g = build_graph(SPARSE_SKIP_GRAPH["layers"], SPARSE_SKIP_GRAPH["edges"])
    viable = enumerate_viable(g)
    plan = live_plan(g, viable)
    sink_tasks = len(plan.keys[g.sink])
    assert sink_tasks < len(viable)
    market = synthesize_market(seed=5, days=8, regime="bull")
    runner = system_runner(build_system(g, seed=5))
    episodes, score, value = window_game_args(market, [2, 3, 4])
    calls = []

    def counted(positions):
        calls.append(positions)
        return value(positions)

    first = evaluate_window(plan, runner, episodes, score, counted)
    changed = swapped_trader(runner, g.sink)
    again = evaluate_window(plan, changed, episodes, score, counted, reuse=(first, 1 << g.sink))
    assert len(calls) == 2 * sink_tasks
    assert again.task_values != first.task_values
    for game, run_agent in ((first, runner), (again, changed)):
        per_mask = [
            value(list(map(score, replay_coalition(
                g, mask, run_agent, episodes=episodes
            ).sink_outputs)))
            for mask in viable
        ]
        assert_task_values(plan, game)
        dense = dense_values(plan, game.task_values)
        assert [dense[mask].hex() for mask in viable] == [v.hex() for v in per_mask]
        evaluate_window(plan, run_agent, episodes, score, value, "both", reuse=(game, 0))


@given(st.integers(0, 10_000), st.integers(0, 7))
@settings(max_examples=12, deadline=None)
def test_evaluate_window_values_are_each_coalitions_own_sharpe(seed, start):
    """Each value is the Sharpe of the coalition's own return series, though
    Sharpe runs once per distinct position vector and coalitions share them."""
    g = reference_graph()
    market = synthesize_market(seed=seed, days=12, regime="sideways")
    runner = system_runner(build_system(g, seed=seed))
    days = list(range(start, start + 5))
    calls = []

    def counted(returns):
        calls.append(tuple(returns))
        return sharpe(returns)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backtest, "sharpe", counted)
        game = evaluate_window(
            live_plan(g, enumerate_viable(g)), runner, *window_game_args(market, days), "both"
        )
    vectors = set()
    dense = dense_values(game.runs[0].plan, game.task_values)
    for mask in range(1 << g.n):
        decisions = replay_coalition(
            g, mask, runner, episodes=[market.for_day(i) for i in days[:-1]]
        ).sink_outputs
        vectors.add(tuple(decision_to_position(d) for d in decisions))
        own = sharpe([
            decision_to_position(d) * market.step_return(i)
            for d, i in zip(decisions, days[:-1])
        ])
        # Engine ``both`` raised nothing, so the pruned table holds the
        # replay's value at every mask, 0.0 off the viable ones.
        assert dense[mask] == own
    assert len(calls) == len(set(calls)) == len(vectors) < 1 << g.n


def test_evaluate_window_keeps_the_sink_scores_not_the_decisions():
    """A game keeps each sink output's score, not the output: on fully
    connected 5-5-5-1 (29,791 sink tasks) ``evaluate_window`` retains at
    most 2.5 MiB and peaks at most 3 MiB above its inputs, the plan among
    them. Measured on CPython 3.11.7: 1.54 and 1.81 MiB, where a table of
    every subset's value peaked at 2.04 MiB and keeping the sink's
    decisions took 4.87 and 5.10 MiB."""
    g = layered_graph([5, 5, 5, 1])
    viable = enumerate_viable(g)
    plan = live_plan(g, viable)
    market = synthesize_market(seed=3, days=10, regime="bull")
    runner = system_runner(build_system(g, seed=3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        game = evaluate_window(
            plan, runner, [market.for_day(9)], signed_decision_value, lambda scores: scores[0]
        )
        retained, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    sink_row = game.runs[0].outputs[g.sink]
    assert len(sink_row) == 29_791
    assert not any(isinstance(entry, TradeDecision) for entry in sink_row)
    assert retained <= 2.5 * 2**20
    assert peak <= 3 * 2**20


def test_evaluate_window_both_holds_no_table_of_every_subsets_steps():
    """Engine ``both`` replays each subset from its mask alone: on 13
    sources feeding one sink (8,192 subsets replayed, each holding the
    sink, of 16,384) ``evaluate_window`` peaks at
    most 2.5 MiB above its inputs, the plan not included, as it is built
    before tracing starts. Measured under pytest on CPython 3.11.7: 0.40
    MiB, alone or after the rest of its file. Deriving each subset's
    replay as a tuple of per-member step tuples peaked at 1.54 MiB alone
    and 1.21 MiB after the rest of the file, and building a table of every
    subset's steps first, inside the traced block, at 9.75 MiB."""
    g = layered_graph([13, 1])
    viable = enumerate_viable(g)
    plan = live_plan(g, viable)
    market = synthesize_market(seed=3, days=10, regime="bull")
    runner = system_runner(build_system(g, seed=3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        game = evaluate_window(
            plan, runner, [market.for_day(9)], signed_decision_value, lambda scores: scores[0],
            "both",
        )
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert game.replay_executions == (1 << 13) + 13 * (1 << 12)
    assert peak <= 2.5 * 2**20


@pytest.mark.parametrize("engine", ["fast", "exact"])
def test_evaluate_window_rejects_unknown_engine(window_setup, engine):
    _, market, runner, plan = window_setup
    with pytest.raises(ConfigError, match="unknown engine"):
        evaluate_window(plan, runner, *window_game_args(market, [0, 1, 2]), engine=engine)


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


def sign(x):
    return (x > 0) - (x < 0)


def test_baselines_follow_the_spans_their_names_give():
    """Each baseline's position on each day is the sign of its indicator
    gap computed in rationals with the spans its strategy name gives, on a
    seeded series that crosses both ways and on which any one span a day
    longer or shorter moves some position. Every non-zero gap is far above
    the floats' rounding, so no day is a near tie that rounding decides."""
    closes = synthesize_market(seed=2, days=250, regime="sideways").closes
    macd = macd_gaps_exact(closes, *map(int, STRATEGY_MACD.split("-")[1:]))
    sma = sma_gaps_exact(closes, *map(int, STRATEGY_SMA.split("-")[1:]))
    assert macd_positions(closes) == list(map(sign, macd))
    assert sma_positions(closes) == [0 if gap is None else sign(gap) for gap in sma]
    gaps = [abs(gap) for gap in macd + sma if gap]
    assert min(gaps) > 1e-6
    assert {-1, 1} <= set(map(sign, macd)) and {-1, 1} <= {sign(g) for g in sma if g is not None}


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
    first = next(i for i, c in enumerate(result_30.cycles) if c.triggered)
    rows = report_rows(result_30.plan)
    for w in range(first + 1):
        tuned, frozen = result_30.windows[w], result_30.frozen_windows[w]
        assert frozen.agent_executions == 0
        assert _window_report_text(result_30, tuned, rows) == _window_report_text(
            result_30, frozen, rows
        )


@pytest.mark.parametrize("engine", ["dag", "both"])
def test_backtest_runner_calls_are_the_reported_executions(engine, monkeypatch, tmp_path):
    """The frozen pass reuses the tuned pass's runs: the runners are called
    exactly as often as the reports and the summary say, and frozen window 0
    runs nothing."""
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
    # Under ``both``, 6 windows, 2 passes and 4 episodes, each replaying
    # the 64 subsets that hold the trader in 256 runner calls.
    replayed = 6 * 2 * 4 * 256 if engine == "both" else 0
    assert [r.replay_executions for r in reports] == [replayed // 12] * 12
    tuned = sum(r.agent_executions for r in result.windows)
    frozen = sum(r.agent_executions for r in result.frozen_windows)
    assert calls[0] == tuned + frozen + replayed
    # The tuned pass reuses nothing; the frozen pass's window 0 reuses everything.
    assert [r.agent_executions for r in result.windows] == [4 * 73] * 6
    assert result.frozen_windows[0].agent_executions == 0
    assert 0 < frozen < 6 * 4 * 73
    summary = (tmp_path / "summary.txt").read_text(encoding="utf-8").splitlines()
    want = f"runner calls: tuned {tuned}  frozen {frozen}"
    assert summary[6:8] == [
        "tasks per episode: 73  classical n*2^(n-1): 448",
        want + (f"  replay {replayed}" if engine == "both" else ""),
    ]


def test_backtest_binds_each_agent_once_per_window_and_pass(monkeypatch):
    """Each pass of each window binds every agent to its current prompt
    once, and counting the bindings changes no runner call or value: the
    tuned pass binds a tuned agent's new rendered prompt from the next
    window on, and the frozen pass always binds the base prompts."""
    config = RunConfig(seed=78, days=15).validate()
    make_runner = backtest.system_runner

    def played(binds=None):
        calls = [0]

        def counted_runner(specs):
            runner = make_runner(specs)

            def run(agent, upstream, external):
                calls[0] += 1
                return runner(agent, upstream, external)

            return run

        monkeypatch.setattr(backtest, "system_runner", counted_runner)
        if binds is not None:
            make_system = backtest.build_system

            def counting(name, executor):
                def bind(prompt):
                    binds.append((name, prompt))
                    return executor(prompt)

                return bind

            def counted_system(*args, **kwargs):
                return {
                    i: spec._replace(executor=counting(spec.name, spec.executor))
                    for i, spec in make_system(*args, **kwargs).items()
                }

            monkeypatch.setattr(backtest, "build_system", counted_system)
        result = run_backtest(config)
        monkeypatch.undo()
        return result, calls[0]

    plain, plain_calls = played()
    binds = []
    result, calls = played(binds)
    g = result.graph
    assert calls == plain_calls
    reports = result.windows + result.frozen_windows
    assert [r.attribution.values for r in reports] == [
        r.attribution.values for r in plain.windows + plain.frozen_windows
    ]

    windows = len(result.windows)
    assert windows == 3
    assert len(binds) == 2 * windows * g.n
    lineage = result.prompt_lineage
    base = [(name, lineage[(name, 1)]) for name in g.names]
    versions = [(1,) * g.n] + [c.prompt_versions for c in result.cycles[:-1]]
    passes = [binds[start:start + g.n] for start in range(0, len(binds), g.n)]
    for w, current in enumerate(versions):
        tuned, frozen = passes[2 * w], passes[2 * w + 1]
        assert tuned == [(name, lineage[(name, v)]) for name, v in zip(g.names, current)]
        assert frozen == base
    first = result.cycles[0]
    assert first.triggered
    tuned_name, tuned_prompt = binds[2 * g.n + first.bottleneck]
    assert tuned_name == g.names[first.bottleneck]
    assert tuned_prompt != base[first.bottleneck][1]
    assert first.lesson.text_blocks[-1] in tuned_prompt


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
    for ((_, runner, episodes, *_), game), rep in zip(games, reports):
        # A window's decision days are all its days but the last.
        days = list(range(market.days.index(rep.start), market.days.index(rep.end)))
        assert len(rep.returns) == len(days) == len(game.runs) == len(episodes) == 4
        replay = replay_coalition(g, g.full_mask, runner, episodes=episodes)
        positions = list(map(decision_to_position, replay.sink_outputs))
        assert [grand_outputs(g, run)[g.sink] for run in game.runs] == positions
        assert list(rep.returns) == [
            p * market.step_return(i) for p, i in zip(positions, days)
        ]


def test_backtest_is_deterministic():
    a = run_backtest(RunConfig(seed=78, days=30).validate())
    b = run_backtest(RunConfig(seed=78, days=30).validate())
    rows_a, rows_b = report_rows(a.plan), report_rows(b.plan)
    for wa, wb in zip(a.windows, b.windows):
        assert _window_report_text(a, wa, rows_a) == _window_report_text(b, wb, rows_b)
    assert [s.returns for s in a.strategies] == [s.returns for s in b.strategies]
    assert a.prompt_lineage == b.prompt_lineage


def test_backtest_keeps_one_value_per_sink_task_per_window_pass(tmp_path):
    """A backtest keeps, per window, each pass's one value per sink task
    and what grows with the days: from 2 windows to 4 on fully connected
    4-4-4-1 (3,375 sink tasks), its result grows per window by at most 16
    bytes a sink task plus 12 KiB for the market's days, the strategies'
    returns, and the windows' attributions, runner calls, cycle records and
    prompts. Measured on CPython 3.11: 56,600 bytes per window, 54,000 of
    them the two passes' values; keeping every viable mask's name and
    value in each report grew it by 434,500 more."""
    g = layered_graph([4, 4, 4, 1])
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({
        "layers": [[g.names[a] for a in layer] for layer in g.layers],
        "edges": [[g.names[a], g.names[b]] for a in range(g.n) for b in sorted(g.succs[a])],
    }), encoding="utf-8")
    # An untraced run first makes what a process makes once: imports and caches.
    run_backtest(RunConfig(days=10, graph_file=str(path)).validate())
    retained = {}
    for days in (10, 20):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_backtest(RunConfig(days=days, graph_file=str(path)).validate())
            retained[days] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.windows) == days // 5
        sink_tasks = len(result.plan.keys[g.sink])
        del result
    assert sink_tasks == 3375
    assert (retained[20] - retained[10]) / 2 <= 16 * sink_tasks + 12 * 2**10


def test_backtest_baselines_share_decision_days(result_30):
    market = result_30.market
    decision_indices = [
        i
        for w in result_30.windows
        for i in range(market.days.index(w.start), market.days.index(w.end))
    ]
    buy_hold = next(
        s for s in result_30.strategies if s.name == STRATEGY_BUY_HOLD
    )
    expected = tuple(market.step_return(i) for i in decision_indices)
    assert buy_hold.returns == pytest.approx(expected)


def test_window_sharpe_is_the_sharpe_of_the_window_returns():
    """A window's Sharpe is its grand coalition's game value. The Sharpe of
    the window's returns, as the report once computed it, is the oracle."""
    result = run_backtest(RunConfig(seed=78, days=30).validate())
    assert any(c.triggered for c in result.cycles)
    for rep in result.windows + result.frozen_windows:
        assert rep.window_sharpe.hex() == sharpe(rep.returns).hex()


@pytest.mark.parametrize("engine", ["dag", "both"])
def test_cycle_records_carry_their_window_attribution(engine, tmp_path):
    """Each tuning cycle acts on, and records, the pruned engine's attribution
    that its window report prints, also when the classical replay runs beside
    it. Neither prints what the window cost."""
    config = RunConfig(seed=78, days=15, engine=engine, out_dir=str(tmp_path))
    result = run_backtest(config.validate())
    lines = (tmp_path / "cycles.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(result.windows) == 3
    for line, rep in zip(lines, result.windows):
        record = json.loads(line)
        assert record["contributions"] == dict(zip(result.graph.names, rep.attribution.values))
        assert "cost" not in record
        for sub in ("windows", "frozen"):
            text = (tmp_path / sub / f"window_{rep.index:02d}.txt").read_text(encoding="utf-8")
            assert "cost" not in text


def test_backtest_csv_inputs(tmp_path):
    rows = ["date,open,high,low,close,volume"]
    frows = ["date,sentiment,fundamental"]
    market = synthesize_market(seed=2, days=12, regime="bull")
    for i, day in enumerate(market.days):
        close = market.closes[i]
        rows.append(f"{day.isoformat()},{close:.6f},{close:.6f},{close:.6f},{close:.6f},100")
        frows.append(f"{day.isoformat()},{market.sentiment[i]:.6f},{market.fundamental[i]:.6f}")
    mpath = write(tmp_path, "m.csv", "\n".join(rows) + "\n")
    fpath = write(tmp_path, "f.csv", "\n".join(frows) + "\n")
    config = RunConfig(
        seed=2, market_csv=str(mpath), features_csv=str(fpath), symbol="FILE"
    ).validate()
    result = run_backtest(config)
    assert result.market.symbol == "FILE"
    assert len(result.windows) == 2


# Six named agents with a sparse middle layer and a layer-skip edge FAA ->
# TRA: the names fix every agent's role, so reordering a layer moves no role.
NAMED_SKIP_GRAPH = {
    "layers": [["NAA", "TAA", "FAA"], ["BOA", "BeOA"], ["TRA"]],
    "edges": [
        ["NAA", "BOA"], ["TAA", "BOA"], ["TAA", "BeOA"],
        ["BOA", "TRA"], ["BeOA", "TRA"], ["FAA", "TRA"],
    ],
}

REFERENCE_GRAPH = {
    "layers": [["NAA", "TAA", "FAA"], ["BOA", "BeOA", "NOA"], ["TRA"]],
    "edges": [[a, o] for a in ("NAA", "TAA", "FAA") for o in ("BOA", "BeOA", "NOA")]
    + [[o, "TRA"] for o in ("BOA", "BeOA", "NOA")],
}


def order_free_record(path, days, regime, seed):
    """A backtest on the graph file ``path``, by agent name: each window's
    contributions (tuned and frozen passes) as float hex, each cycle's
    bottleneck, the strategy rows, and whether a tuned window's minimum
    below the threshold is tied."""
    config = RunConfig(seed=seed, days=days, regime=regime, graph_file=str(path)).validate()
    result = run_backtest(config)
    names = result.graph.names

    def by_name(window):
        return {name: phi.hex() for name, phi in zip(names, window.attribution.values)}

    tied = any(
        min(w.attribution.values) < config.threshold
        and w.attribution.values.count(min(w.attribution.values)) > 1
        for w in result.windows
    )
    return {
        "phi": [by_name(w) for w in result.windows + result.frozen_windows],
        "bottlenecks": [
            None if c.bottleneck is None else names[c.bottleneck] for c in result.cycles
        ],
        "strategies": result.strategies,
    }, tied


def test_backtest_does_not_depend_on_the_agent_order_in_the_graph_file(tmp_path):
    """Reversing every layer's agent order in the graph file leaves every
    contribution by name, every cycle's bottleneck and every strategy row
    as they were. The grid holds windows whose minimum is tied, which an
    index-based tie-break would tune differently in the two files."""
    grid = [
        (REFERENCE_GRAPH, 60, "bull", 42),
        (REFERENCE_GRAPH, 60, "sideways", 42),
        (REFERENCE_GRAPH, 250, "sideways", 2),
        (NAMED_SKIP_GRAPH, 60, "bull", 42),
        (NAMED_SKIP_GRAPH, 250, "sideways", 42),
    ]
    any_tie = False
    for graph, days, regime, seed in grid:
        records = []
        for reverse in (False, True):
            layers = [layer[::-1] if reverse else layer for layer in graph["layers"]]
            path = tmp_path / f"graph_{reverse}.json"
            graph_file = {"layers": layers, "edges": graph["edges"]}
            path.write_text(json.dumps(graph_file), encoding="utf-8")
            record, tied = order_free_record(path, days, regime, seed)
            records.append(record)
            any_tie |= tied
        assert records[0] == records[1], (graph["layers"], days, regime, seed)
    assert any_tie


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


def test_prompts_dir_reads_only_the_txt_suffix_by_case(tmp_path):
    """``TRA.TXT`` is no prompt on any OS: a suffix match that ignores case,
    as ``Path.glob`` does on Windows, would make it TRA's."""
    write(tmp_path, "NAA.txt", "Read the news closely.\n")
    write(tmp_path, "TRA.TXT", "Trade boldly.\n")
    assert load_prompts_dir(tmp_path) == {"NAA": "Read the news closely."}


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
        return result.graph, [grand_outputs(result.graph, run) for run in games[0].runs]

    g, plain = first_tuned_outputs(RunConfig(seed=78, days=15))
    _, damped = first_tuned_outputs(RunConfig(seed=78, days=15, prompts_dir=str(prompts)))
    assert len(plain) == len(damped) == 4

    def outputs_of(runs, name):
        return [outputs[g.names.index(name)] for outputs in runs]

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
