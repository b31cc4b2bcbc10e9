"""Shapley credit assignment for layered agent workflows, plus a
contribution-guided prompt tuning loop evaluated by a windowed trading
backtest."""

from .agents import (
    AgentSpec,
    Decision,
    MarketFeatures,
    PromptState,
    Role,
    Signal,
    TradeDecision,
    build_system,
    signed_decision_value,
    system_runner,
)
from .backtest import (
    BacktestResult,
    Market,
    annualized_sharpe,
    build_equity,
    decision_to_position,
    load_market,
    max_drawdown,
    run_backtest,
    sharpe,
    synthesize_market,
    total_return,
)
from .coalitions import coalition_names, enumerate_viable
from .config import ConfigError, RunConfig, load_config, load_graph_file
from .graph import InputError, WorkflowGraph, build_graph, reference_graph
from .optimizer import (
    CycleRecord,
    LessonSet,
    identify_bottleneck,
    append_lessons,
    mock_reflector,
    run_cycle,
)
from .shapley import (
    AttributionResult,
    CostCounters,
    classical_cost,
    format_attribution,
    format_replay_check,
    layered_run,
    live_plan,
    predicted_cost,
    replay_coalition,
    shapley_exact,
)

__version__ = "0.1.0"
