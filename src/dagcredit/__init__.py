"""Shapley credit assignment for layered agent workflows, plus a
contribution-guided prompt tuning loop evaluated by a windowed trading
backtest."""

from .agents import (
    AgentSpec,
    AnalystSignal,
    Decision,
    MarketFeatures,
    OutlookScore,
    PromptState,
    Role,
    TradeDecision,
    build_system,
    execute_agent,
    render_prompt,
    signed_decision_value,
    system_runner,
)
from .backtest import (
    BacktestResult,
    FeatureView,
    MarketSeries,
    annualized_sharpe,
    build_equity,
    decision_to_position,
    load_features_csv,
    load_market_csv,
    max_drawdown,
    run_backtest,
    sharpe,
    synthesize_market,
    total_return,
)
from .coalitions import (
    ViabilityReport,
    check_viability,
    coalition_names,
    enumerate_viable,
)
from .config import ConfigError, RunConfig, load_config, load_graph_file
from .graph import (
    Agent,
    WorkflowGraph,
    build_graph,
    path_exists,
    reference_graph,
)
from .optimizer import (
    CycleRecord,
    HistoryRecord,
    LessonSet,
    extract_cases,
    identify_bottleneck,
    append_lessons,
    mock_reflector,
    reflect,
    run_cycle,
)
from .shapley import (
    AttributionResult,
    CostCounters,
    ExecutionMemo,
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

__version__ = "0.1.0"
