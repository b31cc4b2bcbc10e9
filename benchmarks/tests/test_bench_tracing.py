"""Span bookkeeping, self-time arithmetic and hook installation."""

import pytest

import tracing
from tracing import Span, Tracer, layer_metrics, patched, self_times

import dagcredit
import dagcredit.cli
from dagcredit.backtest import run_backtest
from dagcredit.config import RunConfig

MODULES = {
    name: getattr(dagcredit, name)
    for name in ("backtest", "cli", "coalitions", "optimizer", "shapley")
}


def span(span_id, parent_id, start, end, kind="x"):
    return Span(span_id, parent_id, f"s{span_id}", kind, start, end, None)


def test_self_time_subtracts_the_children():
    spans = [
        span(1, 0, 0, 100),
        span(2, 1, 10, 40),
        span(3, 2, 15, 25),
        span(4, 1, 50, 80),
    ]
    assert self_times(spans) == {1: 40, 2: 20, 3: 10, 4: 30}


def test_layer_metrics_sum_self_time_per_kind_and_mark_absent_layers():
    spans = [
        Span(1, 0, "bench.iteration", "root", 0, 1_000_000_000, None),
        Span(2, 1, "backtest.sharpe", "sharpe", 100_000_000, 300_000_000, None),
        Span(3, 1, "backtest.sharpe", "sharpe", 400_000_000, 500_000_000, None),
        Span(4, 1, "backtest.run_cycle", "cycle", 600_000_000, 900_000_000, {"triggered": False}),
        Span(5, 4, "optimizer.shapley_dag", "aggregate", 650_000_000, 850_000_000, None),
    ]
    m = layer_metrics(spans)
    assert m["backtest.sharpe_s"] == pytest.approx(0.3)
    assert m["backtest.sharpe_calls"] == 2
    assert m["optimizer.cycle_s"] == pytest.approx(0.1)
    assert m["optimizer.reattribute_s"] == pytest.approx(0.2)
    assert m["shapley.aggregate_s"] == pytest.approx(0.2)
    assert m["optimizer.cycles_triggered"] == 0
    assert m["trace.uncovered_s"] == pytest.approx(0.4)
    assert m["agents.calls"] is None
    assert m["shapley.replay_s"] is None


def test_hooks_install_and_restore_even_when_the_block_raises():
    originals = {(m, a): getattr(MODULES[m], a) for m, a, _, _ in tracing.HOOKS}
    with pytest.raises(RuntimeError):
        with patched(MODULES, Tracer().hooks()) as absent:
            assert absent == []
            for (m, a), original in originals.items():
                assert getattr(MODULES[m], a) is not original
            raise RuntimeError("inside the traced block")
    for (m, a), original in originals.items():
        assert getattr(MODULES[m], a) is original


def test_missing_hook_targets_are_reported_absent():
    class Stub:
        kept = staticmethod(len)

    with patched({"stub": Stub}, [("stub", "kept", lambda f: abs), ("stub", "gone", abs),
                                   ("nomodule", "x", abs)]) as absent:
        assert Stub.kept is abs
        assert absent == ["stub.gone", "nomodule.x"]
    assert Stub.kept is len
    assert not hasattr(Stub, "gone")


def test_traced_backtest_gives_the_same_results_and_the_paper_counts():
    config = RunConfig(days=20, engine="both", seed=3)
    plain = run_backtest(config)
    tracer = Tracer()
    with patched(MODULES, tracer.hooks()):
        traced = run_backtest(config)
    assert [w.attribution.values for w in traced.windows] == [w.attribution.values for w in plain.windows]
    m = layer_metrics(tracer.spans)
    episodes = m["shapley.episodes"]
    assert episodes == 4 * 4 * 2
    assert m["shapley.agent_executions"] == 73 * episodes
    assert m["shapley.replay_executions"] == 448 * episodes
    assert m["agents.calls"] == (73 + 448) * episodes
    assert m["shapley.sink_reads"] == 49 * episodes
    assert m["shapley.upstream_reads"] == 120 * episodes
    assert m["shapley.executions_saved"] == (448 - 73) * episodes
    assert m["coalitions.enumerate_calls"] == 1 + 4
    assert m["shapley.aggregate_calls"] == 4 * 2 * 2 + 4


def test_call_counter_counts_runner_calls_only_inside_the_block():
    counter = tracing.CallCounter()
    with patched(MODULES, counter.hooks()):
        run_backtest(RunConfig(days=10, seed=1))
    assert counter.calls == 73 * 2 * 4 * 2
    run_backtest(RunConfig(days=10, seed=1))
    assert counter.calls == 73 * 2 * 4 * 2
