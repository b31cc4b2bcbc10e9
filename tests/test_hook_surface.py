"""The module globals through which the program makes its calls.

Tools that observe a run from outside, such as the benchmark's tracer, swap
these names for wrappers. A call that stops going through its name (a
rename, or a direct import elsewhere) would no longer be seen, so each name
must exist, be callable and carry the calls of the run that uses it.
"""

import pytest

from dagcredit import backtest, cli, coalitions, shapley
from dagcredit.config import RunConfig

BACKTEST_CALLS = (
    "enumerate_viable",
    "layered_run",
    "replay_coalition",
    "shapley_exact",
    "sharpe",
    "evaluate_window",
    "run_cycle",
    "write_reports",
    "load_inputs",
    "system_runner",
)
CLI_CALLS = ("enumerate_viable", "system_runner")
# The shapley command plays its game through ``backtest.evaluate_window``.
GAME_CALLS = ("evaluate_window", "layered_run", "replay_coalition", "shapley_exact")


def count_calls(monkeypatch, module, names):
    """Wrap each named global with a call counter. The runner a
    ``system_runner`` returns is wrapped too, and counted as ``agents``."""
    calls = dict.fromkeys(names, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = original(*args, **kwargs)
            return counted("agents", result) if name == "system_runner" else result

        return wrapper

    if "system_runner" in names:
        calls["agents"] = 0
    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize(
    "module,name",
    [
        *((backtest, name) for name in BACKTEST_CALLS),
        *((cli, name) for name in CLI_CALLS),
        (coalitions, "enumerate_viable"),
        (shapley, "layered_run"),
    ],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_named_call_exists_and_is_callable(module, name):
    assert callable(getattr(module, name, None))


def test_backtest_calls_go_through_module_globals(monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, backtest, BACKTEST_CALLS)
    config = RunConfig(days=15, engine="both", out_dir=str(tmp_path)).validate()
    result = backtest.run_backtest(config)
    assert all(calls.values()), calls
    # Each window pass replays every subset once, over all its episodes:
    # 3 windows, 2 passes, 2**7 subsets.
    passes = len(result.windows) + len(result.frozen_windows)
    assert calls["evaluate_window"] == passes == 2 * 3
    assert calls["replay_coalition"] == passes << result.graph.n == 768


def test_shapley_command_calls_go_through_module_globals(monkeypatch, capsys):
    calls = count_calls(monkeypatch, cli, CLI_CALLS)
    game_calls = count_calls(monkeypatch, backtest, GAME_CALLS)
    assert cli.main(["shapley", "--engine", "both"]) == 0
    assert all(calls.values()), calls
    assert game_calls == {
        "evaluate_window": 1,
        "layered_run": 1,
        "replay_coalition": 128,
        "shapley_exact": 1,
    }
