"""Which of the package's record types is a dataclass, and what the others
still guarantee.

Records that read no dataclass feature are ``typing.NamedTuple`` classes:
immutable, and built without generated code. ``RunConfig`` stays the one
dataclass: the config code reads ``dataclasses.fields`` and ``replace``.
"""

import dataclasses
import importlib
import inspect

import pytest

from dagcredit import agents, backtest, cli, coalitions, config, graph, optimizer, shapley

MODULES = (agents, backtest, cli, coalitions, config, graph, optimizer, shapley)

KEPT_DATACLASSES = {"RunConfig"}

RECORDS = {
    "agents": {"Signal", "PromptState", "TradeDecision", "MarketFeatures", "AgentSpec"},
    "graph": {"WorkflowGraph"},
    "shapley": {
        "CostCounters", "AttributionResult", "LayeredRunResult", "LivePlan", "ReplayResult",
        "PredictedCost",
    },
    "backtest": {"Market", "WindowGame", "WindowReport", "StrategyReport", "BacktestResult"},
    "optimizer": {"LessonSet", "CycleRecord"},
}

def defined_classes():
    """Every class defined in the package's modules, by module."""
    for module in MODULES:
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield module, obj


def test_run_config_is_the_only_dataclass():
    # A subclass inherits its base's dataclass fields, so ``is_dataclass``
    # alone would also accept a subclass: the decorator processed a class
    # when its own namespace holds the fields.
    decorated = {
        cls.__name__ for _, cls in defined_classes() if "__dataclass_fields__" in vars(cls)
    }
    assert decorated == KEPT_DATACLASSES
    for _, cls in defined_classes():
        if dataclasses.is_dataclass(cls):
            assert cls.__name__ in KEPT_DATACLASSES


def test_records_are_the_named_tuples():
    found = {}
    for module, cls in defined_classes():
        if issubclass(cls, tuple) and hasattr(cls, "_fields"):
            found.setdefault(module.__name__.rsplit(".", 1)[1], set()).add(cls.__name__)
    assert found == RECORDS


@pytest.mark.parametrize(
    "module, name",
    sorted((module, name) for module, names in RECORDS.items() for name in names),
)
def test_a_record_refuses_assignment_and_deletion(module, name):
    cls = getattr(importlib.import_module(f"dagcredit.{module}"), name)
    record = cls._make(range(len(cls._fields)))
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, -1)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = -1
    assert tuple(record) == tuple(range(len(cls._fields)))

