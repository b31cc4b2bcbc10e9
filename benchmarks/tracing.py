"""Spans around the calls into each dagcredit layer, recorded from outside.

The program is not edited: the tracer replaces module attributes that the
program looks up at call time with wrappers that record one span per call,
and puts the originals back when the ``patched`` block exits. Spans follow
the OpenTelemetry shape (name, trace id, span id, parent id, start, end,
attributes), are kept in memory as tuples and written as JSONL on request.

A layer's self time is its span's duration minus its child spans' durations;
the per-layer metrics are sums over spans. Span times are wall times and
include the benchmark clock's speed probes (about 2.5%, see ``speed.py``).
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Iterator, Mapping, NamedTuple, Sequence

ROOT_KIND = "root"
AGENT_KIND = "agent"


class Span(NamedTuple):
    span_id: int
    parent_id: int
    name: str
    kind: str
    start_ns: int
    end_ns: int
    attributes: dict | None


def _enumerate_attrs(args, kwargs, result) -> dict:
    graph = args[0] if args else kwargs["graph"]
    return {"viable": len(result), "agents": graph.n}


def _layered_run_attrs(args, kwargs, result) -> dict:
    graph = args[0] if args else kwargs["graph"]
    viable = args[1] if len(args) > 1 else kwargs["viable"]
    return {
        "viable": len(viable),
        # Unshared replay of every subset, as the classical engine does it.
        "classical_executions": graph.n << (graph.n - 1),
        "executions": result.counters.agent_executions,
        "cache_hits": result.counters.cache_hits,
        "cache_entries": len(result.cache),
    }


def _replay_attrs(args, kwargs, result) -> dict:
    return {"executions": result.executions}


def _cycle_attrs(args, kwargs, result) -> dict:
    return {"triggered": bool(result[0].triggered)}


# (module, attribute, kind, attribute extractor). Each entry names a global
# that the program resolves when it calls it, so replacing it on the module
# intercepts every call made through that name. Kind ``agent`` marks runner
# factories: the runner they return is wrapped, not the factory call.
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("coalitions", "enumerate_viable", "enumerate", _enumerate_attrs),
    ("backtest", "enumerate_viable", "enumerate", _enumerate_attrs),
    ("cli", "enumerate_viable", "enumerate", _enumerate_attrs),
    ("shapley", "layered_run", "layered_run", _layered_run_attrs),
    ("backtest", "layered_run", "layered_run", _layered_run_attrs),
    ("backtest", "replay_coalition", "replay", _replay_attrs),
    ("backtest", "shapley_dag", "aggregate", None),
    ("backtest", "shapley_exact", "aggregate", None),
    ("optimizer", "shapley_dag", "aggregate", None),
    ("cli", "shapley_dag", "aggregate", None),
    ("cli", "shapley_exact", "aggregate", None),
    ("backtest", "sharpe", "sharpe", None),
    ("backtest", "evaluate_window", "window", None),
    ("backtest", "run_cycle", "cycle", _cycle_attrs),
    ("backtest", "write_reports", "report", None),
    ("backtest", "load_inputs", "inputs", None),
    ("backtest", "system_runner", AGENT_KIND, None),
    ("cli", "system_runner", AGENT_KIND, None),
)

# Spans of this name are the optimizer's re-attribution inside run_cycle.
REATTRIBUTE_SPAN = "optimizer.shapley_dag"


@contextlib.contextmanager
def patched(
    modules: Mapping[str, Any],
    replacements: Sequence[tuple[str, str, Callable[[Any], Any]]],
) -> Iterator[list[str]]:
    """Set ``module.attr = make(original)`` for each replacement, restore on exit.

    Yields the ``module.attr`` names that do not exist, which are skipped.
    """
    saved: list[tuple[Any, str, Any]] = []
    absent: list[str] = []
    try:
        for mod_name, attr, make in replacements:
            module = modules.get(mod_name)
            if module is None or not hasattr(module, attr):
                absent.append(f"{mod_name}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, make(original))
        yield absent
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class CallCounter:
    """Counts calls to the agent runners, without recording spans."""

    def __init__(self) -> None:
        self.calls = 0

    def _wrap_factory(self, factory: Callable) -> Callable:
        @functools.wraps(factory)
        def make_runner(*args, **kwargs):
            runner = factory(*args, **kwargs)

            def counted(*a, **k):
                self.calls += 1
                return runner(*a, **k)

            return counted

        return make_runner

    def hooks(self) -> list[tuple[str, str, Callable]]:
        return [(m, a, self._wrap_factory) for m, a, kind, _ in HOOKS if kind == AGENT_KIND]


class Tracer:
    """Records spans for one traced iteration."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self.trace_id = os.urandom(16).hex()
        self._epoch_ns = time.time_ns() - time.perf_counter_ns()

    def wrap(self, name: str, kind: str, fn: Callable, extract: Callable | None = None) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent_id = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, parent_id, name, kind, start, end, {"error": True}))
                raise
            end = clock()
            stack.pop()
            attrs = None
            if extract is not None:
                try:
                    attrs = extract(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    # The program no longer exposes this detail: the metrics
                    # built from it are reported absent.
                    attrs = None
            spans.append(Span(span_id, parent_id, name, kind, start, end, attrs))
            return result

        return traced

    def _wrap_factory(self, factory: Callable) -> Callable:
        @functools.wraps(factory)
        def make_runner(*args, **kwargs):
            return self.wrap("agents.run", AGENT_KIND, factory(*args, **kwargs))

        return make_runner

    def hooks(self) -> list[tuple[str, str, Callable]]:
        out = []
        for mod_name, attr, kind, extract in HOOKS:
            if kind == AGENT_KIND:
                out.append((mod_name, attr, self._wrap_factory))
            else:
                name = f"{mod_name}.{attr}"
                out.append((mod_name, attr,
                            lambda fn, n=name, k=kind, e=extract: self.wrap(n, k, fn, e)))
        return out

    def write_jsonl(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "name": s.name,
                    "trace_id": self.trace_id,
                    "span_id": f"{s.span_id:016x}",
                    "parent_id": f"{s.parent_id:016x}" if s.parent_id else None,
                    "start_time_unix_nano": self._epoch_ns + s.start_ns,
                    "end_time_unix_nano": self._epoch_ns + s.end_ns,
                    "attributes": {"layer.kind": s.kind, **(s.attributes or {})},
                }
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def self_times(spans: Sequence[Span]) -> dict[int, int]:
    """Span id -> duration minus its children's durations (ns). The tracer
    keeps spans on one stack, so children are disjoint and inside their parent."""
    children: dict[int, int] = defaultdict(int)
    for s in spans:
        children[s.parent_id] += s.end_ns - s.start_ns
    return {s.span_id: (s.end_ns - s.start_ns) - children[s.span_id] for s in spans}


def layer_metrics(spans: Sequence[Span]) -> dict[str, float | int | None]:
    """Per-layer metrics of one traced iteration; None marks a layer that did
    not run or a detail the program no longer exposes."""
    own = self_times(spans)
    by_kind: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_kind[s.kind].append(s)

    def self_s(kind):
        group = by_kind[kind]
        return sum(own[s.span_id] for s in group) / 1e9 if group else None

    def calls(kind):
        return len(by_kind[kind]) or None

    def attr_values(kind, key):
        group = by_kind[kind]
        if not group or any(s.attributes is None or key not in s.attributes for s in group):
            return None
        return [s.attributes[key] for s in group]

    def attr_sum(kind, key):
        values = attr_values(kind, key)
        return None if values is None else sum(values)

    def attr_max(kind, key):
        values = attr_values(kind, key)
        return None if values is None else max(values)

    m: dict[str, float | int | None] = {}
    m["coalitions.enumerate_s"] = self_s("enumerate")
    m["coalitions.enumerate_calls"] = calls("enumerate")
    m["coalitions.viable"] = attr_max("enumerate", "viable")
    agents_n = attr_max("enumerate", "agents")
    m["coalitions.viable_ratio"] = (
        None if m["coalitions.viable"] is None else m["coalitions.viable"] / 2 ** agents_n
    )

    executions = attr_sum("layered_run", "executions")
    sink_reads = attr_sum("layered_run", "viable")
    cache_hits = attr_sum("layered_run", "cache_hits")
    classical = attr_sum("layered_run", "classical_executions")
    m["shapley.layered_run_s"] = self_s("layered_run")
    m["shapley.episodes"] = calls("layered_run")
    m["shapley.agent_executions"] = executions
    m["shapley.sink_reads"] = sink_reads
    m["shapley.upstream_reads"] = (
        None if cache_hits is None or sink_reads is None else cache_hits - sink_reads
    )
    m["shapley.executions_saved"] = (
        None if classical is None or executions is None else classical - executions
    )
    m["shapley.cache_entries"] = attr_max("layered_run", "cache_entries")

    m["shapley.replay_s"] = self_s("replay")
    m["shapley.replay_calls"] = calls("replay")
    m["shapley.replay_executions"] = attr_sum("replay", "executions")

    m["shapley.aggregate_s"] = self_s("aggregate")
    m["shapley.aggregate_calls"] = calls("aggregate")

    m["agents.exec_s"] = self_s(AGENT_KIND)
    m["agents.calls"] = calls(AGENT_KIND)

    m["backtest.window_s"] = self_s("window")
    m["backtest.windows"] = calls("window")
    m["backtest.sharpe_s"] = self_s("sharpe")
    m["backtest.sharpe_calls"] = calls("sharpe")
    m["backtest.inputs_s"] = self_s("inputs")
    m["backtest.report_write_s"] = self_s("report")

    m["optimizer.cycle_s"] = self_s("cycle")
    m["optimizer.cycles"] = calls("cycle")
    triggered = attr_sum("cycle", "triggered")
    m["optimizer.cycles_triggered"] = None if triggered is None else int(triggered)
    reattribute = [s for s in spans if s.name == REATTRIBUTE_SPAN]
    m["optimizer.reattribute_s"] = (
        sum(s.end_ns - s.start_ns for s in reattribute) / 1e9 if reattribute else None
    )

    m["trace.uncovered_s"] = self_s(ROOT_KIND)
    return m
