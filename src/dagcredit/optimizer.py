"""Contribution-guided prompt tuning.

After each trading window, per-agent Shapley contributions identify the
weakest agent; if its contribution falls below the trigger threshold, the
window's failure and success cases are reflected into lesson blocks that are
appended to that agent's prompt for the next window. Prompts only ever grow
by appended lessons (subject to a retention cap); base text never changes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import date
from typing import Callable, Mapping, Sequence

from .agents import AgentSpec, BOOST_TOKEN, DAMP_TOKEN, PromptState
from .graph import WorkflowGraph
from .shapley import AttributionResult

REFLECTION_TEMPLATE = (
    "Review this agent's recent trading record. Identify recurring mistakes "
    "and state short, concrete lessons for future decisions."
)

DEFAULT_THRESHOLD = 0.0
DEFAULT_LESSON_CAP = 5
_CONTEXT_SAMPLE = 3


class ReflectorError(RuntimeError):
    """The reflector failed or returned an unusable result."""


class WindowTooShort(ValueError):
    pass


@dataclass(frozen=True)
class HistoryRecord:
    """One agent's action on one day and the system reward it shared."""

    day: date
    agent: int
    action: str
    reward: float


@dataclass(frozen=True)
class LessonSet:
    cycle: int
    target: int
    text_blocks: tuple[str, ...]
    failure_count: int
    success_count: int


@dataclass(frozen=True)
class ReflectionRequest:
    """Structured view of a reflection task, alongside the composed prompt."""

    target_name: str
    phi: float
    failures: tuple[HistoryRecord, ...]
    successes: tuple[HistoryRecord, ...]


# A reflector receives the composed reflection prompt (for LLM-style
# implementations) plus the structured request (what the mock uses) and
# returns lesson text blocks.
Reflector = Callable[[str, ReflectionRequest], Sequence[str]]


def identify_bottleneck(values: Sequence[float], threshold: float) -> int | None:
    """Index of the minimum-contribution agent, or None when the minimum is
    at or above ``threshold``. Ties break toward the lowest index."""
    if not values:
        raise ValueError("no contribution values given")
    best = min(range(len(values)), key=lambda i: (values[i], i))
    return best if values[best] < threshold else None


def extract_cases(
    history: Sequence[HistoryRecord], agent: int, days: Sequence[date]
) -> tuple[tuple[HistoryRecord, ...], tuple[HistoryRecord, ...]]:
    """Split one agent's in-window records into failures (reward < 0) and
    successes (reward >= 0), preserving day order."""
    window = set(days)
    mine = [r for r in history if r.agent == agent and r.day in window]
    failures = tuple(r for r in mine if r.reward < 0)
    successes = tuple(r for r in mine if r.reward >= 0)
    return failures, successes


def mock_reflector(prompt: str, request: ReflectionRequest) -> tuple[str, ...]:
    """Deterministic stand-in for an LLM reflector.

    Emits one stats block summarizing the case split and, when any failures
    exist, one calibration directive: damp when failures dominate, boost
    otherwise. No randomness, no dependence on the prompt text.
    """
    n_fail = len(request.failures)
    n_win = len(request.successes)
    total = n_fail + n_win
    fr = n_fail / total if total else 0.0
    avg_fail = (
        math.fsum(r.reward for r in request.failures) / n_fail if n_fail else 0.0
    )
    avg_win = (
        math.fsum(r.reward for r in request.successes) / n_win if n_win else 0.0
    )
    stats = (
        f"Window review for {request.target_name}: failure_rate={fr:.2f} "
        f"avg_fail={avg_fail:.4f} avg_win={avg_win:.4f} cases={total}"
    )
    blocks = [stats]
    if n_fail:
        if fr >= 0.5:
            blocks.append(f"{DAMP_TOKEN} Scale back conviction after repeated losses.")
        else:
            blocks.append(f"{BOOST_TOKEN} Lean into signals that kept paying off.")
    return tuple(blocks)


def _format_context(request: ReflectionRequest) -> str:
    lines = [f"agent={request.target_name} contribution={request.phi:.6f}"]
    for label, cases in (("failure", request.failures), ("success", request.successes)):
        for r in cases[:_CONTEXT_SAMPLE]:
            lines.append(
                f"{label} day={r.day.isoformat()} action={r.action} reward={r.reward:.6f}"
            )
    return "\n".join(lines)


def reflect(
    cycle: int,
    target: int,
    request: ReflectionRequest,
    reflector: Reflector = mock_reflector,
) -> LessonSet:
    """Compose the reflection prompt, invoke the reflector, package lessons."""
    composed = REFLECTION_TEMPLATE + "\n" + _format_context(request)
    try:
        blocks = tuple(reflector(composed, request))
    except Exception as exc:
        raise ReflectorError("reflector raised") from exc
    if not blocks or any(not isinstance(b, str) or not b for b in blocks):
        raise ReflectorError("reflector must return non-empty text blocks")
    return LessonSet(
        cycle=cycle,
        target=target,
        text_blocks=blocks,
        failure_count=len(request.failures),
        success_count=len(request.successes),
    )


def append_lessons(
    prompt: PromptState, lessons: Sequence[str], cap: int | None = DEFAULT_LESSON_CAP
) -> PromptState:
    """Append lesson blocks to a prompt, bump the version by one.

    The base text is untouched and block order is preserved; when ``cap`` is
    set, only the most recent ``cap`` blocks are retained.
    """
    blocks = (*prompt.lesson_blocks, *lessons)
    if cap is not None:
        if cap < 1:
            raise ValueError("lesson cap must be at least 1")
        blocks = blocks[-cap:]
    return PromptState(
        base_text=prompt.base_text,
        lesson_blocks=blocks,
        version=prompt.version + 1,
    )


@dataclass(frozen=True)
class CycleRecord:
    """Everything one optimization cycle decided, for reporting and replay."""

    cycle: int
    start_day: date
    end_day: date
    attribution: AttributionResult
    bottleneck: int | None
    triggered: bool
    lesson: LessonSet | None
    prompt_versions: tuple[int, ...]


def run_cycle(
    graph: WorkflowGraph,
    specs: Mapping[int, AgentSpec],
    history: Sequence[HistoryRecord],
    days: Sequence[date],
    attribution: AttributionResult,
    *,
    cycle_index: int,
    threshold: float = DEFAULT_THRESHOLD,
    lesson_cap: int | None = DEFAULT_LESSON_CAP,
    reflector: Reflector = mock_reflector,
) -> tuple[CycleRecord, dict[int, AgentSpec]]:
    """One full optimization cycle over an already-traded, attributed window.

    Stages run in order on the window's Shapley ``attribution``: bottleneck
    identification, case extraction, reflection, and lesson appending. At
    most one agent's prompt changes, and only when the bottleneck's
    contribution is below ``threshold``. Returns the cycle record plus the
    (possibly updated) spec table for the next window.
    """
    if len(days) < 2:
        raise WindowTooShort("a cycle window needs at least two trading days")
    target = identify_bottleneck(attribution.values, threshold)
    new_specs = dict(specs)
    lesson = None
    if target is not None:
        failures, successes = extract_cases(history, target, days)
        request = ReflectionRequest(
            target_name=graph.names[target],
            phi=attribution.values[target],
            failures=failures,
            successes=successes,
        )
        lesson = reflect(cycle_index, target, request, reflector)
        new_prompt = append_lessons(specs[target].prompt, lesson.text_blocks, lesson_cap)
        new_specs[target] = replace(specs[target], prompt=new_prompt)
    record = CycleRecord(
        cycle=cycle_index,
        start_day=days[0],
        end_day=days[-1],
        attribution=attribution,
        bottleneck=target,
        triggered=target is not None,
        lesson=lesson,
        prompt_versions=tuple(new_specs[i].prompt.version for i in range(graph.n)),
    )
    return record, new_specs
