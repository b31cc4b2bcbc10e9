"""Contribution-guided prompt tuning.

After each trading window, per-agent Shapley contributions identify the
weakest agent; if its contribution falls below the trigger threshold, the
window's daily rewards, split into failures (negative) and successes, are
reflected into lesson blocks that are appended to that agent's prompt for the
next window. Every agent shares the day's reward, so the split is the same
whichever agent is tuned. Prompts only ever grow by appended lessons (subject
to a retention cap); base text never changes.
"""
from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .agents import AgentSpec, BOOST_TOKEN, DAMP_TOKEN, PromptState
from .graph import InputError, WorkflowGraph

DEFAULT_THRESHOLD = 0.0
DEFAULT_LESSON_CAP = 5


class WindowTooShort(InputError):
    pass


class LessonSet(NamedTuple):
    text_blocks: tuple[str, ...]
    failure_count: int
    success_count: int


def identify_bottleneck(values: Sequence[float], threshold: float) -> int | None:
    """Index of the minimum-contribution agent, or None when the minimum is
    at or above ``threshold`` or tied (by ``==``): by Shapley's symmetry axiom
    a tie names no one agent, and an index is only a place in the graph file."""
    if not values:
        raise ValueError("no contribution values given")
    low = min(values)
    return values.index(low) if low < threshold and values.count(low) == 1 else None


def mock_reflector(target_name: str, rewards: Sequence[float]) -> tuple[str, ...]:
    """Deterministic stand-in for an LLM reflector.

    A negative reward is a failure and any other reward (zeros of either
    sign included) a success. Emits one stats block summarizing the split
    and, when any failures exist, one calibration directive: damp when
    failures dominate, boost otherwise.
    """
    failures = [r for r in rewards if r < 0]
    successes = [r for r in rewards if not r < 0]
    n_fail, n_win = len(failures), len(successes)
    total = n_fail + n_win
    fr = n_fail / total if total else 0.0
    avg_fail = math.fsum(failures) / n_fail if n_fail else 0.0
    avg_win = math.fsum(successes) / n_win if n_win else 0.0
    stats = (
        f"Window review for {target_name}: failure_rate={fr:.2f} "
        f"avg_fail={avg_fail:.4f} avg_win={avg_win:.4f} cases={total}"
    )
    blocks = [stats]
    if n_fail:
        if fr >= 0.5:
            blocks.append(f"{DAMP_TOKEN} Scale back conviction after repeated losses.")
        else:
            blocks.append(f"{BOOST_TOKEN} Lean into signals that kept paying off.")
    return tuple(blocks)


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


class CycleRecord(NamedTuple):
    """What one optimization cycle decided. The window it tuned on (its
    dates, rewards and attribution) is the window's own report."""

    bottleneck: int | None
    lesson: LessonSet | None
    prompt_versions: tuple[int, ...]

    @property
    def triggered(self) -> bool:
        return self.bottleneck is not None


def run_cycle(
    graph: WorkflowGraph,
    specs: Mapping[int, AgentSpec],
    rewards: Sequence[float],
    contributions: Sequence[float],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    lesson_cap: int | None = DEFAULT_LESSON_CAP,
) -> tuple[CycleRecord, dict[int, AgentSpec]]:
    """One full optimization cycle over an already-traded, attributed window.

    ``rewards`` holds the window's reward on each of its decision days, in
    day order, and ``contributions`` its per-agent Shapley values. Stages
    run in order: bottleneck identification, reflection on the rewards, and
    lesson appending. At most one agent's prompt changes, and only when the
    bottleneck's contribution is below ``threshold``. Returns the cycle
    record plus the (possibly updated) spec table for the next window.
    """
    if len(rewards) < 2:
        raise WindowTooShort("a cycle window needs at least two rewards")
    target = identify_bottleneck(contributions, threshold)
    new_specs = dict(specs)
    lesson = None
    if target is not None:
        blocks = mock_reflector(graph.names[target], rewards)
        failures = sum(1 for r in rewards if r < 0)
        lesson = LessonSet(blocks, failures, len(rewards) - failures)
        new_prompt = append_lessons(specs[target].prompt, lesson.text_blocks, lesson_cap)
        new_specs[target] = specs[target]._replace(prompt=new_prompt)
    versions = tuple(new_specs[i].prompt.version for i in range(graph.n))
    return CycleRecord(target, lesson, versions), new_specs
