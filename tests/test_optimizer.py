"""Bottleneck identification, reflection, lesson appending, full cycles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dagcredit.agents import (
    BOOST_TOKEN,
    DAMP_TOKEN,
    PromptState,
    build_system,
    system_runner,
)
from dagcredit.coalitions import enumerate_viable
from dagcredit.optimizer import (
    WindowTooShort,
    identify_bottleneck,
    append_lessons,
    mock_reflector,
    run_cycle,
)
from dagcredit.graph import reference_graph
from dagcredit.shapley import shapley_exact

from conftest import sink_table


# ---------------------------------------------------------------------------
# bottleneck identification


def test_bottleneck_is_argmin():
    assert identify_bottleneck([0.3, -0.2, 0.1], threshold=0.0) == 1


def test_bottleneck_tie_at_the_minimum_tunes_no_agent():
    assert identify_bottleneck([-0.2, -0.2, 0.1], threshold=0.0) is None
    assert identify_bottleneck([0.1, -0.0, 0.0], threshold=0.5) is None
    # A tie above the minimum does not matter.
    assert identify_bottleneck([0.1, -0.2, 0.1], threshold=0.0) == 1


def test_bottleneck_none_when_everyone_clears_threshold():
    assert identify_bottleneck([0.3, 0.2, 0.1], threshold=0.0) is None
    assert identify_bottleneck([0.0, 0.1], threshold=0.0) is None


def test_bottleneck_threshold_is_strict():
    assert identify_bottleneck([0.05, 0.2], threshold=0.05) is None
    assert identify_bottleneck([0.049, 0.2], threshold=0.05) == 0


def test_bottleneck_rejects_empty_input():
    with pytest.raises(ValueError):
        identify_bottleneck([], threshold=0.0)


@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)
def test_bottleneck_properties(values, threshold):
    got = identify_bottleneck(values, threshold)
    if got is None:
        assert min(values) >= threshold or values.count(min(values)) > 1
    else:
        assert values[got] < threshold
        assert all(values[i] > values[got] for i in range(len(values)) if i != got)


# ---------------------------------------------------------------------------
# the deterministic reflector


def test_reflector_emits_stats_block():
    blocks = mock_reflector("TAA", [-0.02, 0.04])
    assert blocks[0] == (
        "Window review for TAA: failure_rate=0.50 avg_fail=-0.0200 "
        "avg_win=0.0400 cases=2"
    )


def test_reflector_zero_reward_counts_as_success():
    for zero in (0.0, -0.0):
        blocks = mock_reflector("TAA", [zero])
        assert blocks == (
            "Window review for TAA: failure_rate=0.00 avg_fail=0.0000 "
            "avg_win=0.0000 cases=1",
        )


def test_reflector_damps_when_failures_dominate():
    blocks = mock_reflector("TAA", [-0.02, -0.01, 0.01])
    assert len(blocks) == 2
    assert DAMP_TOKEN in blocks[1]


def test_reflector_boosts_on_minority_failures():
    blocks = mock_reflector("TAA", [-0.02, 0.01, 0.01])
    assert BOOST_TOKEN in blocks[1]


def test_reflector_emits_no_directive_without_failures():
    blocks = mock_reflector("TAA", [0.01])
    assert len(blocks) == 1
    assert DAMP_TOKEN not in blocks[0] and BOOST_TOKEN not in blocks[0]


def test_reflector_is_deterministic():
    assert mock_reflector("TAA", [-0.02, 0.04]) == mock_reflector("TAA", [-0.02, 0.04])


# ---------------------------------------------------------------------------
# lesson appending


def test_append_lessons_appends_and_bumps_version():
    prompt = PromptState("base", ("old",), version=2)
    updated = append_lessons(prompt, ("new one", "new two"))
    assert updated.base_text == "base"
    assert updated.lesson_blocks == ("old", "new one", "new two")
    assert updated.version == 3


def test_append_lessons_cap_keeps_most_recent():
    prompt = PromptState("base", ("a", "b", "c", "d"), version=5)
    updated = append_lessons(prompt, ("e", "f"), cap=5)
    assert updated.lesson_blocks == ("b", "c", "d", "e", "f")
    assert updated.version == 6


def test_append_lessons_without_cap_keeps_everything():
    prompt = PromptState("base", tuple("abcdef"), version=7)
    updated = append_lessons(prompt, ("g",), cap=None)
    assert len(updated.lesson_blocks) == 7


def test_append_lessons_rejects_bad_cap():
    with pytest.raises(ValueError):
        append_lessons(PromptState("base"), ("x",), cap=0)


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=8))
def test_append_lessons_never_exceeds_cap(cap, extra):
    prompt = PromptState("base", tuple(f"b{i}" for i in range(extra)), version=1)
    updated = append_lessons(prompt, ("new",), cap=cap)
    assert len(updated.lesson_blocks) <= cap
    assert updated.lesson_blocks[-1] == "new"
    assert updated.base_text == "base"


# ---------------------------------------------------------------------------
# full cycles against the reference system


def cycle_fixture(value_of):
    """Graph, specs, daily rewards and the contributions of the game worth
    ``value_of(mask)`` at each viable mask and 0.0 elsewhere, driving a
    synthetic cycle."""
    g = reference_graph()
    specs = build_system(g, seed=42)
    rewards = [-0.01, 0.02, -0.03, 0.01]
    table = sink_table(g.n, ((mask, value_of(mask)) for mask in enumerate_viable(g)))
    return g, specs, rewards, shapley_exact(table, g.n)


def test_run_cycle_triggered_updates_exactly_one_prompt():
    # v({i in S}) favors nothing; full-coalition value below zero pins the
    # minimum on a specific agent through the marginals.
    g, specs, rewards, contributions = cycle_fixture(
        lambda mask: -0.5 if mask >> 1 & 1 else 0.1
    )
    record_, updated = run_cycle(g, specs, rewards, contributions, threshold=0.0)
    assert record_.triggered
    assert record_.bottleneck == 1
    assert record_.lesson is not None
    changed = [i for i in specs if updated[i].prompt != specs[i].prompt]
    assert changed == [1]
    assert updated[1].prompt.version == 2
    assert updated[1].prompt.base_text == specs[1].prompt.base_text
    assert record_.prompt_versions == (1, 2, 1, 1, 1, 1, 1)


def test_reflect_packages_lesson_set():
    g, specs, rewards, contributions = cycle_fixture(
        lambda mask: -0.5 if mask >> 1 & 1 else 0.1
    )
    record_, updated = run_cycle(g, specs, rewards, contributions, threshold=0.0)
    lesson = record_.lesson
    assert record_.bottleneck == 1
    assert lesson.failure_count == 2
    assert lesson.success_count == 2
    assert lesson.text_blocks == mock_reflector(g.names[1], rewards)
    assert len(lesson.text_blocks) == 2
    assert updated[1].prompt.lesson_blocks == lesson.text_blocks


def test_run_cycle_untriggered_changes_nothing():
    g, specs, rewards, contributions = cycle_fixture(lambda mask: 0.0)
    record_, updated = run_cycle(g, specs, rewards, contributions, threshold=0.0)
    assert not record_.triggered
    assert record_.bottleneck is None
    assert record_.lesson is None
    assert updated == specs
    assert record_.prompt_versions == (1,) * 7


def test_run_cycle_threshold_gates_triggering():
    # Agent 1's coalitions are worth less, so its contribution is the one
    # minimum.
    g, specs, rewards, contributions = cycle_fixture(
        lambda mask: 0.05 if mask >> 1 & 1 else 0.07
    )
    low, _ = run_cycle(g, specs, rewards, contributions, threshold=-1.0)
    assert not low.triggered
    high, _ = run_cycle(g, specs, rewards, contributions, threshold=1.0)
    assert high.triggered
    assert high.bottleneck == 1


def test_run_cycle_tied_minimum_triggers_nothing():
    # A game worth the same at every viable mask: the six upstream agents
    # tie, so no threshold names one of them.
    g, specs, rewards, contributions = cycle_fixture(lambda mask: 0.07)
    record_, updated = run_cycle(g, specs, rewards, contributions, threshold=1.0)
    assert not record_.triggered
    assert updated == specs


def test_run_cycle_requires_two_days():
    # A window of w days has w - 1 decision days, one reward each.
    g, specs, rewards, contributions = cycle_fixture(lambda mask: 0.0)
    with pytest.raises(WindowTooShort):
        run_cycle(g, specs, rewards[:1], contributions)
    run_cycle(g, specs, rewards[:2], contributions)
