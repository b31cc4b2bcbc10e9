"""Deterministic mock executors, prompt rendering, and information-flow rules."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dagcredit.agents import (
    BOOST_TOKEN,
    DAMP_TOKEN,
    LESSON_DELIMITER,
    AgentSpec,
    AnalystSignal,
    BearishOutlookMock,
    BullishOutlookMock,
    Decision,
    ForbiddenExternalAccess,
    FundamentalAnalystMock,
    InvalidAgentOutput,
    MarketFeatures,
    MissingExternalData,
    NeutralOutlookMock,
    NewsAnalystMock,
    OutlookScore,
    PromptState,
    Role,
    RoleMismatch,
    SoloTraderMock,
    TechnicalAnalystMock,
    TradeDecision,
    TraderMock,
    build_system,
    execute_agent,
    render_prompt,
    signed_decision_value,
)
from dagcredit.graph import build_graph, reference_graph

from conftest import FEATURES, layered_graph

scores = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def as_upstream(values):
    return {i: AnalystSignal(v, tag="t") for i, v in enumerate(values)}


# ---------------------------------------------------------------------------
# prompts


def test_render_prompt_joins_blocks_in_order():
    prompt = PromptState("base", ("first", "second"), version=3)
    assert render_prompt(prompt) == f"base{LESSON_DELIMITER}first{LESSON_DELIMITER}second"


def test_each_prompt_state_renders_once():
    """Agents read one rendered text per prompt state; the outputs are the
    same as from a freshly joined prompt."""
    g = reference_graph()
    specs = build_system(g, seed=42)
    upstream_by_layer = [
        {},
        as_upstream([0.5, -0.2, 0.3]),
        {3: OutlookScore(0.6), 4: OutlookScore(-0.1), 5: OutlookScore(0.2)},
    ]
    for spec in specs.values():
        blocks = (f"{DAMP_TOKEN} lesson", f"{BOOST_TOKEN} {BOOST_TOKEN} lesson")
        prompt = PromptState(spec.prompt.base_text, blocks, version=3)
        first = render_prompt(prompt)
        assert render_prompt(prompt) is first
        fresh = LESSON_DELIMITER.join((prompt.base_text, *blocks))
        assert first == fresh and first is not fresh

        tuned = dataclasses.replace(spec, prompt=prompt)
        upstream = upstream_by_layer[g.layer_of[spec.index]]
        external = FEATURES if spec.is_source else None
        outputs = [execute_agent(tuned, upstream, external) for _ in range(3)]
        assert outputs == [spec.executor(fresh, upstream, external)] * 3

    # A new state (one more lesson) renders its own text.
    grown = dataclasses.replace(prompt, lesson_blocks=(*blocks, "third"))
    assert render_prompt(grown) == f"{first}{LESSON_DELIMITER}third"


def test_prompt_defaults():
    prompt = PromptState("base")
    assert prompt.version == 1
    assert prompt.lesson_blocks == ()
    assert render_prompt(prompt) == "base"


# ---------------------------------------------------------------------------
# sensitivity and calibration tokens


def test_sensitivity_is_seed_and_name_deterministic():
    a = NewsAnalystMock("NAA", seed=7)
    b = NewsAnalystMock("NAA", seed=7)
    assert a.sensitivity("p") == b.sensitivity("p")
    assert NewsAnalystMock("NAA", seed=8).sensitivity("p") != a.sensitivity("p")
    assert NewsAnalystMock("FAA", seed=7).sensitivity("p") != a.sensitivity("p")


def test_sensitivity_base_range():
    for seed in range(25):
        s = TraderMock("TRA", seed=seed).sensitivity("no tokens here")
        assert 0.35 <= s <= 0.85


def test_tokens_shift_sensitivity_one_step_each():
    mock = NewsAnalystMock("NAA", seed=3)
    base = mock.sensitivity("plain")
    assert mock.sensitivity(f"plain {DAMP_TOKEN}") == pytest.approx(base - 0.1)
    assert mock.sensitivity(f"plain {BOOST_TOKEN}") == pytest.approx(base + 0.1)
    assert mock.sensitivity(
        f"{BOOST_TOKEN} {DAMP_TOKEN}"
    ) == pytest.approx(base)


def test_sensitivity_clamps_to_unit_interval():
    mock = NewsAnalystMock("NAA", seed=3)
    assert mock.sensitivity(DAMP_TOKEN * 12) == 0.0
    assert mock.sensitivity(BOOST_TOKEN * 12) == 1.0


def test_gain_doubles_sensitivity():
    mock = FundamentalAnalystMock("FAA", seed=11)
    assert mock.gain("p") == pytest.approx(2.0 * mock.sensitivity("p"))


# ---------------------------------------------------------------------------
# analyst mocks


def test_news_analyst_scales_sentiment():
    mock = NewsAnalystMock("NAA", seed=1)
    out = mock("p", {}, FEATURES)
    assert isinstance(out, AnalystSignal)
    assert out.tag == "news-sentiment"
    assert out.score == pytest.approx(
        max(-1.0, min(1.0, mock.gain("p") * FEATURES.sentiment))
    )


def test_technical_analyst_follows_trend_sign():
    mock = TechnicalAnalystMock("TAA", seed=2)
    rising = MarketFeatures(0.0, 0.0, tuple(float(100 + i) for i in range(8)))
    falling = MarketFeatures(0.0, 0.0, tuple(float(100 - i) for i in range(8)))
    assert mock("p", {}, rising).score > 0
    assert mock("p", {}, falling).score < 0


def test_technical_analyst_neutral_on_short_history():
    mock = TechnicalAnalystMock("TAA", seed=2)
    assert mock("p", {}, MarketFeatures(0.0, 0.0, (100.0,))).score == 0.0


def test_fundamental_analyst_scales_fundamental():
    mock = FundamentalAnalystMock("FAA", seed=4)
    out = mock("p", {}, FEATURES)
    assert out.tag == "valuation"
    assert out.score == pytest.approx(
        max(-1.0, min(1.0, mock.gain("p") * FEATURES.fundamental))
    )


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_news_analyst_stays_in_range(sentiment):
    mock = NewsAnalystMock("NAA", seed=9)
    features = MarketFeatures(sentiment, 0.0, (100.0, 101.0))
    assert -1.0 <= mock("p", {}, features).score <= 1.0


# ---------------------------------------------------------------------------
# outlook mocks


def test_bullish_outlook_keeps_only_upside():
    mock = BullishOutlookMock("BOA", seed=5)
    up = mock("p", as_upstream([0.6, 0.4]), None)
    down = mock("p", as_upstream([-0.6, -0.4]), None)
    assert isinstance(up, OutlookScore)
    assert up.score > 0
    assert down.score == 0.0


def test_bearish_outlook_keeps_only_downside():
    mock = BearishOutlookMock("BeOA", seed=5)
    assert mock("p", as_upstream([0.6, 0.4]), None).score == 0.0
    assert mock("p", as_upstream([-0.6, -0.4]), None).score < 0


def test_neutral_outlook_damps_the_mean():
    mock = NeutralOutlookMock("NOA", seed=5)
    out = mock("plain", as_upstream([0.8, 0.4]), None)
    mean = 0.6
    assert 0 < out.score < mean


def test_outlooks_are_neutral_without_upstream():
    for cls, name in (
        (BullishOutlookMock, "BOA"),
        (BearishOutlookMock, "BeOA"),
        (NeutralOutlookMock, "NOA"),
    ):
        assert cls(name, seed=6)("p", {}, None).score == 0.0


@given(st.lists(scores, min_size=0, max_size=5))
def test_outlook_ranges(values):
    upstream = as_upstream(values)
    assert 0.0 <= BullishOutlookMock("BOA", seed=7)("p", upstream, None).score <= 1.0
    assert -1.0 <= BearishOutlookMock("BeOA", seed=7)("p", upstream, None).score <= 0.0
    assert -1.0 <= NeutralOutlookMock("NOA", seed=7)("p", upstream, None).score <= 1.0


# ---------------------------------------------------------------------------
# trader mocks


def test_trader_threshold_behavior():
    mock = TraderMock("TRA", seed=8)
    g = mock.gain("p")
    strong = 0.9 / g
    out = mock("p", {0: OutlookScore(strong)}, None)
    assert out.action is Decision.BUY
    assert out.confidence == pytest.approx(0.9)
    out = mock("p", {0: OutlookScore(-strong)}, None)
    assert out.action is Decision.SELL
    out = mock("p", {0: OutlookScore(0.01 / g)}, None)
    assert out.action is Decision.HOLD


def test_trader_holds_without_upstream():
    out = TraderMock("TRA", seed=8)("p", {}, None)
    assert out.action is Decision.HOLD
    assert out.confidence == 0.0


def test_trader_sums_rather_than_averages():
    mock = TraderMock("TRA", seed=8)
    g = mock.gain("p")
    each = 0.2 / g
    three = mock("p", as_upstream([each, each, each]), None)
    assert three.action is Decision.BUY


@given(st.lists(scores, min_size=0, max_size=4))
def test_trader_confidence_range(values):
    out = TraderMock("TRA", seed=8)("p", as_upstream(values), None)
    assert 0.0 <= out.confidence <= 1.0
    assert out.action in (Decision.BUY, Decision.HOLD, Decision.SELL)


def test_solo_trader_decides_from_sentiment():
    mock = SoloTraderMock("solo", seed=9)
    g = mock.gain("p")
    bullish = MarketFeatures(min(1.0, 0.9 / g), 0.0, (100.0, 101.0))
    assert mock("p", {}, bullish).action is Decision.BUY
    flat = MarketFeatures(0.0, 0.0, (100.0, 101.0))
    assert mock("p", {}, flat).action is Decision.HOLD


def test_signed_decision_value():
    assert signed_decision_value(TradeDecision(Decision.BUY, 0.7)) == pytest.approx(0.7)
    assert signed_decision_value(TradeDecision(Decision.SELL, 0.4)) == pytest.approx(-0.4)
    assert signed_decision_value(TradeDecision(Decision.HOLD, 0.0)) == 0.0


# ---------------------------------------------------------------------------
# information-flow enforcement


def spec_for(role, is_source, is_sink, executor):
    return AgentSpec(
        index=0,
        name="X",
        role=role,
        prompt=PromptState("p"),
        executor=executor,
        is_source=is_source,
        is_sink=is_sink,
    )


def test_source_requires_external_data():
    spec = spec_for(Role.NEWS_ANALYST, True, False, NewsAnalystMock("X", seed=1))
    with pytest.raises(MissingExternalData):
        execute_agent(spec, {}, None)


def test_non_source_rejects_external_data():
    spec = spec_for(Role.BULLISH_OUTLOOK, False, False, BullishOutlookMock("X", seed=1))
    with pytest.raises(ForbiddenExternalAccess):
        execute_agent(spec, {}, FEATURES)


def test_out_of_range_scores_are_rejected():
    def rogue(prompt, upstream, external):
        return AnalystSignal(1.5, tag="rogue")

    spec = spec_for(Role.NEWS_ANALYST, True, False, rogue)
    with pytest.raises(InvalidAgentOutput):
        execute_agent(spec, {}, FEATURES)


def test_out_of_range_confidence_is_rejected():
    def rogue(prompt, upstream, external):
        return TradeDecision(Decision.BUY, confidence=2.0)

    spec = spec_for(Role.TRADER, False, True, rogue)
    with pytest.raises(InvalidAgentOutput):
        execute_agent(spec, {})


def test_execute_agent_happy_path():
    spec = spec_for(Role.NEWS_ANALYST, True, False, NewsAnalystMock("X", seed=1))
    out = execute_agent(spec, {}, FEATURES)
    assert isinstance(out, AnalystSignal)


# ---------------------------------------------------------------------------
# system assembly


def test_build_system_assigns_reference_roles():
    g = reference_graph()
    specs = build_system(g, seed=42)
    assert [specs[i].role for i in range(7)] == [
        Role.NEWS_ANALYST,
        Role.TECHNICAL_ANALYST,
        Role.FUNDAMENTAL_ANALYST,
        Role.BULLISH_OUTLOOK,
        Role.BEARISH_OUTLOOK,
        Role.NEUTRAL_OUTLOOK,
        Role.TRADER,
    ]
    assert all(specs[i].is_source for i in range(3))
    assert specs[6].is_sink


def test_build_system_positional_roles_rotate():
    g = layered_graph([2, 2, 1])
    specs = build_system(g, seed=1)
    assert specs[0].role == Role.NEWS_ANALYST
    assert specs[1].role == Role.TECHNICAL_ANALYST
    assert specs[2].role == Role.BULLISH_OUTLOOK
    assert specs[3].role == Role.BEARISH_OUTLOOK
    assert specs[4].role == Role.TRADER


def test_build_system_single_agent_is_solo_trader():
    g = build_graph([["solo"]], [])
    specs = build_system(g, seed=1)
    assert specs[0].role == Role.SOLO_TRADER
    assert specs[0].is_source and specs[0].is_sink


def test_build_system_custom_base_prompts():
    g = reference_graph()
    specs = build_system(g, seed=1, base_prompts={"TRA": "my trader brief"})
    assert specs[6].prompt.base_text == "my trader brief"
    assert specs[0].prompt.base_text != "my trader brief"


def test_build_system_rejects_misplaced_roles():
    g = reference_graph()
    with pytest.raises(RoleMismatch):
        build_system(g, seed=1, roles={"NAA": Role.TRADER})
    with pytest.raises(RoleMismatch):
        build_system(g, seed=1, roles={"TRA": Role.NEWS_ANALYST})
    with pytest.raises(RoleMismatch):
        build_system(g, seed=1, roles={"BOA": Role.SOLO_TRADER})


def test_mock_sensitivity_reads_current_prompt():
    g = reference_graph()
    specs = build_system(g, seed=42)
    spec = specs[0]
    base = spec.executor.sensitivity(render_prompt(spec.prompt))
    boosted = AgentSpec(
        index=spec.index,
        name=spec.name,
        role=spec.role,
        prompt=PromptState(spec.prompt.base_text, (BOOST_TOKEN,), version=2),
        executor=spec.executor,
        is_source=spec.is_source,
        is_sink=spec.is_sink,
    )
    assert boosted.executor.sensitivity(render_prompt(boosted.prompt)) == pytest.approx(base + 0.1)
