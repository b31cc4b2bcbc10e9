"""Deterministic mock agents, prompt rendering, and information-flow rules."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dagcredit.agents import (
    BOOST_TOKEN,
    DAMP_TOKEN,
    LESSON_DELIMITER,
    ROLE_MOCKS,
    AgentSpec,
    Decision,
    ForbiddenExternalAccess,
    InvalidAgentOutput,
    MarketFeatures,
    MissingExternalData,
    PromptState,
    Role,
    RoleMismatch,
    Signal,
    TradeDecision,
    base_sensitivity,
    build_system,
    mock_executor,
    sensitivity,
    signed_decision_value,
    system_runner,
)
from dagcredit.coalitions import enumerate_viable
from dagcredit.graph import build_graph, reference_graph
from dagcredit.shapley import layered_run, live_plan, replay_coalition

from conftest import layered_graph
from golden_runs import FEATURES

scores = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def as_upstream(values):
    return {i: Signal(v) for i, v in enumerate(values)}


def gain(name, seed, prompt="p"):
    return 2.0 * sensitivity(base_sensitivity(name, seed), prompt)


def run_one(spec, upstream, external=None):
    """Run one agent through a runner of its own."""
    return system_runner({0: spec})(0, upstream, external)


# ---------------------------------------------------------------------------
# prompts


def test_render_prompt_joins_blocks_in_order():
    prompt = PromptState("base", ("first", "second"), version=3)
    assert prompt.rendered == f"base{LESSON_DELIMITER}first{LESSON_DELIMITER}second"


def test_rendered_prompt_is_the_join_an_agent_reads():
    """``rendered`` joins the base and the lesson blocks on each read, and an
    agent bound to a tuned prompt gives what its executor gives on that
    join. A prompt state holds its three fields and nothing cached."""
    g = reference_graph()
    specs = build_system(g, seed=42)
    upstream_by_layer = [
        {},
        as_upstream([0.5, -0.2, 0.3]),
        {3: Signal(0.6), 4: Signal(-0.1), 5: Signal(0.2)},
    ]
    for index, spec in specs.items():
        blocks = (f"{DAMP_TOKEN} lesson", f"{BOOST_TOKEN} {BOOST_TOKEN} lesson")
        prompt = PromptState(spec.prompt.base_text, blocks, version=3)
        joined = LESSON_DELIMITER.join((prompt.base_text, *blocks))
        assert prompt.rendered == joined
        assert tuple(prompt) == (spec.prompt.base_text, blocks, 3)
        assert not hasattr(prompt, "__dict__")

        tuned = spec._replace(prompt=prompt)
        upstream = upstream_by_layer[g.layer_of[index]]
        external = FEATURES if spec.is_source else None
        outputs = [run_one(tuned, upstream, external) for _ in range(3)]
        assert outputs == [spec.executor(joined)(upstream, external)] * 3

    # A new state (one more lesson) renders its own text.
    grown = prompt._replace(lesson_blocks=(*blocks, "third"))
    assert grown.rendered == f"{joined}{LESSON_DELIMITER}third"


def test_prompt_defaults():
    prompt = PromptState("base")
    assert prompt.version == 1
    assert prompt.lesson_blocks == ()
    assert prompt.rendered == "base"


# ---------------------------------------------------------------------------
# sensitivity and calibration tokens


def test_sensitivity_is_seed_and_name_deterministic():
    a = base_sensitivity("NAA", 7)
    assert a == base_sensitivity("NAA", 7)
    assert base_sensitivity("NAA", 8) != a
    assert base_sensitivity("FAA", 7) != a


def test_sensitivity_base_range():
    for seed in range(25):
        s = sensitivity(base_sensitivity("TRA", seed), "no tokens here")
        assert 0.35 <= s <= 0.85


def test_tokens_shift_sensitivity_one_step_each():
    base = base_sensitivity("NAA", 3)
    assert sensitivity(base, "plain") == base
    assert sensitivity(base, f"plain {DAMP_TOKEN}") == pytest.approx(base - 0.1)
    assert sensitivity(base, f"plain {BOOST_TOKEN}") == pytest.approx(base + 0.1)
    assert sensitivity(base, f"{BOOST_TOKEN} {DAMP_TOKEN}") == pytest.approx(base)


def test_sensitivity_clamps_to_unit_interval():
    base = base_sensitivity("NAA", 3)
    assert sensitivity(base, DAMP_TOKEN * 12) == 0.0
    assert sensitivity(base, BOOST_TOKEN * 12) == 1.0


def test_gain_doubles_sensitivity():
    """Sensitivity 0.5 is unit gain and 1.0 doubles; a mock reads its
    prompt's sensitivity."""
    fundamental = ROLE_MOCKS[Role.FUNDAMENTAL_ANALYST]
    assert fundamental(0.5, {}, FEATURES).score == FEATURES.fundamental
    assert fundamental(1.0, {}, FEATURES).score == 2.0 * FEATURES.fundamental
    out = mock_executor(Role.FUNDAMENTAL_ANALYST, "FAA", 11)("p")({}, FEATURES)
    assert out.score == pytest.approx(gain("FAA", 11) * FEATURES.fundamental)


# ---------------------------------------------------------------------------
# analyst mocks


def test_news_analyst_scales_sentiment():
    mock = mock_executor(Role.NEWS_ANALYST, "NAA", 1)("p")
    out = mock({}, FEATURES)
    assert isinstance(out, Signal)
    assert out.score == pytest.approx(
        max(-1.0, min(1.0, gain("NAA", 1) * FEATURES.sentiment))
    )


def test_technical_analyst_follows_trend_sign():
    mock = mock_executor(Role.TECHNICAL_ANALYST, "TAA", 2)("p")
    rising = MarketFeatures(0.0, 0.0, tuple(float(100 + i) for i in range(8)))
    falling = MarketFeatures(0.0, 0.0, tuple(float(100 - i) for i in range(8)))
    assert mock({}, rising).score > 0
    assert mock({}, falling).score < 0


def test_technical_analyst_neutral_on_short_history():
    mock = mock_executor(Role.TECHNICAL_ANALYST, "TAA", 2)("p")
    assert mock({}, MarketFeatures(0.0, 0.0, (100.0,))).score == 0.0


def test_fundamental_analyst_scales_fundamental():
    mock = mock_executor(Role.FUNDAMENTAL_ANALYST, "FAA", 4)("p")
    out = mock({}, FEATURES)
    assert out.score == pytest.approx(
        max(-1.0, min(1.0, gain("FAA", 4) * FEATURES.fundamental))
    )


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_news_analyst_stays_in_range(sentiment):
    mock = mock_executor(Role.NEWS_ANALYST, "NAA", 9)("p")
    features = MarketFeatures(sentiment, 0.0, (100.0, 101.0))
    assert -1.0 <= mock({}, features).score <= 1.0


# ---------------------------------------------------------------------------
# outlook mocks


def test_bullish_outlook_keeps_only_upside():
    mock = mock_executor(Role.BULLISH_OUTLOOK, "BOA", 5)("p")
    up = mock(as_upstream([0.6, 0.4]), None)
    down = mock(as_upstream([-0.6, -0.4]), None)
    assert isinstance(up, Signal)
    assert up.score > 0
    assert down.score == 0.0


def test_bearish_outlook_keeps_only_downside():
    mock = mock_executor(Role.BEARISH_OUTLOOK, "BeOA", 5)("p")
    assert mock(as_upstream([0.6, 0.4]), None).score == 0.0
    assert mock(as_upstream([-0.6, -0.4]), None).score < 0


def test_neutral_outlook_damps_the_mean():
    mock = mock_executor(Role.NEUTRAL_OUTLOOK, "NOA", 5)("plain")
    out = mock(as_upstream([0.8, 0.4]), None)
    mean = 0.6
    assert 0 < out.score < mean


def test_outlooks_are_neutral_without_upstream():
    for role, name in (
        (Role.BULLISH_OUTLOOK, "BOA"),
        (Role.BEARISH_OUTLOOK, "BeOA"),
        (Role.NEUTRAL_OUTLOOK, "NOA"),
    ):
        assert mock_executor(role, name, 6)("p")({}, None).score == 0.0


@given(st.lists(scores, min_size=0, max_size=5))
def test_outlook_ranges(values):
    upstream = as_upstream(values)
    bullish = mock_executor(Role.BULLISH_OUTLOOK, "BOA", 7)("p")
    bearish = mock_executor(Role.BEARISH_OUTLOOK, "BeOA", 7)("p")
    neutral = mock_executor(Role.NEUTRAL_OUTLOOK, "NOA", 7)("p")
    assert 0.0 <= bullish(upstream, None).score <= 1.0
    assert -1.0 <= bearish(upstream, None).score <= 0.0
    assert -1.0 <= neutral(upstream, None).score <= 1.0


# ---------------------------------------------------------------------------
# trader mocks


def test_trader_threshold_behavior():
    mock = mock_executor(Role.TRADER, "TRA", 8)("p")
    g = gain("TRA", 8)
    strong = 0.9 / g
    out = mock({0: Signal(strong)}, None)
    assert out.action is Decision.BUY
    assert out.confidence == pytest.approx(0.9)
    out = mock({0: Signal(-strong)}, None)
    assert out.action is Decision.SELL
    out = mock({0: Signal(0.01 / g)}, None)
    assert out.action is Decision.HOLD


def test_trader_holds_without_upstream():
    out = mock_executor(Role.TRADER, "TRA", 8)("p")({}, None)
    assert out.action is Decision.HOLD
    assert out.confidence == 0.0


def test_trader_sums_rather_than_averages():
    mock = mock_executor(Role.TRADER, "TRA", 8)("p")
    g = gain("TRA", 8)
    each = 0.2 / g
    three = mock(as_upstream([each, each, each]), None)
    assert three.action is Decision.BUY


@given(st.lists(scores, min_size=0, max_size=4))
def test_trader_confidence_range(values):
    out = mock_executor(Role.TRADER, "TRA", 8)("p")(as_upstream(values), None)
    assert 0.0 <= out.confidence <= 1.0
    assert out.action in (Decision.BUY, Decision.HOLD, Decision.SELL)


def test_solo_trader_decides_from_sentiment():
    mock = mock_executor(Role.SOLO_TRADER, "solo", 9)("p")
    g = gain("solo", 9)
    bullish = MarketFeatures(min(1.0, 0.9 / g), 0.0, (100.0, 101.0))
    assert mock({}, bullish).action is Decision.BUY
    flat = MarketFeatures(0.0, 0.0, (100.0, 101.0))
    assert mock({}, flat).action is Decision.HOLD


def test_signed_decision_value():
    assert signed_decision_value(TradeDecision(Decision.BUY, 0.7)) == pytest.approx(0.7)
    assert signed_decision_value(TradeDecision(Decision.SELL, 0.4)) == pytest.approx(-0.4)
    assert signed_decision_value(TradeDecision(Decision.HOLD, 0.0)) == 0.0


# ---------------------------------------------------------------------------
# information-flow enforcement


def spec_for(role, is_source, executor):
    return AgentSpec(
        name="X",
        role=role,
        prompt=PromptState("p"),
        executor=executor,
        is_source=is_source,
    )


def test_agent_spec_holds_what_is_read():
    assert AgentSpec._fields == ("name", "role", "prompt", "executor", "is_source")


def test_source_requires_external_data():
    spec = spec_for(Role.NEWS_ANALYST, True, mock_executor(Role.NEWS_ANALYST, "X", 1))
    with pytest.raises(MissingExternalData):
        run_one(spec, {}, None)


def test_non_source_rejects_external_data():
    spec = spec_for(Role.BULLISH_OUTLOOK, False, mock_executor(Role.BULLISH_OUTLOOK, "X", 1))
    with pytest.raises(ForbiddenExternalAccess):
        run_one(spec, {}, FEATURES)


def test_out_of_range_scores_are_rejected():
    def rogue(prompt):
        return lambda upstream, external: Signal(1.5)

    spec = spec_for(Role.NEWS_ANALYST, True, rogue)
    with pytest.raises(InvalidAgentOutput):
        run_one(spec, {}, FEATURES)


def test_out_of_range_confidence_is_rejected():
    def rogue(prompt):
        return lambda upstream, external: TradeDecision(Decision.BUY, confidence=2.0)

    spec = spec_for(Role.TRADER, False, rogue)
    with pytest.raises(InvalidAgentOutput):
        run_one(spec, {})


def test_runner_happy_path():
    spec = spec_for(Role.NEWS_ANALYST, True, mock_executor(Role.NEWS_ANALYST, "X", 1))
    out = run_one(spec, {}, FEATURES)
    assert isinstance(out, Signal)


def test_a_runner_binds_each_agent_once_however_many_tasks_it_runs():
    g = reference_graph()
    binds = []

    def counting(index, executor):
        def bind(prompt):
            binds.append((index, prompt))
            return executor(prompt)

        return bind

    specs = {
        index: spec._replace(executor=counting(index, spec.executor))
        for index, spec in build_system(g, seed=42).items()
    }
    once = [(index, spec.prompt.rendered) for index, spec in specs.items()]
    runner = system_runner(specs)
    assert binds == once
    viable = enumerate_viable(g)
    plan = live_plan(g, viable)
    runs = [layered_run(g, viable, runner, FEATURES, plan=plan) for _ in range(3)]
    assert [run.counters.agent_executions for run in runs] == [73] * 3
    for mask in viable:
        replay_coalition(g, mask, runner, episodes=[FEATURES])
    assert binds == once
    system_runner(specs)
    assert binds == once * 2


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
    assert not any(specs[i].is_source for i in range(3, 7))


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
    assert specs[0].is_source and g.sink == 0


def test_build_system_custom_base_prompts():
    g = reference_graph()
    specs = build_system(g, seed=1, base_prompts={"TRA": "my trader brief"})
    assert specs[6].prompt.base_text == "my trader brief"
    assert specs[0].prompt.base_text != "my trader brief"


def test_build_system_rejects_misplaced_roles():
    """A well-known name fixes the role, so a graph can put it where the
    role cannot run; each case hits one placement rule."""
    cases = [
        # NAA in the middle layer, then at the sink
        ([["a"], ["NAA"], ["t"]], [("a", "NAA"), ("NAA", "t")], "analyst roles require a source"),
        ([["a"], ["NAA"]], [("a", "NAA")], "analyst roles require a source"),
        # BOA at the sink
        ([["a"], ["BOA"]], [("a", "BOA")], "outlook roles require an intermediate"),
        # TRA in the middle layer
        ([["a"], ["TRA"], ["t"]], [("a", "TRA"), ("TRA", "t")], "trader role requires the sink"),
        # TRA on a source that is not the sink runs as the solo trader
        ([["TRA", "a"], ["t"]], [("TRA", "t"), ("a", "t")], "solo trader requires a single-agent"),
    ]
    for layers, edges, message in cases:
        with pytest.raises(RoleMismatch, match=message):
            build_system(build_graph(layers, edges), seed=1)


def test_mock_sensitivity_reads_current_prompt():
    g = reference_graph()
    specs = build_system(g, seed=42)
    spec = specs[0]
    base = sensitivity(base_sensitivity(spec.name, 42), spec.prompt.rendered)
    boosted = spec._replace(
        prompt=PromptState(spec.prompt.base_text, (BOOST_TOKEN,), version=2)
    )
    assert run_one(spec, {}, FEATURES).score == pytest.approx(
        2.0 * base * FEATURES.sentiment
    )
    assert run_one(boosted, {}, FEATURES).score == pytest.approx(
        2.0 * (base + 0.1) * FEATURES.sentiment
    )


# ---------------------------------------------------------------------------
# every role's output, bit for bit

PIN_PROMPTS = {"base": "p", "s0": DAMP_TOKEN * 12, "s1": BOOST_TOKEN * 12}
PIN_EXTERNALS = {
    "c8": FEATURES,
    "c1": MarketFeatures(-0.7, -0.45, (100.0,)),
}
PIN_UPSTREAMS = {
    "none": {},
    "up": {0: Signal(0.37), 1: Signal(-0.12), 2: Signal(0.55)},
    "down": {3: Signal(-0.41), 4: Signal(-0.3), 5: Signal(0.08)},
}

# "<agent> <prompt> <upstream> <external>": the score's float.hex(), or the
# action and the confidence's float.hex(). Seed 42; prompt s0 holds 12 damp
# tokens (sensitivity clamped to 0), s1 12 boost tokens (clamped to 1); c8
# has eight closes and c1 one. The solo trader runs in a one-agent graph.
ROLE_PINS = {
    "NAA base none c8": "0x1.0c524132977cdp-1",
    "NAA base none c1": "-0x1.d58ff218891a6p-1",
    "NAA base up c8": "0x1.0c524132977cdp-1",
    "NAA base up c1": "-0x1.d58ff218891a6p-1",
    "NAA s0 none c8": "0x0.0p+0",
    "NAA s0 none c1": "-0x0.0p+0",
    "NAA s0 up c8": "0x0.0p+0",
    "NAA s0 up c1": "-0x0.0p+0",
    "NAA s1 none c8": "0x1.999999999999ap-1",
    "NAA s1 none c1": "-0x1.0000000000000p+0",
    "NAA s1 up c8": "0x1.999999999999ap-1",
    "NAA s1 up c1": "-0x1.0000000000000p+0",
    "TAA base none c8": "0x1.76411c2c5a89ep-1",
    "TAA base none c1": "0x0.0p+0",
    "TAA base up c8": "0x1.76411c2c5a89ep-1",
    "TAA base up c1": "0x0.0p+0",
    "TAA s0 none c8": "0x0.0p+0",
    "TAA s0 none c1": "0x0.0p+0",
    "TAA s0 up c8": "0x0.0p+0",
    "TAA s0 up c1": "0x0.0p+0",
    "TAA s1 none c8": "0x1.0000000000000p+0",
    "TAA s1 none c1": "0x0.0p+0",
    "TAA s1 up c8": "0x1.0000000000000p+0",
    "TAA s1 up c1": "0x0.0p+0",
    "FAA base none c8": "0x1.49996f8653830p-3",
    "FAA base none c1": "-0x1.72cc9d771df36p-2",
    "FAA base up c8": "0x1.49996f8653830p-3",
    "FAA base up c1": "-0x1.72cc9d771df36p-2",
    "FAA s0 none c8": "0x0.0p+0",
    "FAA s0 none c1": "-0x0.0p+0",
    "FAA s0 up c8": "0x0.0p+0",
    "FAA s0 up c1": "-0x0.0p+0",
    "FAA s1 none c8": "0x1.999999999999ap-2",
    "FAA s1 none c1": "-0x1.ccccccccccccdp-1",
    "FAA s1 up c8": "0x1.999999999999ap-2",
    "FAA s1 up c1": "-0x1.ccccccccccccdp-1",
    "BOA base none -": "0x0.0p+0",
    "BOA base up -": "0x1.ccf901f70cf80p-2",
    "BOA base down -": "0x0.0p+0",
    "BOA s0 none -": "0x0.0p+0",
    "BOA s0 up -": "0x0.0p+0",
    "BOA s0 down -": "0x0.0p+0",
    "BOA s1 none -": "0x0.0p+0",
    "BOA s1 up -": "0x1.1111111111111p-1",
    "BOA s1 down -": "0x0.0p+0",
    "BeOA base none -": "0x0.0p+0",
    "BeOA base up -": "0x0.0p+0",
    "BeOA base down -": "-0x1.b6ef539db1c71p-3",
    "BeOA s0 none -": "0x0.0p+0",
    "BeOA s0 up -": "0x0.0p+0",
    "BeOA s0 down -": "0x0.0p+0",
    "BeOA s1 none -": "0x0.0p+0",
    "BeOA s1 up -": "0x0.0p+0",
    "BeOA s1 down -": "-0x1.ae147ae147ae1p-2",
    "NOA base none -": "0x0.0p+0",
    "NOA base up -": "0x1.03fda69ae82f6p-3",
    "NOA base down -": "-0x1.997c4ccd94176p-4",
    "NOA s0 none -": "0x0.0p+0",
    "NOA s0 up -": "0x0.0p+0",
    "NOA s0 down -": "-0x0.0p+0",
    "NOA s1 none -": "0x0.0p+0",
    "NOA s1 up -": "0x1.1111111111111p-2",
    "NOA s1 down -": "-0x1.ae147ae147ae1p-3",
    "TRA base none -": "hold 0x0.0p+0",
    "TRA base up -": "buy 0x1.ce26932a626dap-1",
    "TRA base down -": "sell 0x1.6bf193e493e98p-1",
    "TRA s0 none -": "hold 0x0.0p+0",
    "TRA s0 up -": "hold 0x0.0p+0",
    "TRA s0 down -": "hold 0x0.0p+0",
    "TRA s1 none -": "hold 0x0.0p+0",
    "TRA s1 up -": "buy 0x1.0000000000000p+0",
    "TRA s1 down -": "sell 0x1.0000000000000p+0",
    "solo base none c8": "buy 0x1.1546e95dce17dp-1",
    "solo base none c1": "sell 0x1.e53c186428a9ap-1",
    "solo base up c8": "buy 0x1.1546e95dce17dp-1",
    "solo base up c1": "sell 0x1.e53c186428a9ap-1",
    "solo s0 none c8": "hold 0x0.0p+0",
    "solo s0 none c1": "hold 0x0.0p+0",
    "solo s0 up c8": "hold 0x0.0p+0",
    "solo s0 up c1": "hold 0x0.0p+0",
    "solo s1 none c8": "buy 0x1.999999999999ap-1",
    "solo s1 none c1": "sell 0x1.0000000000000p+0",
    "solo s1 up c8": "buy 0x1.999999999999ap-1",
    "solo s1 up c1": "sell 0x1.0000000000000p+0",
}


def test_every_role_output_is_pinned_bit_for_bit():
    specs = list(build_system(reference_graph(), seed=42).values())
    specs += build_system(build_graph([["solo"]], []), seed=42).values()
    assert sorted({spec.role for spec in specs}, key=lambda r: r.value) == sorted(
        Role, key=lambda r: r.value
    )
    got = {}
    for spec in specs:
        externals = PIN_EXTERNALS.items() if spec.is_source else [("-", None)]
        for p_label, prompt in PIN_PROMPTS.items():
            for u_label, upstream in PIN_UPSTREAMS.items():
                if spec.is_source and u_label == "down":
                    continue
                for e_label, external in externals:
                    out = spec.executor(prompt)(upstream, external)
                    if isinstance(out, TradeDecision):
                        value = f"{out.action.value} {out.confidence.hex()}"
                    else:
                        value = out.score.hex()
                    got[f"{spec.name} {p_label} {u_label} {e_label}"] = value
    assert got == ROLE_PINS
