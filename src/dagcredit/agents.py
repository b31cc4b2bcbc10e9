"""Agent specifications, prompt state, and deterministic mock executors.

Executors are pure functions of (rendered prompt, upstream outputs, external
data): no clocks, no global randomness. Mock behavior is shaped by a
sensitivity parameter derived from the run seed and shifted by calibration
tokens that optimization lessons may append to a prompt, so the tuning loop
has a measurable, reproducible effect.
"""
from __future__ import annotations

import enum
import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from .graph import WorkflowGraph

# Calibration directives recognized by every mock. Each occurrence anywhere in
# the rendered prompt shifts sensitivity by one step.
DAMP_TOKEN = "[adjust:damp]"
BOOST_TOKEN = "[adjust:boost]"
SENSITIVITY_STEP = 0.1

LESSON_DELIMITER = "\n---\n"


class MissingExternalData(RuntimeError):
    """A source agent was executed without its external data."""


class ForbiddenExternalAccess(RuntimeError):
    """A non-source agent was handed external data."""


class InvalidAgentOutput(ValueError):
    """An executor returned a payload outside its documented range."""


class RoleMismatch(ValueError):
    """A role was assigned to an agent whose graph position cannot host it."""


class Role(enum.Enum):
    NEWS_ANALYST = "news_analyst"
    TECHNICAL_ANALYST = "technical_analyst"
    FUNDAMENTAL_ANALYST = "fundamental_analyst"
    BULLISH_OUTLOOK = "bullish_outlook"
    BEARISH_OUTLOOK = "bearish_outlook"
    NEUTRAL_OUTLOOK = "neutral_outlook"
    TRADER = "trader"
    SOLO_TRADER = "solo_trader"


_ANALYST_ROLES = (Role.NEWS_ANALYST, Role.TECHNICAL_ANALYST, Role.FUNDAMENTAL_ANALYST)
_OUTLOOK_ROLES = (Role.BULLISH_OUTLOOK, Role.BEARISH_OUTLOOK, Role.NEUTRAL_OUTLOOK)

ROLE_BY_NAME = {
    "NAA": Role.NEWS_ANALYST,
    "TAA": Role.TECHNICAL_ANALYST,
    "FAA": Role.FUNDAMENTAL_ANALYST,
    "BOA": Role.BULLISH_OUTLOOK,
    "BeOA": Role.BEARISH_OUTLOOK,
    "NOA": Role.NEUTRAL_OUTLOOK,
    "TRA": Role.TRADER,
}

DEFAULT_BASE_PROMPTS = {
    Role.NEWS_ANALYST: "Assess today's news sentiment and report a signal in [-1, 1].",
    Role.TECHNICAL_ANALYST: "Read recent price action and report a trend signal in [-1, 1].",
    Role.FUNDAMENTAL_ANALYST: "Judge valuation against fundamentals and report a signal in [-1, 1].",
    Role.BULLISH_OUTLOOK: "Weigh the analyst signals for upside potential.",
    Role.BEARISH_OUTLOOK: "Weigh the analyst signals for downside risk.",
    Role.NEUTRAL_OUTLOOK: "Weigh the analyst signals without directional bias.",
    Role.TRADER: "Combine the outlooks and decide: buy, hold, or sell.",
    Role.SOLO_TRADER: "Decide directly from market data: buy, hold, or sell.",
}


@dataclass(frozen=True)
class PromptState:
    """A prompt is an immutable base plus appended lesson blocks.

    ``version`` increases by exactly one per lesson append; the base text
    never changes after construction.
    """

    base_text: str
    lesson_blocks: tuple[str, ...] = ()
    version: int = 1

    @functools.cached_property
    def rendered(self) -> str:
        """Base text followed by lesson blocks, oldest first, delimiter-joined.

        Joined once per prompt state: every agent call reads it.
        """
        return LESSON_DELIMITER.join((self.base_text, *self.lesson_blocks))


def render_prompt(prompt: PromptState) -> str:
    """The prompt text an executor reads (see ``PromptState.rendered``)."""
    return prompt.rendered


class Decision(enum.Enum):
    BUY = "buy"
    HOLD = "hold"
    SELL = "sell"


@dataclass(frozen=True)
class AnalystSignal:
    score: float
    tag: str = ""


@dataclass(frozen=True)
class OutlookScore:
    score: float


@dataclass(frozen=True)
class TradeDecision:
    action: Decision
    confidence: float


@dataclass(frozen=True)
class MarketFeatures:
    """External data visible to source agents for a single trading day.

    ``closes`` is the trailing close-price window ending at the current day.
    """

    sentiment: float
    fundamental: float
    closes: tuple[float, ...]


def signed_decision_value(output: Any) -> float:
    """Map a sink output to a real value: direction times confidence."""
    if not isinstance(output, TradeDecision):
        return 0.0
    sign = {Decision.BUY: 1.0, Decision.SELL: -1.0, Decision.HOLD: 0.0}[output.action]
    return sign * output.confidence


def _clamp(x: float, lo: float = -1.0, hi: float = 1.0) -> float:
    return max(lo, min(hi, x))


def _hash_unit(key: str) -> float:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class MockExecutor:
    """Base for deterministic mocks; concrete roles override ``__call__``."""

    name: str
    seed: int

    @functools.cached_property
    def base_sensitivity(self) -> float:
        """Seeded base in [0.35, 0.85]; hashed once per executor."""
        return 0.35 + 0.5 * _hash_unit(f"{self.seed}:{self.name}:sensitivity")

    def sensitivity(self, prompt: str) -> float:
        """Seeded base shifted by calibration tokens.

        Damp tokens lower it and boost tokens raise it, one step each,
        clamped to [0, 1].
        """
        shift = SENSITIVITY_STEP * (prompt.count(BOOST_TOKEN) - prompt.count(DAMP_TOKEN))
        return _clamp(self.base_sensitivity + shift, 0.0, 1.0)

    def gain(self, prompt: str) -> float:
        """Responsiveness factor: sensitivity 0.5 is unit gain, 1.0 doubles."""
        return 2.0 * self.sensitivity(prompt)

    def __call__(self, prompt: str, upstream: Mapping[int, Any], external: Any) -> Any:
        raise NotImplementedError


def _mean_score(upstream: Mapping[int, Any]) -> float:
    if not upstream:
        return 0.0
    scores = [upstream[k].score for k in sorted(upstream)]
    return math.fsum(scores) / len(scores)


def _sum_score(upstream: Mapping[int, Any]) -> float:
    return math.fsum(upstream[k].score for k in sorted(upstream))


@dataclass(frozen=True)
class NewsAnalystMock(MockExecutor):
    def __call__(self, prompt, upstream, external):
        g = self.gain(prompt)
        return AnalystSignal(_clamp(g * external.sentiment), tag="news-sentiment")


@dataclass(frozen=True)
class TechnicalAnalystMock(MockExecutor):
    short: int = 3
    long: int = 8
    # a 2% relative spread between the averages saturates the signal
    spread_scale: float = 0.02

    def __call__(self, prompt, upstream, external):
        g = self.gain(prompt)
        closes = external.closes
        if len(closes) < 2:
            return AnalystSignal(0.0, tag="sma-crossover")
        fast = closes[-min(self.short, len(closes)):]
        slow = closes[-min(self.long, len(closes)):]
        sma_fast = math.fsum(fast) / len(fast)
        sma_slow = math.fsum(slow) / len(slow)
        spread = (sma_fast - sma_slow) / sma_slow
        return AnalystSignal(_clamp(g * spread / self.spread_scale), tag="sma-crossover")


@dataclass(frozen=True)
class FundamentalAnalystMock(MockExecutor):
    def __call__(self, prompt, upstream, external):
        g = self.gain(prompt)
        return AnalystSignal(_clamp(g * external.fundamental), tag="valuation")


@dataclass(frozen=True)
class BullishOutlookMock(MockExecutor):
    """Passes through only the upside of the aggregate analyst view."""

    def __call__(self, prompt, upstream, external):
        g = self.gain(prompt)
        return OutlookScore(_clamp(max(0.0, g * _mean_score(upstream)), 0.0, 1.0))


@dataclass(frozen=True)
class BearishOutlookMock(MockExecutor):
    """Passes through only the downside of the aggregate analyst view."""

    def __call__(self, prompt, upstream, external):
        g = self.gain(prompt)
        return OutlookScore(_clamp(min(0.0, g * _mean_score(upstream)), -1.0, 0.0))


@dataclass(frozen=True)
class NeutralOutlookMock(MockExecutor):
    """Mean of the analyst view damped toward zero by its own sensitivity."""

    def __call__(self, prompt, upstream, external):
        s = self.sensitivity(prompt)
        return OutlookScore(_clamp(s * _mean_score(upstream)))


@dataclass(frozen=True)
class TraderMock(MockExecutor):
    threshold: float = 0.25

    def __call__(self, prompt, upstream, external):
        g = self.gain(prompt)
        total = g * _sum_score(upstream)
        if total > self.threshold:
            action = Decision.BUY
        elif total < -self.threshold:
            action = Decision.SELL
        else:
            action = Decision.HOLD
        return TradeDecision(action, confidence=min(1.0, abs(total)))


@dataclass(frozen=True)
class SoloTraderMock(MockExecutor):
    """Degenerate single-agent system: decides straight from market data."""

    threshold: float = 0.25

    def __call__(self, prompt, upstream, external):
        g = self.gain(prompt)
        total = g * _clamp(external.sentiment)
        if total > self.threshold:
            action = Decision.BUY
        elif total < -self.threshold:
            action = Decision.SELL
        else:
            action = Decision.HOLD
        return TradeDecision(action, confidence=min(1.0, abs(total)))


_EXECUTOR_BY_ROLE = {
    Role.NEWS_ANALYST: NewsAnalystMock,
    Role.TECHNICAL_ANALYST: TechnicalAnalystMock,
    Role.FUNDAMENTAL_ANALYST: FundamentalAnalystMock,
    Role.BULLISH_OUTLOOK: BullishOutlookMock,
    Role.BEARISH_OUTLOOK: BearishOutlookMock,
    Role.NEUTRAL_OUTLOOK: NeutralOutlookMock,
    Role.TRADER: TraderMock,
    Role.SOLO_TRADER: SoloTraderMock,
}


@dataclass(frozen=True)
class AgentSpec:
    """Everything needed to run one agent: identity, role, prompt, executor."""

    index: int
    name: str
    role: Role
    prompt: PromptState
    executor: Any
    is_source: bool
    is_sink: bool


def execute_agent(
    spec: AgentSpec, upstream: Mapping[int, Any], external: Any = None
) -> Any:
    """Run one agent with information-flow enforcement.

    Source agents must receive external data; everyone else must not. Known
    payload types are range-checked on the way out. Empty upstream is legal
    and yields the executor's neutral behavior.
    """
    if spec.is_source and external is None:
        raise MissingExternalData(f"source agent {spec.name} needs external data")
    if not spec.is_source and external is not None:
        raise ForbiddenExternalAccess(
            f"agent {spec.name} may not access external data"
        )
    output = spec.executor(render_prompt(spec.prompt), upstream, external)
    if isinstance(output, (AnalystSignal, OutlookScore)):
        if not -1.0 <= output.score <= 1.0:
            raise InvalidAgentOutput(f"{spec.name} score {output.score} outside [-1, 1]")
    elif isinstance(output, TradeDecision):
        if not 0.0 <= output.confidence <= 1.0:
            raise InvalidAgentOutput(
                f"{spec.name} confidence {output.confidence} outside [0, 1]"
            )
    return output


def _positional_role(graph: WorkflowGraph, index: int) -> Role:
    is_source = index in graph.sources
    is_sink = index == graph.sink
    if is_source and is_sink:
        return Role.SOLO_TRADER
    if is_sink:
        return Role.TRADER
    if is_source:
        pos = graph.sources.index(index)
        return _ANALYST_ROLES[pos % len(_ANALYST_ROLES)]
    middles = [i for i in range(graph.n) if i not in graph.sources and i != graph.sink]
    return _OUTLOOK_ROLES[middles.index(index) % len(_OUTLOOK_ROLES)]


def _check_placement(graph: WorkflowGraph, index: int, role: Role, name: str) -> None:
    is_source = index in graph.sources
    is_sink = index == graph.sink
    if role in _ANALYST_ROLES and (not is_source or is_sink):
        raise RoleMismatch(f"{name}: analyst roles require a source position")
    if role in _OUTLOOK_ROLES and (is_source or is_sink):
        raise RoleMismatch(f"{name}: outlook roles require an intermediate position")
    if role is Role.TRADER and (not is_sink or is_source):
        raise RoleMismatch(f"{name}: trader role requires the sink position")
    if role is Role.SOLO_TRADER and not (is_sink and is_source):
        raise RoleMismatch(f"{name}: solo trader requires a single-agent position")


def build_system(
    graph: WorkflowGraph,
    seed: int,
    base_prompts: Mapping[str, str] | None = None,
    roles: Mapping[str, Role] | None = None,
) -> dict[int, AgentSpec]:
    """Assemble the mock agent system for a graph.

    Roles come from an explicit mapping, then from well-known agent names,
    then from graph position (sources rotate through the analyst roles,
    intermediates through the outlook roles, the sink is the trader). Base
    prompt text may be overridden per agent name.
    """
    specs: dict[int, AgentSpec] = {}
    for agent in graph.agents:
        if roles and agent.name in roles:
            role = roles[agent.name]
        elif agent.name in ROLE_BY_NAME:
            role = ROLE_BY_NAME[agent.name]
            if role is Role.TRADER and agent.index in graph.sources:
                role = Role.SOLO_TRADER
        else:
            role = _positional_role(graph, agent.index)
        _check_placement(graph, agent.index, role, agent.name)
        base = (base_prompts or {}).get(agent.name, DEFAULT_BASE_PROMPTS[role])
        specs[agent.index] = AgentSpec(
            index=agent.index,
            name=agent.name,
            role=role,
            prompt=PromptState(base_text=base),
            executor=_EXECUTOR_BY_ROLE[role](name=agent.name, seed=seed),
            is_source=agent.index in graph.sources,
            is_sink=agent.index == graph.sink,
        )
    return specs


def system_runner(specs: Mapping[int, AgentSpec]):
    """Adapt a spec table to the engine-facing runner signature."""

    def run(agent: int, upstream: Mapping[int, Any], external: Any) -> Any:
        return execute_agent(specs[agent], upstream, external)

    return run
