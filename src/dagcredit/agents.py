"""Agent specifications, prompt state, and deterministic mock executors.

An executor is a binder: ``executor(rendered prompt)`` returns a pure
``(upstream outputs, external data) -> output`` callable, with no clocks and
no global randomness, and ``system_runner`` binds each agent once per
runner. Each role's mock is one function of a sensitivity: a base derived
from the run seed and the agent's name, shifted by calibration tokens that
optimization lessons may append to a prompt, so the tuning loop has a
measurable, reproducible effect.
"""
from __future__ import annotations

import enum
import functools
import hashlib
import math
from typing import Any, Mapping, NamedTuple

from .graph import InputError, WorkflowGraph

# Calibration directives recognized by every mock. Each occurrence anywhere in
# the rendered prompt shifts sensitivity by one step.
DAMP_TOKEN = "[adjust:damp]"
BOOST_TOKEN = "[adjust:boost]"
SENSITIVITY_STEP = 0.1

# The technical analyst compares a short and a long simple moving average of
# closes; a relative spread of SPREAD_SCALE between them saturates its signal.
SMA_SHORT = 3
SMA_LONG = 8
SPREAD_SCALE = 0.02

# A trader buys when its weighted total exceeds this, and sells below minus it.
TRADE_THRESHOLD = 0.25

LESSON_DELIMITER = "\n---\n"


class MissingExternalData(RuntimeError):
    """A source agent was executed without its external data."""


class ForbiddenExternalAccess(RuntimeError):
    """A non-source agent was handed external data."""


class InvalidAgentOutput(ValueError):
    """An executor returned a payload outside its documented range."""


class RoleMismatch(InputError):
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


class PromptState(NamedTuple):
    """A prompt is an immutable base plus appended lesson blocks.

    ``version`` increases by exactly one per lesson append; the base text
    never changes after construction.
    """

    base_text: str
    lesson_blocks: tuple[str, ...] = ()
    version: int = 1

    @property
    def rendered(self) -> str:
        """Base text followed by lesson blocks, oldest first, delimiter-joined.

        Joined on each read; ``system_runner`` reads it once per binding.
        """
        return LESSON_DELIMITER.join((self.base_text, *self.lesson_blocks))


class Decision(enum.Enum):
    BUY = "buy"
    HOLD = "hold"
    SELL = "sell"

    def __init__(self, value: str) -> None:
        # The sign of the decision's value and the position it takes.
        self.sign = {"buy": 1, "hold": 0, "sell": -1}[value]


class Signal(NamedTuple):
    score: float


class TradeDecision(NamedTuple):
    action: Decision
    confidence: float


class MarketFeatures(NamedTuple):
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
    return output.action.sign * output.confidence


def _clamp(x: float, lo: float = -1.0, hi: float = 1.0) -> float:
    return max(lo, min(hi, x))


def _hash_unit(key: str) -> float:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def base_sensitivity(name: str, seed: int) -> float:
    """Seeded base sensitivity of an agent, in [0.35, 0.85]."""
    return 0.35 + 0.5 * _hash_unit(f"{seed}:{name}:sensitivity")


def sensitivity(base: float, prompt: str) -> float:
    """A base shifted by the prompt's calibration tokens.

    Damp tokens lower it and boost tokens raise it, one step each, clamped
    to [0, 1].
    """
    shift = SENSITIVITY_STEP * (prompt.count(BOOST_TOKEN) - prompt.count(DAMP_TOKEN))
    return _clamp(base + shift, 0.0, 1.0)


def _mean_score(upstream: Mapping[int, Any]) -> float:
    if not upstream:
        return 0.0
    return math.fsum([out.score for out in upstream.values()]) / len(upstream)


def _technical_analyst(s, upstream, external):
    closes = external.closes
    if len(closes) < 2:
        return Signal(0.0)
    fast = closes[-min(SMA_SHORT, len(closes)):]
    slow = closes[-min(SMA_LONG, len(closes)):]
    sma_fast = math.fsum(fast) / len(fast)
    sma_slow = math.fsum(slow) / len(slow)
    spread = (sma_fast - sma_slow) / sma_slow
    return Signal(_clamp(2.0 * s * spread / SPREAD_SCALE))


def _decide(total: float) -> TradeDecision:
    if total > TRADE_THRESHOLD:
        action = Decision.BUY
    elif total < -TRADE_THRESHOLD:
        action = Decision.SELL
    else:
        action = Decision.HOLD
    return TradeDecision(action, confidence=min(1.0, abs(total)))


# Each role's mock maps (sensitivity s, upstream, external) to its output.
# Most scale by the gain 2 * s: sensitivity 0.5 is unit gain, 1.0 doubles.
# The outlooks read the mean upstream score: the bullish one passes only its
# upside, the bearish one only its downside, and the neutral one damps it by
# s. The trader sums its upstream scores; the solo trader, the degenerate
# single-agent system, decides straight from market data.
ROLE_MOCKS = {
    Role.NEWS_ANALYST: lambda s, up, ext: Signal(_clamp(2.0 * s * ext.sentiment)),
    Role.TECHNICAL_ANALYST: _technical_analyst,
    Role.FUNDAMENTAL_ANALYST: lambda s, up, ext: Signal(_clamp(2.0 * s * ext.fundamental)),
    Role.BULLISH_OUTLOOK: lambda s, up, ext: Signal(
        _clamp(max(0.0, 2.0 * s * _mean_score(up)), 0.0, 1.0)
    ),
    Role.BEARISH_OUTLOOK: lambda s, up, ext: Signal(
        _clamp(min(0.0, 2.0 * s * _mean_score(up)), -1.0, 0.0)
    ),
    Role.NEUTRAL_OUTLOOK: lambda s, up, ext: Signal(_clamp(s * _mean_score(up))),
    Role.TRADER: lambda s, up, ext: _decide(2.0 * s * math.fsum([o.score for o in up.values()])),
    Role.SOLO_TRADER: lambda s, up, ext: _decide(2.0 * s * _clamp(ext.sentiment)),
}


def mock_executor(role: Role, name: str, seed: int):
    """The deterministic mock of one agent, as a binder from a rendered
    prompt to its (upstream, external) callable. The seeded base is hashed
    once, here, and the prompt's tokens are counted once per binding."""
    base = base_sensitivity(name, seed)
    mock = ROLE_MOCKS[role]

    def bind(prompt: str):
        return functools.partial(mock, sensitivity(base, prompt))

    return bind


class AgentSpec(NamedTuple):
    """Everything needed to run one agent: identity, role, prompt, and an
    executor, any binder from a rendered prompt to an (upstream, external)
    callable."""

    name: str
    role: Role
    prompt: PromptState
    executor: Any
    is_source: bool


# Per graph position, the roles it can hold, in the order its agents rotate
# through them, and what a role placed elsewhere is told. A single agent is
# both the source and the sink; every role fits one position.
_PLACEMENT = {
    "source": (_ANALYST_ROLES, "analyst roles require a source position"),
    "intermediate": (_OUTLOOK_ROLES, "outlook roles require an intermediate position"),
    "sink": ((Role.TRADER,), "trader role requires the sink position"),
    "single": ((Role.SOLO_TRADER,), "solo trader requires a single-agent position"),
}
_POSITION_OF = {role: pos for pos, (roles, _) in _PLACEMENT.items() for role in roles}


def _position(graph: WorkflowGraph, index: int) -> str:
    is_source = index in graph.sources
    if index == graph.sink:
        return "single" if is_source else "sink"
    return "source" if is_source else "intermediate"


def build_system(
    graph: WorkflowGraph,
    seed: int,
    base_prompts: Mapping[str, str] | None = None,
) -> dict[int, AgentSpec]:
    """Assemble the mock agent system for a graph.

    Roles come from well-known agent names, then from graph position (sources
    rotate through the analyst roles, intermediates through the outlook roles,
    the sink is the trader). A well-known name in a position its role cannot
    hold raises ``RoleMismatch``. Base prompt text may be overridden per agent
    name.
    """
    specs: dict[int, AgentSpec] = {}
    positions = [_position(graph, index) for index in range(graph.n)]
    for index, name in enumerate(graph.names):
        position = positions[index]
        if name in ROLE_BY_NAME:
            role = ROLE_BY_NAME[name]
            if role is Role.TRADER and index in graph.sources:
                role = Role.SOLO_TRADER
            required = _POSITION_OF[role]
            if position != required:
                raise RoleMismatch(f"{name}: {_PLACEMENT[required][1]}")
        else:
            roles = _PLACEMENT[position][0]
            role = roles[positions[:index].count(position) % len(roles)]
        base = (base_prompts or {}).get(name, DEFAULT_BASE_PROMPTS[role])
        specs[index] = AgentSpec(
            name=name,
            role=role,
            prompt=PromptState(base_text=base),
            executor=mock_executor(role, name, seed),
            is_source=index in graph.sources,
        )
    return specs


def system_runner(specs: Mapping[int, AgentSpec]):
    """Bind each agent of a spec table to its rendered prompt, once, and
    return the engine-facing runner ``run(agent, upstream, external)``.

    Source agents must receive external data; everyone else must not. Known
    payload types are range-checked on the way out. Empty upstream is legal
    and yields the executor's neutral behavior.
    """
    bound = {
        agent: (spec.executor(spec.prompt.rendered), spec.is_source, spec.name)
        for agent, spec in specs.items()
    }

    def run(agent: int, upstream: Mapping[int, Any], external: Any) -> Any:
        call, is_source, name = bound[agent]
        if is_source:
            if external is None:
                raise MissingExternalData(f"source agent {name} needs external data")
        elif external is not None:
            raise ForbiddenExternalAccess(f"agent {name} may not access external data")
        output = call(upstream, external)
        if isinstance(output, Signal):
            if not -1.0 <= output.score <= 1.0:
                raise InvalidAgentOutput(f"{name} score {output.score} outside [-1, 1]")
        elif isinstance(output, TradeDecision):
            if not 0.0 <= output.confidence <= 1.0:
                raise InvalidAgentOutput(f"{name} confidence {output.confidence} outside [0, 1]")
        return output

    return run
