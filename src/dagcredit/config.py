"""Run configuration and input file loading.

A run is described by a flat JSON object; command-line flags override file
values field by field. Graph definitions are JSON too: layers of agent names,
name-pair edges, and an optional roster of agent names.
"""
from __future__ import annotations

import dataclasses
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .graph import InputError, WorkflowGraph, build_graph, reference_graph

ENGINES = ("dag", "both")
REGIMES = ("bull", "bear", "sideways")


class ConfigError(InputError):
    pass


@dataclass
class RunConfig:
    seed: int = 42
    out_dir: str | None = None
    engine: str = "dag"
    graph_file: str | None = None
    market_csv: str | None = None
    features_csv: str | None = None
    prompts_dir: str | None = None
    symbol: str | None = None
    days: int = 60
    regime: str = "bull"
    signal_strength: float = 0.6
    window_len: int = 5
    threshold: float = 0.0
    lesson_cap: int | None = 5
    rf_daily: float = 0.0

    def validate(self) -> "RunConfig":
        for f in dataclasses.fields(self):
            # Annotations are strings here (postponed evaluation), such as
            # "int" or "str | None"; a value must match one of the parts.
            kinds = f.type.split(" | ")
            value = getattr(self, f.name)
            if not any(_IS_KIND[kind](value) for kind in kinds):
                expected = " or ".join(_KIND_NAMES[kind] for kind in kinds)
                raise ConfigError(f"{f.name} must be {expected}, got {value!r}")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        if self.regime not in REGIMES:
            raise ConfigError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        if self.window_len < 3:
            raise ConfigError("window_len must be at least 3")
        if self.days < 2:
            raise ConfigError("days must be at least 2")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ConfigError("signal_strength must be in [0, 1]")
        if self.lesson_cap is not None and self.lesson_cap < 1:
            raise ConfigError("lesson_cap must be at least 1 (or null for unbounded)")
        if bool(self.market_csv) != bool(self.features_csv):
            raise ConfigError("market_csv and features_csv must be given together")
        return self


def _is_int(value) -> bool:
    # A bool is an int to Python, but never a count, a seed or a number here.
    return isinstance(value, int) and not isinstance(value, bool)


# JSON files may hold NaN and Infinity, which no real-valued field can use.
_IS_KIND = {
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v),
    "str": lambda v: isinstance(v, str),
    "None": lambda v: v is None,
}
_KIND_NAMES = {
    "int": "an integer", "float": "a finite number", "str": "a string", "None": "null",
}

_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def reject_unread(config: RunConfig, names: Iterable[str], message: str) -> None:
    """Raise ConfigError, naming at the ``{}`` of ``message`` each of the
    fields ``names`` that ``config`` moves off its default: settings that a
    run which does not read them would silently ignore."""
    defaults = RunConfig()
    unread = [name for name in names if getattr(config, name) != getattr(defaults, name)]
    if unread:
        raise ConfigError(message.format(", ".join(unread)))


def _read_text(path: str | Path) -> str:
    # A leading byte-order mark is not part of the text.
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None


def _read_json(path: str | Path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def load_config(path: str | Path) -> RunConfig:
    """Read a JSON config file; unknown keys are an error, not a surprise."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = sorted(set(raw) - _FIELDS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    try:
        return RunConfig(**raw).validate()
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def merge_flags(config: RunConfig, flags: dict[str, object]) -> RunConfig:
    """Lay the flags that were given (not None) over a config, then re-validate.
    Keys that name no field, such as the subcommand, are skipped."""
    changes = {k: v for k, v in flags.items() if k in _FIELDS and v is not None}
    return dataclasses.replace(config, **changes).validate()


def config_graph(config: RunConfig) -> WorkflowGraph:
    """The run's workflow graph: ``graph_file`` when set, else the reference graph."""
    return load_graph_file(config.graph_file) if config.graph_file else reference_graph()


def load_graph_file(path: str | Path) -> WorkflowGraph:
    """Build a workflow graph from its JSON description.

    Expected keys: ``layers`` (list of lists of agent names), ``edges``
    (list of [from, to] name pairs) and optional ``agents`` roster to check
    the partition against.
    """
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: graph definition must be a JSON object")
    unknown = sorted(set(raw) - {"layers", "edges", "agents"})
    if unknown:
        raise ConfigError(f"{path}: unknown graph keys {unknown}")
    if "layers" not in raw or "edges" not in raw:
        raise ConfigError(f"{path}: graph definition needs 'layers' and 'edges'")
    layers, edges = raw["layers"], raw["edges"]
    agents = raw.get("agents")
    if not _list_of(layers, _names):
        raise ConfigError(f"{path}: layers must be a list of lists of agent names")
    if not _list_of(edges, lambda e: _names(e) and len(e) == 2):
        raise ConfigError(f"{path}: edges must be [from, to] pairs of agent names")
    if agents is not None and not _names(agents):
        raise ConfigError(f"{path}: agents must be a list of agent names")
    return build_graph(layers, [tuple(e) for e in edges], agents=agents)


def _list_of(value, item_ok) -> bool:
    return isinstance(value, list) and all(item_ok(item) for item in value)


def _names(value) -> bool:
    return _list_of(value, lambda name: isinstance(name, str))


def load_prompts_dir(path: str | Path) -> dict[str, str]:
    """Read per-agent base prompts: one ``<NAME>.txt`` file per agent, the
    suffix matched by case on every OS (``Path.glob`` ignores it on Windows)."""
    directory = Path(path)
    if not directory.is_dir():
        raise ConfigError(f"{path}: not a directory")
    return {
        p.stem: _read_text(p).strip()
        for p in sorted(directory.iterdir()) if p.suffix == ".txt"
    }
