"""The README's library example runs as printed, and its settings table
matches ``RunConfig``."""

import argparse
import contextlib
import dataclasses
import io
import json
import re
from pathlib import Path

from dagcredit.cli import build_parser
from dagcredit.config import RunConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block of the README's ``## Library`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_prints_its_counters():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    *contributions, counters = out.getvalue().splitlines()
    assert len(contributions) == 7
    # The line the example annotates with "73 runner calls".
    assert counters == "73"


def settings_table() -> list[list[str]]:
    """The cells of each row of the README's ``RunConfig`` table."""
    text = README.read_text(encoding="utf-8")
    table = text.split("\n| field | flag | default |", 1)[1].split("\n\n", 1)[0]
    return [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in table.splitlines()[2:]
    ]


def option_dests() -> dict[str, str]:
    """Each option string of every subcommand, mapped to its ``dest``."""
    parser = build_parser()
    (subs,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        option: action.dest
        for sub in subs.choices.values()
        for action in sub._actions
        for option in action.option_strings
    }


def test_readme_settings_table_matches_run_config():
    rows = settings_table()
    dests = option_dests()
    fields = dataclasses.fields(RunConfig)
    assert [row[0] for row in rows] == [f"`{f.name}`" for f in fields]
    for (_, flags, default, _), field in zip(rows, fields):
        value = json.loads(default.strip("`"))
        assert (type(value), value) == (type(field.default), field.default), field.name
        # Each flag named is one the parser stores under the field.
        named = re.findall(r"`(--[a-z-]+)`", flags)
        assert named or flags == "config file only", field.name
        for flag in named:
            assert dests.get(flag) == field.name, flag
        if not named:
            assert field.name not in dests.values(), field.name
