"""The README's library example runs as printed."""

import contextlib
import io
import re
from pathlib import Path

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
    # The line the example annotates with "49 evaluations, 73 executions".
    assert counters.startswith("CostCounters(")
    assert "coalition_evaluations=49," in counters
    assert "agent_executions=73," in counters
