"""README's fenced Python runs as written and prints the numbers it shows."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from penmfg import config, model

README = Path(__file__).parents[1] / "README.md"


def test_readme_quick_start_runs_and_prints_its_comment():
    """Each ``print(...)  # a  b`` line of a fenced block prints a and b to
    their shown decimals, so a renamed API or a moved number fails here
    instead of leaving the README stale."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        re.S)
    assert blocks
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        shown = [line.split("#", 1)[1].split() for line in block.splitlines()
                 if line.startswith("print(") and "#" in line]
        printed = [line.split() for line in out.getvalue().splitlines()]
        assert len(printed) == len(shown)
        for got, want in zip(printed, shown):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                decimals = len(w.partition(".")[2])
                assert float(g) == pytest.approx(float(w), abs=0.5 * 10.0**-decimals)


def test_readme_presets_section_names_every_preset_and_parameter():
    """The Presets section lists each preset of ``model._PRESETS`` with every
    parameter it reads and that parameter's default, so it cannot drift."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Presets\n", 1)[1].split("\n## ", 1)[0]
    section = " ".join(section.split())
    common = {**model._COMMON, "init": "point", "x0": 0.0}
    for name, (own, _) in model._PRESETS.items():
        assert f"`{name}`" in section
        for key, default in {**common, **own}.items():
            shown = (" ".join(f"{v:g}" for v in default) if isinstance(default, tuple)
                     else default)
            assert re.search(rf"`{key}` \((`)?{re.escape(str(shown))}(`)?\)", section), key
    for key in ("init_lower", "init_upper"):
        assert f"`{key}`" in section


def test_readme_commands_line_names_every_command_in_order():
    """The ``Commands:`` line names exactly ``config.COMMANDS``, in order, so
    an added or removed command cannot leave the README stale."""
    text = README.read_text(encoding="utf-8")
    line = " ".join(text.split("\nCommands: ", 1)[1].split(". Flags:", 1)[0].split())
    assert re.findall(r"`([^`]+)`", line) == list(config.COMMANDS)
