"""The README's examples run as printed and say what they do."""

import re
import shlex
from pathlib import Path

import pytest

from padicsums.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
CLI_SECTION = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
CLI_EXAMPLES = re.findall(r"^    padicsums (.+)$", CLI_SECTION, flags=re.MULTILINE)
LIBRARY_EXAMPLE = README.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1]
LIBRARY_EXAMPLE = LIBRARY_EXAMPLE.split("```", 1)[0]


def test_the_cli_section_has_its_examples():
    assert len(CLI_EXAMPLES) == 6


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_cli_example_exits_zero(capsys, line):
    assert main(shlex.split(line)) == 0
    assert capsys.readouterr().out


def test_library_example_does_what_its_comment_says(capsys):
    assert "# exponent 3, certified, witness (0,0)" in LIBRARY_EXAMPLE
    scope = {}
    exec(LIBRARY_EXAMPLE, scope)
    cert, report = scope["cert"], scope["report"]
    assert (cert.exponent, cert.confidence) == (3, "certified")
    assert [(w.x, w.y) for w in cert.witnesses] == [(0, 0)]
    assert report.passed
    assert capsys.readouterr().out.split()[-1] == "True"
