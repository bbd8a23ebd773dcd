"""The `$ braidtiles ...` examples and the library example in README.md
print what the README shows."""

import re
import shlex
from pathlib import Path

import pytest

from braidtiles.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _examples() -> list[tuple[str, list[str]]]:
    """(command line, expected stdout lines) for each example; a command
    continued with a trailing backslash is joined, and its output runs to the
    next blank line or fence."""
    lines = README.read_text().splitlines()
    examples = []
    i = 0
    while i < len(lines):
        if not lines[i].startswith("$ braidtiles "):
            i += 1
            continue
        command = lines[i][2:]
        while command.endswith("\\"):
            i += 1
            command = command[:-1] + lines[i].strip()
        i += 1
        output = []
        while i < len(lines) and lines[i].strip() and not lines[i].startswith("```"):
            output.append(lines[i])
            i += 1
        examples.append((command, output))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 7
    assert any(expected[0] == "..." for _, expected in EXAMPLES)


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    code = main(shlex.split(command)[1:])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    if expected[0] == "...":  # elided output: only the last line is shown
        assert out[-1:] == expected[-1:]
    else:
        assert out == expected


def test_readme_library_example(capsys):
    # each print(...) line ends with a comment that shows what it prints
    (code,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    expected = [line.rsplit("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    assert expected
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
