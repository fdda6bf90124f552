"""The README's examples, run in-process.

Every ``$ trivalent ...`` line of a README code block must exit 0 and
print the output shown under it, up to its first ``...``; the one
example that reads files the README does not provide is left out.  The
*Library* block must print what its comments say.
"""

import re
import shlex
import sys
from pathlib import Path

import pytest

from trivalent import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def _examples():
    """(argv, shown output) for each ``$ trivalent`` line, in README order."""
    examples = []
    for _, body in BLOCKS:
        for chunk in re.split(r"^(?=\$ )", body, flags=re.MULTILINE):
            if chunk.startswith("$ trivalent "):
                command, _, shown = chunk.partition("\n")
                examples.append((shlex.split(command)[2:], shown.strip("\n")))
    return examples


# ``miura strict.json tree.json`` names files the README does not provide.
EXAMPLES = [(argv, shown) for argv, shown in _examples() if argv[0] != "miura"]


def test_readme_has_examples():
    assert len(_examples()) == len(EXAMPLES) + 1
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_command(capsys, argv, shown):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0
    head, dots, _ = shown.partition("...")
    if dots:
        assert out.startswith(head)
    elif shown:
        assert out == shown + "\n"


def test_readme_library_block(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "6\nTrue\n"


def test_entry_exits_with_the_code(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["trivalent", "verify", "figure"])
    with pytest.raises(SystemExit) as info:
        cli.entry()
    assert info.value.code == 0
    assert '"theorem": "figure"' in capsys.readouterr().out
