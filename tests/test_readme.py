"""The README's `pboost` command lines parse under the CLI's own parser."""

import re
import shlex
from pathlib import Path

import pytest

from pboost.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[str]:
    """Every `pboost ...` line of the README's sh blocks, with backslash
    continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("pboost "):
                commands.append(line)
    return commands


def test_readme_has_pboost_commands():
    assert len(_readme_commands()) >= 4


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_parses(command):
    build_parser().parse_args(shlex.split(command, comments=True)[1:])
