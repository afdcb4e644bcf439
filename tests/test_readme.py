"""The README's `pboost` command lines parse under the CLI's own parser,
and its backticked `module.name` references name the package's attributes."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import pboost
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


def _readme_references() -> list[str]:
    """Every backticked `module.name` of the README, `pboost.` prefix or
    not, whose module is one of the package's."""
    modules = "|".join(m.name for m in pkgutil.iter_modules(pboost.__path__))
    pattern = rf"`(?:pboost\.)?((?:{modules})\.\w+)"
    return sorted(set(re.findall(pattern, README.read_text())))


def test_readme_has_module_references():
    assert len(_readme_references()) >= 11


@pytest.mark.parametrize("reference", _readme_references())
def test_readme_reference_resolves(reference):
    module, name = reference.split(".")
    assert hasattr(importlib.import_module(f"pboost.{module}"), name), reference
