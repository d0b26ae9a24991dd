"""docs/cli.md drift test: the reference must cover the real parser.

Walks ``build_parser()`` and requires, for every leaf subcommand, a
``## repro <command...>`` heading in docs/cli.md whose section mentions
every long option and every positional of that command. New flags or
commands therefore fail CI until the reference documents them.

The other way round, every ``--flag`` a section names must be an option
of its command, or be written as a cross-reference ``<other> --flag``
(in backticks) to an option of that other command, so a section never
documents a flag its command does not take.
"""

import argparse
import pathlib
import re

import pytest

from repro.cli import build_parser

DOC_PATH = pathlib.Path(__file__).resolve().parents[2] / "docs" / "cli.md"


def iter_leaf_commands(parser, path=()):
    """Yield (command path, long options, positionals) for leaf parsers."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if subs:
        for sub in subs:
            for name in sorted(sub.choices):
                yield from iter_leaf_commands(sub.choices[name],
                                              path + (name,))
        return
    options = sorted({
        opt
        for action in parser._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
    })
    positionals = sorted(
        action.dest
        for action in parser._actions
        if not action.option_strings
    )
    yield path, options, positionals


def doc_sections():
    """Heading -> section body, split on ``## `` headings."""
    text = DOC_PATH.read_text(encoding="utf-8")
    sections = {}
    heading = None
    body = []
    for line in text.splitlines():
        if line.startswith("## "):
            if heading is not None:
                sections[heading] = "\n".join(body)
            heading = line[3:].strip()
            body = []
        else:
            body.append(line)
    if heading is not None:
        sections[heading] = "\n".join(body)
    return sections


LEAVES = sorted(iter_leaf_commands(build_parser()))
SECTIONS = doc_sections()
OPTIONS = {" ".join(path): set(options) for path, options, _ in LEAVES}

FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")
#: `` `train --out` `` or `` `repro train --out` ``: another command's flag.
CROSS_REFERENCE = re.compile(r"`(?:repro )?([a-z][a-z -]*?) (--[A-Za-z][\w-]*)`")


def test_doc_exists():
    assert DOC_PATH.is_file(), f"missing CLI reference at {DOC_PATH}"


@pytest.mark.parametrize(
    "path,options,positionals", LEAVES,
    ids=[" ".join(path) for path, _, _ in LEAVES])
def test_command_documented(path, options, positionals):
    heading = "repro " + " ".join(path)
    assert heading in SECTIONS, (
        f"docs/cli.md lacks a `## {heading}` section; every subcommand "
        "must be documented")
    section = SECTIONS[heading]
    missing = [opt for opt in options if opt not in section]
    assert not missing, (
        f"`## {heading}` does not mention flag(s) {missing}; document "
        "them (the section text just has to contain the flag string)")
    missing_pos = [f"<{dest}>" for dest in positionals
                   if f"<{dest}>" not in section]
    assert not missing_pos, (
        f"`## {heading}` does not mention positional(s) {missing_pos}")


@pytest.mark.parametrize(
    "path", [path for path, _, _ in LEAVES],
    ids=[" ".join(path) for path, _, _ in LEAVES])
def test_documented_flags_exist(path):
    command = " ".join(path)
    section = SECTIONS.get("repro " + command, "")
    foreign = []
    for match in CROSS_REFERENCE.finditer(section):
        other, flag = match.groups()
        if other in OPTIONS:
            if flag not in OPTIONS[other]:
                foreign.append(match.group(0))
            section = section.replace(match.group(0), "")
    foreign += [flag for flag in FLAG.findall(section)
                if flag not in OPTIONS[command]]
    assert not foreign, (
        f"`## repro {command}` names flag(s) {foreign} that are not "
        "options of the command they name; write another command's flag "
        "as `<command> --flag`")


def test_no_phantom_commands():
    """Sections must not document commands the parser does not have."""
    known = {"repro " + " ".join(path) for path, _, _ in LEAVES}
    documented = {h for h in SECTIONS if h.startswith("repro ")}
    phantom = documented - known
    assert not phantom, (
        f"docs/cli.md documents nonexistent command(s): {sorted(phantom)}")
