"""The ``s2fa`` flag surface, pinned against a recorded table.

``cli_surface.json`` was recorded from the hand-written parser that the
config-derived one replaced.  For every subcommand and nested
subcommand it holds the option strings and positionals; for every verb
that builds configs it holds the configs built from (a) no flags and
(b) every config flag set to a non-default value.  The derived parser
must reproduce both exactly.
"""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli, config

TABLE = json.loads(
    (Path(__file__).resolve().parent / "cli_surface.json").read_text())


def _subparsers(parser, path=()):
    yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subparsers(sub, path + (name,))


SUBPARSERS = dict(_subparsers(cli.build_parser()))


def _as_recorded(cfg) -> dict:
    """``cfg`` as a JSON dict shaped like the recorded table: the
    offload policy's fields sit flat in ``RuntimeConfig``, as they did
    when the table was recorded."""
    out = dataclasses.asdict(cfg)

    def flatten(d):
        for value in d.values():
            if isinstance(value, dict):
                flatten(value)
        d.update(d.pop("policy", {}))

    flatten(out)
    return json.loads(json.dumps(out))


def test_every_subparser_is_recorded():
    assert set(SUBPARSERS) == set(TABLE["surface"])


@pytest.mark.parametrize("path", sorted(TABLE["surface"]))
def test_option_strings_match(path):
    parser = SUBPARSERS[path]
    options = sorted(s for a in parser._actions for s in a.option_strings)
    positionals = [a.dest for a in parser._actions
                   if not a.option_strings
                   and not isinstance(a, argparse._SubParsersAction)]
    assert options == TABLE["surface"][path]["options"]
    assert positionals == TABLE["surface"][path]["positionals"]


@pytest.mark.parametrize("verb", sorted(TABLE["configs"]))
@pytest.mark.parametrize("case", ["none", "all"])
def test_built_configs_match(verb, case):
    recorded = TABLE["configs"][verb][case]
    args = cli.build_parser().parse_args(recorded["argv"])
    for name, expected in recorded["configs"].items():
        built = cli._config(getattr(config, name), args)
        assert _as_recorded(built) == expected, name


@pytest.mark.parametrize("verb", sorted(TABLE["configs"]))
def test_recorded_argv_sets_every_derived_flag(verb):
    """The 'all' case exercises each config flag of the verb, so the
    comparison above covers every derived flag."""
    parser = SUBPARSERS[verb]
    argv = TABLE["configs"][verb]["all"]["argv"]
    derived = {action.option_strings[0] for action in parser._actions
               if action.default is argparse.SUPPRESS
               and action.option_strings != ["-h", "--help"]}
    assert derived <= set(argv)


@pytest.mark.parametrize("path", sorted(TABLE["surface"]))
def test_help_renders(path):
    # argparse %-formats help text only when printing it, so a stray
    # '%' in a field's help fails here rather than in a user's shell.
    text = SUBPARSERS[path].format_help()
    assert text.startswith("usage: s2fa")


def test_help_lists_config_defaults():
    text = SUBPARSERS["explore"].format_help()
    assert "(default: 240.0)" in text
    assert "(default: xcvu9p)" in text


def test_parser_construction_imports_no_fuzz_or_serve():
    code = ("import sys\n"
            "from repro.cli import build_parser\n"
            "build_parser()\n"
            "print(sorted(m for m in sys.modules\n"
            "      if m.startswith(('repro.fuzz', 'repro.serve'))))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "[]"
