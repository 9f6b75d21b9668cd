"""The argv-scoped argparse tree against the full one.

`cli.build_parser(argv)` builds only the parsers argv can reach;
`cli.build_parser()` builds every parser and is the oracle.  For each argv
the two must give the same Namespace, or the same exit code, stdout and
stderr when parsing stops with SystemExit (help and usage errors).
"""

import argparse

import pytest

from localglobal import cli

README = [
    ["symbol", "hilbert2", "--", "-1", "-1", "infinity"],
    ["symbol", "legendre", "2", "17"],
    ["symbol", "quartic", "2", "17"],
    ["symbol", "hilbert3", "2", "60"],
    ["rl", "verify", "--ell", "2", "--p", "17"],
    ["rl", "search", "--ell", "2", "--max-prime", "100"],
    ["rl", "search", "--ell", "2", "--max-prime", "100000"],
    ["rl", "density", "--ell", "2", "--max-prime", "200000"],
    ["rl", "exhaust", "--bound", "1000"],
    ["rl", "smooth"],
    ["elkies", "verify", "--t", "infinity"],
    ["elkies", "verify", "--t", "1"],
    ["elkies", "scan", "--height", "10"],
    ["selmer", "verify"],
    ["selmer", "survival"],
]

HELP = [["--help"], ["-h"]] + [
    argv
    for group, (_, commands) in cli._CLI.items()
    for argv in [[group, "--help"], [group, "-h"]]
    + [[group, command, flag] for command in commands for flag in ("--help", "-h")]
]

USAGE_ERRORS = [
    ["rl", "bogus"],
    ["rl", "verify"],
    ["nope"],
    [],
    ["elkies", "verify", "--t", "x/y"],
    ["verify"],
    ["rl"],
    ["selmer", "verify", "--bogus"],
    ["elkies", "verify", "--t=1", "extra"],
    ["elkies", "verify", "--format", "xml", "--t=1"],
    ["rl", "smooth", "--primes", "a,b"],
    ["elkies", "scan", "--t=1"],
    ["elkies", "verify", "--t=1/3", "--precision", "0"],
    ["elkies", "scan", "--precision", "-3"],
    ["elkies", "verify", "--t=1/3", "--max-prime", "0"],
    ["rl", "search", "--ell", "2", "--max-prime", "-1"],
    ["rl", "verify", "--ell", "2", "--p", "17", "--precision", "x"],
    ["rl", "verify", "--ell", "2", "--p", "17", "--samples", "0"],
    ["rl", "verify", "--ell", "2", "--p", "17", "--samples", "-1"],
    ["elkies", "scan", "--height", "-2"],
    ["elkies", "scan", "--height", "0"],
]

OPTIONS_MOVED = [
    ["--precision", "5", "elkies", "verify", "--t=1"],
    ["--format", "text", "rl", "search", "--ell", "2"],
    ["elkies", "--seed", "3", "verify", "--t=1"],
    ["elkies", "verify", "--seed", "3", "--t=1/3", "--precision", "8"],
    ["rl", "verify", "--seed", "7", "--samples", "3", "--p", "17", "--ell", "2"],
    ["elkies", "verify", "--t=1/3", "--format", "text"],
]

DASHES = [
    ["symbol", "legendre", "--", "-3", "7"],
    ["symbol", "hilbert3", "--", "-2", "-1/3"],
    ["symbol", "hilbert2", "-1", "-1", "infinity"],
    ["elkies", "verify", "--t", "-1/2"],
    ["elkies", "verify", "--t=-2"],
    ["rl", "search", "--ell", "-2", "--max-prime", "50"],
]

CORPUS = README + HELP + USAGE_ERRORS + OPTIONS_MOVED + DASHES


def outcome(parser, argv, capsys):
    try:
        result = ("namespace", vars(parser.parse_args(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    out, err = capsys.readouterr()
    return result, out, err


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_scoped_parser_matches_the_full_tree(argv, capsys):
    scoped = outcome(cli.build_parser(argv), argv, capsys)
    full = outcome(cli.build_parser(), argv, capsys)
    assert scoped == full


def test_corpus_covers_help_usage_errors_and_reports(capsys):
    kinds = [outcome(cli.build_parser(argv), argv, capsys)[0] for argv in CORPUS]
    assert ("exit", 0) in kinds and ("exit", cli.USAGE_EXIT) in kinds
    assert sum(kind == "namespace" for kind, _ in kinds) >= len(README)


def _subparsers(parser):
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


def _option_strings(parser):
    return {flag for action in parser._actions for flag in action.option_strings}


def test_only_the_named_group_and_command_are_built():
    groups = _subparsers(cli.build_parser(["elkies", "verify", "--t=1"]))
    assert list(groups) == list(cli._CLI)
    for group in ("rl", "symbol", "selmer"):
        assert _subparsers(groups[group]) == {}
    commands = _subparsers(groups["elkies"])
    assert list(commands) == ["verify", "scan"]
    assert "--t" in _option_strings(commands["verify"])
    assert "--height" not in _option_strings(commands["scan"])


def test_only_reachable_parsers_get_help():
    top = cli.build_parser(["elkies", "verify", "--t=1"])
    groups = _subparsers(top)
    assert "-h" in _option_strings(top) and "-h" in _option_strings(groups["elkies"])
    for group in ("rl", "symbol", "selmer"):
        assert "-h" not in _option_strings(groups[group])
    commands = _subparsers(groups["elkies"])
    assert "-h" in _option_strings(commands["verify"])
    assert "-h" not in _option_strings(commands["scan"])


def test_the_full_tree_builds_every_command():
    groups = _subparsers(cli.build_parser())
    for group, (_, commands) in cli._CLI.items():
        built = _subparsers(groups[group])
        assert list(built) == list(commands)
        assert "-h" in _option_strings(groups[group])
        for parser in built.values():
            assert {"-h", "--precision", "--max-prime", "--seed", "--format"} <= _option_strings(parser)


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["localglobal", "symbol", "legendre", "2", "7"])
    assert cli.main() == 0
    assert '"value": "+1"' in capsys.readouterr().out
