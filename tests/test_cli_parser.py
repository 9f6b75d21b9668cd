"""`cli._read` against the full argparse tree.

`cli.main` reads the plain spellings of a command line straight off the
`_CLI` table with `_read`, and builds the argparse tree of `build_parser()`
only when `_read` returns None.  Whenever `_read` returns a Namespace it
must be the one `build_parser().parse_args(argv)` gives; every other argv
(help, usage errors, `--`, abbreviations, dash-led values, options before
the command) is argparse's own.  The corpus below and seeded fuzz argvs
built from `_CLI` check that, and `main` must print the same reports and
return the same exit codes with `_read` switched off.
"""

import argparse
import json
import random

import pytest

from localglobal import cli

README = [
    ["symbol", "hilbert2", "--", "-1", "-1", "infinity"],
    ["symbol", "legendre", "2", "17"],
    ["symbol", "quartic", "2", "17"],
    ["symbol", "hilbert3", "2", "60"],
    ["rl", "verify", "--ell", "2", "--p", "17"],
    ["rl", "verify", "--ell", "3", "--p", "13"],
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
    # no command samples: --samples and --seed are unrecognized at any value
    ["rl", "verify", "--ell", "2", "--p", "17", "--samples", "0"],
    ["rl", "verify", "--ell", "2", "--p", "17", "--samples", "-1"],
    ["rl", "verify", "--ell", "2", "--p", "17", "--seed", "-1"],
    ["rl", "verify", "--ell", "2", "--p", "17", "--seed=-1"],
    ["rl", "verify", "--ell", "2", "--p", "17", "--seed", "1000"],
    ["elkies", "scan", "--height", "-2"],
    ["elkies", "scan", "--height", "0"],
    ["rl", "exhaust", "--bound", "-1"],
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


# the spellings of the CI workflow that argparse accepts, and of the
# benchmark's fibre items
CI = [
    ["selmer", "verify"],
    ["selmer", "survival"],
    ["rl", "verify", "--ell", "2", "--p", "17"],
    ["rl", "verify", "--ell", "-2", "--p", "113"],
    ["rl", "verify", "--ell", "2", "--p", "31"],
    ["rl", "verify", "--ell", "2305843009213693951", "--p", "5"],
    ["rl", "search", "--ell", "-2", "--max-prime", "50"],
    ["elkies", "scan", "--height", "6"],
    ["elkies", "scan", "--height", "20"],
    ["elkies", "verify", "--t=1/3"],
    ["symbol", "legendre", "--", "-3", "7"],
]
# the CI workflow's spellings that must be usage errors: no command takes
# a digit count or samples, and only rl search and rl density a prime bound
CI_USAGE_ERRORS = [
    ["elkies", "verify", "--t=1/3", "--precision", "5"],
    ["elkies", "verify", "--t=1/3", "--precision", "0"],
    ["rl", "verify", "--ell", "2", "--p", "17", "--precision", "3"],
    ["elkies", "scan", "--height", "10", "--max-prime", "100000"],
    ["rl", "verify", "--ell", "2", "--p", "17", "--samples", "0"],
    ["rl", "verify", "--ell", "2", "--p", "17", "--seed", "-1"],
    ["rl", "verify", "--ell", "2", "--p", "17", "--seed", "0"],
]
PERFBENCH = [["elkies", "verify", f"--t={t}"] for t in ("infinity", "1", "-1/2", "-3/7", "13/14")]


def outcome(parser, argv, capsys):
    try:
        result = ("namespace", vars(parser.parse_args(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    out, err = capsys.readouterr()
    return result, out, err


def check_read(parser, argv, capsys) -> bool:
    """Where `_read` gives a Namespace, assert it is argparse's, with nothing
    printed; True if it gave one."""
    read = cli._read(argv)
    if read is not None:
        assert outcome(parser, argv, capsys) == (("namespace", vars(read)), "", ""), argv
    return read is not None


@pytest.mark.parametrize("argv", CORPUS, ids=" ".join)
def test_scoped_parser_matches_the_full_tree(argv, capsys):
    check_read(cli.build_parser(), argv, capsys)


def test_corpus_covers_help_usage_errors_and_reports(capsys):
    kinds = [outcome(cli.build_parser(), argv, capsys)[0] for argv in CORPUS]
    assert ("exit", 0) in kinds and ("exit", cli.USAGE_EXIT) in kinds
    assert sum(kind == "namespace" for kind, _ in kinds) >= len(README)


def plain(argv):
    """No `--`, no -h, no dash-led positional or value after a space."""
    return all(not token.startswith("-") or token[2:3].isalpha() for token in argv)


def test_plain_spellings_are_read_without_argparse():
    spellings = [argv for argv in README + CI + PERFBENCH if plain(argv)]
    assert len(spellings) >= len(README + CI + PERFBENCH) - 4
    for argv in spellings:
        assert cli._read(argv) is not None, argv


def test_argparse_only_spellings_are_passed_over(capsys):
    dashed = [argv for argv in DASHES if not plain(argv)]
    for argv in HELP + USAGE_ERRORS + OPTIONS_MOVED[:3] + dashed + CI_USAGE_ERRORS:
        assert cli._read(argv) is None, argv
    parser = cli.build_parser()
    for argv in CI_USAGE_ERRORS:
        assert outcome(parser, argv, capsys)[0] == ("exit", cli.USAGE_EXIT), argv


# ------------------------------------------------------------ fuzzed argv
_VALID = {
    int: lambda rng: str(rng.choice([1, 2, 3, 7, 17, 40, 113])),
    cli._positive_int: lambda rng: str(rng.randrange(1, 60)),
    cli._non_negative_int: lambda rng: str(rng.randrange(0, 60)),
    cli._rational: lambda rng: rng.choice(["2", "1/3", "-3/7", "60", "0"]),
    cli._parameter_t: lambda rng: rng.choice(["1", "1/3", "2/5", "infinity", "oo", "INF"]),
    cli._prime_list: lambda rng: rng.choice(["3,5,7", "11", "3, 13"]),
}
_ODD_VALUES = ["", "x", "0", "-1", "-2", "-1/2", "1/0", "a,b", "1.5", "1e3", " 7", "1_0",
               "xml", "text", "json", "inf", "--", "-h", "=", "verify", "elkies"]
_ODD_TOKENS = ["--", "-h", "--help", "-", "--bogus", "--t=", "-x", "extra", "7"]
_ALL_FLAGS = sorted({flags[0] for _, commands in cli._CLI.values() for arguments in commands.values()
                     for flags, _ in arguments + cli._COMMON if flags[0].startswith("--")})


def _value(rng, kwargs):
    if rng.random() < 0.25:
        return rng.choice(_ODD_VALUES)
    if "choices" in kwargs:
        return rng.choice(kwargs["choices"])
    make = _VALID.get(kwargs.get("type"))
    return make(rng) if make else rng.choice(["infinity", "2", "5", "oo"])


def _option(rng, flag, value):
    return [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]


def fuzz_argv(rng):
    """A command line of `_CLI`, valid more often than not, then perturbed:
    odd values, abbreviated, foreign or repeated flags, dropped or extra
    tokens, `--`, -h, and options moved in front of the command."""
    group = rng.choice(list(cli._CLI))
    command = rng.choice(list(cli._CLI[group][1]))
    arguments = cli._CLI[group][1][command]
    options, positionals = [], []
    for flags, kwargs in arguments + rng.sample(cli._COMMON, rng.randrange(len(cli._COMMON) + 1)):
        if not flags[0].startswith("-"):
            positionals.append(_value(rng, kwargs))
        elif kwargs.get("required") or rng.random() < 0.4:
            options.append(_option(rng, flags[0], _value(rng, kwargs)))
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        kind = rng.randrange(6)
        if kind == 0 and options:
            options.append(rng.choice(options))  # a repeat
        elif kind == 1:
            flag = rng.choice(_ALL_FLAGS)
            if rng.random() < 0.5:
                flag = flag[:rng.randrange(3, len(flag) + 1)]  # an abbreviation
            options.append(_option(rng, flag, rng.choice(_ODD_VALUES + ["3", "1/3"])))
        elif kind == 2 and options:
            options.pop(rng.randrange(len(options)))
        elif kind == 3 and positionals:
            positionals.pop(rng.randrange(len(positionals)))
        elif kind == 4:
            positionals.insert(rng.randrange(len(positionals) + 1), rng.choice(_ODD_TOKENS))
        elif kind == 5 and options:
            options[-1] = options[-1][:1]  # a flag without its value
    rng.shuffle(options)
    tail = [token for option in options for token in option]
    for value in positionals:
        tail.insert(rng.randrange(len(tail) + 1), value)
    head = [group, command]
    if rng.random() < 0.05:
        head.insert(rng.randrange(3), rng.choice(_ALL_FLAGS))
    if rng.random() < 0.05:
        head[rng.randrange(2)] = rng.choice(["rl", "verify", "nope", "-h"])
    return head + tail


def test_read_matches_the_full_tree_on_fuzzed_argv(capsys):
    rng, parser = random.Random(20260), cli.build_parser()
    read = sum(check_read(parser, fuzz_argv(rng), capsys) for _ in range(20_000))
    assert 3_000 <= read <= 17_000


def _report(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    if out.startswith("{"):
        out = json.loads(out)
        out.pop("timings")
    else:
        out = [line for line in out.splitlines() if not line.startswith("timings.")]
    return code, out, err


def test_main_prints_the_same_reports_without_the_reader(monkeypatch, capsys):
    argvs = README + OPTIONS_MOVED
    read = [_report(argv, capsys) for argv in argvs]
    monkeypatch.setattr(cli, "_read", lambda argv: None)
    assert [_report(argv, capsys) for argv in argvs] == read
    assert {code for code, _, _ in read} == {0, cli.USAGE_EXIT}


def _subparsers(parser):
    actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return actions[0].choices if actions else {}


def _option_strings(parser):
    return {flag for action in parser._actions for flag in action.option_strings}


def test_the_full_tree_builds_every_command():
    groups = _subparsers(cli.build_parser())
    for group, (_, commands) in cli._CLI.items():
        built = _subparsers(groups[group])
        assert list(built) == list(commands)
        assert "-h" in _option_strings(groups[group])
        for command, parser in built.items():
            assert {"-h", "--format"} <= _option_strings(parser)
            assert not {"--precision", "--seed", "--samples"} & _option_strings(parser)
            # only the searches that test primes take a prime bound
            takes_bound = (group, command) in (("rl", "search"), ("rl", "density"))
            assert ("--max-prime" in _option_strings(parser)) == takes_bound


def test_main_reads_sys_argv_when_given_none(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["localglobal", "symbol", "legendre", "2", "7"])
    assert cli.main() == 0
    assert '"value": "+1"' in capsys.readouterr().out
