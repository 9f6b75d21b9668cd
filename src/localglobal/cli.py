"""Command-line entry point: every verification, search, and scan in the
package as a machine-readable report.

Reports are JSON objects {command, params, result, status, timings} printed
to standard output (or a flattened text rendering with --format text).
Invariant values appear as exact fraction strings ("0", "1/2", "1/3",
"2/3"); prime lists are ascending.  For fixed arguments the report is
reproducible byte for byte apart from the timings block, which records
wall-clock milliseconds.

The command line is described once, in the `_CLI` table.  `main` reads the
plain spellings (group, command, exact long flags, positionals) straight
off it with `_read`; anything else (help, `--`, abbreviations, dash-led
values, options before the command, usage errors) goes to the argparse tree
that `build_parser` builds from the same table, so help text, usage errors
and exit codes are argparse's own.  argparse is imported only there: a
plain command line never loads it.

Exit codes: 0 for a definite scientific outcome (ok, obstructed, or
no_local_point), 2 for inconclusive (a p-adic step could not certify its
digits, or factoring ran out of its budget of rho iterations, and the
message names the cofactor it could not split; rl verify decides every
place by rule, so only its factoring of |ell| can be), 1 for runtime
errors and failed self-checks (status "error"), 64 for usage errors, a
--max-prime or --height below 1 and a --bound below 0 among them.  No
command takes a digit count: each p-adic step works out its own from its
input.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

from .cubic import PI, Eisenstein, cube_class_group, express, hilbert3
from .elkies import (
    _bad_place_point,
    family_scan,
    fibre,
    fibre_certificate,
    obstruction_parity,
    uncertified_rule,
    uw_of,
)
from .exact import (
    CertificateError,
    FactoringBudgetExhausted,
    legendre_symbol,
    primes_up_to,
    quartic_residue_symbol,
)
from .padic import InsufficientPrecision
from .reichardt_lind import (
    NoPointError,
    ObstructionReport,
    TwistParams,
    _check_ell,
    _make_report,
    _passing_primes,
    density_experiment,
    exhaustive_search,
    forced_section_invariants,
    local_image,
    model_smoothness_check,
    twist_conditions,
)
from .selmer import evaluate_F_local, section_point, survival_analysis
from .symbols import as_place, hilbert2
from .tower import GAMMA, evaluate_F_symbolic, norm_K_over_k

__all__ = ["main", "build_parser"]

USAGE_EXIT = 64


class _Refused(ValueError):
    """A value a type function refuses; argparse prints the message as
    the usage error."""


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _Refused(f"not a rational number: {text!r}") from exc


def _parameter_t(text: str):
    if text.lower() in ("inf", "infinity", "oo"):
        return None
    return _rational(text)


def _int_at_least(least: int):
    """The type of an integer option that refuses values below `least`."""
    def read(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise _Refused(f"not an integer: {text!r}") from exc
        if value < least:
            raise _Refused(f"must be a {'positive' if least else 'non-negative'} integer: {text!r}")
        return value
    return read


_positive_int, _non_negative_int = _int_at_least(1), _int_at_least(0)


def _prime_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _Refused(f"not a comma-separated integer list: {text!r}") from exc


# The whole command line, described once: group -> (help, {command:
# [(flags, add_argument keywords), ...]}).  Every command also takes _COMMON,
# whose values default to _DEFAULTS.  None of them sets a p-adic digit
# count, and only the searches that test primes take a prime bound.
_DEFAULTS = {"format": "json"}
_COMMON = [
    (("--format",), {"choices": ("json", "text"), "help": "report rendering (default json)"}),
]
_ELL = (("--ell",), {"type": int, "required": True})
_MAX_PRIME = (("--max-prime",), {"type": _positive_int,
                                 "help": "test the primes up to this bound (default 100 for "
                                         "rl search, 200000 for rl density)"})

_CLI = {
    "symbol": ("residue and Hilbert symbols", {
        "legendre": [(("a",), {"type": int}), (("p",), {"type": int})],
        "quartic": [(("a",), {"type": int}), (("p",), {"type": int})],
        "hilbert2": [(("a",), {"type": _rational}), (("b",), {"type": _rational}),
                     (("place",), {"help": "a prime, or 'infinity'"})],
        "hilbert3": [(("a",), {"type": _rational}), (("b",), {"type": _rational})],
    }),
    "rl": ("the quartic twist family ell*y^2 = z^4 - p", {
        "verify": [_ELL, (("--p",), {"type": int, "required": True})],
        "search": [_ELL, _MAX_PRIME],
        "density": [_ELL, _MAX_PRIME],
        "exhaust": [(("--ell",), {"type": int, "default": 2}),
                    (("--rhs",), {"type": int, "default": 17}),
                    (("--bound",), {"type": _non_negative_int, "required": True})],
        "smooth": [(("--ell",), {"type": int, "default": 2}),
                   (("--p",), {"type": int, "default": 17}),
                   (("--primes",), {"type": _prime_list, "default": (3, 5, 7, 11, 13)})],
    }),
    "elkies": ("the quartic family with constant N(t)", {
        "verify": [(("--t",), {"type": _parameter_t, "required": True,
                               "help": "rational parameter, or 'infinity'"})],
        "scan": [(("--height",), {"type": _positive_int, "default": 10})],
    }),
    "selmer": ("the diagonal cubic 3X^3+4Y^3+5Z^3", {"verify": [], "survival": []}),
}


def build_parser() -> "argparse.ArgumentParser":
    """The full argparse tree of `_CLI`.

    `main` builds it only when `_read` passes an argv over, so it answers
    help, usage errors and the rarer spellings; it is also the reference
    that `_read` is tested against.
    """
    import argparse
    import functools

    class _Parser(argparse.ArgumentParser):
        """argparse with the conventional 64 exit for usage errors."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")

    def reporting(kwargs: dict) -> dict:
        """`kwargs` with a type whose refusals argparse prints verbatim."""
        typ = kwargs.get("type")
        if typ is None:
            return kwargs

        @functools.wraps(typ)
        def checked(text):
            try:
                return typ(text)
            except _Refused as exc:
                raise argparse.ArgumentTypeError(str(exc)) from exc

        return dict(kwargs, type=checked)

    parser = _Parser(prog="localglobal",
                     description="Exact local-global obstruction computations.")
    parser.set_defaults(**_DEFAULTS)
    groups = parser.add_subparsers(dest="group", required=True, parser_class=_Parser)
    for group, (help_text, commands) in _CLI.items():
        group_parser = groups.add_parser(group, help=help_text)
        subs = group_parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
        for command, arguments in commands.items():
            sp = subs.add_parser(command)
            for flags, kwargs in _COMMON:
                sp.add_argument(*flags, default=argparse.SUPPRESS, **reporting(kwargs))
            for flags, kwargs in arguments:
                sp.add_argument(*flags, **reporting(kwargs))
    return parser


def _dest(flag: str) -> str:
    """The attribute argparse stores a flag or positional under."""
    return flag.lstrip("-").replace("-", "_")


def _read(argv: list) -> SimpleNamespace | None:
    """The Namespace of `build_parser().parse_args(argv)`, read straight off
    `_CLI`, or None to leave argv to argparse.

    It reads a group and one of its commands, then only that command's
    exact long flags, as --flag=value or as --flag value with a value not
    led by "-", and positionals not led by "-", which fill the command's
    slots in order.  Values go through the table's type and choices.  Any
    other token, a refused value, an unfilled slot or a missing required
    flag gives None, so help, usage errors and their exit codes stay
    argparse's.
    """
    if len(argv) < 2 or argv[0] not in _CLI or argv[1] not in _CLI[argv[0]][1]:
        return None
    arguments = _CLI[argv[0]][1][argv[1]]
    values = dict(_DEFAULTS, group=argv[0], command=argv[1])
    values.update((_dest(flags[0]), kwargs.get("default")) for flags, kwargs in arguments)
    options = {flags[0]: kwargs for flags, kwargs in _COMMON + arguments
               if flags[0].startswith("--")}
    slots = iter([(flags[0], kwargs) for flags, kwargs in arguments
                  if not flags[0].startswith("-")])
    missing = {flag for flag, kwargs in options.items() if kwargs.get("required")}
    tokens = iter(argv[2:])
    for token in tokens:
        if token.startswith("-"):
            flag, equals, text = token.partition("=")
            if flag not in options:
                return None
            if not equals:
                text = next(tokens, "-")
                if text.startswith("-"):
                    return None
            dest, kwargs = _dest(flag), options[flag]
            missing.discard(flag)
        else:
            dest, kwargs = next(slots, (None, None))
            if dest is None:
                return None
            text = token
        try:
            values[dest] = value = kwargs.get("type", str)(text)
        except (TypeError, ValueError):  # a refused value: argparse reports it
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
    if missing or next(slots, None) is not None:
        return None
    return SimpleNamespace(**values)


# ------------------------------------------------------------ serialization
def _invariants(values) -> list[str]:
    return [str(v) for v in sorted(values, key=lambda i: i.value)]


def _obstruction_payload(report: ObstructionReport) -> dict:
    return {
        "contributions": {
            str(place): _invariants(vals) for place, vals in report.contributions
        },
        "total": _invariants(report.total),
        "verdict": report.verdict,
    }


def _eisenstein_pair(x: Eisenstein) -> list[str]:
    return [str(x.a), str(x.b)]


# ------------------------------------------------------------------ workers
def _work_symbol(args, stage):
    if args.command == "legendre":
        value = legendre_symbol(args.a, args.p)
        return "ok", {"a": args.a, "p": args.p,
                      "value": {1: "+1", -1: "-1", 0: "0"}[value]}
    if args.command == "quartic":
        return "ok", {"a": args.a, "p": args.p,
                      "value": quartic_residue_symbol(args.a, args.p).label}
    if args.command == "hilbert2":
        sign, inv = hilbert2(args.a, args.b, as_place(args.place))
        return "ok", {"a": str(args.a), "b": str(args.b), "place": str(as_place(args.place)),
                      "sign": sign, "invariant": str(inv)}
    inv = hilbert3(args.a, args.b)
    return "ok", {"a": str(args.a), "b": str(args.b), "field": "Q_3(zeta_3)",
                  "invariant": str(inv)}


def _work_rl(args, stage):
    if args.command == "verify":
        tw = TwistParams(args.ell, args.p)
        t0 = time.perf_counter()
        points = _make_report({place: local_image(tw, place) for place in tw.bad_places})
        stage("points", t0)
        t0 = time.perf_counter()
        forced = forced_section_invariants(tw)
        stage("forced", t0)
        for place, values in points.contributions:
            if not values <= forced.contribution(place):
                raise CertificateError(f"the point image at {place} exceeds its forced set")
        conditions = twist_conditions(tw)
        obstructed = points.verdict == forced.verdict == "obstructed"
        return ("obstructed" if obstructed else "ok"), {
            "ell": args.ell,
            "p": args.p,
            "point_analysis": _obstruction_payload(points),
            "forced_analysis": _obstruction_payload(forced),
            "conditions": {
                "odd_prime_coprime": conditions.odd_prime_coprime,
                "quartic_nonresidue": conditions.quartic_nonresidue,
                "square_mod_ell_primes": conditions.square_mod_ell_primes,
                "two_adic_solvable": conditions.two_adic_solvable,
            },
        }
    if args.command == "search":
        # The ascending p <= bound whose twists pass the four conditions (the
        # sieve) and whose forced sections are obstructed; |ell| is factored
        # once, and a TwistParams is built only for a passing p, with no
        # proof: the sieve proved p and `_check_ell` the primes of |ell|.
        bound = args.max_prime or 100
        fz = _check_ell(args.ell)
        t0 = time.perf_counter()
        passing = list(_passing_primes(args.ell, fz, primes_up_to(bound)))
        stage("sieve", t0)
        t0 = time.perf_counter()
        twists = [p for p in passing if forced_section_invariants(
            TwistParams._proven(args.ell, p, fz)).verdict == "obstructed"]
        stage("forced", t0)
        return "ok", {"ell": args.ell, "max_prime": bound, "twists": twists}
    if args.command == "density":
        bound = args.max_prime or 200_000
        report = density_experiment(args.ell, bound)
        relative = abs(report.ratio - report.predicted) / report.predicted
        return "ok", {
            "ell": report.ell,
            "max_prime": report.p_max,
            "valid_twists": report.valid_count,
            "primes_tested": report.prime_count,
            "empirical": str(report.ratio),
            "predicted": str(report.predicted),
            "relative_error": f"{float(relative):.6f}",
        }
    if args.command == "exhaust":
        solutions = exhaustive_search(args.bound, args.ell, args.rhs)
        return "ok", {"ell": args.ell, "rhs": args.rhs, "bound": args.bound,
                      "solutions": [list(s) for s in solutions]}
    tw = TwistParams(args.ell, args.p)
    results = {str(q): model_smoothness_check(q, tw) for q in args.primes}
    return "ok", {"ell": args.ell, "p": args.p, "primes": list(args.primes),
                  "results": results, "all_smooth": all(results.values())}


def _work_elkies(args, stage):
    if args.command == "verify":
        # one certificate decides the fibre, as in `elkies scan`; the
        # factored parity and the decomposition (A, B) annotate it, and the
        # parity must agree with it
        fib = fibre(args.t)
        u, w = uw_of(fib.t)
        t0 = time.perf_counter()
        local, k = fibre_certificate(u, w)
        stage("local", t0)
        if not local:
            raise CertificateError(f"no local certificate for the fibre: {uncertified_rule(u, w)}")
        verdict = "obstructed" if k == 2 else "unobstructed"
        parity = obstruction_parity(fib)
        if parity.verdict != verdict:
            raise CertificateError(f"the factored parity is {parity.verdict}, the certificate {verdict}")
        y, _ = _bad_place_point(u, w)
        return verdict, {
            "t": "infinity" if args.t is None else str(args.t),
            "N": str(fib.N),
            "N0": fib.N0,
            "A": fib.A,
            "B": fib.B,
            "everywhere_locally_solvable": local,
            "odd_bad_places": {str(p): y % p != 0 for p, _ in fib.factorization.factors},
            "contributing_primes": list(parity.contributing_primes),
            "count": parity.count,
            "invariant": str(parity.invariant),
            "verdict": verdict,
        }
    t0 = time.perf_counter()
    fibres, solvable, obstructed = family_scan(args.height)
    stage("scan", t0)
    payload = {
        "height": args.height,
        "fibres": fibres,
        "all_locally_solvable": solvable == fibres,
        "all_obstructed": obstructed == fibres,
        "every_count_odd": obstructed == fibres,  # k = 2: an odd count of contributing primes
    }
    return ("obstructed" if solvable == obstructed == fibres else "ok"), payload


def _work_selmer(args, stage):
    group = cube_class_group()
    if args.command == "verify":
        gamma_norm = norm_K_over_k(GAMMA)
        coefficients = evaluate_F_symbolic()
        t0 = time.perf_counter()
        f_class = evaluate_F_local()
        stage("descent", t0)
        expected = express(PI * (Eisenstein.of(1) + PI * PI))
        section_point()  # validates 4*10 - 40 = 0 at its digits
        pairing = group.pairing_of_vectors(express(2), f_class)
        checks = f_class == expected and gamma_norm == Eisenstein.of(-10) and pairing != 0
        return ("ok" if checks else "error"), {
            "gamma_norm": _eisenstein_pair(gamma_norm),
            "descent_coefficients": [_eisenstein_pair(c) for c in coefficients],
            "F_class": list(f_class),
            "expected_class": list(expected),
            "classes_match": f_class == expected,
            "pairing_with_2": pairing,
            "pairing_nontrivial": pairing != 0,
        }
    t0 = time.perf_counter()
    report = survival_analysis()
    stage("analysis", t0)
    # tau fixes the classes of 2, 3 and 60 and negates the pairing, so the
    # verdicts carry over to tau(F): it pairs with 2 and annihilates 60, and
    # tau(witness) is its witness; no dimension depends on the class
    tau_f, tau_witness = group.apply_tau(report.F_class), group.apply_tau(report.witness)
    pairings = [group.pairing_of_vectors(express(n), vec) for n, vec in (
        (2, tau_f), (60, tau_f), (60, tau_witness), (2, tau_witness), (3, tau_witness))]
    consistent = pairings[0] != 0 and not any(pairings[1:])
    status = "ok" if report.survives and consistent else "error"
    return status, {
        "F_class": list(report.F_class),
        "pairing_with_2": report.pairing_with_2,
        "pairing_with_3": report.pairing_with_3,
        "pairing_with_60": report.pairing_with_60,
        "in_annihilator_60": report.in_annihilator_60,
        "annihilator_23_dimension": report.ann_23_dimension,
        "annihilator_60_dimension": report.ann_60_dimension,
        "witness": list(report.witness),
        "tau_plus_dimension": report.tau_plus_dimension,
        "tau_minus_dimension": report.tau_minus_dimension,
        "survives": report.survives,
        "conjugation_consistent": consistent,
    }


_WORKERS = {"symbol": _work_symbol, "rl": _work_rl, "elkies": _work_elkies,
            "selmer": _work_selmer}


# ------------------------------------------------------------------ driver
def _flatten(prefix: str, value, lines: list):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], lines)
    else:
        lines.append(f"{prefix} = {json.dumps(value)}")


# json.dumps(report, sort_keys=True) builds an encoder per call; this one is
# built once, holds no state between calls and writes the same bytes
_JSON_ENCODER = json.JSONEncoder(sort_keys=True)


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _JSON_ENCODER.encode(report)
    lines: list = []
    for key in ("command", "status", "params", "result", "timings"):
        _flatten(key, report[key], lines)
    return "\n".join(lines)


def _params_of(args) -> dict:
    hidden = {"group", "command", "format"}
    out = {}
    for key, v in sorted(vars(args).items()):
        if key in hidden or (v is None and key != "t"):
            continue
        if key == "t":
            out[key] = "infinity" if v is None else str(v)
        elif isinstance(v, Fraction):
            out[key] = str(v)
        elif isinstance(v, tuple):
            out[key] = list(v)
        else:
            out[key] = v
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)

    timings: dict = {}

    def stage(name: str, started: float):
        timings[name] = round((time.perf_counter() - started) * 1000)

    began = time.perf_counter()
    try:
        status, result = _WORKERS[args.group](args, stage)
        code = 1 if status == "error" else 0
    except NoPointError as exc:
        status, result, code = "no_local_point", {"message": str(exc)}, 0
    except (InsufficientPrecision, FactoringBudgetExhausted) as exc:
        status, result, code = "inconclusive", {"message": str(exc)}, 2
    except Exception as exc:  # noqa: BLE001 - reported in the payload
        status, result, code = "error", {"message": f"{type(exc).__name__}: {exc}"}, 1
    timings["total"] = round((time.perf_counter() - began) * 1000)

    command = f"{args.group} {args.command}" if args.command else args.group
    report = {
        "command": command,
        "params": _params_of(args),
        "result": result,
        "status": status,
        "timings": timings,
    }
    print(_render(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
