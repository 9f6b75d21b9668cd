"""Every statement of `src/localglobal` runs for a command or the benchmark,
or is a `raise`, or is pinned here with the reason it does not run.

The test runs a pinned corpus in-process under `sys.settrace`, watching
only frames whose code lies in the library: the goldens' argument vectors,
the command lines of CI at small bounds, usage errors and the spellings
that only the argparse fallback reads, refusals, `--format text`, and the
benchmark's own items (`perfbench/workloads.py`, `execute`) on a few
inputs of each workload.  The unit is a statement inside a def, at any
depth, or the body of a lambda.  The trace starts by running each module's
body again, in a namespace of its own, so that what the library calls on
import is seen too.  A compound statement owns the lines of its
header, not those of the statements it holds.  A statement with no line
event on the lines it owns never ran; it passes only as a `raise`, or when
the qualified name of its function is in `UNRUN` with the count of such
statements there, and a reason that names a test running them where one
does.  The table must match exactly, so a pin whose code starts to run
fails too.  The `lru_cache`s of the library are cleared
before the trace, so that what earlier tests cached is computed again.
"""

import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import localglobal
from localglobal import cli, exact

SOURCE = Path(localglobal.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

# A composite |ell| of two 100-bit primes: rho cannot split it within the
# budget, which the corpus lowers so that the trace reaches exit 2 at once.
COMPOSITE_ELL = "3213876088517980551083924185487283336189331657515992206038949"
TRACE_RHO_BUDGET = 1 << 10

CORPUS = [argv.split() for argv in (
    # the CI command lines, with the searches, densities and scans at small bounds
    "selmer verify",
    "selmer survival",
    "symbol hilbert3 2 60",
    "symbol hilbert3 1/2 7",
    "rl verify --ell 2 --p 17",
    "rl verify --ell -2 --p 113",
    "rl verify --ell 2 --p 31",
    "rl verify --ell 2 --p 1000721",
    "rl verify --ell 2 --p 18446744073709553681",
    "rl verify --ell 11 --p 41",
    "rl verify --ell 1 --p 3",
    "rl verify --ell -1 --p 41",
    "rl verify --ell -1 --p 5",
    "rl verify --ell 2 --p 41",
    "rl verify --ell 2305843009213693951 --p 5",
    f"rl verify --ell {COMPOSITE_ELL} --p 17",
    "rl density --ell 2 --max-prime 2000",
    "rl density --ell 7 --max-prime 2000",
    "rl search --ell 3 --max-prime 2000",
    "rl search --ell -2 --max-prime 50",
    "elkies scan --height 20",
    "elkies verify --t=98/103",
    "elkies verify --t=13/5",
    "elkies verify --t=-167/20",
    "elkies verify --t=1/3",
    "elkies verify --t=12345678901/98765432107",
    # the other commands, each branch of the symbols, and refusals
    "symbol legendre 3 11",
    "symbol legendre 14 7",
    "symbol legendre 3 9",
    "symbol legendre 3 1",
    "symbol quartic 3 13",
    "symbol quartic 4 13",
    "symbol quartic 2 13",
    "symbol quartic 7 13",
    "symbol quartic 2 7",
    "symbol hilbert2 -1 -1 infinity",
    "symbol hilbert2 2 17 17",
    "symbol hilbert2 3 2 3",
    "symbol hilbert2 3/4 5 2",
    "symbol hilbert3 1/3 9",
    "symbol hilbert3 0 1",
    "rl verify --ell 4399 --p 17",  # 53 * 83: a rho batch overshoots and is walked again
    "rl verify --ell 0 --p 17",
    "rl verify --ell 4 --p 17",
    "rl verify --ell 2809 --p 17",  # 53^2, past trial division
    "rl verify --ell 2 --p 15",
    "rl verify --ell 3 --p 5",
    "rl search --ell 2 --max-prime 1",
    "rl density --ell 1",
    "rl density --ell 2 --max-prime 1",
    "rl density --ell 5 --max-prime 100",
    "rl exhaust --bound 30",
    "rl exhaust --ell 1 --rhs 1 --bound 3",
    "rl smooth",
    "rl smooth --ell 2 --p 17 --primes 2,3",
    "rl search --ell 2 --max-prime 100 --format text",
    # usage errors and the spellings only the argparse fallback reads
    "--help",
    "rl verify -h",
    "rl bogus",
    "rl verify --ell 2 --p 17 --bogus",
    "rl verify --ell=-2 --p 113",
    "rl verify --ell -2 --p 113",
    "symbol legendre -- -3 7",
    "elkies verify --t -1/2",
    "elkies verify --t=1/0",
    "elkies verify --t=infinity --precision 5",
    "elkies scan --height 0",
    "rl exhaust --bound -1",
    "rl smooth --primes 3,x",
    "symbol legendre 3",
    "symbol legendre 3 11 13",
    "rl verify --ell 2 --p 17 --format xml",
)] + [json.loads(path.read_text())["argv"] for path in sorted((ROOT / "tests" / "golden").glob("*.json"))]

# The benchmark items run as `perfbench/workloads.py` runs them: this many
# of each kind, from the seed-0 items of each workload.
BENCH_ITEMS_PER_KIND = 3

CONTRACT = "the Record contract, which test_records.py checks on every record class"
TYPE_REFUSAL = ("returns NotImplemented for an operand of another type, so that Python "
                "raises TypeError (test_quotient_ring.py::test_scalars_and_coercion)")
FAULT = "runs only on a fault: the theorem the command checks holds on every input"
MESSAGE = "builds the text of a CertificateError message, which only a fault raises"

UNRUN = {
    "elkies.fibre_certificate": (1, f"an uncertified fibre; {FAULT} (TestGoodPlaces in test_elkies.py)"),
    "elkies.uncertified_rule": (3, f"the rule an uncertified fibre fails; {FAULT} (test_elkies.py)"),
    "exact.QuotientElement.__add__": (1, TYPE_REFUSAL),
    "exact.QuotientElement.__sub__": (1, TYPE_REFUSAL),
    "exact.QuotientElement.__eq__": (1, "NotImplemented for another type, so == is False "
                                        "(test_no_asserts.py::test_norm_outside_the_base_field_raises)"),
    "exact.QuotientElement.__hash__": (1, "an element that defines == must hash alike "
                                          "(test_quotient_ring.py::test_identity_and_printing)"),
    "exact.QuotientElement.__str__": (2, f"{MESSAGE} (test_quotient_ring.py::test_identity_and_printing)"),
    "exact.QuotientElement.__repr__": (1, "the repr of a record that holds elements (test_records.py)"),
    "exact.Record.__eq__": (1, CONTRACT),
    "exact.Record.__ne__": (2, CONTRACT),
    "exact.Record._make": (1, CONTRACT + ", through _replace"),
    "exact.Record._no_tuple_operator": (1, CONTRACT),
    "exact._exact_coordinate": (2, "refuses a float and reads another rational type: no command passes "
                                   "one (test_exact_coordinates.py::test_exact_coordinate_and_quotient)"),
    "exact._sqrt_mod_odd_prime": (1, "the root of 0, which the oracles' residue walks take "
                                     "(test_exact.py::test_sqrt_mod_prime)"),
    "reichardt_lind.ObstructionReport.contribution": (
        1, "{0} at a good place: rl verify asks only for bad ones "
           "(test_reichardt_lind.py::test_good_place_contribution_vanishes)"),
    "reichardt_lind.TwistParams.__new__": (
        1, "checks a factorization given by the caller: commands and the benchmark give none "
           "(test_records.py::test_validations_still_refuse)"),
    "reichardt_lind.model_smoothness_check": (1, f"a singular point at a good prime; {FAULT}"),
    "symbols.InvariantValue.__add__": (2, "refuses a sum of another type or of denominator 6 "
                                          "(test_symbols.py::test_interned_sums_are_fraction_sums_mod_1)"),
    "symbols.InvariantValue.__new__": (5, "the validating constructor: commands take the interned values "
                                          "from zero(), half() and thirds() (test_symbols.py)"),
    "tower.KElement.<lambda>": (3, f"c0, c1 and c2, which __str__ reads; {MESSAGE}"),
    "tower.KElement.__str__": (2, f"{MESSAGE} by norm_K_over_k "
                                  "(test_no_asserts.py::test_norm_outside_the_base_field_raises)"),
    "tower._cleared": (2, "a tower element with a denominator: the benchmark's norm items are integral "
                          "(test_quotient_ring.py::test_flat_k_element_matches_the_generic_ring)"),
    "tower.curve_identity_suite": (10, "records a failed identity in the report; only a fault fails one "
                                       "(test_cubic_integer_paths.py, the perturbed gamma)"),
}


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_items(workloads) -> list:
    items = []
    for name in workloads.WORKLOADS:
        counts = {}
        for item in workloads.build(name, 0):
            counts[item[0]] = counts.get(item[0], 0) + 1
            if counts[item[0]] <= BENCH_ITEMS_PER_KIND:
                items.append(item)
    return items


# ------------------------------------------------------------------ the scan
def _own_lines(node) -> set:
    """The lines of a statement outside the statements it holds."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    lines = set(range(start, node.end_lineno + 1))
    for field in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(node, field, ()):
            held = child.body if isinstance(child, ast.ExceptHandler) else [child]
            for stmt in held:
                lines -= set(range(stmt.lineno, stmt.end_lineno + 1))
    return lines or {node.lineno}


def statements(source: Path = SOURCE) -> dict:
    """'module.qualname' -> [(path, line, own lines, is a raise)] for each
    statement inside a def, and for each lambda body with None for its own
    lines: a lambda runs when its code is called."""
    found = {}

    def visit(node, path, qualname, traced):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Lambda):
                found.setdefault(f"{qualname}.<lambda>", []).append((path, child.lineno, None, False))
            if traced and isinstance(child, ast.stmt) and not (
                    isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)):
                found.setdefault(qualname, []).append(
                    (path, child.lineno, _own_lines(child), isinstance(child, ast.Raise)))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, f"{qualname}.{child.name}", True)
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{qualname}.{child.name}", traced)
            else:
                visit(child, path, qualname, traced)

    for path in sorted(source.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), path.stem, False)
    return found


def trace(run, source: Path = SOURCE) -> tuple[set, set]:
    """Call run() under a tracer that watches only the frames of code in
    `source`; returns the (path, line) of every line event there and the
    (path, first line) of every lambda called.  The tracer set before is
    restored, whatever run() raises."""
    prefix = str(source) + os.sep
    lines, lambdas = set(), set()

    def watch(frame, event, arg):
        code = frame.f_code
        path = code.co_filename
        if not path.startswith(prefix):
            return None
        if code.co_name == "<lambda>":
            lambdas.add((path, code.co_firstlineno))

        def local(frame, event, arg):
            if event == "line":
                lines.add((path, frame.f_lineno))
            return local

        return local

    previous = sys.gettrace()
    sys.settrace(watch)
    try:
        run()
    finally:
        sys.settrace(previous)
    return lines, lambdas


def unrun(lines: set, lambdas: set, source: Path = SOURCE) -> dict:
    """'module.qualname' -> the lines of its statements that never ran,
    `raise` statements aside."""
    out = {}
    for qualname, stmts in statements(source).items():
        missed = [line for path, line, own, is_raise in stmts
                  if not is_raise and ((path, line) not in lambdas if own is None
                                       else not any((path, n) in lines for n in own))]
        if missed:
            out[qualname] = missed
    return out


# ------------------------------------------------------------------ the corpus
def _clear_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("localglobal."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def run_corpus(workloads, items):
    for path in sorted(SOURCE.glob("*.py")):  # each module body, as on import
        exec(compile(path.read_text(), str(path), "exec"),
             {"__name__": f"localglobal.{path.stem}", "__package__": "localglobal"})
    for argv in CORPUS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    for item in items:
        problem = workloads.check(item, workloads.execute(item, localglobal))
        if problem:
            raise AssertionError(problem)


def test_every_unrun_statement_is_a_raise_or_pinned(monkeypatch):
    workloads = _load_workloads()
    items = _bench_items(workloads)
    _clear_caches()
    monkeypatch.setattr(exact, "RHO_BUDGET", TRACE_RHO_BUDGET)
    missed = unrun(*trace(lambda: run_corpus(workloads, items)))
    assert {name: len(lines) for name, lines in missed.items()} == {
        name: count for name, (count, _) in UNRUN.items()}, missed
    assert all(reason for _, reason in UNRUN.values())


def test_the_trace_sees_what_it_must(tmp_path):
    (tmp_path / "lib.py").write_text(
        "class Ring:\n"
        "    def used(self, x):\n"
        "        if x < 0:\n"
        "            x = -x\n"
        "        return x\n"
        "    def unused(self):\n"
        "        return 0\n"
        "def check(x):\n"
        "    if x is None:\n"
        "        raise ValueError('no value')\n"
        "    twice = lambda y: 2 * y\n"
        "    return twice(x)\n"
        "never = lambda: 0\n"
    )
    spec = importlib.util.spec_from_file_location("lib", tmp_path / "lib.py")
    lib = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lib)
    outer, previous = sys.gettrace(), (lambda frame, event, arg: None)
    sys.settrace(previous)
    try:
        lines, lambdas = trace(lambda: (lib.Ring().used(1), lib.check(2)), tmp_path)
        assert sys.gettrace() is previous
    finally:
        sys.settrace(outer)
    # the unused method, the branch not taken and the lambda never called
    # are reported; the raise not reached is not
    assert unrun(lines, lambdas, tmp_path) == {"lib.Ring.used": [4], "lib.Ring.unused": [7], "lib.<lambda>": [13]}
