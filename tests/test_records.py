"""The value records: named tuples that behave as values of their own class.

Every record class of the nine modules, found by scanning them for
subclasses of `exact.Record`, and the oracles' records the library defined
before (`PowerClass`, before its forced sections read rules, and
`LocalSolvabilityReport` and `QuarticRep`, before one certificate decided
`elkies verify`), must be frozen,
equal only to records of its own class, hash as the tuple of its fields,
print as Name(field=value, ...) and refuse the tuple's `+`, `*` and `<`
unless it defines its own operator.  The validations that build a record
still refuse the same inputs with the same exceptions, as do the oracles'
checks on the points of E and E', which were library records before the
isogeny left the library.  Importing the
package loads neither `dataclasses` (and with it `inspect`) nor
`argparse`, which only help and usage errors need.
"""

import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import localglobal
import oracles
from localglobal import cubic, elkies, exact, padic, reichardt_lind, selmer, symbols, tower
from localglobal.exact import CertificateError, Record, record

MODULES = ("exact", "padic", "symbols", "cubic", "tower", "reichardt_lind", "elkies", "selmer", "cli")
SRC = str(Path(localglobal.__file__).parent.parent)


ORACLE_RECORDS = ("PowerClass", "LocalSolvabilityReport", "QuarticRep")


def record_classes() -> dict:
    """name -> class for every record class defined in the nine modules,
    and for the `ORACLE_RECORDS` of `oracles`."""
    found = {name: getattr(oracles, name) for name in ORACLE_RECORDS}
    for name in MODULES:
        module = importlib.import_module(f"localglobal.{name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
                    and obj.__module__ == module.__name__):
                found[obj.__name__] = obj
    return found


TW = reichardt_lind.TwistParams(2, 17)
SAMPLES = {
    "Factorization": lambda: exact.factorize(-360),
    "QuarticResidue": lambda: exact.quartic_residue_symbol(2, 17),
    "PowerClass": lambda: oracles.power_class(Fraction(12, 5), 2, 2),
    "Place": lambda: symbols.Place(5),
    "InvariantValue": lambda: symbols.InvariantValue.half(),
    "CubeClassGroup": lambda: cubic.cube_class_group(),
    "CurveIdentityReport": lambda: tower.curve_identity_suite(),
    "TwistParams": lambda: TW,
    "ObstructionReport": lambda: reichardt_lind.forced_section_invariants(TW),
    "TwistConditions": lambda: reichardt_lind.twist_conditions(TW),
    "DensityReport": lambda: reichardt_lind.density_experiment(2, 200),
    "ElkiesFibre": lambda: elkies.fibre(1),
    "LocalSolvabilityReport": lambda: oracles.local_solvability_report(elkies.fibre(1)),
    "QuarticRep": lambda: oracles.quartic_rep(17),
    "ObstructionParity": lambda: elkies.obstruction_parity(elkies.fibre(1)),
    "SelmerPoint": lambda: selmer.section_point(),
    "SurvivalReport": lambda: selmer.survival_analysis(),
}


def hash_of(x):
    try:
        return hash(x)
    except TypeError:  # a record with a dict field: unhashable, as its tuple is
        return TypeError


def test_every_record_class_has_a_sample():
    classes = record_classes()
    assert len(classes) - len(ORACLE_RECORDS) == 14
    assert set(classes) == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_contract(name):
    cls = record_classes()[name]
    x = SAMPLES[name]()
    assert type(x) is cls
    fields = tuple(getattr(x, f) for f in cls._fields)
    assert fields == tuple(x)

    for f in cls._fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(x, f, None)
    for f in cls._fields:
        with pytest.raises(AttributeError):
            delattr(x, f)

    same = cls(*fields)
    assert x == same and not x != same
    twin = type(name, (record(name, cls._fields),), {"__slots__": ()})(*fields)
    for other in (fields, twin):
        assert x != other and other != x
        assert not x == other and not other == x
    assert x != object() and not x == None  # noqa: E711

    assert hash_of(x) == hash_of(fields)
    assert repr(x) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(cls._fields, fields)) + ")"

    if cls.__add__ is Record.__add__:
        for bad in (lambda: x + x, lambda: x + fields):
            with pytest.raises(TypeError):
                bad()
    if cls.__mul__ is Record.__mul__:
        for bad in (lambda: x * 2, lambda: 2 * x):
            with pytest.raises(TypeError):
                bad()
    for bad in (lambda: x < same, lambda: x <= fields, lambda: fields > x, lambda: sorted([x, same])):
        with pytest.raises(TypeError):
            bad()


def test_records_of_one_shape_stay_apart():
    twin = record("Quartic", "ell p")(2, 17)  # TwistParams's fields, another class
    assert reichardt_lind.TwistParams(2, 17) != twin and twin != reichardt_lind.TwistParams(2, 17)
    assert symbols.Place(5) != (5,) and (5,) != symbols.Place(5)
    assert len({reichardt_lind.TwistParams(2, 17), twin}) == 2


def test_elkies_fibre_keeps_its_factorization_and_stays_frozen():
    fib = elkies.fibre(1)
    assert fib.factorization == exact.factorize(fib.N0)
    assert repr(fib).startswith("ElkiesFibre(t=Fraction(1, 1), N=")
    with pytest.raises(AttributeError):
        fib.factorization = None
    with pytest.raises(AttributeError):
        del fib.factorization


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: reichardt_lind.TwistParams(0, 17), ValueError),
        (lambda: reichardt_lind.TwistParams(4, 17), ValueError),
        (lambda: reichardt_lind.TwistParams(2, 15), ValueError),
        (lambda: reichardt_lind.TwistParams(3, 3), ValueError),
        (lambda: reichardt_lind.TwistParams(2, 1), ValueError),
        (lambda: reichardt_lind.TwistParams(2, -17), ValueError),
        (lambda: reichardt_lind.TwistParams(6, 73, exact.factorize(10)), ValueError),
        (lambda: reichardt_lind.TwistParams(6, 73, exact.Factorization(1, ((6, 1),))), ValueError),
        (lambda: reichardt_lind.TwistParams(12, 73, exact.factorize(12)), ValueError),
        (lambda: exact.Factorization(2, ()), ValueError),
        (lambda: exact.Factorization(1, ((3, 1), (2, 1))), ValueError),
        (lambda: exact.Factorization(1, ((2, 1), (2, 1))), ValueError),
        (lambda: exact.Factorization(1, ((2, 0),)), ValueError),
        (lambda: oracles.QuarticRep(17, 1, 2), CertificateError),
        (lambda: oracles.QuarticRep(20, 2, 1), CertificateError),
        (lambda: oracles.QuarticRep(17, 1, -1), CertificateError),
        (lambda: elkies.ElkiesFibre(None, Fraction(17), 17, 1, 3, exact.factorize(17)), CertificateError),
        (lambda: elkies.ElkiesFibre(None, Fraction(17), 17, 1, 1, exact.factorize(19)), CertificateError),
        (lambda: symbols.Place(4), ValueError),
        (lambda: symbols.InvariantValue(Fraction(1, 4)), ValueError),
        (lambda: oracles.q3_point("E", 1, 0), ValueError),
        (lambda: oracles.rational_point("E", 0, 0), ValueError),
        (lambda: selmer.SelmerPoint(0, 0, 0), ValueError),
        (lambda: selmer.SelmerPoint(1, 1, 1), ValueError),
        (lambda: reichardt_lind.TwistParams(2, 17)._replace(p=15), ValueError),
        (lambda: oracles.QuarticRep._make((17, 1, 2)), CertificateError),
    ],
)
def test_validations_still_refuse(build, error):
    with pytest.raises(error):
        build()


def test_normalisations_reach_the_fields():
    assert symbols.InvariantValue(Fraction(5, 2)).value == Fraction(1, 2)
    assert symbols.InvariantValue(Fraction(5, 2)) == symbols.InvariantValue.half()
    point = oracles.rational_point("Eprime", Fraction(0), Fraction(30))
    assert type(point[0]) is int and type(point[1]) is int
    assert oracles.residue_point("Eprime", 7, 30, 7) == oracles.residue_point("Eprime", 0, 2, 7)
    cubic_point = selmer.SelmerPoint(Fraction(0), selmer.section_point().y, Fraction(-4, 2))
    assert all(type(c) is int for c in cubic_point) and cubic_point == selmer.section_point()


# ------------------------------------------------------------ import hygiene
HYGIENE = """
import sys
sys.path.insert(0, {src!r})
for layer in {modules!r}:
    __import__("localglobal." + layer)
loaded = sorted(m for m in ("dataclasses", "inspect", "argparse") if m in sys.modules)
from localglobal import cli
plain = cli.main(["symbol", "legendre", "2", "7"])
plain_loaded = "argparse" in sys.modules
codes = cli.main(["--help"]), cli.main(["rl", "bogus"])
print(repr((loaded, plain, plain_loaded, codes, "argparse" in sys.modules)))
"""


def test_import_loads_no_dataclasses_inspect_or_argparse():
    # -S: no site-packages and no .pth hooks, only the package and the stdlib
    result = subprocess.run(
        [sys.executable, "-S", "-c", HYGIENE.format(src=SRC, modules=MODULES)],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=""),
    )
    assert result.returncode == 0, result.stderr
    loaded, plain, plain_loaded, codes, help_loaded = ast.literal_eval(result.stdout.splitlines()[-1])
    assert loaded == [] and plain == 0 and not plain_loaded
    assert codes == (0, 64) and help_loaded
    assert "usage: localglobal" in result.stdout and "invalid choice: 'bogus'" in result.stderr
