"""The names `tests/oracles.py` takes from `localglobal`, pinned.

An oracle that shares a primitive with the code it checks cannot see a
defect in that primitive: both sides of the test inherit it.  So every
name the oracles import from the package is listed here, and the list may
only shrink: a new import is a decision to share, made in this table.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).parent / "oracles.py"

ORACLE_IMPORTS = {
    "localglobal": ("elkies", "exact", "reichardt_lind", "tower"),
    "localglobal.cubic": ("ONE", "PI", "ZETA", "Eisenstein", "_rank3", "_rref3", "divide_by_pi",
                          "pi_valuation"),
    "localglobal.exact": ("CertificateError", "Factorization", "FactorizationError", "_PSI_13",
                          "_SMALL_WITNESSES", "_TRIAL_PRIMES", "_brent_rho", "_least_nonresidue",
                          "_miller_rabin_round", "_sqrt_mod_odd_prime", "is_probable_prime",
                          "legendre_symbol", "primes_up_to", "quartic_residue_symbol", "record",
                          "residue", "split_prime_power", "valuation"),
    "localglobal.elkies": ("ElkiesFibre",),
    "localglobal.padic": ("InsufficientPrecision", "NoConvergence", "hensel_root"),
    "localglobal.reichardt_lind": ("ObstructionReport", "TwistConditions", "TwistParams", "_make_report"),
    "localglobal.symbols": ("REAL_PLACE", "InvariantValue", "Place", "_finite_prime", "_hilbert2_finite",
                            "_vu", "as_place", "hilbert2"),
    "localglobal.tower": ("GAMMA", "KElement"),
}


def package_imports(path: Path) -> dict:
    """module -> the sorted names imported from it, for every `from
    localglobal... import` anywhere in the file."""
    found = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "localglobal":
            found.setdefault(node.module, []).extend(alias.name for alias in node.names)
    return {module: sorted(names) for module, names in found.items()}


def test_the_oracles_import_only_the_pinned_names():
    assert package_imports(ORACLES) == {module: sorted(names) for module, names in ORACLE_IMPORTS.items()}


def test_the_scan_sees_every_package_import(tmp_path):
    source = tmp_path / "oracle.py"
    source.write_text(
        "import localglobal\n"
        "from localglobal import cli\n"
        "from localglobal.exact import valuation as v, residue\n"
        "def f():\n"
        "    from localglobal.padic import hensel_root\n"
        "from fractions import Fraction\n"
    )
    assert package_imports(source) == {
        "localglobal": ["cli"], "localglobal.exact": ["residue", "valuation"], "localglobal.padic": ["hensel_root"],
    }
