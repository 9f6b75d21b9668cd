"""Source guards: no float literal or float() call on a decision path,
and no hand-written p-adic or finite-field number type.

Every verdict is decided in exact arithmetic.  The scan lists each float
literal and each call of the builtin `float` in the library; the only one
allowed is a display string.  p-adic values are ints and Fractions that
Hensel's lemma certifies, and F_p elements are ints mod p: no module of
the library names `PadicNumber`, `padic_root` or `FpElement`.
"""

import ast
import re
from pathlib import Path

import localglobal

SOURCE = Path(localglobal.__file__).parent

ALLOWED = {
    ("cli.py", '"relative_error": f"{float(relative):.6f}",'),  # display only
}

NUMBER_TYPES = re.compile(r"\b(PadicNumber|padic_root|FpElement)\b")


def float_sites(path: Path):
    lines = path.read_text().splitlines()
    for node in ast.walk(ast.parse(path.read_text())):
        literal = isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
        call = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        )
        if literal or call:
            yield path.name, lines[node.lineno - 1].strip()


def test_no_floats_outside_the_allowlist():
    found = {site for path in sorted(SOURCE.glob("*.py")) for site in float_sites(path)}
    assert found - ALLOWED == set()


def test_the_scan_sees_floats(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("bound = int((n0 / 16) ** 0.25) + 2\nratio = float(n0)\nexact = n0 // 16\n")
    assert set(float_sites(probe)) == {
        ("probe.py", "bound = int((n0 / 16) ** 0.25) + 2"),
        ("probe.py", "ratio = float(n0)"),
    }


def number_type_sites(path: Path):
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if NUMBER_TYPES.search(line):
            yield path.name, lineno


def test_no_module_names_a_padic_number_type():
    assert [site for path in sorted(SOURCE.glob("*.py")) for site in number_type_sites(path)] == []


def test_the_scan_sees_number_types(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = PadicNumber(3, 0, 1, 5)\n# padic_root(x, 2)\nFpElementary = 1\nFpElement\n")
    assert list(number_type_sites(probe)) == [("probe.py", 1), ("probe.py", 2), ("probe.py", 4)]
