"""Source guard: certificate self-checks raise, they never assert.

`python -O` strips `assert` statements, so a self-check written as one
lets a wrong certificate through.  The scan lists every `assert` in the
library; only the modules still awaiting conversion may hold any.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import localglobal
from localglobal.elkies import ElkiesFibre, QuarticRep
from localglobal.exact import CertificateError

SOURCE = Path(localglobal.__file__).parent

PENDING = {"cubic.py", "selmer.py", "tower.py"}


def assert_lines(path: Path) -> list[int]:
    tree = ast.parse(path.read_text())
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_outside_the_pending_modules():
    found = {path.name: assert_lines(path) for path in sorted(SOURCE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines and name not in PENDING} == {}


def test_pending_modules_still_hold_asserts():
    # drop a module from PENDING once its self-checks raise
    assert all(assert_lines(SOURCE / name) for name in PENDING)


def test_the_scan_sees_asserts(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("x = 1\nassert x == 1\nif x:\n    assert x, 'message'\n")
    assert assert_lines(probe) == [2, 4]


@pytest.mark.parametrize(
    "build",
    [
        lambda: ElkiesFibre(None, Fraction(17), 17, 1, 3),
        lambda: ElkiesFibre(None, Fraction(32), 32, 2, 1),
        lambda: ElkiesFibre(None, Fraction(1377), 1377, 3, 3),
        lambda: QuarticRep(17, 1, 2),
        lambda: QuarticRep(17, -1, 1),
    ],
    ids=["A^4 + 16B^4 != N0", "A even", "A, B not coprime", "a^2 + 16b^2 != p", "a < 0"],
)
def test_self_checks_raise_certificate_errors(build):
    with pytest.raises(CertificateError):
        build()


def test_wrong_decomposition_raises_under_dash_O():
    program = (
        "from fractions import Fraction\n"
        "from localglobal.elkies import ElkiesFibre\n"
        "from localglobal.exact import CertificateError\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "try:\n"
        "    ElkiesFibre(None, Fraction(17), 17, 1, 3)\n"
        "except CertificateError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('a wrong decomposition was accepted')\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SOURCE.parent), os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", program], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
