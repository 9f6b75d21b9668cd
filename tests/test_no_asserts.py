"""Source guard: certificate self-checks raise, they never assert.

`python -O` strips `assert` statements, so a self-check written as one
lets a wrong certificate through.  The scan lists every `assert` in the
library, and no module may hold one.
"""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import localglobal
from localglobal import cubic, tower
from localglobal.elkies import ElkiesFibre, QuarticRep
from localglobal.exact import CertificateError

SOURCE = Path(localglobal.__file__).parent


def assert_lines(path: Path) -> list[int]:
    tree = ast.parse(path.read_text())
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_in_any_module():
    found = {path.name: assert_lines(path) for path in sorted(SOURCE.glob("*.py"))}
    assert len(found) >= 9
    assert {name: lines for name, lines in found.items() if lines} == {}


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


def run_under_dash_O(program: str) -> subprocess.CompletedProcess:
    """Run the program under `python -O`; it must exit 0 on success."""
    guard = "if __debug__:\n    raise SystemExit('not running under -O')\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SOURCE.parent), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-O", "-c", guard + program], env=env, capture_output=True, text=True, timeout=120
    )


def test_wrong_decomposition_raises_under_dash_O():
    program = (
        "from fractions import Fraction\n"
        "from localglobal.elkies import ElkiesFibre\n"
        "from localglobal.exact import CertificateError\n"
        "try:\n"
        "    ElkiesFibre(None, Fraction(17), 17, 1, 3)\n"
        "except CertificateError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('a wrong decomposition was accepted')\n"
    )
    result = run_under_dash_O(program)
    assert result.returncode == 0, result.stderr


def test_norm_outside_the_base_field_raises(monkeypatch):
    # a determinant route that returns x^3 gives (1 + eps)^3 = 7 + 3 eps + 3 eps^2,
    # which is not in Q(zeta_3) and cannot match the closed form
    monkeypatch.setattr(tower.KElement, "norm", lambda x: x * x * x)
    with pytest.raises(CertificateError):
        tower.norm_K_over_k(tower.KElement.of(1) + tower.EPS)


def test_wrong_tower_norm_raises_under_dash_O():
    program = (
        "from localglobal import tower\n"
        "from localglobal.exact import CertificateError\n"
        "tower.KElement.norm = lambda x: x * x * x\n"
        "try:\n"
        "    tower.norm_K_over_k(tower.KElement.of(1) + tower.EPS)\n"
        "except CertificateError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('a norm outside Q(zeta_3) was accepted')\n"
    )
    result = run_under_dash_O(program)
    assert result.returncode == 0, result.stderr


def test_too_few_steinberg_relations_raise(monkeypatch):
    # on |a|, |b| <= 1 the relations leave 11 free entries, not one line
    monkeypatch.setattr(cubic, "_RELATION_BOX", 1)
    with pytest.raises(CertificateError, match="11 free entries"):
        cubic.cube_class_group.__wrapped__()


def test_too_few_steinberg_relations_raise_under_dash_O():
    program = (
        "from localglobal import cubic\n"
        "from localglobal.exact import CertificateError\n"
        "cubic._RELATION_BOX = 1\n"
        "try:\n"
        "    cubic.cube_class_group.__wrapped__()\n"
        "except CertificateError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('an underdetermined pairing was accepted')\n"
    )
    result = run_under_dash_O(program)
    assert result.returncode == 0, result.stderr
