"""Source guard: no float literal or float() call on a decision path.

Every verdict is decided in exact arithmetic.  The scan lists each float
literal and each call of the builtin `float` in the library; the only ones
allowed are a display string and a sampling draw that decides nothing.
"""

import ast
from pathlib import Path

import localglobal

SOURCE = Path(localglobal.__file__).parent

ALLOWED = {
    ("cli.py", '"relative_error": f"{float(relative):.6f}",'),  # display only
    ("selmer.py", "if rng.random() < 0.25:"),  # which section point to sample
}


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
