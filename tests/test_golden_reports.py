"""Golden CLI reports: each file in `golden/` holds an argument vector, its
exit code and its JSON report with the `timings` block removed.  Rerunning
the command through `cli.main` must reproduce the report exactly, so a
change that alters any printed answer shows up here.

To regenerate a file after an intended change of output, run the command
(`python -m localglobal.cli <argv>`), drop `timings` and store
{"argv", "exit_code", "report"}.
"""

import json
from pathlib import Path

import pytest

from localglobal import cli

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def test_golden_files_present():
    assert len(GOLDEN) == 9


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_report_matches_golden(path, capsys):
    golden = json.loads(path.read_text())
    code = cli.main(golden["argv"])
    report = json.loads(capsys.readouterr().out)
    assert set(report.pop("timings")) >= {"total"}
    assert code == golden["exit_code"]
    assert report == golden["report"]
