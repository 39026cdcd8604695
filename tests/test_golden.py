"""Golden reports: the CLI must reproduce the committed report files byte for
byte.  Any change to a residual, a metadata value or the report layout shows
up here; a change that is meant must regenerate the file and say why."""

import pathlib

import pytest

from complexchaos import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    "selftest_seed42.json": ["selftest", "--seed", "42"],
    "selftest_seed7.json": ["selftest", "--seed", "7"],
    "demo.json": ["run", "scenarios/demo.json"],
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_report_matches_golden(golden, tmp_path, monkeypatch, capsys):
    # The demo report records its scenario path, so run from the repo root.
    monkeypatch.chdir(ROOT)
    report = tmp_path / golden
    assert cli.main(CASES[golden] + ["--report", str(report)]) == 0
    capsys.readouterr()
    assert report.read_bytes() == (GOLDEN / golden).read_bytes()
