"""Golden reports: the CLI must reproduce the committed report files byte for
byte, and ``tools/residual_digest.py 101 --small`` its committed output.  Any
change to a residual, a metadata value or the report layout shows up here; a
change that is meant must regenerate the file and say why."""

import pathlib
import subprocess
import sys

import pytest

from complexchaos import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# golden file -> (CLI arguments, expected exit code)
CASES = {
    "selftest_seed42.json": (["selftest", "--seed", "42"], 0),
    "selftest_seed7.json": (["selftest", "--seed", "7"], 0),
    # the negative control: the hermite-product record fails by exactly 0.5
    "selftest_seed42_perturbed.json": (["selftest", "--seed", "42", "--inject-perturbation", "0.5"], 1),
    "demo.json": (["run", "scenarios/demo.json"], 0),
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_report_matches_golden(golden, tmp_path, monkeypatch, capsys):
    # The demo report records its scenario path, so run from the repo root.
    monkeypatch.chdir(ROOT)
    report = tmp_path / golden
    argv, code = CASES[golden]
    assert cli.main(argv + ["--report", str(report)]) == code
    capsys.readouterr()
    assert report.read_bytes() == (GOLDEN / golden).read_bytes()


def test_residual_digest_matches_golden():
    # One SHA-256 per check kind over every residual bit of the small seed-101
    # grids: a change to any residual of any check kind fails here.
    tool = ROOT / "tools" / "residual_digest.py"
    run = subprocess.run([sys.executable, str(tool), "101", "--small"], capture_output=True, text=True, check=True)
    assert run.stdout == (GOLDEN / "residual_digest_101_small.txt").read_text()
