"""Command line front-end: scenarios, reports, exit codes, determinism."""

import contextlib
import copy
import functools
import io
import itertools
import json
import math
import operator
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from complexchaos import cli, hermite, suites
from complexchaos.chaos import VerificationReport


def write_scenario(tmp_path, body, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


def basis_entries(idx):
    return [{"idx": list(idx), "re": 1.0, "im": 0.0}]


DISJOINT = {
    "measure": {"masses": [1.0, 1.0]},
    "kernels": [
        {"name": "f", "p": 1, "q": 1, "entries": basis_entries((0, 0))},
        {"name": "g", "p": 1, "q": 1, "entries": basis_entries((1, 1))},
    ],
    "checks": [{"name": "ind", "kind": "independence", "f": "f", "g": "g"}],
}


def one_check(**fields):
    """DISJOINT's independence check with ``fields`` set or overridden."""
    return {"checks": [dict(DISJOINT["checks"][0], **fields)]}


def one_grid(**grid):
    small = {"max_total": 2, "max_cells": 1, "trials": 1}
    return one_check(kind="product", grid=dict(small, **grid))


def one_entry(**entry):
    return {
        "kernels": [
            {"name": "f", "p": 1, "q": 1, "entries": [dict({"idx": [0, 0]}, **entry)]},
            DISJOINT["kernels"][1],
        ]
    }


class TestRun:
    def test_disjoint_independence_passes(self, tmp_path, capsys):
        path = write_scenario(tmp_path, DISJOINT)
        report = tmp_path / "out.json"
        code = cli.main(["run", path, "--report", str(report)])
        assert code == 0
        body = json.loads(report.read_text())
        assert body["pass"] is True
        (record,) = body["checks"]
        assert record["name"] == "ind" and record["pass"]
        assert body["config"]["certified_rho"] == 1

    def test_overlapping_independence_fails_with_unit_residual(self, tmp_path):
        scenario = {
            "measure": {"masses": [1.0, 1.0]},
            "kernels": [
                {"name": "f", "p": 1, "q": 1, "entries": basis_entries((0, 0))}
            ],
            "checks": [{"name": "ind", "kind": "independence", "f": "f", "g": "f"}],
        }
        path = write_scenario(tmp_path, scenario)
        report = tmp_path / "out.json"
        code = cli.main(["run", path, "--report", str(report)])
        assert code == 1
        body = json.loads(report.read_text())
        (record,) = body["checks"]
        assert not record["pass"]
        assert record["residual"] == pytest.approx(1.0)

    def test_product_grid_scenario(self, tmp_path):
        scenario = {
            "measure": {"masses": [1.0]},
            "kernels": [],
            "checks": [
                {
                    "name": "grid",
                    "kind": "product",
                    "grid": {"max_total": 3, "max_cells": 2, "trials": 4},
                }
            ],
        }
        path = write_scenario(tmp_path, scenario)
        code = cli.main(["run", path])
        assert code == 0

    def test_check_suite_kinds(self, tmp_path):
        scenario = {
            "measure": {"masses": [2.0, 0.5]},
            "kernels": [
                {"name": "f", "p": 1, "q": 1, "entries": basis_entries((0, 1))},
                {"name": "g", "p": 1, "q": 1, "entries": basis_entries((1, 0))},
                {"name": "fd", "p": 1, "q": 1, "entries": basis_entries((0, 0))},
                {"name": "gd", "p": 1, "q": 1, "entries": basis_entries((1, 1))},
                {
                    "name": "elementary",
                    "p": 1,
                    "q": 0,
                    "coordinates": "indicator",
                    "entries": [{"idx": [0], "re": 0.5}],
                },
            ],
            "sequences": [
                {"name": "sa", "kernels": ["fd", "fd"]},
                {"name": "sb", "kernels": ["gd", "gd"]},
            ],
            "checks": [
                {"name": "a-product", "kind": "product", "f": "f", "g": "g"},
                {"name": "b-conj", "kind": "product-conjugated", "f": "f", "g": "g"},
                {"name": "c-isometry", "kind": "isometry", "f": "f"},
                {"name": "d-lemma", "kind": "conjugate-lemma", "f": "f"},
                {"name": "e-cov", "kind": "covariance", "f": "f", "g": "g"},
                {"name": "f-hyper", "kind": "hypercontractivity", "f": "f"},
                {"name": "g-hermite", "kind": "hermite-product", "max_total": 4},
                {
                    "name": "h-mc",
                    "kind": "mc-estimate",
                    "f": "f",
                    "samples": 4000,
                    "seed": 9,
                },
                {
                    "name": "i-asym",
                    "kind": "asymptotic",
                    "sequences": ["sa", "sb"],
                },
            ],
        }
        path = write_scenario(tmp_path, scenario)
        report = tmp_path / "report.json"
        code = cli.main(["run", path, "--report", str(report)])
        body = json.loads(report.read_text())
        # canonical ordering by check name
        names = [r["name"] for r in body["checks"]]
        assert names == sorted(names)
        # indicator kernel norms recorded (0.5 entry scaled by sqrt(2))
        norms = body["config"]["kernel_norms"]["elementary"]
        assert norms["indicator_norm"] == pytest.approx(0.5)
        assert norms["orthonormal_norm"] == pytest.approx(0.5 * 2.0**0.5)
        # every record is self-contained
        for record in body["checks"]:
            assert {"name", "kind", "residual", "tolerance", "pass"} <= set(record)
        assert code == 0
        assert body["pass"] is True
        asym = next(r for r in body["checks"] if r["name"] == "i-asym")
        assert asym["table"][0]["pairs"][0]["max_contraction_norm"] == 0.0

    def test_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["run", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"]["code"] == "parse-error"

    def test_validation_error_exit_two(self, tmp_path, capsys):
        scenario = dict(DISJOINT, checks=[{"name": "x", "kind": "independence", "f": "f", "g": "nope"}])
        path = write_scenario(tmp_path, scenario)
        code = cli.main(["run", path])
        assert code == 2
        err = capsys.readouterr().err
        assert json.loads(err)["error"]["code"] == "validation-error"

    @pytest.mark.parametrize(
        "change",
        [
            {"checks": [1]},
            {"kernels": [1]},
            {"kernels": {"f": 1}},
            {"sequences": [1]},
            {"checks": [{"name": "g", "kind": "product", "grid": [1]}]},
            {"checks": [{"name": "i", "kind": "isometry", "f": "f", "tolerance": 0}]},
            {
                "kernels": [
                    {"name": "f", "p": 1, "q": 1, "entries": basis_entries((True, 0))},
                    DISJOINT["kernels"][1],
                ]
            },
            {"kernels": [dict(DISJOINT["kernels"][0], p=True), DISJOINT["kernels"][1]]},
            {"checks": [{"name": "a", "kind": "asymptotic", "sequences": [["f"], ["g"]]}]},
            one_check(seed=True),
            one_check(seed="5"),
            one_check(seed=-1),
            one_check(seed=2**64),
            one_grid(max_total=2.9),
            one_grid(max_total=-1),
            one_grid(max_total=9),
            one_grid(max_cells=True),
            one_grid(max_cells=0),
            one_grid(max_cells=9),
            one_grid(trials=0),
            one_check(kind="mc-estimate", samples=100.7),
            one_check(kind="mc-estimate", samples=1),
            one_check(kind="mc-estimate", samples=200, max_sigma="inf"),
            one_check(kind="mc-estimate", samples=200, max_sigma=math.inf),
            one_check(kind="mc-estimate", samples=200, max_sigma=0),
            one_check(kind="hermite-product", max_total=-1),
            one_check(kind="hermite-product", max_total=2 * cli.MAX_TOTAL_ORDER + 1),
            one_check(kind="mc-estimate", samples=cli.MAX_SAMPLES + 1),
            one_check(tolerance=math.nan),
            one_entry(re=True),
            one_entry(re="nan"),
            one_entry(re=math.nan),
            one_entry(im=10**400),
            {"measure": {"masses": [True, 1.0]}},
            {"measure": {"masses": ["1.0", 1.0]}},
            one_check(f=[]),
        ],
        ids=[
            "check",
            "kernel",
            "kernel-map",
            "sequence",
            "grid",
            "zero-tolerance",
            "bool-idx",
            "bool-order",
            "sequence-names",
            "bool-seed",
            "string-seed",
            "negative-seed",
            "wide-seed",
            "fractional-max-total",
            "negative-max-total",
            "over-cap-max-total",
            "bool-max-cells",
            "zero-max-cells",
            "over-cap-max-cells",
            "zero-trials",
            "fractional-samples",
            "one-sample",
            "string-max-sigma",
            "infinite-max-sigma",
            "zero-max-sigma",
            "negative-hermite-max-total",
            "over-cap-hermite-max-total",
            "over-cap-samples",
            "nan-tolerance",
            "bool-re",
            "string-re",
            "nan-re",
            "huge-im",
            "bool-mass",
            "string-mass",
            "list-kernel-name",
        ],
    )
    def test_malformed_scenario_exit_two(self, tmp_path, capsys, change):
        body = dict(DISJOINT, **change)
        assert cli.main(["run", write_scenario(tmp_path, body)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"]["code"] == "validation-error"
        # A valid check selected with --only leaves the malformed one checked.
        selected = {"name": "selected", "kind": "hermite-product", "max_total": 0}
        body["checks"] = body["checks"] + [selected]
        path = write_scenario(tmp_path, body, "selected.json")
        assert cli.main(["run", path, "--only", "selected"]) == 2
        out, err = capsys.readouterr()
        assert (out, json.loads(err)) == ("", error)

    def test_valid_numbers_still_run(self, tmp_path):
        scenario = dict(
            DISJOINT,
            checks=[
                dict(DISJOINT["checks"][0], seed=2**64 - 1, tolerance=1),
                dict(one_grid(max_total=0)["checks"][0], name="grid", seed=0),
                {"name": "mc", "kind": "mc-estimate", "f": "f", "samples": 2, "max_sigma": 1e300},
                {"name": "herm", "kind": "hermite-product", "max_total": 0},
            ],
        )
        assert cli.main(["run", write_scenario(tmp_path, scenario)]) == 0

    @pytest.mark.parametrize("samples", [1000, 100_000])
    @pytest.mark.parametrize("exponent", range(150, 156))
    def test_overflowing_mc_estimate_never_passes(self, tmp_path, capsys, exponent, samples):
        # |f|^2 reaches the float range here: the estimate, its standard error
        # or the oracle value overflows, and the check must not pass.
        entries = [{"idx": [0, 0], "re": 10.0**exponent}]
        scenario = {
            "measure": {"masses": [1.0]},
            "kernels": [{"name": "f", "p": 1, "q": 1, "entries": entries}],
            "checks": [{"name": "mc", "kind": "mc-estimate", "f": "f", "samples": samples}],
        }
        report = tmp_path / "out.json"
        with np.errstate(all="ignore"):
            code = cli.main(["run", write_scenario(tmp_path, scenario), "--report", str(report)])
        assert code != 0
        if code == 1:
            (record,) = json.loads(report.read_text())["checks"]
            assert record["pass"] is False and math.isnan(record["residual"])

    @pytest.mark.parametrize("value", [1e154, 1e155])
    def test_overflowing_oracle_fails_its_checks(self, tmp_path, capsys, value):
        # The oracle's sums leave the float range: the checks fail with a
        # non-finite residual instead of ending in a validation error.
        scenario = {
            "measure": {"masses": [1.0]},
            "kernels": [{"name": "f", "p": 1, "q": 1, "entries": [{"idx": [0, 0], "re": value}]}],
            "checks": [
                {"name": "mc", "kind": "mc-estimate", "f": "f", "samples": 1000},
                {"name": "iso", "kind": "isometry", "f": "f"},
            ],
        }
        report = tmp_path / "out.json"
        with np.errstate(all="ignore"):
            code = cli.main(["run", write_scenario(tmp_path, scenario), "--report", str(report)])
        assert code == 1
        records = json.loads(report.read_text())["checks"]
        assert sorted(r["name"] for r in records) == ["iso", "mc"]
        for record in records:
            assert record["pass"] is False and not math.isfinite(record["residual"])

    def test_overflow_leaves_stderr_one_error_record(self, tmp_path):
        # The isometry of this kernel overflows in its norm, its orbit sums
        # and its orbit means; numpy must not warn about it on stderr, which
        # carries the error record of the unknown kernel alone.
        entries = [{"idx": [0, 1], "re": 1e308}, {"idx": [1, 0], "re": 1e308}]
        scenario = {
            "measure": {"masses": [1, 1]},
            "kernels": [{"name": "f", "p": 2, "q": 0, "entries": entries}],
            "checks": [
                {"name": "iso", "kind": "isometry", "f": "f"},
                {"name": "bad", "kind": "isometry", "f": "missing"},
            ],
        }
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "complexchaos.cli", "run"]
        bad = subprocess.run(argv + [write_scenario(tmp_path, scenario)], env=env, capture_output=True, text=True)
        assert bad.returncode == 2
        assert json.loads(bad.stderr) == {
            "error": {"code": "validation-error", "message": "check bad: unknown kernel 'missing' for 'f'"}
        }
        scenario["checks"].pop()
        failed = subprocess.run(argv + [write_scenario(tmp_path, scenario)], env=env, capture_output=True, text=True)
        assert (failed.returncode, failed.stderr) == (1, "")

    def test_square_past_the_work_budget_exits_2(self, tmp_path, capsys):
        # A (3, 3) kernel on the 8-cell cap with one entry in each of 4,500
        # orbits expands to at least 4,500 terms; squaring it would form over
        # 20M term pairs, past oracle.MAX_TERM_PAIRS.
        blocks = list(itertools.combinations_with_replacement(range(8), 3))
        orbits = itertools.islice(itertools.product(blocks, blocks), 4500)
        entries = [{"idx": list(a + b), "re": 1.0, "im": 0.5} for a, b in orbits]
        scenario = {
            "measure": {"masses": [1.0] * 8},
            "kernels": [{"name": "f", "p": 3, "q": 3, "entries": entries}],
            "checks": [{"name": "hyper", "kind": "hypercontractivity", "f": "f"}],
        }
        report = tmp_path / "out.json"
        code = cli.main(["run", write_scenario(tmp_path, scenario), "--report", str(report)])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "work-budget"
        assert "work budget" in error["message"]
        assert json.loads(report.read_text()) == {"error": error}

    def test_grid_obeys_run_caps(self, tmp_path, capsys):
        caps = ["--max-order", "2", "--max-cells", "1"]

        def run(grid):
            check = {"name": "grid", "kind": "product", "grid": grid}
            scenario = {"measure": {"masses": [1.0]}, "checks": [check]}
            return cli.main(["run", write_scenario(tmp_path, scenario)] + caps)

        for field in ("max_total", "max_cells"):
            assert run({"max_total": 2, "max_cells": 1, "trials": 1, field: 3}) == 2
            assert field in json.loads(capsys.readouterr().err)["error"]["message"]
        # Omitted grid fields default to at most the caps.
        assert run({"trials": 1}) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "SCENARIO", "--samples", "1"],
            ["run", "SCENARIO", "--samples", str(cli.MAX_SAMPLES + 1)],
            ["run", "SCENARIO", "--max-order", str(cli.MAX_TOTAL_ORDER + 1)],
            ["run", "SCENARIO", "--max-cells", "0"],
            ["selftest", "--samples", "1"],
            ["selftest", "--samples", str(cli.MAX_SAMPLES + 1)],
            ["selftest", "--seed", "-1"],
            ["hermite", "product-check", "--max", str(2 * cli.MAX_TOTAL_ORDER + 1)],
            ["hermite", "table", "--max", str(2 * cli.MAX_TOTAL_ORDER + 1)],
            ["hermite", "table", "--max", "-1"],
            ["hermite", "table", "--rho", "0"],
            ["run", "SCENARIO", "--seed", "-1"],
            ["run", "SCENARIO", "--tolerance", "-1"],
            ["run", "SCENARIO", "--tolerance", "nan"],
            ["run", "SCENARIO", "--tolerance", "inf"],
            ["selftest", "--inject-perturbation", "nan"],
            ["selftest", "--inject-perturbation", "inf"],
        ],
        ids=[
            "run-one-sample",
            "run-over-cap-samples",
            "over-cap-max-order",
            "zero-max-cells",
            "selftest-one-sample",
            "selftest-over-cap-samples",
            "selftest-negative-seed",
            "over-cap-hermite-max",
            "over-cap-table-max",
            "negative-table-max",
            "zero-table-rho",
            "run-negative-seed",
            "run-negative-tolerance",
            "run-nan-tolerance",
            "run-infinite-tolerance",
            "nan-perturbation",
            "infinite-perturbation",
        ],
    )
    def test_out_of_range_flags_exit_two(self, tmp_path, capsys, argv):
        # The check sets its own tolerance, so a flag it overrides is still checked.
        path = write_scenario(tmp_path, dict(DISJOINT, **one_check(tolerance=1e-12)))
        assert cli.main([path if a == "SCENARIO" else a for a in argv]) == 2
        out, err = capsys.readouterr()
        assert json.loads(err)["error"]["code"] == "validation-error"
        assert out == ""

    def test_run_seed_is_checked_as_a_flag(self, tmp_path, capsys):
        path = write_scenario(tmp_path, DISJOINT)
        assert cli.main(["run", path, "--seed", "-1"]) == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("--seed must be an integer")

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_run_tolerance_is_checked_as_a_flag(self, tmp_path, capsys, value):
        path = write_scenario(tmp_path, DISJOINT)
        assert cli.main(["run", path, "--tolerance", value]) == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("--tolerance must be a finite number")

    @pytest.mark.parametrize("command", ["run", "selftest"])
    def test_unwritable_report_exits_two_before_any_check(self, tmp_path, capsys, monkeypatch, command):
        def fails(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "_read_check", fails)
        monkeypatch.setattr(cli.suites, "selftest_reports", fails)
        argv = [command] + ([write_scenario(tmp_path, DISJOINT)] if command == "run" else [])
        assert cli.main(argv + ["--report", str(tmp_path / "missing" / "out.json")]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["code"] == "validation-error"
        assert error["message"].startswith("--report cannot be written")

    def test_a_late_typo_ends_the_run_before_any_check(self, tmp_path, capsys, monkeypatch):
        def fails(**kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli.suites, "product_grid_report", fails)
        checks = [
            {"name": "grid", "kind": "product", "grid": {}},
            {"name": "typo", "kind": "isometry", "f": "missing"},
        ]
        assert cli.main(["run", write_scenario(tmp_path, dict(DISJOINT, checks=checks))]) == 2
        out, err = capsys.readouterr()
        message = "check typo: unknown kernel 'missing' for 'f'"
        assert (out, json.loads(err)) == ("", {"error": {"code": "validation-error", "message": message}})

    @pytest.mark.parametrize(
        "late, message",
        [
            ({"kind": "product", "f": "f44", "g": "f53"}, "combined order exceeds cap"),
            ({"kind": "independence", "f": "f44", "g": "scalar"}, "independence criterion needs non-degenerate orders"),
            ({"kind": "asymptotic", "sequences": ["two", "one"]}, "sequences must have equal length"),
        ],
    )
    def test_kernel_rules_end_the_run_before_any_check(self, tmp_path, capsys, monkeypatch, late, message):
        """The rules a check's kernels must meet together are read with its
        fields, also when --only leaves the check out: the isometry before it
        never runs."""

        def fails(*args, **kwargs):
            raise AssertionError("a check ran")

        monkeypatch.setitem(cli._KERNEL_CHECKS, "isometry", (("f",), None, fails))
        scenario = {
            "measure": {"masses": [1.0]},
            "kernels": [
                {"name": "f44", "p": 4, "q": 4, "entries": basis_entries((0,) * 8)},
                {"name": "f53", "p": 5, "q": 3, "entries": basis_entries((0,) * 8)},
                {"name": "scalar", "p": 0, "q": 0, "entries": basis_entries(())},
            ],
            "sequences": [
                {"name": "two", "kernels": ["f44", "f44"]},
                {"name": "one", "kernels": ["f53"]},
            ],
            "checks": [{"name": "iso", "kind": "isometry", "f": "f44"}, dict(late, name="late")],
        }
        error = {"code": "validation-error", "message": f"check late: {message}"}
        for only in ([], ["--only", "iso"]):
            assert cli.main(["run", write_scenario(tmp_path, scenario)] + only) == 2
            out, err = capsys.readouterr()
            assert (out, json.loads(err)) == ("", {"error": error})

    def test_unknown_kind_rejected(self, tmp_path):
        scenario = dict(DISJOINT, checks=[{"name": "x", "kind": "bogus"}])
        path = write_scenario(tmp_path, scenario)
        assert cli.main(["run", path]) == 2

    def test_duplicate_names_rejected(self, tmp_path):
        scenario = dict(DISJOINT, checks=DISJOINT["checks"] * 2)
        path = write_scenario(tmp_path, scenario)
        assert cli.main(["run", path]) == 2

    def test_cap_flags(self, tmp_path):
        scenario = {
            "measure": {"masses": [1.0, 1.0]},
            "kernels": [
                {"name": "f", "p": 2, "q": 1, "entries": basis_entries((0, 0, 1))}
            ],
            "checks": [{"name": "iso", "kind": "isometry", "f": "f"}],
        }
        path = write_scenario(tmp_path, scenario)
        assert cli.main(["run", path, "--max-order", "2"]) == 2

    def test_only_selection(self, tmp_path):
        scenario = dict(
            DISJOINT,
            checks=[
                {"name": "ind", "kind": "independence", "f": "f", "g": "g"},
                {"name": "iso", "kind": "isometry", "f": "f"},
            ],
        )
        path = write_scenario(tmp_path, scenario)
        report = tmp_path / "only.json"
        assert cli.main(["run", path, "--only", "iso", "--report", str(report)]) == 0
        body = json.loads(report.read_text())
        assert [r["name"] for r in body["checks"]] == ["iso"]
        assert cli.main(["run", path, "--only", "missing"]) == 2


# Paths into DISJOINT that the fuzz test overwrites; the trailing check fields
# are added when absent.
FUZZ_PATHS = [
    ("measure", "masses"),
    ("measure", "masses", 0),
    ("kernels", 0, "p"),
    ("kernels", 1, "q"),
    ("kernels", 0, "entries", 0, "idx"),
    ("kernels", 0, "entries", 0, "idx", 1),
    ("kernels", 0, "entries", 0, "re"),
    ("kernels", 1, "entries", 0, "im"),
    ("checks", 0, "f"),
    ("checks", 0, "seed"),
    ("checks", 0, "tolerance"),
    ("checks", 0, "samples"),
    ("checks", 0, "max_sigma"),
    ("checks", 0, "max_total"),
    ("checks", 0, "grid"),
]

# No large in-range integers: a run they do not reject must stay cheap, and
# hermite-product max_total up to 16 or samples up to MAX_SAMPLES are not.
BAD_SCALARS = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from([math.nan, math.inf, -math.inf, 2.5, -1, 10**400]),
)
FUZZ_VALUES = st.one_of(
    BAD_SCALARS,
    st.integers(-2, 4),
    st.floats(-4, 4),
    st.lists(st.integers(-1, 2), max_size=3),
    # every grid field given is invalid, so no full-size default grid runs
    st.dictionaries(st.sampled_from(["max_total", "max_cells", "trials"]), BAD_SCALARS, min_size=1),
)


class TestScenarioFuzz:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), FUZZ_VALUES), min_size=1, max_size=3),
        st.sampled_from(cli.CHECK_KINDS),
    )
    def test_exit_codes_and_error_records(self, tmp_path_factory, mutations, kind):
        scenario = copy.deepcopy(DISJOINT)
        scenario["checks"][0]["kind"] = kind
        for (*parents, last), value in mutations:
            # an earlier mutation may have replaced a parent of this path
            with contextlib.suppress(LookupError, TypeError):
                functools.reduce(operator.getitem, parents, scenario)[last] = value
        path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
        path.write_text(json.dumps(scenario))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", str(path), "--samples", "200"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert set(json.loads(err.getvalue())["error"]) == {"code", "message"}


def live_session_members(session):
    """Pids of the processes of ``session`` that have not exited (zombies
    excluded), read from /proc."""
    members = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, _ppid, _pgrp, sid = fh.read().rsplit(")", 1)[1].split()[:4]
        except (OSError, ValueError):
            continue
        if int(sid) == session and state != "Z":
            members.append(int(entry))
    return members


class TestSelftest:
    def test_deterministic_report_bodies(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        args = ["selftest", "--seed", "7", "--samples", "2000"]
        assert cli.main(args + ["--report", str(first)]) == 0
        assert cli.main(args + ["--report", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_perturbation_negative_control(self, tmp_path):
        report = tmp_path / "bad.json"
        code = cli.main(
            [
                "selftest",
                "--samples",
                "2000",
                "--inject-perturbation",
                "0.5",
                "--report",
                str(report),
            ]
        )
        assert code == 1
        body = json.loads(report.read_text())
        failing = [r for r in body["checks"] if not r["pass"]]
        assert [r["name"] for r in failing] == ["hermite-product"]
        assert failing[0]["residual"] == pytest.approx(0.5)

    def test_broken_hermite_family_fails_the_normalization_record(self, tmp_path, monkeypatch):
        # One weight of every product expansion off by one: the probe
        # J_{1,0} J_{0,1} leaves the terms {(1, 1): -1, (0, 0): 1}.
        def broken(a, b, c, d, table=hermite.hermite_product):
            weights = dict(table(a, b, c, d))
            weights[next(iter(weights))] += 1
            return weights

        monkeypatch.setattr(hermite, "hermite_product", broken)
        report = tmp_path / "bad.json"
        assert cli.main(["selftest", "--samples", "2000", "--report", str(report)]) == 1
        records = {r["name"]: r for r in json.loads(report.read_text())["checks"]}
        normalization = records["hermite-normalization"]
        assert not normalization["pass"] and normalization["residual"] >= 1.0

    def test_records_equal_a_serial_fold_of_the_table(self):
        forked = suites.selftest_reports(seed=7, samples=2000)
        serial = []
        for name, kwargs in suites._selftest_table(seed=7, samples=2000, perturbation=0.0):
            result = getattr(suites, name)(**kwargs)
            serial.extend(result if isinstance(result, tuple) else (result,))
        assert len(forked) == len(serial) == 20
        for a, b in zip(forked, serial):
            assert a.to_dict() == b.to_dict()

    def test_a_replaced_battery_runs_in_a_child(self, tmp_path, monkeypatch):
        # A local closure cannot be pickled; the children must look it up, not receive it.
        parent = os.getpid()

        def replaced(**kwargs):
            return VerificationReport("oracle-quadrature", 0.0, 1.0, {"pid": os.getpid(), "parent": parent})

        monkeypatch.setattr(suites, "oracle_quadrature_report", replaced)
        report = tmp_path / "r.json"
        assert cli.main(["selftest", "--seed", "7", "--samples", "2000", "--report", str(report)]) == 0
        records = {r["name"]: r for r in json.loads(report.read_text())["checks"]}
        metadata = records["oracle-quadrature"]["metadata"]
        assert metadata["parent"] == parent != metadata["pid"]

    def test_the_first_exception_in_report_order_is_raised_and_every_child_reaped(self, monkeypatch):
        def raises(error):
            def battery(**kwargs):
                raise error("battery failed")

            return battery

        monkeypatch.setattr(suites, "mc_isometry_report", raises(KeyError))  # last in the table
        monkeypatch.setattr(suites, "hermite_product_report", raises(ValueError))
        with pytest.raises(ValueError, match="battery failed") as raised:
            suites.selftest_reports(seed=7, samples=2000)
        assert "hermite_product_report" in str(raised.value.__cause__)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_that_dies_is_named_with_its_exit_status(self, monkeypatch):
        parent = os.getpid()

        def dies(**kwargs):
            assert os.getpid() != parent, "the battery ran in the test process"
            os._exit(3)

        monkeypatch.setattr(suites, "isometry_grid_report", dies)
        with pytest.raises(RuntimeError, match=r"isometry_grid_report.*exit status 3"):
            suites.selftest_reports(seed=7, samples=2000)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
    def test_no_child_outlives_a_killed_selftest(self, tmp_path):
        src = str(Path(suites.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "complexchaos.cli", "selftest", "--report", str(tmp_path / "r.json")]
        started = time.monotonic()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
        survivors = []
        try:
            # Kill 0.5 s in, and not before the batteries' children exist.
            while time.monotonic() - started < 0.5 or live_session_members(proc.pid) == [proc.pid]:
                assert proc.poll() is None and time.monotonic() - started < 30
                time.sleep(0.01)
            assert len(live_session_members(proc.pid)) > 1
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 5
            while (survivors := live_session_members(proc.pid)) and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            for pid in live_session_members(proc.pid):
                os.kill(pid, signal.SIGKILL)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert survivors == []


class TestHermiteCommands:
    def test_table(self, capsys):
        assert cli.main(["hermite", "table", "--max", "2"]) == 0
        out = capsys.readouterr().out
        assert "J[1,1](z, rho=1) = z*zb - 1" in out
        assert "J[2,0](z, rho=1) = z^2" in out

    def test_product_check(self, capsys):
        assert cli.main(["hermite", "product-check", "--max", "6"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "rho=1" in out
