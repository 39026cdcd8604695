"""Tests of the benchmark itself: its grids are the acceptance batteries, its
guard cannot be fooled, its tracer sees every layer without changing results,
and its negative control fails.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import layertrace  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from complexchaos import chaos, suites  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def worst(result, checks, kind):
    return max(o.residual for o, c in zip(result.outcomes, checks) if c.kind == kind)


@pytest.fixture(scope="module")
def exact_pass():
    checks = workloads.exact_algebra(101)
    return checks, workloads.run_pass(checks)


# -- grid fidelity: at the acceptance seeds the workloads are the batteries ------


def test_exact_algebra_passes_at_acceptance_seeds(exact_pass):
    checks, result = exact_pass
    assert len(checks) == 4200 + 4200 + 1502
    assert result.failed == []


def test_product_grid_matches_criterion_1(exact_pass):
    report = suites.product_grid_report(max_total=6, max_cells=3, trials=20, seed=101)
    assert worst(exact_pass[1], exact_pass[0], "product") == report.residual


def test_covariance_grid_matches_criterion_5(exact_pass):
    identity, _ = suites.covariance_grid_reports(max_total=6, max_cells=3, trials=20, seed=106)
    assert worst(exact_pass[1], exact_pass[0], "covariance") == identity.residual


def test_hypercontractivity_grid_matches_criterion_8(exact_pass):
    report = suites.hypercontractivity_grid_report(max_total=4, per_order=100, seed=109)
    assert worst(exact_pass[1], exact_pass[0], "hypercontractivity") == report.residual


def test_sampling_matches_criterion_10():
    checks = workloads.sampling(110)
    result = workloads.run_pass(checks, workloads.MC_MIN_WITHIN)
    report = suites.mc_isometry_report(kernels=50, samples=100_000, seed=110)
    within = sum(o.within for o in result.outcomes) / len(checks)
    assert max(o.residual for o in result.outcomes) == report.metadata["worst_sigma"]
    assert within == report.metadata["fraction_within"]
    assert result.failed == []


# -- the guard ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_guard_fails_a_non_finite_residual_mid_grid(monkeypatch, bad):
    checks = workloads.pair_grid("covariance", 106, max_total=2, trials=3)
    real = chaos.covariance_squares
    target = checks[len(checks) // 2].inputs[0]

    def poisoned(f, g, *args):
        comparison = real(f, g, *args)
        if f is target:
            report = chaos.VerificationReport("covariance-squares", bad, comparison.report.tolerance)
            return chaos.CovarianceComparison(comparison.formula, bad, report)
        return comparison

    monkeypatch.setattr(chaos, "covariance_squares", poisoned)
    result = workloads.run_pass(checks)
    assert result.failed == [len(checks) // 2]


def test_guard_fails_exceptions_and_excess_residuals(monkeypatch):
    monkeypatch.setitem(workloads.RUNNERS, "raises", lambda: 1 / 0)
    monkeypatch.setitem(workloads.RUNNERS, "excess", lambda: (2e-9, 1e-9, True))
    checks = [workloads.Check("raises", "r", ()), workloads.Check("excess", "e", ())]
    result = workloads.run_pass(checks)
    assert result.failed == [0, 1]
    assert "ZeroDivisionError" in result.outcomes[0].failure


def test_sampling_rule_forgives_only_within_the_battery_share():
    ok, out = workloads.Outcome(1.0, 4.0), workloads.Outcome(5.0, 4.0)
    assert workloads.failed_indices([out] + [ok] * 19, 0.95) == []
    assert workloads.failed_indices([out, out] + [ok] * 18, 0.95) == [0, 1]
    nan = workloads.Outcome(math.nan, 4.0, "non-finite value")
    assert workloads.failed_indices([nan] + [ok] * 99, 0.95) == [0]


# -- the tracer ---------------------------------------------------------------------


def traced(checks, min_within=None):
    tracer = layertrace.Tracer()
    with tracer.active():
        result = workloads.run_pass(checks, min_within)
    return result, tracer.snapshot()


def work_counters(stats):
    return {layer: {k: v for k, v in values.items() if k != "self_s"} for layer, values in stats.items()}


SUBSETS = {
    "exact-algebra": lambda seed: workloads.exact_algebra(seed)[::60],
    "sampling": lambda seed: workloads.sampling(seed, count=4, samples=2_000),
    "high-order": lambda seed: [c for c in workloads.high_order(seed) if "(2, 5) n=3" in c.case],
}
EXERCISED = {
    "exact-algebra": [
        "chaos.poly_mul", "oracle.pair_expectation", "oracle.expectation", "chaos.expand",
        "chaos.check", "kernels.contract", "kernels.ito_symmetrize",
    ],
    "sampling": ["montecarlo.sample_coordinates", "montecarlo.evaluate_polynomial", "montecarlo.estimate"],
    "high-order": ["kernels.ito_symmetrize", "chaos.expand", "chaos.check"],
}


@pytest.mark.parametrize("name", sorted(SUBSETS))
def test_tracer_sees_layers_keeps_residuals_and_repeats_counts(name):
    min_within = workloads.WORKLOADS[name].min_within
    plain = workloads.run_pass(SUBSETS[name](7), min_within)
    first, stats = traced(SUBSETS[name](7), min_within)
    second, again = traced(SUBSETS[name](7), min_within)
    for layer in EXERCISED[name]:
        assert stats[layer]["calls"] > 0, layer
    assert [o.residual for o in first.outcomes] == [o.residual for o in plain.outcomes]
    assert [o.residual for o in second.outcomes] == [o.residual for o in plain.outcomes]
    assert work_counters(stats) == work_counters(again)
    assert plain.failed == first.failed == []


def test_tracer_restores_every_binding():
    from complexchaos import cli, kernels

    before = (chaos.expand, cli.expand, kernels.contract, chaos.contract, chaos.ChaosPolynomial.__mul__)
    tracer = layertrace.Tracer().install()
    assert cli.expand is chaos.expand is not before[0]
    assert chaos.contract is kernels.contract is not before[2]
    tracer.uninstall()
    after = (chaos.expand, cli.expand, kernels.contract, chaos.contract, chaos.ChaosPolynomial.__mul__)
    assert all(a is b for a, b in zip(before, after))


def test_cli_cold_traced_reports_match_and_cover_the_cold_layers(tmp_path):
    commands = workloads.cli_commands(42)
    references = {}
    plain = workloads.run_cli_pass(commands, tmp_path, references)
    stats = []
    for k in range(2):
        trace_dir = tmp_path / f"trace{k}"
        trace_dir.mkdir()
        # traced reports must equal the untraced references byte for byte
        assert workloads.run_cli_pass(commands, tmp_path, references, trace_dir).failed == []
        stats.append(layertrace.merge([json.loads(p.read_text()) for p in trace_dir.glob("*.trace.json")]))
    assert plain.failed == []
    for layer in ("hermite.build", "hermite.certify", "suites", "cli.load_scenario", "cli.emit"):
        assert stats[0][layer]["calls"] > 0, layer
    assert stats[0]["chaos.expand"]["orbit_tables_built"] > 0
    assert work_counters(stats[0]) == work_counters(stats[1])


def test_negative_control_fails(tmp_path):
    result = workloads.run_cli_pass(workloads.cli_commands(42, perturbation=0.5), tmp_path, {})
    assert len(result.failed) / len(result.outcomes) > 0
    assert result.failed == [0]  # the selftest; the demo runs still pass


def test_timings_at_reference_speed_scale_with_the_slowdown(monkeypatch):
    checks = workloads.sampling(3, count=3, samples=2_000)
    raw = workloads.run_pass(checks)
    assert sum(raw.latencies) <= raw.raw_wall_s
    monkeypatch.setattr(speed.Reference, "slowdown", lambda self: 4.0)
    scaled = workloads.run_pass(checks, reference=speed.NUMPY)
    assert scaled.wall_s == pytest.approx(sum(scaled.latencies))
    assert scaled.wall_s < 0.5 * scaled.raw_wall_s


# -- the contract -------------------------------------------------------------------


def test_spec_names_only_measured_metrics():
    layers = {name for name, *_ in layertrace.TARGETS}
    for metric in SPEC["per_layer"]:
        name = metric["name"]
        assert name == "trace.overhead_frac" or name.rsplit(".", 1)[0] in layers, name
    one_pass = workloads.PassResult(1.0, [0.1] * 10, [workloads.Outcome(0, 1)] * 10, [])
    sample = run.end_to_end([(0.1, 0.1)], [one_pass], 1.0, 0)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(sample)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sampling", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
