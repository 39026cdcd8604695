"""Batch front-end: scenario files in, JSON reports out.

Scenario format (JSON)::

    {
      "measure": {"masses": [1.0, 0.5, 2.0]},
      "kernels": [
        {"name": "f", "p": 1, "q": 1,
         "coordinates": "orthonormal",            # or "indicator"
         "entries": [{"idx": [0, 1], "re": 1.0, "im": 0.0}, ...]}
      ],
      "sequences": [{"name": "pair", "kernels": ["f1", "f2", ...]}],
      "checks": [
        {"name": "ind", "kind": "independence", "f": "f", "g": "g",
         "tolerance": 1e-12}
      ]
    }

Kernel entries are sparse (omitted multi-indices are zero); complex numbers
are {re, im} pairs; multi-indices are 0-based integer arrays of length p+q.
Indicator-coordinate kernels are rescaled by the product of sqrt cell masses
at ingestion and the report records both norms.  Every number must be a
finite JSON number, never a bool or a string: seed in 0..2**64-1 (also for
the --seed flags), samples in 2..MAX_SAMPLES (also for the --samples
flags), positive tolerance (also for the --tolerance flag) and max_sigma,
grid max_total in 0..--max-order and max_cells in 1..--max-cells (the
run's caps, at most MAX_TOTAL_ORDER and MAX_CELLS) and trials >= 1,
hermite-product max_total in 0..2*MAX_TOTAL_ORDER (also for the --max
flags).  Input is checked in one pass before any check runs: every flag
(_FLAGS, --inject-perturbation included) and --report, the file's
structure, the --only names, then every check in file order, selected or not,
including the rules its kernels must meet together (chaos.check_pair,
check_independence_pair and check_sequences).

Check kinds (CHECK_KINDS): product, product-conjugated, isometry,
conjugate-lemma, covariance, independence, hypercontractivity, asymptotic,
hermite-product, mc-estimate.  The product checks accept either a kernel
pair or a {"grid": {...}} descriptor running the seeded certification grid.

Exit status: 0 all checks pass, 1 at least one failed, 2 input error or a
check past the work budget (with a machine-readable error record on stderr,
and in the --report file; its code is parse-error, validation-error or
work-budget).  Report bodies contain no timestamps, so equal seeds give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__, hermite, montecarlo, suites
from .chaos import (
    IDENTITY_TOL,
    KernelSequence,
    VerificationReport,
    WorkBudgetError,
    asymptotic_diagnostics,
    check_independence_pair,
    check_pair,
    check_sequences,
    covariance_squares,
    expand,  # unused here; perfbench's tracer test reads cli.expand
    hypercontractivity_check,
    independence_check,
    integral_conjugate,
    isometry_check,
    product_check,
    product_conjugated_check,
    worst_of,
)
from .kernels import (
    MAX_CELLS,
    MAX_TOTAL_ORDER,
    DiscreteMeasure,
    Kernel,
    indicator_to_orthonormal,
    norm,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

# Monte Carlo draws per estimate.  An estimate holds the samples and their
# values, (cells + 1) x 16 bytes per sample, plus one row block of
# temporaries; the README gives the time and peak RSS at this cap.
MAX_SAMPLES = 1_000_000


class ScenarioError(Exception):
    """Input problem; ``code`` is 'parse-error', 'validation-error' or
    'work-budget' (a check whose polynomial product or Wick join is past
    ``oracle.MAX_TERM_PAIRS``)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Scenario:
    measure: DiscreteMeasure
    kernels: dict[str, Kernel]
    kernel_norms: dict[str, dict[str, float]]
    sequences: dict[str, KernelSequence]
    checks: tuple[dict, ...]


# Smallest positive float: as a lower bound it means "strictly positive".
_POSITIVE = math.ulp(0.0)

# Each numeric flag's bounds, (low, high, integer); main checks every one the
# command has before the command runs.
_FLAGS = {
    "seed": (0, 2**64 - 1, True),
    "tolerance": (_POSITIVE, math.inf, False),
    "samples": (2, MAX_SAMPLES, True),
    "max_order": (0, MAX_TOTAL_ORDER, True),
    "max_cells": (1, MAX_CELLS, True),
    "max": (0, 2 * MAX_TOTAL_ORDER, True),
    "rho": (1, math.inf, True),
    "inject_perturbation": (-math.inf, math.inf, False),
}

# Check kinds that take kernels and a tolerance: kind -> (kernel fields,
# the rule those kernels must meet together or None, check function).  The
# product kinds also take a {"grid": {...}} instead.
_KERNEL_CHECKS = {
    "product": (("f", "g"), check_pair, product_check),
    "product-conjugated": (("f", "g"), check_pair, product_conjugated_check),
    "isometry": (("f",), None, isometry_check),
    "conjugate-lemma": (("f",), None, integral_conjugate),
    "covariance": (("f", "g"), check_pair, lambda f, g, **t: covariance_squares(f, g, **t).report),
    "independence": (("f", "g"), check_independence_pair, independence_check),
    "hypercontractivity": (("f",), None, hypercontractivity_check),
}
CHECK_KINDS = (*_KERNEL_CHECKS, "asymptotic", "hermite-product", "mc-estimate")


def _number(
    value: Any, what: str, low: float = -math.inf, high: float = math.inf, integer: bool = False
) -> Any:
    """Every number of a scenario is read here: ``value`` must be a JSON
    number (an integer when ``integer``) with ``low <= value <= high``.
    Bools, strings, non-integers where an integer is due, NaN, infinities and
    integers beyond float range are validation errors, never coerced."""
    kinds = (int,) if integer else (int, float)
    if type(value) in kinds and abs(value) <= sys.float_info.max and low <= value <= high:
        return value if integer else float(value)
    kind = "an integer" if integer else "a finite number"
    raise ScenarioError("validation-error", f"{what} must be {kind} in [{low}, {high}], got {value!r}")


def _parse_complex(obj: Any, where: str) -> complex:
    if not isinstance(obj, Mapping):
        raise ScenarioError("validation-error", f"{where}: complex values are {{re, im}} maps")
    return complex(
        _number(obj.get("re", 0.0), f"{where}: re"), _number(obj.get("im", 0.0), f"{where}: im")
    )


def _object_list(data: Mapping, key: str) -> list:
    items = data.get(key, [])
    if not isinstance(items, list) or not all(isinstance(i, Mapping) for i in items):
        raise ScenarioError("validation-error", f"{key} must be a list of objects")
    return items


def _load_kernel(spec: Mapping, measure: DiscreteMeasure, caps: tuple[int, int]):
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError("validation-error", "every kernel needs a non-empty name")
    max_order, _ = caps
    p = _number(spec.get("p"), f"kernel {name}: p", 0, max_order, integer=True)
    q = _number(spec.get("q"), f"kernel {name}: q", 0, max_order - p, integer=True)
    coords = spec.get("coordinates", "orthonormal")
    if coords not in ("orthonormal", "indicator"):
        raise ScenarioError("validation-error", f"kernel {name}: unknown coordinates {coords!r}")
    n = measure.n
    arr = np.zeros((n,) * (p + q), dtype=np.complex128)
    entries = spec.get("entries", [])
    if not isinstance(entries, list):
        raise ScenarioError("validation-error", f"kernel {name}: entries must be a list")
    for k, entry in enumerate(entries):
        where = f"kernel {name} entry {k}"
        if not isinstance(entry, Mapping):
            raise ScenarioError("validation-error", f"{where}: entries are objects")
        idx = entry.get("idx", [])
        if not isinstance(idx, list) or len(idx) != p + q:
            raise ScenarioError("validation-error", f"{where}: idx must have length {p + q}")
        cells = tuple(_number(i, f"{where}: idx", 0, n - 1, integer=True) for i in idx)
        arr[cells] = _parse_complex(entry, where)
    raw = Kernel(p, q, n, arr)
    if coords == "indicator":
        kernel = indicator_to_orthonormal(measure, p, q, arr)
        norms = {"indicator_norm": norm(raw), "orthonormal_norm": norm(kernel)}
    else:
        kernel = raw
        norms = {"orthonormal_norm": norm(kernel)}
    return name, kernel, norms


def load_scenario(path: str, caps: tuple[int, int] = (MAX_TOTAL_ORDER, MAX_CELLS)) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError("parse-error", f"cannot read scenario: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError("parse-error", f"scenario is not valid JSON: {exc}")
    if not isinstance(data, Mapping):
        raise ScenarioError("validation-error", "scenario root must be an object")
    measure_spec = data.get("measure")
    if not isinstance(measure_spec, Mapping) or "masses" not in measure_spec:
        raise ScenarioError("validation-error", "scenario needs measure.masses")
    _, max_cells = caps
    masses = measure_spec["masses"]
    if not isinstance(masses, list) or len(masses) > max_cells:
        raise ScenarioError("validation-error", f"measure.masses must be a list of <= {max_cells} masses")
    masses = [_number(m, "measure.masses", _POSITIVE) for m in masses]
    try:
        measure = DiscreteMeasure(masses)
    except ValueError as exc:
        raise ScenarioError("validation-error", str(exc)) from None
    kernels: dict[str, Kernel] = {}
    kernel_norms: dict[str, dict[str, float]] = {}
    for spec in _object_list(data, "kernels"):
        try:
            name, kernel, norms = _load_kernel(spec, measure, caps)
        except ValueError as exc:
            raise ScenarioError("validation-error", str(exc)) from None
        if name in kernels:
            raise ScenarioError("validation-error", f"duplicate kernel name {name!r}")
        kernels[name] = kernel
        kernel_norms[name] = norms
    sequences: dict[str, KernelSequence] = {}
    for spec in _object_list(data, "sequences"):
        name = spec.get("name")
        if not isinstance(name, str) or not name:
            raise ScenarioError("validation-error", "every sequence needs a non-empty name")
        if name in sequences or name in kernels:
            raise ScenarioError("validation-error", f"duplicate name {name!r}")
        members = spec.get("kernels", [])
        if not isinstance(members, list):
            raise ScenarioError("validation-error", f"sequence {name}: kernels must be a list")
        missing = [m for m in members if not isinstance(m, str) or m not in kernels]
        if missing:
            raise ScenarioError("validation-error", f"sequence {name}: unknown kernels {missing}")
        try:
            sequences[name] = KernelSequence(name, tuple(kernels[m] for m in members))
        except ValueError as exc:
            raise ScenarioError("validation-error", f"sequence {name}: {exc}") from None
    checks = _object_list(data, "checks")
    if not checks:
        raise ScenarioError("validation-error", "scenario needs a non-empty checks list")
    seen = set()
    for check in checks:
        name = check.get("name")
        if not isinstance(name, str) or not name or name in seen:
            raise ScenarioError("validation-error", "checks need unique non-empty names")
        seen.add(name)
        kind = check.get("kind")
        if kind not in CHECK_KINDS:
            raise ScenarioError("validation-error", f"check {name}: unknown kind {kind!r}")
    return Scenario(measure, kernels, kernel_norms, dict(sequences), tuple(checks))


def _kernel_ref(scenario: Scenario, check: Mapping, key: str) -> Kernel:
    name = check.get(key)
    if not isinstance(name, str) or name not in scenario.kernels:
        raise ScenarioError(
            "validation-error", f"check {check.get('name')}: unknown kernel {name!r} for {key!r}"
        )
    return scenario.kernels[name]


def _read_check(
    scenario: Scenario, check: Mapping, args: argparse.Namespace
) -> Callable[[], dict]:
    """Check every field of ``check``, with the flags of ``args`` as its
    defaults, and return a call that runs it and gives its record."""
    name, kind = check["name"], check["kind"]

    def read(obj: Mapping, key: str, default: Any, *bounds: float, integer: bool = True) -> Any:
        return _number(obj.get(key, default), f"check {name}: {key}", *bounds, integer=integer)

    def meets(rule: Callable[..., None], *operands: Any) -> None:
        try:
            rule(*operands)
        except ValueError as exc:
            raise ScenarioError("validation-error", f"check {name}: {exc}") from None

    # Each check's own default applies unless the scenario or --tolerance sets one.
    tol = check.get("tolerance", args.tolerance)
    if tol is not None:
        tol = _number(tol, f"check {name}: tolerance", _POSITIVE)
    tolerance = {} if tol is None else {"tolerance": tol}
    seed = read(check, "seed", args.seed, 0, 2**64 - 1)
    record: dict[str, Any] = {"name": name, "kind": kind}

    if kind in ("product", "product-conjugated") and "grid" in check:
        grid = check["grid"]
        if not isinstance(grid, Mapping):
            raise ScenarioError("validation-error", f"check {name}: grid must be an object")
        max_order, max_cells = args.max_order, args.max_cells
        report = functools.partial(
            suites.product_grid_report,
            max_total=read(grid, "max_total", min(6, max_order), 0, max_order),
            max_cells=read(grid, "max_cells", min(3, max_cells), 1, max_cells),
            trials=read(grid, "trials", 20, 1),
            seed=seed,
            conjugated=kind == "product-conjugated",
            **tolerance,
        )
    elif kind == "asymptotic":
        names = check.get("sequences", [])
        if not isinstance(names, list) or len(names) < 2 or not all(
            isinstance(s, str) and s in scenario.sequences for s in names
        ):
            raise ScenarioError(
                "validation-error", f"check {name}: needs >= 2 known sequences, got {names}"
            )
        seqs = [scenario.sequences[s] for s in names]
        meets(check_sequences, seqs)

        def report() -> VerificationReport:
            rows = asymptotic_diagnostics(seqs)
            last = rows[-1]
            residual = worst_of(
                *(p.max_contraction_norm for p in last.pairs),
                *(abs(p.covariance) for p in last.pairs),
            )
            record["table"] = [
                {
                    "index": row.index,
                    "second_moments": list(row.second_moments),
                    "pairs": [
                        {
                            "pair": list(p.pair),
                            "max_contraction_norm": p.max_contraction_norm,
                            "covariance": p.covariance,
                        }
                        for p in row.pairs
                    ],
                }
                for row in rows
            ]
            return VerificationReport(
                name=name,
                residual=residual,
                tolerance=tol or IDENTITY_TOL,
                metadata={"sequences": ",".join(names), "length": len(rows)},
            )

    elif kind == "hermite-product":
        max_total = read(check, "max_total", 8, 0, 2 * MAX_TOTAL_ORDER)
        report = functools.partial(suites.hermite_product_report, max_total=max_total)
    elif kind == "mc-estimate":
        f = _kernel_ref(scenario, check, "f")
        samples = read(check, "samples", args.samples, 2, MAX_SAMPLES)
        max_sigma = read(check, "max_sigma", 4.0, _POSITIVE, integer=False)
        plan = montecarlo.SamplePlan(seed=seed, samples=samples, n=f.n)

        def report() -> VerificationReport:
            est, target, sigma = suites.mc_sigma(f, plan)
            return VerificationReport(
                name=name,
                residual=sigma,
                tolerance=max_sigma,
                metadata={
                    "estimate": est.value.real,
                    "stderr": est.stderr,
                    "oracle": target,
                    "samples": samples,
                    "seed": seed,
                    "generator": montecarlo.GENERATOR_NAME,
                },
            )

    else:
        fields, rule, checker = _KERNEL_CHECKS[kind]
        kernels = [_kernel_ref(scenario, check, key) for key in fields]
        if rule is not None:
            meets(rule, *kernels)
        report = functools.partial(checker, *kernels, **tolerance)

    def run() -> dict:
        body = report().to_dict()
        body["name"] = name
        record.update(body)
        return record

    return run


def _report_body(records: list[dict], config: Mapping) -> dict:
    records = sorted(records, key=lambda r: r["name"])
    return {
        "tool": {"name": "complexchaos", "version": __version__},
        "config": dict(config),
        "checks": records,
        "pass": all(r["pass"] for r in records),
    }


def _emit(body: Mapping, report_path: str | None) -> None:
    text = json.dumps(body, indent=2, sort_keys=True)
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        for record in body.get("checks", []):
            status = "PASS" if record["pass"] else "FAIL"
            print(f"{status} {record['name']}: residual={record['residual']:.3e} tol={record['tolerance']:.1e}")
        print(f"report written to {report_path}")
    else:
        print(text)


def _writable(report_path: str | None) -> None:
    """Refuse a --report path that cannot be opened for writing, before any
    check runs; a missing file is created empty."""
    if report_path:
        try:
            open(report_path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise ScenarioError("validation-error", f"--report cannot be written: {exc}") from None


def _emit_error(exc: ScenarioError, report_path: str | None) -> None:
    body = {"error": {"code": exc.code, "message": str(exc)}}
    text = json.dumps(body, indent=2, sort_keys=True)
    if report_path:
        try:
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError:
            pass
    print(text, file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario, (args.max_order, args.max_cells))
        only = set(args.only.split(",")) if args.only else set()
        missing = only - {c["name"] for c in scenario.checks}
        if missing:
            raise ScenarioError(
                "validation-error", f"unknown check names requested: {sorted(missing)}"
            )
        # Every check is read, selected or not, before any runs.
        runs = [(c["name"], _read_check(scenario, c, args)) for c in scenario.checks]
        records = [run() for name, run in runs if not only or name in only]
    except ScenarioError as exc:
        _emit_error(exc, args.report)
        return EXIT_INPUT
    except WorkBudgetError as exc:
        _emit_error(ScenarioError("work-budget", str(exc)), args.report)
        return EXIT_INPUT
    except ValueError as exc:
        _emit_error(ScenarioError("validation-error", str(exc)), args.report)
        return EXIT_INPUT
    config = {
        "scenario": args.scenario,
        "seed": args.seed,
        "samples": args.samples,
        "max_total_order": args.max_order,
        "max_cells": args.max_cells,
        "certified_rho": 1,
        "generator": montecarlo.GENERATOR_NAME,
        "kernel_norms": scenario.kernel_norms,
    }
    body = _report_body(records, config)
    _emit(body, args.report)
    return EXIT_PASS if body["pass"] else EXIT_FAIL


def cmd_selftest(args: argparse.Namespace) -> int:
    reports = suites.selftest_reports(
        seed=args.seed, samples=args.samples, perturbation=args.inject_perturbation
    )
    records = [dict(r.to_dict(), kind="selftest") for r in reports]
    config = {
        "seed": args.seed,
        "samples": args.samples,
        "max_total_order": MAX_TOTAL_ORDER,
        "max_cells": MAX_CELLS,
        "certified_rho": 1,
        "generator": montecarlo.GENERATOR_NAME,
        "injected_perturbation": args.inject_perturbation,
    }
    body = _report_body(records, config)
    _emit(body, args.report)
    return EXIT_PASS if body["pass"] else EXIT_FAIL


def cmd_hermite(args: argparse.Namespace) -> int:
    if args.hermite_command == "table":
        rho = args.rho
        for total in range(args.max + 1):
            for m in range(total + 1):
                n = total - m
                poly = hermite.build(m, n, rho)
                print(f"J[{m},{n}](z, rho={rho}) = {hermite.format_polynomial(poly)}")
        return EXIT_PASS
    if args.hermite_command == "product-check":
        report = suites.hermite_product_report(max_total=args.max)
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{status} hermite-product: residual={report.residual:.3e} "
            f"tol={report.tolerance:.1e} rho={report.metadata['certified_rho']}"
        )
        return EXIT_PASS if report.passed else EXIT_FAIL
    raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="complexchaos",
        description="Certification engine for complex Wiener chaos identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the checks of a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--report", default=None, help="write the JSON report here")
    run.add_argument("--tolerance", type=float, default=None, help="tolerance override")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--samples", type=int, default=100_000, help=f"2..{MAX_SAMPLES}")
    run.add_argument("--max-order", type=int, default=MAX_TOTAL_ORDER)
    run.add_argument("--max-cells", type=int, default=MAX_CELLS)
    run.add_argument("--only", default=None, help="comma-separated check names")
    run.set_defaults(func=cmd_run)

    selftest = sub.add_parser("selftest", help="run the built-in certification suite")
    selftest.add_argument("--report", default=None)
    selftest.add_argument("--seed", type=int, default=42)
    selftest.add_argument("--samples", type=int, default=20_000, help=f"2..{MAX_SAMPLES}")
    selftest.add_argument(
        "--inject-perturbation",
        type=float,
        default=0.0,
        help="negative-control hook: perturb one certified coefficient",
    )
    selftest.set_defaults(func=cmd_selftest)

    herm = sub.add_parser("hermite", help="inspect the complex Hermite layer")
    herm_sub = herm.add_subparsers(dest="hermite_command", required=True)
    table = herm_sub.add_parser("table", help="print the polynomial table")
    table.add_argument("--max", type=int, default=8, help=f"max total degree m+n, 0..{2 * MAX_TOTAL_ORDER}")
    table.add_argument("--rho", type=int, default=1, help=">= 1")
    check = herm_sub.add_parser("product-check", help="certify the product expansion")
    check.add_argument(
        "--max", type=int, default=8, help=f"max a+b+c+d, 0..{2 * MAX_TOTAL_ORDER}"
    )
    herm.set_defaults(func=cmd_hermite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report = getattr(args, "report", None)
    # A non-finite value fails its check; numpy's warnings about making one
    # would break the one error record that stderr may carry.
    with np.errstate(all="ignore"):
        try:
            for flag, bounds in _FLAGS.items():
                value = getattr(args, flag, None)
                if value is not None:
                    _number(value, "--" + flag.replace("_", "-"), *bounds)
            _writable(report)
        except ScenarioError as exc:
            _emit_error(exc, report)
            return EXIT_INPUT
        return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
