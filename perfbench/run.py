"""Certification benchmark for complexchaos.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: exact-algebra, sampling, high-order and cli-cold; BENCHMARK.json
names them and their metrics, and perfbench/provenance.json records why each
was chosen, its sizes and seeds, and the first baseline.  Load is one process
in a closed loop with no concurrency, and BLAS is pinned to one thread.  The
seed defaults to the workload's acceptance seed.

With ``--trace 0`` the run times set-up (the median over fresh-interpreter
probes), warms the program's caches (except on cli-cold), then repeats passes
over the workload's fixed checks for about ``--seconds`` seconds and reports
the end-to-end metrics.  Timings are at the reference speed of speed.py;
the printed table adds raw wall times as measured, the
failure fraction, sampling's draw rate and the latency sample counts.  With
``--trace 1`` it runs one pass under the layer tracer between two without,
and reports the per-layer metrics and the tracing overhead.  Every check is
guarded (see workloads.py).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result line when the complexchaos source or BENCHMARK.json
is missing from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
SOURCE = ROOT / "src" / "complexchaos" / "__init__.py"
WORK = ROOT / ".perfbench_work"

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 11
WORKLOAD_NAMES = ("exact-algebra", "sampling", "high-order", "cli-cold")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None, help="default: the acceptance seed")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- measurement helpers ---------------------------------------------------------


def probe_setup(cold: bool) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its ready line, at the
    reference speed and as measured."""
    import speed
    from workloads import child_env

    argv = [sys.executable, str(BENCH_DIR / "probe.py")] + (["--cold"] if cold else [])
    before = speed.burst(speed.PYTHON)
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    raw = ready - start
    return 2.0 * raw / (before + speed.burst(speed.PYTHON)), raw


def timed_passes(run_one, seconds: float, min_passes: int) -> list:
    """Repeat passes while the next one is expected to end within ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        passes.append(run_one())
        now = time.perf_counter()
        if len(passes) >= min_passes and (now - start) + (now - before) > seconds:
            return passes


@contextlib.contextmanager
def work_dir():
    """Scratch directory inside the checkout, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def smoothed_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis-style quantile: the order statistics weighted by a
    normal approximation of the distribution of the p-quantile's rank.  Check
    latencies come in groups of equal-size checks, and a plain quantile that
    falls between two groups jumps from one to the other."""
    xs = sorted(values)
    center = p * (len(xs) - 1)
    sigma = max(math.sqrt(len(xs) * p * (1.0 - p)), 0.5)
    ranks = range(max(0, math.floor(center - 4 * sigma)), min(len(xs), math.ceil(center + 4 * sigma) + 1))
    weights = [math.exp(-0.5 * ((i - center) / sigma) ** 2) for i in ranks]
    return math.fsum(w * xs[i] for w, i in zip(weights, ranks)) / math.fsum(weights)


def end_to_end(setup: list[tuple[float, float]], passes: list, rss_mb: float, draws_per_pass: int) -> dict:
    """Timings at the reference speed; the ``raw_`` entries as measured."""
    latencies = [x for p in passes for x in p.latencies]
    busy = sum(p.wall_s for p in passes)
    attempted = len(latencies)
    failed = sum(len(p.failed) for p in passes)
    p50, p90 = (smoothed_quantile(latencies, p) for p in (0.5, 0.9))
    return {
        "setup_s": statistics.median(s for s, _ in setup),
        "raw_setup_s": statistics.median(r for _, r in setup),
        "raw_wall_s": statistics.median(p.raw_wall_s for p in passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "checks_per_s": attempted / busy,
        "check_ms_p50": 1000.0 * p50,
        "check_ms_p90": 1000.0 * p90,
        "peak_rss_mb": rss_mb,
        "failed_frac": failed / attempted,
        "samples_per_s": draws_per_pass * len(passes) / busy,
        "_samples": attempted,
        "_beyond_p90": sum(x > p90 for x in latencies),
        "_passes": len(passes),
    }


def per_layer(spec: list[dict], stats: dict, overhead: float) -> dict:
    """Metric ``<layer>.<field>`` is field of the layer's summed stats;
    ``merge_ratio`` is terms_out / term_pairs."""
    out = {}
    for metric in spec:
        name = metric["name"]
        if name == "trace.overhead_frac":
            value = overhead
        else:
            layer, field = name.rsplit(".", 1)
            values = stats.get(layer, {})
            if field == "merge_ratio":
                pairs = values.get("term_pairs", 0)
                value = values.get("terms_out", 0) / pairs if pairs else 0.0
            else:
                value = values.get(field, 0)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def report_failures(passes: list, labels: list[str]) -> None:
    shown = 0
    for p in passes:
        for k in p.failed:
            if shown < 5:
                o = p.outcomes[k]
                reason = o.failure or f"residual {o.residual!r} > tolerance {o.tolerance!r}"
                print(f"FAILED {labels[k]}: {reason}", file=sys.stderr)
            shown += 1
    if shown > 5:
        print(f"... {shown - 5} more failed checks", file=sys.stderr)


def same_residuals(a, b) -> bool:
    return len(a.outcomes) == len(b.outcomes) and all(
        x.residual == y.residual or (math.isnan(x.residual) and math.isnan(y.residual))
        for x, y in zip(a.outcomes, b.outcomes)
    )


# -- the two kinds of run --------------------------------------------------------


def run_untraced(workload, seed: int, seconds: float) -> tuple[dict, list, list]:
    import workloads

    cold = workload.build is None
    setup = [probe_setup(cold) for _ in range(SETUP_PROBES)]
    if cold:
        commands = workloads.cli_commands(seed)
        labels = [label for label, _ in commands]
        references: dict[str, bytes] = {}
        with work_dir() as work:
            passes = timed_passes(
                lambda: workloads.run_cli_pass(commands, work, references, None, workload.reference),
                seconds,
                2,
            )
        return end_to_end(setup, passes, peak_rss_mb(resource.RUSAGE_CHILDREN), 0), passes, labels
    checks = workload.build(seed)
    labels = [c.case for c in checks]
    draws = sum(c.inputs[2] for c in checks if c.kind == "sampling")
    workloads.warm_up(checks)
    rss: list[float] = []

    def one_pass():
        result = workloads.run_pass(checks, workload.min_within, workload.reference)
        if not rss:  # the high-water mark of warm-up and one pass, whatever the pass count
            rss.append(peak_rss_mb(resource.RUSAGE_SELF))
        return result

    passes = timed_passes(one_pass, seconds, 1 if len(checks) >= 100 else 2)  # >= 100 latencies put 10 beyond p90
    return end_to_end(setup, passes, rss[0], draws), passes, labels


def run_traced(workload, seed: int) -> tuple[dict, float, list, list]:
    """A traced pass between two untraced passes over the same inputs; the
    overhead is the traced wall time over the mean untraced one, minus 1."""
    import layertrace
    import workloads

    if workload.build is None:
        commands = workloads.cli_commands(seed)
        labels = [label for label, _ in commands]
        references: dict[str, bytes] = {}
        with work_dir() as work:
            trace_dir = work / "trace"
            trace_dir.mkdir()
            before, traced, after = (
                workloads.run_cli_pass(commands, work, references, where, workload.reference)
                for where in (None, trace_dir, None)
            )
            stats = layertrace.merge(
                [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.trace.json"))]
            )
    else:
        checks = workload.build(seed)
        labels = [c.case for c in checks]

        def one_pass():
            return workloads.run_pass(checks, workload.min_within, workload.reference)

        tracer = layertrace.Tracer()
        tracer.recording = False  # observe warm-up shapes without counting
        with tracer.active():
            workloads.warm_up(checks)
        before = one_pass()
        tracer.recording = True
        with tracer.active():
            traced = one_pass()
        after = one_pass()
        stats = tracer.snapshot()
        if not (same_residuals(traced, before) and same_residuals(traced, after)):
            traced.failed = sorted(set(traced.failed) | set(range(len(traced.outcomes))))
            print("FAILED traced residuals differ from untraced residuals", file=sys.stderr)
    overhead = traced.wall_s / statistics.fmean((before.wall_s, after.wall_s)) - 1.0
    return stats, overhead, [before, traced, after], labels


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not SOURCE.is_file() or not SPEC.is_file():
        print(f"perfbench: {SOURCE.relative_to(ROOT)} or BENCHMARK.json missing", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy is first imported
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if Path(workloads.chaos.__file__).resolve().parent != SOURCE.parent:
        print("perfbench: complexchaos was not imported from this checkout", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed

    if args.trace:
        stats, overhead, passes, labels = run_traced(workload, seed)
        metrics = per_layer(spec["per_layer"], stats, overhead)
        ranked = sorted(
            ((v["self_s"], k) for k, v in stats.items() if v.get("self_s")), reverse=True
        )
        for self_s, layer in ranked:
            print(f"{'self time ' + layer:44s} {self_s:.6f} s over {stats[layer]['calls']} calls")
    else:
        values, passes, labels = run_untraced(workload, seed, args.seconds)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
        samples = "" if args.workload != "sampling" else f"{values['samples_per_s']:.6g} 1/s"
        print(f"{'samples_per_s':44s} {samples or 'n/a (no Monte Carlo draws)'}")
        print(f"{'timings':44s} at python reference speed for setup_s, {workload.reference.name} otherwise")
        print(f"{'raw_setup_s':44s} {values['raw_setup_s']:.6g} s (as measured)")
        print(f"{'raw_wall_s':44s} {values['raw_wall_s']:.6g} s (as measured)")
        print(f"{'failed_frac':44s} {values['failed_frac']:.6g}")
        print(
            f"{'latency samples':44s} {values['_samples']} over {values['_passes']} passes, "
            f"{values['_beyond_p90']} beyond p90"
            + ("" if values["_beyond_p90"] >= 10 else " (too few: p90 not valid)")
        )
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}")
    report_failures(passes, labels)
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
