"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with a
wrapper, in every complexchaos module that binds it: names imported by value
(``from .kernels import contract``) are separate bindings, so each one is
wrapped, and ``ChaosPolynomial.__mul__`` is wrapped on its class.
``Tracer.uninstall`` puts the originals back.

Each wrapper adds to its layer's call count and self time (the call's
duration minus the time of the traced calls it made).  Work counters are read
from the call's arguments and result after the clock has stopped, and the
time spent reading them is charged to no span, so they do not inflate the
caller's self time either.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time
from collections import Counter
from typing import Any, Callable

LAYERS = ("kernels", "hermite", "chaos", "oracle", "montecarlo", "suites", "cli")

# Theorem-level check functions; their self time excludes the layers below.
CHECK_FUNCTIONS = (
    "asymptotic_diagnostics",
    "covariance_squares",
    "hypercontractivity_check",
    "independence_check",
    "integral_conjugate",
    "isometry_check",
    "moment_factorization_gap",
    "product_check",
    "product_conjugated_check",
)


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def _transposes(k: int) -> int:
    # Summing all k! permutations of a block; a block of 0 or 1 slots is copied.
    return math.factorial(k) if k > 1 else 0


def _count_symmetrize(tracer, counters, args, kwargs, result) -> None:
    f = _arg(args, kwargs, 0, "f")
    transposes = _transposes(f.p) + _transposes(f.q)
    counters["transposes"] += transposes
    # Each transpose-add reads the source view and reads and writes the sum.
    counters["bytes_computed"] += 3 * transposes * f.coeffs.nbytes


def _count_expand(tracer, counters, args, kwargs, result) -> None:
    f = _arg(args, kwargs, 0, "f")
    counters["terms_out"] += len(result.terms)
    shape = (f.n, f.p, f.q)
    if shape not in tracer.seen_shapes:
        tracer.seen_shapes.add(shape)
        counters["orbit_tables_built"] += 1


def _count_mul(tracer, counters, args, kwargs, result) -> None:
    left, right = args[0], args[1]
    # A product with a scalar visits each term once.
    right_terms = len(right.terms) if hasattr(right, "terms") else 1
    counters["term_pairs"] += len(left.terms) * right_terms
    counters["terms_out"] += len(result.terms)


def _surplus(key) -> tuple[int, ...]:
    a, b = key
    return tuple(x - y for x, y in zip(a, b))


def _count_join(tracer, counters, args, kwargs, result) -> None:
    left = _arg(args, kwargs, 0, "left")
    right = _arg(args, kwargs, 1, "right")
    counters["terms_in"] += len(left.terms) + len(right.terms)
    # A left term meets every right term whose z-surplus cancels its own.
    buckets = Counter(_surplus(key) for key in right.terms)
    counters["join_matches"] += sum(
        buckets.get(tuple(-s for s in _surplus(key)), 0) for key in left.terms
    )


def _count_sampling(tracer, counters, args, kwargs, result) -> None:
    plan = _arg(args, kwargs, 0, "plan")
    counters["draws"] += plan.samples
    # Uniforms (2 float64 per coordinate) in, complex128 coordinates out.
    counters["bytes_computed"] += plan.samples * plan.n * 32


def _count_evaluate(tracer, counters, args, kwargs, result) -> None:
    poly = _arg(args, kwargs, 0, "poly")
    samples = _arg(args, kwargs, 1, "samples")
    counters["term_evals"] += len(poly.terms) * samples.shape[0]


# (layer name, module, attribute names, work counter)
TARGETS: tuple[tuple[str, str, tuple[str, ...], Callable | None], ...] = (
    ("kernels.ito_symmetrize", "kernels", ("ito_symmetrize",), _count_symmetrize),
    ("kernels.contract", "kernels", ("contract",), None),
    ("hermite.build", "hermite", ("build",), None),
    ("hermite.certify", "hermite", ("certify_product_formula",), None),
    ("chaos.expand", "chaos", ("expand",), _count_expand),
    ("chaos.poly_mul", "chaos", ("ChaosPolynomial.__mul__",), _count_mul),
    ("chaos.check", "chaos", CHECK_FUNCTIONS, None),
    ("oracle.pair_expectation", "oracle", ("pair_expectation",), _count_join),
    ("oracle.expectation", "oracle", ("expectation",), None),
    ("montecarlo.sample_coordinates", "montecarlo", ("sample_coordinates",), _count_sampling),
    ("montecarlo.evaluate_polynomial", "montecarlo", ("evaluate_polynomial",), _count_evaluate),
    ("montecarlo.estimate", "montecarlo", ("estimate",), None),
    ("suites", "suites", (), None),  # every name in suites.__all__
    ("cli.load_scenario", "cli", ("load_scenario",), None),
    ("cli.emit", "cli", ("_emit",), None),
)


class LayerStats:
    """Calls, self time and work counters of one layer."""

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counters: Counter = Counter()

    def as_dict(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, **self.counters}


def merge(stats_dicts: list[dict]) -> dict:
    """Sum per-layer stats dicts (as produced by ``Tracer.snapshot``)."""
    total: dict[str, dict] = {}
    for stats in stats_dicts:
        for layer, values in stats.items():
            acc = total.setdefault(layer, {})
            for key, value in values.items():
                acc[key] = acc.get(key, 0) + value
    return total


class Tracer:
    """Installs and removes the layer wrappers and holds what they record.

    ``recording`` can be switched off to let the wrappers observe calls (for
    ``orbit_tables_built``) without counting them, as during cache warm-up.
    """

    def __init__(self) -> None:
        self.stats: dict[str, LayerStats] = {name: LayerStats() for name, *_ in TARGETS}
        self.seen_shapes: set[tuple[int, int, int]] = set()
        self.recording = True
        self._stack: list[float] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def snapshot(self) -> dict:
        return {name: stats.as_dict() for name, stats in self.stats.items()}

    def _wrap(self, layer: str, fn: Callable, count: Callable | None) -> Callable:
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                if stack:
                    stack[-1] += clock() - start
                raise
            end = clock()
            children = stack.pop()
            counters = Counter()  # discarded unless recording
            if self.recording:
                entry = stats[layer]
                entry.calls += 1
                entry.self_s += (end - start) - children
                counters = entry.counters
            if count is not None:
                count(self, counters, args, kwargs, result)
            if stack:
                stack[-1] += clock() - start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> "Tracer":
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("complexchaos")
        modules = [package] + [importlib.import_module(f"complexchaos.{m}") for m in LAYERS]
        for layer, module_name, names, count in TARGETS:
            module = importlib.import_module(f"complexchaos.{module_name}")
            for name in names or tuple(module.__all__):
                owner_name, _, attr = name.rpartition(".")
                if owner_name:  # a method: wrap it once, on its class
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._restore.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(layer, original, count))
                    continue
                original = getattr(module, attr)
                wrapped = self._wrap(layer, original, count)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapped)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def active(self):
        """Wrappers installed for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
