"""Micro-benchmark of the metric kernels: vectorized vs pointwise loops.

The scoring hot paths batch their distance work through
:meth:`~repro.core.metrics.Metric.pairwise` (the bulk oracle's matrix) and
:meth:`~repro.core.metrics.Metric.rows` (the index's per-add distance row).
This benchmark measures what that batching buys per metric against the
equivalent pure-Python pointwise loops, at a window-sized workload
(n = 256 points, d = 4 attributes -- the multi-attribute scenario shape).

Expectations encoded below:

* every *vectorized* metric (Manhattan, Chebyshev, weighted Euclidean,
  Mahalanobis) must beat its pointwise double loop by >= 3x on the pairwise
  matrix -- that is the speed the metric-space subsystem exists to deliver;
* the Euclidean kernel is deliberately a ``math.dist`` loop (bit-identity
  with the seed implementation forbids a numpy recipe, see
  :mod:`repro.core.metrics`), so it is reported for reference but only held
  to "not slower than the pointwise loop".

The numbers land in ``results/metrics.txt``.
"""

from __future__ import annotations

import random
import time

from conftest import RESULTS_DIR

from repro.core.metrics import metric_from_name, registered_metrics

POINTS = 256
DIMENSION = 4

#: Parameters sized for the 4-d (temperature, humidity, x, y) workload.
METRIC_PARAMS = {
    "weighted-euclidean": {"weights": (1.0, 0.5, 0.02, 0.02)},
    "mahalanobis": {
        "cov": (
            (9.0, 3.0, 0.0, 0.0),
            (3.0, 36.0, 0.0, 0.0),
            (0.0, 0.0, 200.0, 0.0),
            (0.0, 0.0, 0.0, 200.0),
        )
    },
}

#: Kernels are cheap enough to need several repetitions for a stable
#: reading.
KERNEL_REPEATS = 5

#: Each pairwise kernel and its pointwise double loop (65k scalar calls at
#: n=256) are timed in turn, best of this many runs each, so a change in
#: host speed reaches both sides of the speedup alike.
PAIR_REPEATS = 3


def _workload(count: int = POINTS, dim: int = DIMENSION):
    rng = random.Random(4242)
    return [
        tuple(rng.uniform(-50.0, 50.0) for _ in range(dim)) for _ in range(count)
    ]


def _time(*fns, repeats: int):
    """Best time of each callable over ``repeats`` rounds that run every
    callable once, in turn."""
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for position, fn in enumerate(fns):
            started = time.perf_counter()
            fn()
            best[position] = min(best[position], time.perf_counter() - started)
    return best


def test_bench_metric_kernels(benchmark):
    values = _workload()
    timings = {}

    def kernel_sweep():
        for name in registered_metrics():
            metric = metric_from_name(name, **METRIC_PARAMS.get(name, {}))
            dist = metric.distance

            def pointwise_matrix(d=dist):
                return [[d(a, b) for b in values] for a in values]

            timings[(name, "pairwise")], timings[(name, "loop")] = _time(
                lambda m=metric: m.pairwise(values), pointwise_matrix,
                repeats=PAIR_REPEATS,
            )
            (rows,) = _time(
                lambda m=metric: [m.rows(v, values) for v in values[:8]],
                repeats=KERNEL_REPEATS,
            )
            timings[(name, "rows")] = rows / 8

    # Tracked by pytest-benchmark so kernel regressions show up in the
    # BENCH_*.json trajectories.
    benchmark.pedantic(kernel_sweep, rounds=1, iterations=1)

    lines = [
        f"Metric kernels vs pointwise loops "
        f"(n={POINTS} points, d={DIMENSION} attributes)",
        "",
        f"{'metric':>20} {'pairwise ms':>12} {'loop ms':>10} {'speedup':>9} "
        f"{'row us':>8}",
    ]
    for name in registered_metrics():
        fast = timings[(name, "pairwise")] * 1e3
        slow = timings[(name, "loop")] * 1e3
        row_us = timings[(name, "rows")] * 1e6
        lines.append(
            f"{name:>20} {fast:>12.3f} {slow:>10.1f} "
            f"{slow / fast:>8.1f}x {row_us:>8.1f}"
        )
    lines += [
        "",
        "pairwise = full (n, n) distance-matrix kernel; loop = pure-Python "
        "pointwise double loop;",
        "row = one metric.rows() distance row (the index's per-add cost).  "
        "The Euclidean kernel is",
        "a math.dist loop by design (bit-identity with the seed paths); its "
        "pairwise speedup is computing",
        "each unordered pair once, plus call overhead.",
    ]
    text = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "metrics.txt").write_text(text)
    print()
    print(text)

    for name in registered_metrics():
        speedup = timings[(name, "loop")] / timings[(name, "pairwise")]
        if name == "euclidean":
            # Same math.dist calls per pair; the kernel makes half as many
            # (one per unordered pair) and must at least not lose.
            assert speedup >= 1.0, f"euclidean kernel slower than the loop ({speedup:.2f}x)"
        else:
            assert speedup >= 3.0, (
                f"{name} pairwise kernel is only {speedup:.1f}x faster than "
                f"the pointwise loop (floor is 3x)"
            )
