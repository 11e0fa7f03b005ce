"""Micro-benchmark of the detector hot path: per-event vs batched ticks.

Every sampling round a sensor processes one combined data-change event (one
arrival plus one eviction at a steady window of ``n`` points) and rebuilds
its estimate, support sets and per-neighbor sufficient sets.  The flat-array
:class:`~repro.core.index.NeighborhoodIndex` engine maintains the geometry
incrementally and the :class:`~repro.core.rescoring.ScoreCache` rescores
only the dirty set on each event; grouping several events into one tick
shares one :class:`~repro.core.batch.EventBatch` and one rescoring pass
among them.

The measurement harness is shared with the ``repro-wsn bench`` CLI
subcommand (:mod:`repro.bench`), which emits the machine-readable
``BENCH_hotpath.json`` artifact CI gates against the committed trajectory;
this pytest entry records the same sweep at ``n ∈ {64, 256, 1024}`` and
refreshes ``results/hotpath.txt``.
"""

from __future__ import annotations

from pathlib import Path

from repro.bench import (
    DEFAULT_WINDOWS,
    measure_event_latency,
    render_hotpath_table,
    run_hotpath_bench,
)

#: Computed directly (not via the benchmarks conftest) so this module also
#: imports cleanly in mixed tests+benchmarks pytest invocations, where the
#: top-level ``conftest`` name can resolve to either directory's conftest.
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

WINDOW_SIZES = DEFAULT_WINDOWS


def test_bench_hotpath(benchmark):
    payload = {}

    def full_sweep():
        # One call measures every batch size per window; the
        # pytest-benchmark entry therefore tracks the whole sweep.
        payload.update(run_hotpath_bench(WINDOW_SIZES))

    benchmark.pedantic(full_sweep, rounds=1, iterations=1)

    text = render_hotpath_table(payload)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "hotpath.txt").write_text(text)
    print()
    print(text)
    assert [row["window"] for row in payload["windows"]] == list(WINDOW_SIZES)


def test_bench_hotpath_harness_is_deterministic():
    """The shared harness must measure the same protocol work every call:
    two runs at the same window see identical streams and end in identical
    detector state (the latency itself of course varies)."""
    from repro.bench import steady_state_detector

    states = []
    for _ in range(2):
        detector, stream = steady_state_detector(64, 3)
        for i in range(3):
            detector.update_local_data([stream[64 + i]], [stream[i]])
        states.append((stream, detector.holdings, detector.estimate()))
    (stream_a, holdings_a, estimate_a), (stream_b, holdings_b, estimate_b) = states
    assert stream_a == stream_b
    assert holdings_a == holdings_b
    assert estimate_a == estimate_b
    latency, events = measure_event_latency(64, events=3)
    # At least four whole ticks are measured.
    assert events == 4 and latency > 0
