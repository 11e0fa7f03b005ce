"""Machine-readable performance benchmarks (``repro-wsn bench``).

Performance is a first-class, regression-guarded output of this
reproduction: the per-event detector latency decides how large a
window/network the experiments can simulate, so it is measured the same way
figures are -- reproducibly, from a CLI entry point, with artifacts a CI
job can diff and threshold.

Two benchmarks ship, and every ``repro-wsn bench`` call runs both:

* **hotpath** -- per-event latency of the steady-state detector loop (one
  arrival plus one eviction per event at a fixed window size), with the
  events applied 1, 4, 16 or 64 per tick, at several window sizes.  Batch
  size 1 is the per-event latency; larger ticks share one
  :class:`~repro.core.batch.EventBatch` and one rescoring pass.  Emitted as
  ``BENCH_hotpath.json``.
* **setup** -- scenario *construction* cost at scale: layout generation
  plus :class:`~repro.network.topology.Topology` building via the grid
  spatial index versus the brute-force all-pairs oracle, on the same
  density-preserving terrains the ``scaling-nodes`` sweep uses.  The brute
  build is skipped above a node cap (it is O(n^2); the cap keeps the bench
  bounded), so its speedup is ``null`` there.  Emitted as
  ``BENCH_setup.json``.

Whole scenarios are timed end to end by ``perfbench/`` (declared in
``BENCHMARK.json``), not by this module.

Every artifact carries a stable ``schema`` number and enough configuration to
interpret a trajectory of them across commits.  The CLI's ``--check`` mode
turns both results into regression guards: the batched speedup (largest
swept batch size over batch size 1) at :data:`BATCH_FLOOR_WINDOW` must reach
:data:`BATCH_FLOOR`, and the grid-vs-brute build speedup at the largest
size the brute oracle measured must reach :data:`SETUP_FLOOR`.

Methodology invariants (what makes two artifacts comparable):

* **chunked-min timing** -- each measurement is the *fastest* fixed-size
  chunk of events, not the mean: the minimum of repeated identical work is
  the run least disturbed by the scheduler/GC, so it estimates the code's
  cost rather than the machine's mood.  Consequence: numbers are comparable
  across commits *on one machine*; absolute values from different machines
  (or from pre-chunked-min artifacts) are not.
* **identical work** -- every batch size replays the *same* deterministic
  event stream (same seed, same points), so the reported speedup isolates
  the batching, not the workload.
* **floors are on ratios** -- ``--check`` thresholds speedups, never an
  absolute latency, precisely so CI machines of different speeds share one
  floor.

The module is import-light so ``repro-wsn bench`` stays snappy; the detector
and topology stacks are imported lazily inside the harness functions.
"""

from __future__ import annotations

import json
import platform
import random
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BENCH_HOTPATH_SCHEMA",
    "DEFAULT_WINDOWS",
    "QUICK_WINDOWS",
    "DEFAULT_BATCH_SIZES",
    "BATCH_FLOOR",
    "BATCH_FLOOR_WINDOW",
    "steady_state_detector",
    "measure_event_latency",
    "run_hotpath_bench",
    "render_hotpath_table",
    "BENCH_SETUP_SCHEMA",
    "DEFAULT_SETUP_NODES",
    "QUICK_SETUP_NODES",
    "SETUP_FLOOR",
    "measure_setup",
    "run_setup_bench",
    "render_setup_table",
    "check_setup_floor",
    "write_bench_artifacts",
    "check_batched_floor",
]

#: Bump when the hotpath artifact layout changes incompatibly.
#: History: 2 -- batched event application added ``batched_ms`` /
#: ``batched_speedup`` / ``batch_size`` / ``batch_sweep`` /
#: ``events_batched`` to every hotpath row.  3 -- the brute-force detector
#: left the library: ``rebuild_ms`` / ``speedup`` / ``events_rebuild`` are
#: gone, and ``indexed_ms`` is the sweep's batch-size-1 entry, the baseline
#: of every ``speedup`` in the sweep.
BENCH_HOTPATH_SCHEMA = 3

#: Window sizes of the full hotpath sweep (matches ``results/hotpath.txt``).
DEFAULT_WINDOWS: Tuple[int, ...] = (64, 256, 1024)

#: Window sizes of the CI-friendly ``--quick`` sweep.  256 is included
#: because the batched floor is evaluated there.
QUICK_WINDOWS: Tuple[int, ...] = (64, 256)

#: Events-per-tick sweep (1 is the per-event baseline and is always
#: measured; 64 is the headline amortization, roughly a received message or
#: a coarse sampling tick).  Sizes larger than the window are skipped per
#: window so the sliding-window workload stays well formed.
DEFAULT_BATCH_SIZES: Tuple[int, ...] = (1, 4, 16, 64)

#: ``--check`` fails when the batched speedup at :data:`BATCH_FLOOR_WINDOW`
#: is below :data:`BATCH_FLOOR`.  Conservative, so the guard does not flap
#: on shared runners, yet a batched path that stopped batching (~1x) fails.
BATCH_FLOOR = 2.5
BATCH_FLOOR_WINDOW = 256

#: Schema of ``BENCH_setup.json`` (independent of the hotpath schema: the
#: artifacts evolve separately).  History: 1 -- initial layout.
BENCH_SETUP_SCHEMA = 1

#: Node counts of the full setup sweep (matches the ``scaling-nodes``
#: paper-profile counts).
DEFAULT_SETUP_NODES: Tuple[int, ...] = (1024, 4096, 16384)

#: Node counts of the CI-friendly ``--quick`` sweep.
QUICK_SETUP_NODES: Tuple[int, ...] = (512, 2048)

#: ``--check`` fails when the grid-vs-brute build speedup at the largest
#: size the brute oracle measured (2048 nodes under ``--quick``, 4096 on the
#: full sweep) is below this.  Conservative, yet a fallback to the quadratic
#: build (~1x) fails.
SETUP_FLOOR = 4.0

#: Largest node count the brute-force O(n^2) topology build is measured
#: at.  Beyond it only the grid build runs and ``speedup`` is ``null`` --
#: the brute build at 16k nodes takes tens of seconds, which would dominate
#: the whole bench for a number nobody thresholds.
_SETUP_BRUTE_CAP = 4096

#: Measured events per window at batch size 1 (larger batch sizes measure
#: at least four whole ticks).
_EVENTS = {64: 60, 256: 30, 1024: 15}


def _events_for(window: int, events: Optional[int]) -> int:
    if events is not None:
        return max(1, events)
    if window in _EVENTS:
        return _EVENTS[window]
    # Unlisted window sizes (tests use tiny ones): scale inversely, keeping
    # at least a handful of events.
    return max(4, min(60, 4096 // max(window, 1)))


def steady_state_detector(window: int, events: int):
    """A detector holding ``window`` points plus the stream that keeps it
    there: the shared harness of the hotpath benchmark and the pytest
    micro-benchmark (``benchmarks/test_bench_hotpath.py``)."""
    from .core import (
        AverageKNNDistance,
        GlobalOutlierDetector,
        OutlierQuery,
        make_point,
    )

    rng = random.Random(1234)
    query = OutlierQuery(AverageKNNDistance(k=4), n=4)
    detector = GlobalOutlierDetector(0, query, neighbors=[1, 2])
    stream = [
        make_point(
            [rng.gauss(20.0, 1.0), rng.uniform(0, 50), rng.uniform(0, 50)],
            origin=0,
            epoch=epoch,
        )
        for epoch in range(window + events)
    ]
    detector.add_local_points(stream[:window])
    detector.initialize()
    return detector, stream


def measure_event_latency(
    window: int, events: Optional[int] = None, batch_size: int = 1
) -> Tuple[float, int]:
    """Amortized per-event latency in seconds of the steady-state loop,
    plus the number of measured events.

    The stream is applied ``batch_size`` events per ``update_local_data``
    call (one tick expiring ``batch_size`` points while adding
    ``batch_size`` fresh ones), so one
    :class:`~repro.core.batch.EventBatch` and one rescoring pass cover the
    whole tick; batch size 1 is the per-event latency.  The ticks are timed
    in a few equal chunks and the *fastest* chunk is reported (the
    ``timeit`` convention): every steady-state tick performs the same
    protocol work, so slower chunks measure scheduler and frequency-scaling
    interference, not the code under test.  The reported latency is per
    *event*, so every batch size is directly comparable.
    """
    batch_size = max(1, min(int(batch_size), window))
    count = _events_for(window, events)
    # Enough events for several whole batches, whatever the tick size.
    count = max(count, batch_size * 4)
    count -= count % batch_size
    detector, stream = steady_state_detector(window, count)
    batches = count // batch_size
    chunk = max(1, batches // 4)
    best = float("inf")
    done = 0
    while done < batches:
        size = min(chunk, batches - done)
        started = time.perf_counter()
        for b in range(done, done + size):
            start = b * batch_size
            stop = start + batch_size
            detector.update_local_data(
                stream[window + start : window + stop], stream[start:stop]
            )
        best = min(best, (time.perf_counter() - started) / (size * batch_size))
        done += size
    return best, count


def run_hotpath_bench(
    windows: Optional[Sequence[int]] = None,
    events: Optional[int] = None,
    quick: bool = False,
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
) -> Dict:
    """Measure the hotpath sweep and return the ``BENCH_hotpath`` payload.

    ``windows`` defaults to :data:`QUICK_WINDOWS` with ``quick`` and to
    :data:`DEFAULT_WINDOWS` otherwise.  Each window row carries a
    ``batch_sweep`` over batch size 1 plus ``batch_sizes`` (sizes larger
    than the window are skipped).  Batch size 1 is the per-event latency
    (``indexed_ms``) and the baseline of every ``speedup``; the headline
    ``batched_ms`` / ``batched_speedup`` are the largest swept size.
    """
    if windows is None:
        windows = QUICK_WINDOWS if quick else DEFAULT_WINDOWS
    rows: List[Dict] = []
    for window in windows:
        sizes = sorted({1, *(int(b) for b in batch_sizes if b <= window)})
        timings = [
            (size, *measure_event_latency(window, events, size)) for size in sizes
        ]
        per_event_s, per_event_count = timings[0][1], timings[0][2]
        sweep = [
            {
                "batch_size": size,
                "batched_ms": seconds * 1e3,
                "speedup": per_event_s / seconds,
            }
            for size, seconds, _ in timings
        ]
        headline = sweep[-1]
        rows.append(
            {
                "window": int(window),
                "indexed_ms": per_event_s * 1e3,
                "batched_ms": headline["batched_ms"],
                "batch_size": headline["batch_size"],
                "batched_speedup": headline["speedup"],
                "batch_sweep": sweep,
                "events_indexed": per_event_count,
                "events_batched": max(count for _, _, count in timings),
            }
        )
    return {
        "schema": BENCH_HOTPATH_SCHEMA,
        "benchmark": "hotpath",
        "quick": bool(quick),
        "python": platform.python_version(),
        "windows": rows,
    }


def render_hotpath_table(payload: Dict) -> str:
    """The human-readable table mirrored to ``results/hotpath.txt``."""
    lines = [
        "Per-event detector latency (steady window, 1 add + 1 evict; "
        "batched = adds/evicts grouped per tick, amortized per event)",
        "",
        f"{'window':>8} {'event ms':>12} {'batched ms':>12} {'batch x':>9}",
    ]
    for row in payload["windows"]:
        lines.append(
            f"{row['window']:>8} {row['indexed_ms']:>12.3f} "
            f"{row['batched_ms']:>12.3f} {row['batched_speedup']:>8.1f}x"
        )
    sizes = sorted(
        {
            entry["batch_size"]
            for row in payload["windows"]
            for entry in row["batch_sweep"]
        }
    )
    lines += [
        "",
        f"batch sweep (events per tick): {', '.join(str(s) for s in sizes)}; "
        "the batched column reports the largest size swept per window,",
        "its speedup is relative to batch size 1 (the event column).",
    ]
    return "\n".join(lines) + "\n"


def _best_of(repeats: int, build) -> float:
    """Fastest wall-clock of ``repeats`` identical ``build()`` calls, in
    seconds (the chunked-min convention applied to whole-build units: a
    build is one indivisible chunk)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        build()
        best = min(best, time.perf_counter() - started)
    return best


def measure_setup(
    nodes: int,
    repeats: int = 3,
    brute_cap: int = _SETUP_BRUTE_CAP,
) -> Dict:
    """One setup-bench row: layout + topology-build timings at ``nodes``.

    The workload is exactly the ``scaling-nodes`` scenario setup: a
    serpentine lab layout on the density-preserving terrain
    (:func:`repro.experiments.sweeps.scaling_terrain`) and a
    :class:`~repro.network.topology.Topology` at the paper's transmission
    range.  Both builders replay the identical placement, so the reported
    speedup isolates the neighbor-index algorithm, not the workload.  The
    brute oracle is skipped (``brute_ms``/``speedup`` are ``None``) above
    ``brute_cap``.
    """
    from .datasets.layout import DEFAULT_TRANSMISSION_RANGE, intel_lab_layout
    from .experiments.sweeps import scaling_terrain
    from .network.topology import Topology

    terrain = scaling_terrain(nodes)
    layout_s = _best_of(
        repeats, lambda: intel_lab_layout(node_count=nodes, terrain_size=terrain)
    )
    positions = intel_lab_layout(node_count=nodes, terrain_size=terrain)

    grid_s = _best_of(
        repeats,
        lambda: Topology.from_positions(
            positions,
            transmission_range=DEFAULT_TRANSMISSION_RANGE,
            builder="grid",
        ),
    )
    topology = Topology.from_positions(
        positions, transmission_range=DEFAULT_TRANSMISSION_RANGE, builder="grid"
    )

    brute_s: Optional[float] = None
    if nodes <= brute_cap:
        brute_s = _best_of(
            repeats,
            lambda: Topology.from_positions(
                positions,
                transmission_range=DEFAULT_TRANSMISSION_RANGE,
                builder="brute",
            ),
        )

    _, mean_degree, _ = topology.degree_statistics()
    return {
        "nodes": int(nodes),
        "terrain": terrain,
        "transmission_range": DEFAULT_TRANSMISSION_RANGE,
        "layout_ms": layout_s * 1e3,
        "grid_ms": grid_s * 1e3,
        "brute_ms": brute_s * 1e3 if brute_s is not None else None,
        "speedup": brute_s / grid_s if brute_s is not None else None,
        "edges": int(topology.edge_count),
        "mean_degree": float(mean_degree),
        "repeats": int(max(1, repeats)),
    }


def run_setup_bench(
    node_counts: Optional[Sequence[int]] = None,
    quick: bool = False,
    repeats: int = 3,
) -> Dict:
    """Measure the setup sweep and return the ``BENCH_setup`` payload."""
    if node_counts is None:
        node_counts = QUICK_SETUP_NODES if quick else DEFAULT_SETUP_NODES
    rows = [measure_setup(int(nodes), repeats=repeats) for nodes in node_counts]
    return {
        "schema": BENCH_SETUP_SCHEMA,
        "benchmark": "setup",
        "quick": bool(quick),
        "python": platform.python_version(),
        "brute_cap": _SETUP_BRUTE_CAP,
        "sizes": rows,
    }


def render_setup_table(payload: Dict) -> str:
    """The human-readable table mirrored to ``results/setup.txt``."""
    lines = [
        "Scenario setup cost (serpentine layout on density-preserving "
        "terrain, paper transmission range; best of repeated builds)",
        "",
        f"{'nodes':>8} {'terrain m':>10} {'layout ms':>11} {'grid ms':>10} "
        f"{'brute ms':>11} {'speedup':>9} {'edges':>8} {'degree':>7}",
    ]
    for row in payload["sizes"]:
        if row["brute_ms"] is None:
            brute_cell = f"{'-':>11} {'-':>9}"
        else:
            brute_cell = f"{row['brute_ms']:>11.1f} {row['speedup']:>8.1f}x"
        lines.append(
            f"{row['nodes']:>8} {row['terrain']:>10.1f} "
            f"{row['layout_ms']:>11.2f} {row['grid_ms']:>10.2f} "
            + brute_cell
            + f" {row['edges']:>8} {row['mean_degree']:>7.2f}"
        )
    lines += [
        "",
        f"brute oracle measured up to {payload['brute_cap']} nodes "
        "(O(n^2); larger sizes report the grid build only).",
    ]
    return "\n".join(lines) + "\n"


def check_setup_floor(setup: Dict, floor: float) -> Tuple[bool, str]:
    """Regression guard for scenario setup: the grid-vs-brute build speedup
    at the largest node count the brute oracle measured must be at least
    ``floor``.  Same never-vacuous contract as :func:`check_batched_floor`:
    a sweep where the brute oracle measured no size fails.
    """
    measured = [row for row in setup["sizes"] if row.get("speedup") is not None]
    if not measured:
        return False, (
            f"setup guard error: the brute oracle measured none of the sizes "
            f"{[row['nodes'] for row in setup['sizes']]} (brute cap "
            f"{setup.get('brute_cap')})"
        )
    row = max(measured, key=lambda row: row["nodes"])
    ok = row["speedup"] >= floor
    verdict = "ok" if ok else "REGRESSION"
    return ok, (
        f"setup guard {verdict}: grid build speedup {row['speedup']:.1f}x "
        f"at {row['nodes']} nodes (floor {floor:.1f}x)"
    )


def write_bench_artifacts(
    output_dir,
    hotpath: Optional[Dict] = None,
    setup: Optional[Dict] = None,
) -> List[Path]:
    """Write ``BENCH_hotpath.json`` / ``BENCH_setup.json`` under
    ``output_dir`` and return the written paths."""
    root = Path(output_dir)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for name, payload in (
        ("BENCH_hotpath.json", hotpath),
        ("BENCH_setup.json", setup),
    ):
        if payload is None:
            continue
        path = root / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        written.append(path)
    return written


def check_batched_floor(
    hotpath: Dict, floor: float, floor_window: int
) -> Tuple[bool, str]:
    """Evaluate the regression guard: the amortized batched speedup over
    batch size 1 at ``floor_window`` must be at least ``floor``.

    Returns ``(ok, message)``; the guard never passes vacuously, so a
    missing window *or* a row without batched measurements fails.
    """
    for row in hotpath["windows"]:
        if row["window"] == floor_window:
            speedup = row.get("batched_speedup")
            if speedup is None:
                return False, (
                    f"batch guard error: window {floor_window} carries no "
                    f"batched measurement (batch sweep empty?)"
                )
            ok = speedup >= floor
            verdict = "ok" if ok else "REGRESSION"
            return ok, (
                f"batch guard {verdict}: batched speedup {speedup:.1f}x at "
                f"window {floor_window} (floor {floor:.1f}x, batch size "
                f"{row.get('batch_size')})"
            )
    return False, (
        f"batch guard error: window {floor_window} not in the measured sweep "
        f"{[row['window'] for row in hotpath['windows']]}"
    )
