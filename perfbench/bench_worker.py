"""One run of one workload, in a fresh process; prints one JSON record.

Drives the program only through its public run path::

    build_intel_lab_dataset -> build_deployment -> schedule_workload
        -> Simulator.run -> collect_result

Set-up is repeated ``SETUPS`` times (the last deployment is the one run),
because one build takes only milliseconds.  The run is executed in slices
of a fixed number of events.  An untraced run times ``calibrate`` -- a
fixed piece of work that uses no program code -- after every build and
every slice, so that ``run.py`` can rescale the host times to the host's
reference speed.  ``--trace 1`` installs the outside-in tracer before
set-up, skips the calibration, adds the per-layer metrics to the record
and writes the spans to ``perfbench/out/``.

Usage: python3 perfbench/bench_worker.py --workload NAME --seed N
       [--scale paper|toy] [--trace 0|1]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from repro.datasets.loader import build_intel_lab_dataset  # noqa: E402
from repro.wsn.deployment import build_deployment  # noqa: E402
from repro.wsn.runner import collect_result, schedule_workload  # noqa: E402

import bench_workloads  # noqa: E402

#: Set-up builds per process.
SETUPS = 9

#: Loop length of ``calibrate``: a few milliseconds on the development host.
CALIBRATION_STEPS = 6000
_CALIBRATION_VECTOR = np.arange(64, dtype=float)


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter and small-numpy work.

    It uses no program code, so its duration follows only the speed the
    host gives this process at the moment.  The collector is paused
    while it runs, so the time does not depend on the program's heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        counts: dict = {}
        total = 0.0
        for step in range(CALIBRATION_STEPS):
            key = (step * 7919) % 1021
            counts[key] = counts.get(key, 0) + 1
            total += (step % 13) * 0.5
        sorted(counts.items(), key=lambda item: (item[1], item[0]))
        for _ in range(CALIBRATION_STEPS // 10):
            total += float(np.dot(_CALIBRATION_VECTOR, _CALIBRATION_VECTOR))
        return perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def set_up(scenario):
    """Build the dataset and deployment and schedule the samples."""
    t0 = perf_counter()
    dataset = build_intel_lab_dataset(scenario.dataset_config())
    t1 = perf_counter()
    deployment = build_deployment(scenario, dataset)
    t2 = perf_counter()
    schedule_workload(deployment)
    t3 = perf_counter()
    return deployment, (t3 - t0, t1 - t0, t2 - t1, t3 - t2)


def layer_metrics(tracer, deployment, setup_parts):
    """The traced run's per-layer metrics (names as in BENCHMARK.json)."""
    times = tracer.layer_times()
    self_s = times["self_s"]
    total_s = times["total_s"]
    counts = tracer.counts
    events = deployment.simulator.events_executed
    protocol_events = times["protocol_event_s"]
    stats = [detector.stats for detector in deployment.detectors.values()]
    received = sum(s.points_received for s in stats)
    ignored = sum(s.points_ignored for s in stats)
    fixpoint_calls = counts["fixpoint.calls"]
    channel = deployment.channel.stats

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def percentile_us(q):
        if not len(protocol_events):
            return 0.0
        return float(np.percentile(protocol_events, q)) * 1e6

    return {
        "simulator.events": events,
        "simulator.dispatch_self_s": self_s["simulator"],
        "simulator.dispatch_us_per_event": ratio(self_s["simulator"], events) * 1e6,
        "simulator.queue_max": tracer.queue_max,
        "channel.transmissions": channel.transmissions,
        "channel.deliveries": channel.deliveries,
        "channel.losses": channel.losses,
        "channel.transmit_s": self_s["channel"],
        "node.deliver_self_s": self_s["node.deliver"],
        "node.send_self_s": self_s["node.send"],
        "routing.control_packets": sum(
            agent.control_packets_sent for agent in deployment.routing.values()
        ),
        "routing.data_forwarded": sum(
            agent.data_packets_forwarded for agent in deployment.routing.values()
        ),
        "routing.self_s": self_s["routing"],
        "app.self_s": self_s["app"],
        "app.messages": counts["app.messages"],
        "app.message_points": counts["app.message_points"],
        "app.message_bytes": counts["app.message_bytes"],
        "protocol.events": len(protocol_events),
        "protocol.self_s": self_s["protocol"],
        "protocol.event_p50_us": percentile_us(50),
        "protocol.event_p99_us": percentile_us(99),
        "protocol.event_samples": len(protocol_events),
        "protocol.points_sent": sum(s.points_sent for s in stats),
        "protocol.points_received": received,
        "protocol.points_ignored": ignored,
        "protocol.useful_receive_ratio": ratio(received, received + ignored),
        "index.write_s": self_s["index.write"],
        "index.points_added": counts["index.points_added"],
        "index.points_evicted": counts["index.points_evicted"],
        "index.scalar_fallback_ratio": ratio(
            counts["index.scalar_fallback_points"], counts["index.batched_points"]
        ),
        "index.subset_s": self_s["index.subset"],
        "index.subset_calls": counts["index.subset_calls"],
        "rescoring.top_n_calls": counts["rescoring.top_n_calls"],
        "rescoring.top_n_s": self_s["rescoring.top_n"],
        "rescoring.mark_s": self_s["rescoring.mark"],
        "fixpoint.calls": fixpoint_calls,
        "fixpoint.self_s": self_s["fixpoint"],
        "fixpoint.total_s": total_s["fixpoint"],
        "fixpoint.iterations": counts["fixpoint.iterations"],
        "fixpoint.iterations_per_call": ratio(counts["fixpoint.iterations"], fixpoint_calls),
        "fixpoint.z_points": counts["fixpoint.z_points"],
        "fixpoint.new_point_ratio": ratio(
            counts["fixpoint.new_points"], counts["fixpoint.z_points"]
        ),
        "scoring.outliers_calls": counts["scoring.outliers_calls"],
        "scoring.outliers_self_s": self_s["scoring.outliers"],
        "scoring.points_scored": counts["scoring.points_scored"],
        "scoring.points_scored_per_event": ratio(
            counts["scoring.points_scored"], len(protocol_events)
        ),
        "scoring.support_s": self_s["scoring.support"],
        "sink.update_window_s": self_s["sink.update_window"],
        "sink.compute_outliers_s": self_s["sink.compute_outliers"],
        "setup.dataset_s": setup_parts[0],
        "setup.deployment_s": setup_parts[1],
        "setup.schedule_s": setup_parts[2],
        "collect.reference_s": self_s["collect.reference"],
        "collect.s": total_s["collect"],
        "trace.coverage": times["coverage"],
        "trace.event_coverage": ratio(tracer.top_level_events, events),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="paper", choices=bench_workloads.SCALES)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    scenario = bench_workloads.scenario(args.workload, args.seed, args.scale)
    tracer = None
    if args.trace:
        from bench_trace import COLLECT, Tracer

        tracer = Tracer()
        tracer.install()

    calibrating = tracer is None
    builds, setup_cals = [], []
    for _ in range(SETUPS):
        deployment = None  # free the previous build before timing the next
        gc.collect()
        deployment, timings = set_up(scenario)
        builds.append(timings)
        if calibrating:
            setup_cals.append(calibrate())

    # The run executes in slices of a fixed number of events; the time
    # between slices (the calibration) is not part of ``run_s``.
    simulator = deployment.simulator
    chunk_events = bench_workloads.chunk_events(args.workload, args.scale)
    run_s = 0.0
    run_cals = []
    gc.collect()
    while True:
        started = perf_counter()
        simulator.run(max_events=chunk_events)
        run_s += perf_counter() - started
        if calibrating:
            run_cals.append(calibrate())
        if simulator.peek_time() is None:
            break
    started = perf_counter()
    if tracer is None:
        result = collect_result(deployment)
    else:
        result = tracer.call(COLLECT, collect_result, deployment)
    run_s += perf_counter() - started
    if calibrating:
        run_cals.append(calibrate())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result_digest = bench_workloads.digest(result)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": result_digest,
        "problems": bench_workloads.check(args.workload, args.scale, result, result_digest),
        "setups": [b[0] for b in builds],
        "setup_cals": setup_cals,
        "run_s": run_s,
        "run_cals": run_cals,
        "peak_rss_mb": peak_rss_mb,
        "events": result.events_executed,
        **bench_workloads.outcome_metrics(result),
    }
    if tracer is not None:
        tracer.uninstall()
        setup_parts = [statistics.median(b[i] for b in builds) for i in (1, 2, 3)]
        record["layers"] = layer_metrics(tracer, deployment, setup_parts)
        spans = HERE / "out" / f"{args.workload}-{args.scale}-seed{args.seed}.spans.npz"
        spans.parent.mkdir(exist_ok=True)
        tracer.save(spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
