"""Outside-in per-layer tracer for the benchmark's traced runs.

The tracer changes no program code: it replaces the public entry points of
each layer with thin wrappers, from outside, for the duration of one run.
Each wrapper records a span -- layer, start, end, parent span -- in compact
in-memory arrays, plus a few counters measured at the same boundary.  The
top-level event a span runs under (a direct child of ``Simulator.run``) is
the span's shared identifier.  The arrays are written out when the run ends
and reduced to per-layer metrics; a layer's self time is its spans'
durations minus the parts their child spans cover.

Names are patched where their callers look them up: functions imported by
name (``compute_sufficient_set``, ``support_of_set``, ``final_references``)
are replaced in every importing module, and methods are replaced on their
classes.  The patches must be installed before ``build_deployment`` and
``schedule_workload``, because nodes bind their packet handlers and the
schedule binds the sampling callbacks when the deployment is built.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import repro.core.global_detector as global_detector_module
import repro.core.semiglobal_detector as semiglobal_detector_module
import repro.core.sufficient as sufficient_module
import repro.wsn.runner as runner_module
from repro.baselines.centralized import CentralizedAggregator
from repro.core.global_detector import GlobalOutlierDetector
from repro.core.index import NeighborhoodIndex
from repro.core.messages import OutlierMessage
from repro.core.outliers import OutlierQuery
from repro.core.rescoring import ScoreCache
from repro.core.semiglobal_detector import SemiGlobalOutlierDetector
from repro.network.channel import WirelessChannel
from repro.network.node import SimNode
from repro.routing.aodv import AodvAgent
from repro.simulator.engine import Simulator
from repro.wsn.centralized_app import (
    CentralizedClientApp,
    CentralizedSinkApp,
    OutlierReply,
    WindowUpload,
)
from repro.wsn.detector_app import DistributedDetectorApp

#: Span layers, by id.
LAYERS = (
    "simulator",
    "channel",
    "node.deliver",
    "node.send",
    "routing",
    "app",
    "protocol",
    "index.write",
    "index.subset",
    "rescoring.top_n",
    "rescoring.mark",
    "fixpoint",
    "scoring.outliers",
    "scoring.support",
    "sink.update_window",
    "sink.compute_outliers",
    "collect",
    "collect.reference",
)
(
    SIMULATOR, CHANNEL, NODE_DELIVER, NODE_SEND, ROUTING, APP, PROTOCOL,
    INDEX_WRITE, INDEX_SUBSET, RESCORE_TOP_N, RESCORE_MARK, FIXPOINT,
    SCORING_OUTLIERS, SCORING_SUPPORT, SINK_UPDATE, SINK_COMPUTE, COLLECT,
    COLLECT_REFERENCE,
) = range(len(LAYERS))

#: ``pending()`` walks the whole queue, so the queue length is sampled at
#: the first top-level event and every ``QUEUE_SAMPLE_EVERY`` after it.
QUEUE_SAMPLE_EVERY = 256

#: Plain span wrappers: (owner, attribute names, layer).
_SPANS = (
    (WirelessChannel, ("transmit",), CHANNEL),
    (SimNode, ("deliver",), NODE_DELIVER),
    (SimNode, ("send", "broadcast"), NODE_SEND),
    (AodvAgent, ("handle_packet", "send_data"), ROUTING),
    (DistributedDetectorApp, ("sample", "handle_packet"), APP),
    (CentralizedClientApp, ("sample", "handle_packet"), APP),
    (CentralizedSinkApp, ("sample", "handle_packet", "publish_outliers"), APP),
    (NeighborhoodIndex, ("replace",), INDEX_WRITE),
    (ScoreCache, ("point_added", "point_removed", "points_added_batch",
                  "points_removed_batch", "point_relabeled"), RESCORE_MARK),
    (CentralizedAggregator, ("update_window",), SINK_UPDATE),
    (CentralizedAggregator, ("compute_outliers",), SINK_COMPUTE),
    (runner_module, ("final_references",), COLLECT_REFERENCE),
)

#: The detectors' event entry points: one call is one protocol event.
_PROTOCOL_EVENTS = ("update_local_data", "handle_message", "neighborhood_changed", "initialize")

#: Modules that imported ``support_of_set`` by name.
_SUPPORT_IMPORTERS = (global_detector_module, semiglobal_detector_module, sufficient_module)

#: Modules that imported ``compute_sufficient_set`` by name.
_FIXPOINT_IMPORTERS = (global_detector_module, semiglobal_detector_module)


class Tracer:
    """Span recorder for one traced run: ``install()``, run, ``uninstall()``."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.event = array("q")
        self._stack: List[int] = [-1]
        self._run_span = -2
        self._simulator: Any = None
        self.top_level_events = 0
        self._batch_depth = 0
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self.queue_max = 0
        self.counts: Dict[str, int] = dict.fromkeys(
            (
                "scoring.outliers_calls", "scoring.points_scored",
                "fixpoint.calls", "fixpoint.iterations", "fixpoint.z_points",
                "fixpoint.new_points", "index.points_added",
                "index.points_evicted", "index.batched_points",
                "index.scalar_fallback_points", "index.subset_calls",
                "rescoring.top_n_calls", "app.messages",
                "app.message_points", "app.message_bytes",
            ),
            0,
        )

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------
    def _open(self, layer: int) -> int:
        span = len(self.layer)
        parent = self._stack[-1]
        self.layer.append(layer)
        self.parent.append(parent)
        if parent == self._run_span:
            self.event.append(span)
            self.top_level_events += 1
            if self.top_level_events % QUEUE_SAMPLE_EVERY == 1:
                self.queue_max = max(self.queue_max, self._simulator.pending)
        elif parent < 0:
            self.event.append(span)
        else:
            self.event.append(self.event[parent])
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()

    def call(self, layer: int, function: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``function`` inside a span of ``layer``."""
        span = self._open(layer)
        try:
            return function(*args, **kwargs)
        finally:
            self._close(span)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        own = name in vars(owner)
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        self._patches.append((owner, name, original, own))

    def _span(self, layer: int, counter: str = "") -> Callable[[Callable], Callable]:
        """Wrapper factory: one span of ``layer`` per call, optionally counted."""
        open_, close, counts = self._open, self._close, self.counts

        def make(original: Callable) -> Callable:
            def traced(*args, **kwargs):
                if counter:
                    counts[counter] += 1
                span = open_(layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    close(span)
            return traced
        return make

    def install(self) -> None:
        """Patch every traced entry point (see the module docstring)."""
        open_, close, counts, layers = self._open, self._close, self.counts, self.layer
        tracer = self

        def run(original):
            def traced(simulator, *args, **kwargs):
                tracer._simulator = simulator
                span = open_(SIMULATOR)
                tracer._run_span = span
                try:
                    return original(simulator, *args, **kwargs)
                finally:
                    close(span)
            return traced
        self._patch(Simulator, "run", run)

        for owner, names, layer in _SPANS:
            for name in names:
                self._patch(owner, name, self._span(layer))
        for detector in (GlobalOutlierDetector, SemiGlobalOutlierDetector):
            for name in _PROTOCOL_EVENTS:
                self._patch(detector, name, self._span(PROTOCOL))
        for module in _SUPPORT_IMPORTERS:
            self._patch(module, "support_of_set", self._span(SCORING_SUPPORT))
        self._patch(NeighborhoodIndex, "try_subset",
                    self._span(INDEX_SUBSET, "index.subset_calls"))
        self._patch(ScoreCache, "top_n", self._span(RESCORE_TOP_N, "rescoring.top_n_calls"))

        def outliers(original):
            def traced(query, D, *args, **kwargs):
                counts["scoring.outliers_calls"] += 1
                counts["scoring.points_scored"] += len(D)
                caller = tracer._stack[-1]
                if caller >= 0 and layers[caller] == FIXPOINT:
                    counts["fixpoint.iterations"] += 1
                span = open_(SCORING_OUTLIERS)
                try:
                    return original(query, D, *args, **kwargs)
                finally:
                    close(span)
            return traced
        self._patch(OutlierQuery, "outliers", outliers)

        def fixpoint(original):
            def traced(query, holdings, known_shared, *args, **kwargs):
                span = open_(FIXPOINT)
                try:
                    Z = original(query, holdings, known_shared, *args, **kwargs)
                finally:
                    close(span)
                counts["fixpoint.calls"] += 1
                counts["fixpoint.z_points"] += len(Z)
                counts["fixpoint.new_points"] += len(Z.difference(known_shared))
                return Z
            return traced
        for module in _FIXPOINT_IMPORTERS:
            self._patch(module, "compute_sufficient_set", fixpoint)

        def apply_batch(original):
            def traced(index, batch):
                counts["index.batched_points"] += len(batch.adds) + len(batch.evicts)
                tracer._batch_depth += 1
                span = open_(INDEX_WRITE)
                try:
                    added, evicted = original(index, batch)
                finally:
                    close(span)
                    tracer._batch_depth -= 1
                counts["index.points_added"] += added
                counts["index.points_evicted"] += evicted
                return added, evicted
            return traced
        self._patch(NeighborhoodIndex, "apply_batch", apply_batch)

        def single_write(counter):
            def make(original):
                def traced(index, point):
                    span = open_(INDEX_WRITE)
                    try:
                        changed = original(index, point)
                    finally:
                        close(span)
                    # Inside apply_batch the batch's own return counts the point.
                    if tracer._batch_depth:
                        counts["index.scalar_fallback_points"] += 1
                    else:
                        counts[counter] += changed
                    return changed
                return traced
            return make
        self._patch(NeighborhoodIndex, "add", single_write("index.points_added"))
        self._patch(NeighborhoodIndex, "discard", single_write("index.points_evicted"))

        def message_size(points_of):
            def make(original):
                def traced(message):
                    size = original(message)
                    counts["app.messages"] += 1
                    counts["app.message_points"] += points_of(message)
                    counts["app.message_bytes"] += size
                    return size
                return traced
            return make
        self._patch(OutlierMessage, "wire_size_bytes",
                    message_size(lambda m: len(m.unique_points())))
        self._patch(WindowUpload, "wire_size", message_size(lambda m: len(m.points)))
        self._patch(OutlierReply, "wire_size", message_size(lambda m: len(m.outliers)))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original, own = self._patches.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "event": np.frombuffer(self.event, dtype=np.int64),
        }

    def save(self, path) -> None:
        """Write the spans out (times relative to the first span's start)."""
        spans = self.arrays()
        origin = spans["start"][0]
        np.savez(
            path,
            layers=np.array(LAYERS),
            layer=spans["layer"],
            start=spans["start"] - origin,
            end=spans["end"] - origin,
            parent=spans["parent"],
            event=spans["event"],
        )

    def layer_times(self) -> Dict[str, Any]:
        """Self time per layer, protocol event latencies and trace coverage."""
        spans = self.arrays()
        layer, parent = spans["layer"], spans["parent"]
        if len(layer) == 0 or self._stack != [-1]:
            raise RuntimeError("trace is empty or has unclosed spans")
        duration = spans["end"] - spans["start"]
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(layer)
        )
        self_time = duration - children
        # A negative self time means a child outlived its parent.
        covered = np.clip(self_time, 0.0, None).sum()
        root = parent < 0
        interval = spans["end"][root].max() - spans["start"][root].min()
        per_layer = np.bincount(layer, weights=self_time, minlength=len(LAYERS))
        total = np.bincount(layer, weights=duration, minlength=len(LAYERS))
        events = duration[layer == PROTOCOL]
        return {
            "self_s": dict(zip(LAYERS, per_layer.tolist())),
            "total_s": dict(zip(LAYERS, total.tolist())),
            "protocol_event_s": events,
            "coverage": float(covered / interval),
        }
