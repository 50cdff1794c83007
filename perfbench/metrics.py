"""Metric names and units, and the per-layer figures built from a trace.

The names here are the contract ``BENCHMARK.json`` publishes;
``perfbench/tests`` checks that the two agree.  Every workload prints
every metric of its mode.  A per-layer metric whose layer a workload does
not run (dedup on city-rush, the event log in-process, ...) reads 0.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from perfbench import stats
from perfbench.tracing import END, NAME, START, TICK, counts_per_tick, per_tick, self_times

#: End-to-end metrics (untraced runs), in print order.
END_TO_END = [
    ("setup_s", "s"),
    ("tick_p50_ms", "ms"),
    ("tick_p95_ms", "ms"),
    ("updates_per_s", "1/s"),
    ("ingest_ack_p50_ms", "ms"),
    ("ingest_ack_p99_ms", "ms"),
    ("delta_p50_ms", "ms"),
    ("delta_p95_ms", "ms"),
    ("sustained_ticks_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
]

#: Per-layer metrics (traced runs), in print order.
PER_LAYER = [
    ("server.apply_updates_ms", "ms"),
    ("server.updates", "count"),
    ("events.normalize_ms", "ms"),
    ("events.apply_batch_ms", "ms"),
    ("kernel.ms", "ms"),
    ("kernel.calls", "count"),
    ("kernel.ms_per_search", "ms"),
    ("search.searches", "count"),
    ("search.nodes_expanded", "count"),
    ("search.edges_scanned", "count"),
    ("search.objects_considered", "count"),
    ("search.heap_pushes", "count"),
    ("monitor.self_ms", "ms"),
    ("monitor.changed_queries", "count"),
    ("monitor.useful_search_share", "ratio"),
    ("dedup.self_ms", "ms"),
    ("dedup.logical_queries", "count"),
    ("dedup.physical_queries", "count"),
    ("dedup.share_ratio", "ratio"),
    ("shard.max_cpu_ms", "ms"),
    ("shard.max_wall_ms", "ms"),
    ("shard.coord_self_ms", "ms"),
    ("shard.boundary_queries", "count"),
    ("shard.worker_peak_rss_mb", "MiB"),
    ("eventlog.append_p50_ms", "ms"),
    ("eventlog.append_p95_ms", "ms"),
    ("eventlog.appends", "count"),
    ("events.encode_batch_ms", "ms"),
    ("events.batch_bytes", "bytes"),
    ("durable.tick_ms", "ms"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.checkpoints", "count"),
    ("durable.tail_checkpoint_share", "ratio"),
    ("service.decode_batch_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("protocol.frame_bytes_in", "bytes"),
    ("protocol.delta_bytes", "bytes"),
    ("gen.late_p99_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
]

#: Search counters a tick report carries, recorded as ``search.<name>``.
SEARCH_COUNTERS = (
    "searches", "nodes_expanded", "edges_scanned", "objects_considered", "heap_pushes",
)

#: Span names grouped into the layers they measure.
NORMALIZE_SPANS = {"events.take_pending_batch", "events.normalized"}
KERNEL_SPANS = {"kernel"}
DEDUP_SPANS = {"dedup.apply_updates", "dedup.tick"}


def render(values: Dict[str, float], spec: Sequence) -> Dict[str, Dict[str, object]]:
    """``{name: {"value", "unit"}}`` for every metric of *spec*."""
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in spec}


def _ms_median(totals: Dict[int, float], ticks: Iterable[int]) -> float:
    return stats.median([totals.get(tick, 0.0) * 1000.0 for tick in ticks])


def _per_tick_mean(totals: Dict[int, float], ticks: Sequence[int]) -> float:
    return stats.mean(totals.get(tick, 0.0) for tick in ticks)


def layer_values(spans: List[list], counts, ticks: Sequence[int]) -> Dict[str, float]:
    """Per-layer figures over the traced *ticks*.

    Times are medians over ticks of each tick's total (or self) time in a
    layer; counts are means per tick; ratios are taken over the sums.
    """
    selfs = self_times(spans)
    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}

    def total(names):
        return per_tick(spans, names)

    def own(names):
        return per_tick(spans, names, use_self=True, selfs=selfs)

    values["server.apply_updates_ms"] = _ms_median(total({"server.apply_updates"}), ticks)
    values["server.updates"] = _per_tick_mean(counts_per_tick(counts, "server.updates"), ticks)
    values["events.normalize_ms"] = _ms_median(total(NORMALIZE_SPANS), ticks)
    values["events.apply_batch_ms"] = _ms_median(total({"events.apply_batch"}), ticks)
    kernel = total(KERNEL_SPANS)
    values["kernel.ms"] = _ms_median(kernel, ticks)
    wanted = set(ticks)
    kernel_calls = sum(1 for span in spans if span[NAME] == "kernel" and span[TICK] in wanted)
    values["kernel.calls"] = kernel_calls / len(ticks) if ticks else 0.0
    searches = counts_per_tick(counts, "search.searches")
    for counter in SEARCH_COUNTERS:
        values[f"search.{counter}"] = _per_tick_mean(
            counts_per_tick(counts, f"search.{counter}"), ticks
        )
    search_sum = sum(searches.get(tick, 0.0) for tick in ticks)
    kernel_sum_ms = sum(kernel.get(tick, 0.0) for tick in ticks) * 1000.0
    values["kernel.ms_per_search"] = stats.ratio(kernel_sum_ms, search_sum)
    values["monitor.self_ms"] = _ms_median(own({"monitor.process_batch"}), ticks)
    changed = counts_per_tick(counts, "monitor.changed_queries")
    values["monitor.changed_queries"] = _per_tick_mean(changed, ticks)
    values["monitor.useful_search_share"] = stats.ratio(
        sum(changed.get(tick, 0.0) for tick in ticks), search_sum
    )
    values["dedup.self_ms"] = _ms_median(own(DEDUP_SPANS), ticks)
    for name in ("shard.max_cpu_ms", "shard.max_wall_ms", "shard.coord_self_ms"):
        values[name] = stats.median(
            [counts_per_tick(counts, name).get(tick, 0.0) for tick in ticks]
        )
    values["shard.boundary_queries"] = _per_tick_mean(
        counts_per_tick(counts, "shard.boundary_queries"), ticks
    )
    return values


def span_durations_ms(spans: List[list], name: str) -> List[float]:
    """Duration in ms of every span named *name*, in recording order."""
    return [(span[END] - span[START]) * 1000.0 for span in spans if span[NAME] == name]
