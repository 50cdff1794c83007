"""Per-layer figures of a traced service-stream run.

Joins the host's spans (written when it stops) with the generator's own
records of the same ticks.  Both sides read ``perf_counter``, which is the
system-wide monotonic clock on Linux, so their times compare directly.
"""

from __future__ import annotations

import json
from typing import Dict, List

from perfbench import stats
from perfbench.metrics import layer_values, span_durations_ms
from perfbench.stream import Rung, frame_lateness_ms
from perfbench.tracing import END, NAME, START, TICK, counts_per_tick, per_tick


def load_trace(path):
    """``(spans, counts)`` as :class:`~perfbench.tracing.Tracer` held them."""
    spans: List[list] = []
    counts = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            record = json.loads(line)
            if "span" in record:
                spans.append([record["span"], record["start"], record["end"],
                              record["parent"], record["tick"]])
            else:
                counts.append((record["count"], record["value"], record["tick"]))
    return spans, counts


def _tail_checkpoint_share(rung: Rung, checkpoints) -> float:
    """Share of the slowest tenth of deltas whose wait overlapped a checkpoint."""
    delivered = [t for t in rung.ticks if t.delta_at is not None]
    threshold = stats.percentile([(t.delta_at - t.due) * 1000.0 for t in delivered], 90)
    tail = [t for t in delivered if (t.delta_at - t.due) * 1000.0 > threshold]
    overlapped = sum(
        1 for t in tail
        if any(start < t.delta_at and end > t.due for start, end in checkpoints)
    )
    return stats.ratio(overlapped, len(tail))


def service_layer_values(
    trace_path, rung: Rung, baseline: Rung, baseline_scale: float
) -> Dict[str, float]:
    """Every per-layer metric of the traced rung *rung*.

    *baseline* is an untraced rung at the same rate; the tracing overhead
    is the difference of their delta medians, after the baseline's is
    multiplied by *baseline_scale* to put it on the traced run's speed.
    """
    spans, counts = load_trace(trace_path)
    ticks = [record.timestamp for record in rung.ticks]
    wanted = set(ticks)
    spans_in = [span for span in spans if span[TICK] in wanted]
    values = layer_values(spans, counts, ticks)

    appends = span_durations_ms(spans_in, "eventlog.append")
    values["eventlog.append_p50_ms"] = stats.percentile(appends, 50)
    values["eventlog.append_p95_ms"] = stats.percentile(appends, 95)
    values["eventlog.appends"] = len(appends) / len(ticks)

    def ms_median(names):
        totals = per_tick(spans, names)
        return stats.median([totals.get(tick, 0.0) * 1000.0 for tick in ticks])

    values["events.encode_batch_ms"] = ms_median({"events.encode_batch"})
    values["events.batch_bytes"] = stats.mean(
        counts_per_tick(counts, "events.batch_bytes").get(tick, 0.0) for tick in ticks
    )
    values["durable.tick_ms"] = ms_median({"durable.tick"})
    checkpoints = [span for span in spans_in if span[NAME] == "durable.checkpoint"]
    values["durable.checkpoint_ms"] = stats.median(
        [(span[END] - span[START]) * 1000.0 for span in checkpoints]
    )
    values["durable.checkpoints"] = len(checkpoints)
    values["durable.tail_checkpoint_share"] = _tail_checkpoint_share(
        rung, [(span[START], span[END]) for span in checkpoints]
    )
    values["service.decode_batch_ms"] = ms_median({"service.decode_batch"})

    # The k-th decode and the k-th server.apply_updates span belong to the
    # k-th apply frame the generator sent.
    decode = span_durations_ms(spans_in, "service.decode_batch")
    apply = span_durations_ms(spans_in, "server.apply_updates")
    frames = [f for t in rung.ticks for f in t.frames if f.kind == "apply"]
    waits = [
        (frame.done - frame.sent) * 1000.0 - decoded - applied
        for frame, decoded, applied in zip(frames, decode, apply)
    ]
    values["service.queue_wait_ms"] = stats.median(waits)
    values["protocol.frame_bytes_in"] = stats.mean(
        sum(f.size for f in t.frames) for t in rung.ticks
    )
    values["protocol.delta_bytes"] = stats.mean(t.delta_bytes for t in rung.ticks)
    values["gen.late_p99_ms"] = stats.percentile(frame_lateness_ms(rung), 99)
    traced = stats.median(rung.delta_ms())
    plain = stats.median(baseline.delta_ms()) * baseline_scale
    values["trace.overhead_ms"] = traced - plain
    values["trace.overhead_share"] = stats.ratio(traced - plain, plain)
    return values
