"""Tests of the benchmark's own logic: percentiles, open-loop timing,
self time, and the metric names ``BENCHMARK.json`` publishes."""

import json
import types
from pathlib import Path

import pytest

from perfbench import metrics, speed, stats
from perfbench.inputs import batch_size, split_batch
from perfbench.stream import RUNG_TICKS, Rung, Sent, TickRecord, frame_lateness_ms, stream_figures
from perfbench.tracing import Tracer, covered_length, self_times

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles ------------------------------------------------------------
@pytest.mark.parametrize("percent, enough", [(50, 20), (95, 200), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(percent, enough):
    assert stats.min_samples(percent) == enough
    stats.percentile(list(range(enough)), percent)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(enough - 1)), percent)


def test_percentile_interpolates_in_any_order():
    values = list(range(200, 0, -1))
    assert stats.percentile(values, 50) == pytest.approx(100.5)
    assert stats.percentile(values, 95) == pytest.approx(190.05)


# -- open-loop timing -------------------------------------------------------
def _late_rung(late: float, service: float) -> Rung:
    """A rung whose frames were all sent *late* after their due time and
    answered *service* seconds after that."""
    rung = Rung(10)
    for index in range(RUNG_TICKS):
        due = index * 0.1
        sent = due + late
        frames = [Sent("apply", due, sent, 100, done=sent + service) for _ in range(5)]
        frames.append(Sent("tick", due, sent, 10, done=sent + service))
        rung.ticks.append(TickRecord(index, due, frames, 600, 0, delta_at=sent + service))
    return rung


def test_open_loop_latency_counts_from_due_time():
    rung = _late_rung(late=0.030, service=0.010)
    figures = stream_figures(rung, rung)
    assert figures["ingest_ack_p50_ms"] == pytest.approx(40.0)
    assert figures["ingest_ack_p99_ms"] == pytest.approx(40.0)
    assert figures["tick_p95_ms"] == pytest.approx(40.0)
    assert figures["delta_p50_ms"] == pytest.approx(40.0)
    assert figures["delta_p95_ms"] == pytest.approx(40.0)
    # RUNG_TICKS deltas from the first due time (0.0) to the last, 40 ms
    # after the last tick was due.
    window = (RUNG_TICKS - 1) * 0.1 + 0.04
    assert figures["sustained_ticks_per_s"] == pytest.approx(RUNG_TICKS / window)
    assert figures["updates_per_s"] == pytest.approx(RUNG_TICKS * 600 / window)


def test_generator_lateness_is_reported():
    lateness = frame_lateness_ms(_late_rung(late=0.030, service=0.010))
    assert len(lateness) == RUNG_TICKS * 6
    assert stats.percentile(lateness, 99) == pytest.approx(30.0)
    assert stats.lateness([1.0, 2.0], [0.5, 2.25]) == [0.0, 0.25]


def test_rung_fails_on_a_growing_backlog():
    rung = _late_rung(late=0.0, service=0.010)
    assert rung.passed()
    for index, record in enumerate(rung.ticks):
        record.backlog = index // 10
    assert rung.backlog_grew()
    assert not rung.passed()


# -- self time --------------------------------------------------------------
def test_self_time_subtracts_nested_children():
    spans = [
        ["tick", 0.0, 10.0, -1, 1],
        ["server", 1.0, 4.0, 0, 1],
        ["kernel", 2.0, 3.0, 1, 1],
        ["monitor", 5.0, 9.0, 0, 1],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_children_are_subtracted_once():
    assert covered_length([(1.0, 4.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 12.0, 0, 0]]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_patched_calls_nest_and_uninstall():
    layer = types.SimpleNamespace()
    layer.inner = lambda: 7
    layer.outer = lambda: layer.inner() + 1
    original = layer.inner
    tracer = Tracer()
    tracer.tick = 5
    tracer.patch(layer, "inner", "inner")
    tracer.patch(layer, "outer", "outer")
    assert layer.outer() == 8
    tracer.uninstall()
    assert layer.inner is original and not tracer.installed
    outer, inner = tracer.spans
    assert (outer[0], outer[3]) == ("outer", -1)
    assert (inner[0], inner[3]) == ("inner", 0)
    assert inner[4] == outer[4] == 5
    assert self_times(tracer.spans)[0] == pytest.approx(
        (outer[2] - outer[1]) - (inner[2] - inner[1])
    )


# -- reference speed --------------------------------------------------------
def test_times_and_rates_scale_to_the_reference_speed():
    # The probe ran at half the reference speed, so times halve and rates double.
    by = speed.factor(2 * speed.REFERENCE_PROBE_S)
    spec = [("tick_p50_ms", "ms"), ("setup_s", "s"), ("updates_per_s", "1/s"),
            ("peak_rss_mb", "MiB"), ("search.searches", "count")]
    values = {"tick_p50_ms": 40.0, "setup_s": 2.0, "updates_per_s": 1000.0,
              "peak_rss_mb": 90.0, "search.searches": 7.0}
    assert speed.scale(values, spec, by) == pytest.approx({
        "tick_p50_ms": 20.0, "setup_s": 1.0, "updates_per_s": 2000.0,
        "peak_rss_mb": 90.0, "search.searches": 7.0,
    })


def test_window_factor_uses_the_timings_inside_the_window():
    timings = [(0.0, 4.0), (1.0, 2.0), (2.0, 2.0), (3.0, 8.0)]
    reference = speed.REFERENCE_PROBE_S
    assert speed.window_factor(timings, 0.5, 2.5) == pytest.approx(reference / 2.0)
    assert speed.window_factor(timings, 5.0, 6.0) == pytest.approx(reference / 3.0)


# -- names ------------------------------------------------------------------
def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_printed_metric_names_match_benchmark_json():
    published = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in published["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in published["per_layer"]] == metrics.PER_LAYER
    values = {name: 1.0 for name, _ in metrics.END_TO_END}
    assert list(metrics.render(values, metrics.END_TO_END)) == [
        m["name"] for m in published["end_to_end"]
    ]


def test_layer_map_covers_every_metric_and_workload():
    published = _benchmark_json()
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    workloads = {w["name"] for w in published["workloads"]}
    assert set(layers["workloads"]) == workloads
    assert set(layers["per_layer"]) == {m["name"] for m in published["per_layer"]}
    for entry in layers["per_layer"].values():
        for claim in entry["moves"]:
            assert claim["workload"] in workloads
            assert claim["metric"] in {m["name"] for m in published["end_to_end"]}
        assert set(entry["flat_on"]) <= workloads


def test_layer_values_start_from_every_per_layer_name():
    values = metrics.layer_values([], [], [1, 2])
    assert set(values) == {name for name, _ in metrics.PER_LAYER}


# -- inputs -----------------------------------------------------------------
def test_split_batch_keeps_every_update_in_order():
    from repro.core.events import EdgeWeightUpdate, UpdateBatch

    batch = UpdateBatch(timestamp=3)
    batch.edge_updates.extend(EdgeWeightUpdate(e, 1.0, 2.0) for e in range(13))
    chunks = split_batch(batch, 5)
    assert [c.timestamp for c in chunks] == [3] * 5
    assert [u.edge_id for c in chunks for u in c.edge_updates] == list(range(13))
    assert sum(batch_size(c) for c in chunks) == batch_size(batch)
