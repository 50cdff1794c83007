"""Host process of the in-process workloads: city-rush, venue-tenants, venue-sharded.

Run by ``perfbench/run.py``, one process per set-up::

    python -m perfbench.inproc --workload city-rush --seed 1 --seconds 8 --mode run

``--mode setup`` builds, primes and ticks once, then exits; ``--mode run``
goes on to the closed loop: five ``apply_updates`` calls and a ``tick``
back to back, then the tick's delta (the changed queries' results).  The
next batch is built just before it is due, outside the timed span.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from repro.core.dedup import DedupFrontend
from repro.core.server import MonitoringServer
from repro.network.kernels import KERNEL_NATIVE, available_kernels

from perfbench import speed, stats
from perfbench.inputs import (
    APPLY_PARTS,
    batch_size,
    check_results,
    check_sample,
    city_inputs,
    populated_edge_table,
    rebuild_map,
    split_batch,
    venue_inputs,
)
from perfbench.metrics import PER_LAYER, layer_values
from perfbench.procinfo import peak_rss_mb
from perfbench.shims import install_core
from perfbench.tracing import Tracer

#: Ticks each run measures (at least, and for at least ``--seconds``).
#: Every count gives a p95 ten samples beyond it (200 ticks).  A fixed
#: count keeps the work the same from run to run whatever the machine's
#: speed; city-rush runs eight 48-tick days of its rush-hour feed.
RUN_TICKS = {"city-rush": 384, "venue-tenants": 240, "venue-sharded": 200}
assert min(RUN_TICKS.values()) >= stats.min_samples(95)

#: Stop measuring after this long even if RUN_TICKS is not reached.
MAX_SECONDS = 90.0

#: Traced runs alternate blocks of this many untraced and traced ticks.
BLOCK = 10

#: Results compared against brute force after the timed phase.
CHECK_QUERIES = {"city-rush": 16, "venue-tenants": 32, "venue-sharded": 32}

#: Operations per tick: the apply calls, the tick and its delta.
OPS_PER_TICK = APPLY_PARTS + 2


class Stack:
    """A primed serving stack and the feed that drives it."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        if workload == "city-rush":
            network, self.feed = city_inputs(seed)
            kernel = KERNEL_NATIVE
            kwargs = {}
        else:
            network, self.feed = venue_inputs(seed)
            kernel = "csr"
            kwargs = {"workers": 2, "partitioning": "graph"} if workload == "venue-sharded" else {}
        edge_table = populated_edge_table(network, self.feed.initial_objects())
        self.kernel = kernel
        self.server = MonitoringServer(
            network, "ima", edge_table=edge_table, kernel=kernel, **kwargs
        )
        self.frontend = None if workload == "city-rush" else DedupFrontend(self.server)
        self.front = self.frontend or self.server
        for query_id, (location, spec) in self.feed.initial_queries().items():
            self.front.add_query(query_id, location, spec)
        self.front.tick()  # the initial results, as in the paper

    def close(self) -> None:
        self.front.close()


def _delta(front, report):
    """The changed queries' results, as the service would push them."""
    live = front.query_ids()
    return {q: front.result_of(q) for q in sorted(report.changed_queries) if q in live}


def _shard_counts(tracer: Tracer, server, tick_span) -> None:
    wall_ms = server.last_max_shard_seconds * 1000.0
    tracer.count("shard.max_cpu_ms", server.last_max_shard_cpu_seconds * 1000.0)
    tracer.count("shard.max_wall_ms", wall_ms)
    tracer.count("shard.coord_self_ms", tick_span * 1000.0 - wall_ms)
    tracer.count("shard.boundary_queries", len(server.boundary_query_ids()))


def run_loop(stack: Stack, probe: speed.Probe, seconds: float, trace: bool) -> dict:
    """The timed closed loop; returns raw samples and failure counts."""
    front, feed = stack.front, stack.feed
    sharded = stack.workload == "venue-sharded"
    tracer = Tracer() if trace else None
    timestamp = front.current_timestamp
    samples = {"tick": [], "ack": [], "delta": [], "updates": 0, "traced": [], "plain": [],
               "probes": []}
    failed = attempted = 0
    run_ticks = RUN_TICKS[stack.workload]
    started = perf_counter()
    while True:
        elapsed = perf_counter() - started
        ticks = len(samples["tick"])
        if (elapsed >= seconds and ticks >= run_ticks) or elapsed >= MAX_SECONDS:
            break
        batch = feed.batch(timestamp)
        chunks = split_batch(batch)
        traced = trace and (ticks // BLOCK) % 2 == 1
        if tracer is not None:
            if traced and not tracer.installed:
                install_core(tracer, stack.server, stack.frontend)
            elif not traced and tracer.installed:
                tracer.uninstall()
            tracer.tick = timestamp
        attempted += OPS_PER_TICK
        samples["probes"].append(probe.time())
        root = tracer.begin("tick") if traced else None
        try:
            t0 = previous = perf_counter()
            acks = []
            for chunk in chunks:
                front.apply_updates(chunk)
                now = perf_counter()
                acks.append(now - previous)
                previous = now
            report = front.tick()
            t1 = perf_counter()
            _delta(front, report)
            t2 = perf_counter()
        except Exception as exc:  # a raised tick is a failure, not a crash
            print(f"tick {timestamp} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += OPS_PER_TICK
            break
        finally:
            if root is not None:
                tracer.end(root)
        if report.timestamp != timestamp:
            failed += 1
        if traced and sharded:
            _shard_counts(tracer, stack.server, t1 - t0)
        samples["tick"].append(t1 - t0)
        samples["ack"].append(acks)
        samples["delta"].append(t2 - t0)
        samples["updates"] += batch_size(batch)
        (samples["traced"] if traced else samples["plain"]).append((timestamp, t1 - t0))
        timestamp += 1
    samples["probes"].append(probe.time())
    if tracer is not None:
        tracer.uninstall()
    return {"samples": samples, "failed": failed, "attempted": attempted,
            "tracer": tracer, "ticks_sent": len(samples["tick"]),
            "end_timestamp": timestamp}


def end_to_end(samples) -> dict:
    """The untraced run's end-to-end figures (setup_s is the parent's).

    Each tick's times are put in reference units (:mod:`perfbench.speed`)
    by the speed measured around that tick: the mean of the probe timings
    just before and just after it.  A slow spell of the machine
    then does not land in the tail percentiles.
    """
    probes = samples["probes"]
    scales = [speed.factor((probes[i] + probes[i + 1]) / 2.0) * 1000.0
              for i in range(len(samples["tick"]))]
    tick = [t * by for t, by in zip(samples["tick"], scales)]
    delta = [t * by for t, by in zip(samples["delta"], scales)]
    ack = [t * by for acks, by in zip(samples["ack"], scales) for t in acks]
    return {
        "tick_p50_ms": stats.percentile(tick, 50),
        "tick_p95_ms": stats.percentile(tick, 95),
        "updates_per_s": samples["updates"] / (sum(tick) / 1000.0),
        "ingest_ack_p50_ms": stats.percentile(ack, 50),
        "ingest_ack_p99_ms": stats.percentile(ack, 99),
        "delta_p50_ms": stats.percentile(delta, 50),
        "delta_p95_ms": stats.percentile(delta, 95),
        "sustained_ticks_per_s": len(delta) / (sum(delta) / 1000.0),
    }


def traced_layers(stack: Stack, outcome: dict, trace_path) -> dict:
    """Per-layer figures of a traced run, plus the tracing overhead, in
    reference units at the run's median speed."""
    tracer = outcome["tracer"]
    samples = outcome["samples"]
    ticks = [timestamp for timestamp, _ in samples["traced"]]
    values = layer_values(tracer.spans, tracer.counts, ticks)
    plain = stats.median([seconds for _, seconds in samples["plain"]]) * 1000.0
    traced = stats.median([seconds for _, seconds in samples["traced"]]) * 1000.0
    values["trace.overhead_ms"] = traced - plain
    values["trace.overhead_share"] = stats.ratio(traced - plain, plain)
    if stack.frontend is not None:
        dedup = stack.frontend.dedup_stats()
        values["dedup.logical_queries"] = dedup.logical_queries
        values["dedup.physical_queries"] = dedup.physical_queries
        values["dedup.share_ratio"] = stats.ratio(dedup.logical_queries, dedup.physical_queries)
    if stack.workload == "venue-sharded":
        values["shard.worker_peak_rss_mb"] = max(stack.server.worker_peak_rss()) / 2**20
    if trace_path:
        tracer.dump(trace_path)
    return speed.scale(values, PER_LAYER, speed.factor(stats.median(samples["probes"])))


def check(stack: Stack, outcome: dict):
    """Ground truth, clock and kernel checks.

    Returns ``(problems, checks)``: one message per failed check, and how
    many checks ran.
    """
    problems = []
    if stack.kernel == KERNEL_NATIVE and KERNEL_NATIVE not in available_kernels():
        problems.append("the native kernel is unavailable; the run fell back")
    expected = outcome["end_timestamp"]
    if stack.front.current_timestamp != expected:
        problems.append(
            f"server timestamp {stack.front.current_timestamp}, expected {expected}"
        )
    sample = check_sample(stack.feed.live_queries(), CHECK_QUERIES[stack.workload])
    problems.extend(
        check_results(rebuild_map(stack.workload), stack.feed, sample, stack.front.result_of)
    )
    return problems, len(sample) + 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECK_QUERIES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    probe = speed.Probe()
    stack = Stack(args.workload, args.seed)
    ready = perf_counter()
    setup_probe = stats.median(probe.times(speed.SETUP_PROBES))
    try:
        if args.mode == "setup":
            print(json.dumps({"ready": ready, "setup_probe": setup_probe}))
            return 0
        outcome = run_loop(stack, probe, args.seconds, bool(args.trace))
        rss = peak_rss_mb() - probe.nbytes / 2**20
        if args.workload == "venue-sharded":
            rss = max(rss, max(stack.server.worker_peak_rss()) / 2**20)
        problems, checks = check(stack, outcome)
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if args.trace:
            values = traced_layers(stack, outcome, args.trace_out)
        else:
            values = end_to_end(outcome["samples"])
            values["peak_rss_mb"] = rss
        result = {
            "ready": ready,
            "setup_probe": setup_probe,
            "run_probe": stats.median(outcome["samples"]["probes"]),
            "values": values,
            "attempted": outcome["attempted"] + checks,
            "failed": outcome["failed"] + len(problems),
            "ticks": outcome["ticks_sent"],
            "kernels": list(available_kernels()),
        }
        print(json.dumps(result))
        return 0
    finally:
        stack.close()


if __name__ == "__main__":
    sys.exit(main())
