"""Orchestration of one benchmark run: host processes, set-ups, checks.

``perfbench/run.py`` is the entry point; it checks that the program is
present, puts it on ``sys.path`` and calls :func:`main`.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from repro.network.native import load_native_library, load_outcome_helper

from perfbench import speed, stats
from perfbench.inputs import check_results, check_sample, city_inputs, rebuild_map
from perfbench.metrics import END_TO_END, PER_LAYER, render
from perfbench.procinfo import peak_rss_mb
from perfbench.service_layers import service_layer_values
from perfbench.stream import (
    BURST_FIGURES,
    FRAMES_PER_TICK,
    RATE,
    RUNG_TICKS,
    StreamClient,
    stream_figures,
)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("city-rush", "venue-tenants", "venue-sharded", "service-stream")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_RUNS = 3

#: Seconds a host process may take before it is killed.
HOST_TIMEOUT = 150.0

#: Results of service-stream compared against brute force.
SERVICE_CHECK_QUERIES = 16

#: Ticks of the untraced 10 ticks/s baseline in a traced service run.
TRACE_BASELINE_TICKS = 100


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    return env


def _warm_native_cache() -> None:
    """Build the compiled kernel once, so no set-up pays for the compiler."""
    load_native_library()
    load_outcome_helper()


# -- in-process workloads -------------------------------------------------
def _inproc(workload: str, seed: int, extra) -> dict:
    started = perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "perfbench.inproc", "--workload", workload,
         "--seed", str(seed), *extra],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        timeout=HOST_TIMEOUT, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} host exited with code {completed.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result["ready"] - started) * speed.factor(result["setup_probe"])
    return result


def run_inproc(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setups = []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(_inproc(workload, seed, ["--mode", "setup"])["setup_s"])
    extra = ["--mode", "run", "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        extra += ["--trace-out", str(WORK / f"trace-{workload}-{seed}.jsonl")]
    result = _inproc(workload, seed, extra)
    setups.append(result["setup_s"])
    kernels = ", ".join(result["kernels"])
    print(f"{workload}: {result['ticks']} ticks; kernels available: {kernels}")
    return {"values": result["values"], "probe": result["run_probe"],
            "setup_s": stats.median(setups), "attempted": result["attempted"],
            "failed": result["failed"]}


# -- service-stream -------------------------------------------------------
class Host:
    """One service host process and its data directory."""

    def __init__(self, seed: int, index: int, trace_out=None) -> None:
        self.dir = WORK / f"service-{os.getpid()}-{index}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.ready_file = self.dir / "ready.json"
        self.probe_file = self.dir / "probe.json"
        self.log = open(self.dir / "host.log", "w", encoding="utf-8")
        command = [sys.executable, "-m", "perfbench.service_host", "--seed", str(seed),
                   "--data-dir", str(self.dir / "data"), "--ready-file", str(self.ready_file),
                   "--probe-file", str(self.probe_file)]
        if trace_out:
            command += ["--trace-out", str(trace_out)]
        self.started = perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=_child_env(), stdout=self.log, stderr=self.log
        )

    async def ready(self) -> dict:
        """Wait for the ready file; adds ``setup_s`` (in reference seconds, see
        :mod:`perfbench.speed`) and ``pid`` to its contents."""
        deadline = self.started + HOST_TIMEOUT
        while not self.ready_file.exists():
            if self.process.poll() is not None or perf_counter() > deadline:
                self.process.kill()
                self.process.wait()
                self.log.close()
                raise RuntimeError(f"service host failed to start; see {self.log.name}")
            await asyncio.sleep(0.002)
        info = json.loads(self.ready_file.read_text(encoding="utf-8"))
        info["setup_s"] = (info["ready"] - self.started) * speed.factor(info["setup_probe"])
        info["pid"] = self.process.pid
        return info

    async def finish(self) -> list:
        """Wait for the host to exit (killing it on timeout), then clean up.

        Returns the calibration timings it took while serving, as
        ``[(taken at, seconds), ...]``.
        """
        deadline = perf_counter() + 30.0
        while self.process.poll() is None and perf_counter() < deadline:
            await asyncio.sleep(0.01)
        if self.process.poll() is None:
            self.process.kill()
        code = self.process.wait()
        self.log.close()
        if code != 0:
            sys.stderr.write(Path(self.log.name).read_text(encoding="utf-8")[-4000:])
            raise RuntimeError(f"service host exited with code {code}")
        probes = json.loads(self.probe_file.read_text(encoding="utf-8"))["probes"]
        shutil.rmtree(self.dir, ignore_errors=True)
        return probes


async def _stop(info: dict) -> None:
    """Stop a host that no generator is attached to."""
    client = StreamClient(None, 0)
    await client.open(info["host"], info["port"])
    await client.request("stop")
    await client.close()


async def _service_checks(client, feed, rungs) -> list:
    """Clock, reply and ground-truth checks after the rung and burst."""
    problems = []
    for rung in rungs:
        for record in rung.ticks:
            reply = record.frames[-1].reply
            if not (isinstance(reply, tuple) and reply[0] == "ok"
                    and reply[1].timestamp == record.timestamp):
                problems.append(f"tick {record.timestamp} replied {reply!r:.200}")
        if rung.missing_deltas:
            problems.append(f"{rung.missing_deltas} deltas missing at {rung.rate}/s")
    if client.duplicate_deltas:
        problems.append(f"{client.duplicate_deltas} ticks produced more than one delta")
    reply = await client.request("timestamp")
    if reply != ("ok", client.timestamp):
        problems.append(f"server timestamp {reply!r}, expected {client.timestamp}")
    sample = check_sample(feed.live_queries(), SERVICE_CHECK_QUERIES)
    results = {}
    for query_id in sample:
        reply = await client.request("result", query_id)
        if reply[0] == "ok":
            results[query_id] = reply[1]
        else:
            problems.append(f"result of query {query_id} replied {reply!r:.200}")
    problems.extend(
        check_results(rebuild_map("service-stream"), feed, sorted(results), results.get)
    )
    return problems, len(sample) + 2 + sum(len(rung.ticks) for rung in rungs)


async def _drive(seed: int, info: dict, ticks=RUNG_TICKS, burst=False):
    """Attach a generator to a ready host, run the rung (and the burst), check, stop.

    Returns ``(rung, burst rung or None, peak RSS, attempted, failed)``.
    """
    _, feed = city_inputs(seed)
    client = StreamClient(feed, first_timestamp=1)
    await client.open(info["host"], info["port"])
    rung = await client.run_rung(RATE, ticks)
    if len(rung.ticks) < RUNG_TICKS and not rung.cut_short:
        verdict = "not judged (short rung)"
    else:
        verdict = "passed" if rung.passed() else "failed"
    print(f"service-stream: {len(rung.ticks)} ticks at {RATE}/s, "
          f"delta p50 {stats.median(rung.delta_ms()):.1f} ms, "
          f"slowest ingest ack {rung.max_ack_ms():.1f} ms, {verdict}")
    run = [rung]
    capacity = None
    if burst:
        capacity = await client.run_burst()
        run.append(capacity)
        print(f"service-stream: burst of {len(capacity.ticks)} ticks delivered "
              f"{capacity.delivered_tick_rate():.1f} ticks/s")
    rss = peak_rss_mb(info["pid"]) - info["probe_bytes"] / 2**20
    problems, checks = await _service_checks(client, feed, run)
    attempted = checks + sum(len(r.ticks) * (FRAMES_PER_TICK + 1) for r in run)
    failed = len(problems) + client.errors
    await client.request("stop")
    await client.close()
    return rung, capacity, rss, attempted, failed


async def run_service(seed: int, trace: bool) -> dict:
    """service-stream; the rung and burst, not ``--seconds``, set its length."""
    if trace:
        return await _run_service_traced(seed)
    setups = []
    for index in range(SETUP_RUNS):
        host = Host(seed, index)
        info = await host.ready()
        setups.append(info["setup_s"])
        if index < SETUP_RUNS - 1:
            await _stop(info)
            await host.finish()
    try:
        rung, burst, rss, attempted, failed = await _drive(seed, info, burst=True)
    finally:
        probes = await host.finish()
    # Latencies are put on the machine's speed during the rung, capacity
    # on its speed during the burst.
    figures = stream_figures(rung, burst)
    values = speed.scale(figures, END_TO_END, speed.window_factor(probes, *rung.window()))
    values.update(speed.scale(
        {name: figures[name] for name in BURST_FIGURES}, END_TO_END,
        speed.window_factor(probes, *burst.window()),
    ))
    values["peak_rss_mb"] = rss
    return {"values": values, "probe": stats.median([s for _, s in probes]),
            "setup_s": stats.median(setups),
            "attempted": attempted, "failed": failed}


async def _run_service_traced(seed: int) -> dict:
    host = Host(seed, 0)
    info = await host.ready()
    try:
        baseline, _, _, attempted, failed = await _drive(seed, info, TRACE_BASELINE_TICKS)
    finally:
        baseline_probes = await host.finish()
    trace_out = WORK / f"trace-service-stream-{seed}.jsonl"
    host = Host(seed, 1, trace_out=trace_out)
    info = await host.ready()
    try:
        traced, _, _, more_attempted, more_failed = await _drive(seed, info)
    finally:
        probes = await host.finish()
    # The baseline ran in another host; put its figures on the traced
    # host's speed before they are compared.
    traced_by = speed.window_factor(probes, *traced.window())
    baseline_by = speed.window_factor(baseline_probes, *baseline.window())
    values = service_layer_values(trace_out, traced, baseline, baseline_by / traced_by)
    values = speed.scale(values, PER_LAYER, traced_by)
    return {"values": values, "probe": stats.median([s for _, s in probes]), "setup_s": None,
            "attempted": attempted + more_attempted, "failed": failed + more_failed}


# -- entry point ----------------------------------------------------------
def main(argv=None) -> int:
    """Run one workload; print its metrics and the result line."""
    parser = argparse.ArgumentParser(description="Run one workload of the benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    WORK.mkdir(parents=True, exist_ok=True)
    _warm_native_cache()
    trace = bool(args.trace)
    try:
        if args.workload == "service-stream":
            outcome = asyncio.run(run_service(args.seed, trace))
        else:
            outcome = run_inproc(args.workload, args.seed, args.seconds, trace)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, stats.TooFewSamples) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    values = outcome["values"]
    if not trace:
        values["setup_s"] = outcome["setup_s"]
    print(f"  probe median {outcome['probe'] * 1e6:.1f} us, reference "
          f"{speed.REFERENCE_PROBE_S * 1e6:.1f} us (times below are in reference units)")
    metrics = render(values, PER_LAYER if trace else END_TO_END)
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}")
    correct = outcome["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1
