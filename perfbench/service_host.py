"""Host process of service-stream: a durable streaming service on the city map.

Run by ``perfbench/run.py``::

    python -m perfbench.service_host --seed 1 --data-dir D --ready-file F --probe-file P

Builds the city-rush map and initial population from the seed, wraps an
in-process IMA server (``csr`` kernel) in a ``DurableMonitoringServer``
(fsync on, a checkpoint every 16 ticks) and serves it through
``StreamingService`` on an ephemeral loopback port.  After the initial
tick and the bind it writes ``{"host", "port", "ready", "setup_probe",
"probe_bytes"}`` to the ready file; it serves until a client sends
``("stop",)``, timing the probe of :mod:`perfbench.speed` every
:data:`PROBE_INTERVAL` seconds meanwhile, and on exit writes those
timings to the probe file as ``{"probes": [[perf_counter when taken,
seconds], ...]}``.  With ``--trace-out``
it records spans around the durable wrapper, the event log, the frame
decoder and the core layers, and writes them there on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from time import perf_counter

from repro.core.server import MonitoringServer
from repro.service.durable import DurableMonitoringServer
from repro.service.server import StreamingService

from perfbench import speed, stats
from perfbench.inputs import city_inputs, populated_edge_table
from perfbench.shims import install_service
from perfbench.tracing import Tracer

#: Seconds between timings of the probe while serving.
PROBE_INTERVAL = 0.1


def build(seed: int, data_dir: str) -> DurableMonitoringServer:
    """The primed durable server, after its initial (logged) tick."""
    network, feed = city_inputs(seed)
    edge_table = populated_edge_table(network, feed.initial_objects())
    server = MonitoringServer(network, "ima", edge_table=edge_table)
    for query_id, (location, spec) in feed.initial_queries().items():
        server.add_query(query_id, location, spec)
    durable = DurableMonitoringServer(server, data_dir)
    durable.tick()
    return durable


def _write(path: str, record: dict) -> None:
    temporary = path + ".tmp"
    with open(temporary, "w", encoding="utf-8") as stream:
        json.dump(record, stream)
    os.replace(temporary, path)


async def _calibrate(probe: speed.Probe, timings) -> None:
    while True:
        await asyncio.sleep(PROBE_INTERVAL)
        timings.append((perf_counter(), probe.time()))


async def serve(
    service: StreamingService, probe: speed.Probe, ready_file: str, probe_file: str
) -> None:
    """Run *service*, publishing its address once it is bound."""
    runner = asyncio.create_task(service.run())
    while service.bound_address is None:
        if runner.done():
            await runner  # re-raises a failed start
        await asyncio.sleep(0.001)
    ready = perf_counter()
    host, port = service.bound_address
    setup_probe = stats.median(probe.times(speed.SETUP_PROBES))
    _write(ready_file, {"host": host, "port": port, "ready": ready,
                        "setup_probe": setup_probe, "probe_bytes": probe.nbytes})
    timings = []
    calibrator = asyncio.create_task(_calibrate(probe, timings))
    try:
        await runner
    finally:
        calibrator.cancel()
        try:
            await calibrator
        except asyncio.CancelledError:
            pass
    _write(probe_file, {"probes": timings or [(ready, setup_probe)]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--probe-file", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    probe = speed.Probe()
    durable = build(args.seed, args.data_dir)
    service = StreamingService(durable, port=0)
    tracer = None
    if args.trace_out:
        tracer = Tracer(tick_source=lambda: durable.current_timestamp)
        install_service(tracer, durable)
    try:
        asyncio.run(serve(service, probe, args.ready_file, args.probe_file))
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
