"""Where the traced run records spans: public calls into each layer.

In-process ticks are ``take_pending_batch`` + ``UpdateBatch.normalized``
+ ``events.apply_batch`` + ``monitor.process_batch`` — exactly the body
of ``MonitoringServer.apply_taken_batch``.  The kernel is wrapped at the
names the IMA monitor looks up at call time (``repro.core.ima.expand_knn``
and friends).  The DedupFrontend and the server it wraps get spans of
their own, so the frontend's self time is its span minus the server's.
The service host adds the durable wrapper, the event log and the frame
decoder.
"""

from __future__ import annotations

import repro.core.ima as ima_module
import repro.core.server as server_module
import repro.core.sharding as sharding_module
import repro.service.durable as durable_module
import repro.service.server as service_module
from repro.core.dedup import DedupFrontend
from repro.core.events import UpdateBatch

from perfbench.inputs import batch_size
from perfbench.metrics import SEARCH_COUNTERS
from perfbench.tracing import Tracer


def _count_updates(tracer: Tracer, args, result) -> None:
    tracer.count("server.updates", batch_size(args[1]))


def _count_report(tracer: Tracer, args, report) -> None:
    tracer.count("monitor.changed_queries", len(report.changed_queries))
    for counter in SEARCH_COUNTERS:
        tracer.count(f"search.{counter}", report.counters.get(counter, 0))


def install_core(tracer: Tracer, server, frontend=None) -> None:
    """Patch the server, events, monitor and kernel layers of *server*."""
    server_cls = type(server)
    tracer.patch(server_cls, "apply_updates", "server.apply_updates", _count_updates)
    tracer.patch(server_cls, "tick", "server.tick")
    tracer.patch(server_cls, "take_pending_batch", "events.take_pending_batch")
    tracer.patch(server_cls, "apply_taken_batch", "server.apply_taken_batch", _count_report)
    tracer.patch(UpdateBatch, "normalized", "events.normalized")
    tracer.patch(server_module, "apply_batch", "events.apply_batch")
    tracer.patch(sharding_module, "apply_batch", "events.apply_batch")
    if not isinstance(server, sharding_module.ShardedMonitoringServer):
        # A sharded server's monitors run in its worker processes.
        tracer.patch(type(server.monitor), "process_batch", "monitor.process_batch")
    for name in ("expand_knn_batch", "expand_knn", "expand_knn_legacy"):
        tracer.patch(ima_module, name, "kernel")
    if frontend is not None:
        tracer.patch(DedupFrontend, "apply_updates", "dedup.apply_updates")
        tracer.patch(DedupFrontend, "tick", "dedup.tick")


def _count_batch_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("events.batch_bytes", len(args[1]))


def install_service(tracer: Tracer, durable) -> None:
    """Patch the durable wrapper, event log and frame decoder of a service."""
    install_core(tracer, durable.server)
    tracer.patch(type(durable), "tick", "durable.tick")
    tracer.patch(type(durable), "checkpoint", "durable.checkpoint")
    tracer.patch(type(durable.log), "append", "eventlog.append", _count_batch_bytes)
    tracer.patch(durable_module, "encode_batch", "events.encode_batch")
    tracer.patch(service_module, "decode_batch", "service.decode_batch")
