"""Seeded inputs of the four workloads, and the independent check.

The maps are fixed (``MAP_SEED``); ``--seed`` drives everything that
moves on them: object and query placement, the rush-hour feed, object
moves and the venue stream.  Each feed keeps only its own small state — a
weight view, the object and query locations it handed out, and its RNGs
— and builds one tick's batch when asked, never reading server state.
The feeds read only the network's topology, which no workload changes.

:func:`check_results` rebuilds the map from ``MAP_SEED``, applies the
feed's final weights and locations, and compares a fixed sample of query
results against :func:`repro.network.distance.brute_force_knn`.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, List, Tuple

from repro.core.events import UpdateBatch
from repro.core.queries import QuerySpec, as_query_spec
from repro.core.results import results_equal
from repro.network.builders import city_network
from repro.network.distance import brute_force_knn
from repro.network.edge_table import EdgeTable
from repro.network.graph import NetworkLocation, RoadNetwork
from repro.realism import RushHourModel, RushHourSpec, synthetic_city_network
from repro.testing.scenarios import SCENARIO_PRESETS, ScenarioEngine

#: Seed of both maps; the workload seed varies what moves on them.
MAP_SEED = 20060912

#: Query ids start here, clear of object ids.
QUERY_ID_BASE = 1_000_000

#: Every tick's updates reach the server as this many apply calls/frames.
APPLY_PARTS = 5

# -- city-rush / service-stream ------------------------------------------
CITY_EDGES = 20_000
CITY_OBJECTS = 20_000
CITY_QUERIES = 64
CITY_K = 8
CITY_MOVE_FRACTION = 0.01

#: The rush-hour feed of ``benchmarks/bench_city_scale.py`` (``TRAFFIC``),
#: copied so that editing that file cannot change this benchmark.
CITY_TRAFFIC = RushHourSpec(
    ticks_per_day=48,
    incident_rate=2.0,
    closure_rate=0.2,
    closure_duration=(2, 5),
    congestion_update_fraction=0.02,
)

# -- venue-tenants / venue-sharded ---------------------------------------
VENUE_EDGES = 6_000

#: ``FULL_SPEC`` of ``benchmarks/bench_popular_venue.py``, copied likewise.
VENUE_SPEC = SCENARIO_PRESETS["popular-venue"].with_overrides(
    num_objects=1_000,
    num_queries=10_000,
    k_choices=(2, 4),
    query_mix=(("knn", 1.0),),
    venue_fraction=0.01,
    venue_query_fraction=0.95,
    object_move_fraction=0.05,
    query_move_fraction=0.05,
    edge_storm_fraction=0.02,
    query_churn_prob=0.5,
)


class CityFeed:
    """Rush-hour weight updates plus 1% object moves per tick."""

    def __init__(self, network: RoadNetwork, speed_classes, seed: int) -> None:
        self._rng = random.Random(f"perfbench/city/{seed}")
        self._edges = sorted(network.edge_ids())
        #: edge id -> weight as this feed last set it
        self.weights = {edge_id: network.edge(edge_id).weight for edge_id in self._edges}
        self._traffic = RushHourModel(
            network,
            spec=CITY_TRAFFIC,
            seed=seed,
            speed_classes=speed_classes,
            weights=self.weights,
        )
        self.objects = {object_id: self._draw() for object_id in range(CITY_OBJECTS)}
        self.queries = {
            QUERY_ID_BASE + index: (self._draw(), as_query_spec(CITY_K))
            for index in range(CITY_QUERIES)
        }
        self._initial_objects = dict(self.objects)
        self._movers = int(CITY_OBJECTS * CITY_MOVE_FRACTION)

    def _draw(self) -> NetworkLocation:
        return NetworkLocation(self._rng.choice(self._edges), self._rng.random())

    def initial_objects(self) -> Dict[int, NetworkLocation]:
        """Object placements before the first tick."""
        return dict(self._initial_objects)

    def initial_queries(self) -> Dict[int, Tuple[NetworkLocation, QuerySpec]]:
        """Queries before the first tick (they never move)."""
        return dict(self.queries)

    def batch(self, timestamp: int) -> UpdateBatch:
        """The updates of *timestamp*; advances the feed's own view."""
        batch = UpdateBatch(timestamp=timestamp)
        batch.edge_updates.extend(self._traffic.tick(timestamp))
        for object_id in self._rng.sample(range(CITY_OBJECTS), self._movers):
            new_location = self._draw()
            batch.add_object_move(object_id, self.objects[object_id], new_location)
            self.objects[object_id] = new_location
        return batch

    def live_queries(self) -> Dict[int, Tuple[NetworkLocation, QuerySpec]]:
        """Queries as the feed last placed them."""
        return dict(self.queries)


class VenueFeed:
    """The popular-venue stream: clustered tenants, churn, weight storms."""

    def __init__(self, network: RoadNetwork, seed: int) -> None:
        self._engine = ScenarioEngine(network, VENUE_SPEC, seed=seed)
        #: edge id -> weight as this feed last set it (changed edges only)
        self.weights: Dict[int, float] = {}

    def initial_objects(self) -> Dict[int, NetworkLocation]:
        """Object placements before the first tick."""
        return self._engine.initial_objects()

    def initial_queries(self) -> Dict[int, Tuple[NetworkLocation, QuerySpec]]:
        """Queries before the first tick."""
        return self._engine.initial_queries()

    def batch(self, timestamp: int) -> UpdateBatch:
        """The updates of *timestamp*; advances the feed's own view."""
        batch = self._engine.batch(timestamp)
        for update in batch.edge_updates:
            self.weights[update.edge_id] = update.new_weight
        return batch

    @property
    def objects(self) -> Dict[int, NetworkLocation]:
        """Objects as the feed last placed them."""
        return self._engine.live_objects()

    def live_queries(self) -> Dict[int, Tuple[NetworkLocation, QuerySpec]]:
        """Queries as the feed last placed them."""
        return self._engine.live_queries()


def build_city():
    """The fixed city-rush map: ``(network, speed classes)``."""
    imported = synthetic_city_network(CITY_EDGES, seed=MAP_SEED)
    return imported.network, imported.speed_classes


def build_venue_map() -> RoadNetwork:
    """The fixed popular-venue map."""
    return city_network(VENUE_EDGES, seed=MAP_SEED)


def city_inputs(seed: int):
    """``(network, feed)`` of city-rush and service-stream."""
    network, speed_classes = build_city()
    return network, CityFeed(network, speed_classes, seed)


def venue_inputs(seed: int):
    """``(network, feed)`` of venue-tenants and venue-sharded."""
    network = build_venue_map()
    return network, VenueFeed(network, seed)


def populated_edge_table(network: RoadNetwork, objects) -> EdgeTable:
    """An edge table holding *objects* (``{id: location}``)."""
    edge_table = EdgeTable(network, build_spatial_index=False)
    for object_id, location in objects.items():
        edge_table.insert_object(object_id, location)
    return edge_table


def split_batch(batch: UpdateBatch, parts: int = APPLY_PARTS) -> List[UpdateBatch]:
    """Cut *batch* into *parts* consecutive batches of the same timestamp.

    Each update list is cut into contiguous runs, so applying the parts in
    order buffers exactly the updates of *batch* in the same per-kind order.
    """
    chunks = [UpdateBatch(timestamp=batch.timestamp) for _ in range(parts)]
    for kind in ("object_updates", "query_updates", "edge_updates"):
        items = getattr(batch, kind)
        step = math.ceil(len(items) / parts) if items else 0
        for index, chunk in enumerate(chunks):
            getattr(chunk, kind).extend(items[index * step:(index + 1) * step])
    return chunks


def batch_size(batch: UpdateBatch) -> int:
    """Number of updates in *batch*."""
    return len(batch.object_updates) + len(batch.query_updates) + len(batch.edge_updates)


def check_sample(query_ids, size: int) -> List[int]:
    """A fixed, evenly spread sample of *size* ids."""
    ordered = sorted(query_ids)
    if len(ordered) <= size:
        return ordered
    stride = len(ordered) / size
    return [ordered[int(index * stride)] for index in range(size)]


def check_results(
    rebuild: Callable[[], RoadNetwork],
    feed,
    sample: List[int],
    result_of: Callable[[int], object],
) -> List[str]:
    """Compare *sample* results against brute force on a rebuilt map.

    Returns one message per mismatch (empty when every result agrees).
    """
    network = rebuild()
    for edge_id, weight in feed.weights.items():
        if network.edge(edge_id).weight != weight:
            network.set_edge_weight(edge_id, weight)
    edge_table = populated_edge_table(network, feed.objects)
    queries = feed.live_queries()
    problems = []
    for query_id in sample:
        location, spec = queries[query_id]
        truth = brute_force_knn(network, edge_table, location, spec.k)
        got = result_of(query_id)
        if not results_equal(list(got.neighbors), truth):
            problems.append(f"query {query_id}: got {list(got.neighbors)[:3]}..., "
                            f"expected {truth[:3]}...")
    return problems


def rebuild_map(workload: str) -> Callable[[], RoadNetwork]:
    """The map builder of *workload*, for :func:`check_results`."""
    if workload in ("city-rush", "service-stream"):
        return lambda: build_city()[0]
    return build_venue_map
