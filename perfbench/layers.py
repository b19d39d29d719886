"""The program's public functions the traced run wraps, by layer.

Each entry is ``(span name, "module:qualified.attribute")``.  Span names
are the per-layer metric prefixes the benchmark reports (``<name>.calls``
and ``<name>.self_s``).  Top-level entry points (dataset build, study,
artifact write and load) are wrapped too, so that the spans of a batch
command cover its wall time; ``geo.point.haversine_km`` is deliberately
not wrapped, because its ~800k calls a study would cost more to record
than they take.
"""

from __future__ import annotations

from typing import Any

#: Build layer: synthetic platform, crawl, tweet store, point-in-radius.
BUILD = [
    ("datasets.korean.build_korean_dataset",
     "repro.datasets.korean:build_korean_dataset"),
    ("datasets.ladygaga.build_ladygaga_dataset",
     "repro.datasets.ladygaga:build_ladygaga_dataset"),
    ("twitter.population.generate",
     "repro.twitter.population:PopulationGenerator.generate"),
    ("twitter.social_graph.generate",
     "repro.twitter.social_graph:FollowerGraph.generate"),
    ("twitter.crawler.crawl", "repro.twitter.crawler:FollowerCrawler.crawl"),
    ("twitter.tweetgen.tweets_for", "repro.twitter.tweetgen:TweetGenerator.tweets_for"),
    ("storage.tweetstore.insert", "repro.storage.tweetstore:TweetStore.insert"),
    ("storage.tweetstore.insert_many", "repro.storage.tweetstore:TweetStore.insert_many"),
    ("geo.gazetteer.within", "repro.geo.gazetteer:SpatialGridCore.within"),
]

#: Geocode layer and the engine's five stages.
GEOCODE = [
    ("analysis.correlation.run_study", "repro.analysis.correlation:run_study"),
    ("geo.gazetteer.nearest", "repro.geo.gazetteer:SpatialGridCore.nearest"),
    ("yahooapi.client.reverse_geocode_xml",
     "repro.yahooapi.client:PlaceFinderClient.reverse_geocode_xml"),
    ("geo.forward.geocode", "repro.geo.forward:TextGeocoder.geocode"),
    ("engine.stages.refine", "repro.engine.stages:RefineStage.run"),
    ("engine.stages.profile_geocode", "repro.engine.stages:ProfileGeocodeStage.run"),
    ("engine.stages.reverse_geocode", "repro.engine.stages:ReverseGeocodeStage.run"),
    ("engine.stages.grouping", "repro.engine.stages:GroupingStage.run"),
    ("engine.stages.statistics", "repro.engine.stages:StatisticsStage.run"),
]

#: Study artifact write and load, and the serving snapshot build.
ARTIFACT = [
    ("analysis.serialization.save_study", "repro.analysis.serialization:save_study"),
    ("analysis.serialization.load_study", "repro.analysis.serialization:load_study"),
    ("columnar.storage.save_study_columnar",
     "repro.columnar.storage:save_study_columnar"),
    ("columnar.storage.load_study_columnar",
     "repro.columnar.storage:load_study_columnar"),
    ("serving.state.load_snapshot", "repro.serving.state:load_snapshot"),
    ("serving.state.from_study", "repro.serving.state:ServingSnapshot.from_study"),
]

#: Request path of one server.
SERVING = [
    ("serving.http.dispatch", "repro.serving.http:ServingApp.dispatch"),
    ("serving.handlers.lookup", "repro.serving.handlers:handle_lookup"),
    ("serving.handlers.region", "repro.serving.handlers:handle_region"),
    ("serving.handlers.stats", "repro.serving.handlers:handle_stats"),
    ("serving.handlers.reverse", "repro.serving.handlers:handle_reverse"),
]

#: Streaming ingest and live snapshot publishing.
STREAMING = [
    ("streaming.consumer.consume", "repro.streaming.consumer:StreamConsumer.consume"),
    ("analysis.incremental.fold",
     "repro.analysis.incremental:IncrementalStudyAccumulator.fold"),
    ("storage.tweetstore.append_many", "repro.storage.tweetstore:TweetStore.append_many"),
    ("streaming.checkpoint.append", "repro.streaming.checkpoint:CheckpointLog.append"),
    ("live.builder.build", "repro.live.builder:DeltaSnapshotBuilder.build"),
    ("serving.state.swap", "repro.serving.state:SnapshotStore.swap"),
]

#: Fleet front proxy path.
FLEET = [
    ("fleet.front.dispatch", "repro.fleet.front:FleetFront.dispatch"),
    ("fleet.targets.request", "repro.fleet.targets:ReplicaTarget.request"),
]

SPANS = BUILD + GEOCODE + ARTIFACT + SERVING + STREAMING + FLEET


def _count_items(tracer: Any, result: Any) -> None:
    tracer.count("streaming.queue.take_batch.items", len(result))


def _count_offloads(tracer: Any, result: Any) -> None:
    if result:
        tracer.count("serving.aio.executor_offloads")


#: Spans whose results also feed a counter: (span name, path, hook).
COUNTED = [
    ("streaming.queue.take_batch", "repro.streaming.queue:BoundedTweetQueue.take_batch",
     _count_items),
    ("serving.http.dispatch_blocks", "repro.serving.http:ServingApp.dispatch_blocks",
     _count_offloads),
    ("fleet.front.dispatch_blocks", "repro.fleet.front:FleetFront.dispatch_blocks",
     _count_offloads),
]
