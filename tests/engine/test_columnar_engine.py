"""Engine-level checks of the one (columnar) grouping path.

The engine groups in-process over interned columns for every shard
count and backend.  Its groupings must equal the paper's reference
method (:func:`~repro.grouping.topk.group_users`) under every tie-break
policy, and sharded runs — serial or process backend — must produce the
byte-identical ``study_to_json`` document, and therefore the identical
``study_digest`` / serving version, as the serial run.  Also pins the
``ShardedExecutor`` no-pool fix: single-shard and all-empty workloads
must never fork a worker fleet.
"""

import pytest

from repro.analysis.correlation import run_study
from repro.analysis.serialization import study_digest, study_to_json
from repro.engine import EngineConfig
from repro.engine.sharding import ShardedExecutor
from repro.grouping.merge import TieBreak
from repro.grouping.topk import group_users


def _run(dataset, name, **config):
    return run_study(
        dataset.users,
        dataset.tweets,
        dataset.gazetteer,
        dataset_name=name,
        engine_config=EngineConfig(**config),
    )


def _echo_worker(chunk, payload):
    """Module-level (picklable) worker: returns its chunk unchanged."""
    return list(chunk)


class TestColumnarEquivalence:
    @pytest.mark.parametrize("dataset", ["korean", "ladygaga"])
    def test_byte_identical_serial(self, small_ctx, dataset):
        """Engine groupings equal the paper's reference method, user
        order included, under every tie-break policy."""
        source = getattr(small_ctx, f"{dataset}_dataset")
        for tie_break in TieBreak:
            result = _run(source, dataset, tie_break=tie_break)
            reference = group_users(result.observations, tie_break=tie_break)
            assert result.groupings == reference, tie_break
            assert list(result.groupings) == list(reference), tie_break

    @pytest.mark.parametrize("shards", [2, 4, 7])
    def test_byte_identical_sharded_serial_backend(self, small_ctx, shards):
        source = small_ctx.korean_dataset
        serial = _run(source, "korean")
        sharded = _run(source, "korean", shards=shards)
        assert study_to_json(sharded) == study_to_json(serial)
        assert study_digest(sharded) == study_digest(serial)

    def test_byte_identical_process_backend(self, small_ctx):
        source = small_ctx.ladygaga_dataset
        serial = _run(source, "ladygaga")
        process = _run(source, "ladygaga", shards=4, backend="process")
        assert study_to_json(process) == study_to_json(serial)

    def test_process_single_shard_matches_serial(self, small_ctx):
        """The regression the pool fix pins: ``--backend process
        --shards 1`` answers inline and byte-identically to serial."""
        source = small_ctx.korean_dataset
        serial = _run(source, "korean")
        process = _run(source, "korean", shards=1, backend="process")
        assert study_to_json(process) == study_to_json(serial)


class TestNoPoolRegression:
    def test_single_shard_never_forks(self):
        with ShardedExecutor(shards=1, backend="process") as executor:
            report = executor.run_shards([1, 2, 3], _echo_worker)
            assert report.results == [[1, 2, 3]]
            assert executor._pool is None

    def test_empty_workload_never_forks(self):
        with ShardedExecutor(shards=4, backend="process") as executor:
            report = executor.run_shards([], _echo_worker)
            assert report.results == [[], [], [], []]
            assert executor._pool is None

    def test_nonempty_multishard_workload_does_fork(self):
        with ShardedExecutor(shards=2, backend="process") as executor:
            report = executor.run_shards([1, 2, 3, 4], _echo_worker)
            assert report.results == [[1, 2], [3, 4]]
            assert executor._pool is not None
