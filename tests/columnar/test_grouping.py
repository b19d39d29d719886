"""Property tests: columnar grouping is byte-equivalent to the dict path.

Two equivalences carry the tentpole refactor:

* :func:`columnar_group_users` returns *equal* ``UserGrouping`` objects
  to the batch :func:`~repro.grouping.topk.group_users` for every
  tie-break policy and any observation multiset;
* :class:`ColumnarGrouper` is observationally identical to the streaming
  :class:`~repro.grouping.incremental.IncrementalGrouper` — same
  classifications, same ``export_counts``, same checkpoint digest.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar.grouping import (
    ColumnarGrouper,
    columnar_group_users,
    groupings_from_packed,
    merged_rows_packed,
)
from repro.columnar.records import MatchColumns
from repro.errors import InsufficientDataError
from repro.grouping.incremental import IncrementalGrouper
from repro.grouping.merge import TieBreak
from repro.grouping.topk import group_users
from repro.streaming.snapshot import state_digest
from repro.twitter.models import GeotaggedObservation

_STATES = ["Seoul", "Busan", "California"]
_COUNTIES = ["Gangnam-gu", "Jongno-gu", "서초구", "Los Angeles"]


@st.composite
def observation_sets(draw):
    """Observation lists with per-user fixed profile districts."""
    user_count = draw(st.integers(min_value=1, max_value=5))
    profiles = {
        user_id: (
            draw(st.sampled_from(_STATES)),
            draw(st.sampled_from(_COUNTIES)),
        )
        for user_id in range(1, user_count + 1)
    }
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=user_count),
                st.sampled_from(_STATES),
                st.sampled_from(_COUNTIES),
            ),
            min_size=1,
            max_size=50,
        )
    )
    return [
        GeotaggedObservation(
            user_id=user_id,
            profile_state=profiles[user_id][0],
            profile_county=profiles[user_id][1],
            tweet_state=tweet_state,
            tweet_county=tweet_county,
        )
        for user_id, tweet_state, tweet_county in rows
    ]


class TestBatchEquivalence:
    @given(observation_sets(), st.sampled_from(TieBreak))
    @settings(max_examples=60)
    def test_equals_dict_path_under_every_tie_break(self, observations, tie_break):
        reference = group_users(observations, tie_break=tie_break)
        columns = MatchColumns.from_observations(observations)
        assert columnar_group_users(columns, tie_break=tie_break) == reference

    @given(observation_sets())
    def test_user_output_order_matches_first_encounter(self, observations):
        reference = group_users(observations)
        columns = MatchColumns.from_observations(observations)
        result = columnar_group_users(columns)
        assert list(result) == list(reference)

    @pytest.mark.parametrize("dataset", ["korean", "ladygaga"])
    def test_equals_dict_path_on_real_datasets(self, small_ctx, dataset):
        observations = getattr(small_ctx, f"{dataset}_study").observations
        reference = group_users(observations)
        columns = MatchColumns.from_observations(observations)
        assert columnar_group_users(columns) == reference


class TestShardedMerge:
    @given(observation_sets())
    def test_trusting_stored_order_preserves_it(self, observations):
        """``tie_break=None`` materialises rows exactly as stored — the
        contract the columnar study loader depends on."""
        columns = MatchColumns.from_observations(observations)
        packed = merged_rows_packed(columns)
        lookup = columns.interner.lookup
        trusted = groupings_from_packed(packed, lookup, tie_break=None)
        position = 0
        for user_id, row_count in zip(
            packed["user_ids"], packed["rows_per_user"]
        ):
            for offset in range(row_count):
                index = position + offset
                record = trusted[user_id].merged[offset].record
                assert record.profile_state == lookup(
                    packed["profile_states"][index]
                )
                assert record.tweet_county == lookup(
                    packed["tweet_counties"][index]
                )
            position += row_count


class TestColumnarGrouper:
    def test_unseen_user(self):
        grouper = ColumnarGrouper()
        assert grouper.group_of(1) is None
        with pytest.raises(InsufficientDataError):
            grouper.classify(1)

    @given(observation_sets(), st.sampled_from(TieBreak))
    @settings(max_examples=40)
    def test_matches_incremental_grouper(self, observations, tie_break):
        columnar = ColumnarGrouper(tie_break)
        incremental = IncrementalGrouper(tie_break)
        columnar.add_many(observations)
        incremental.add_many(observations)
        assert columnar.user_ids == incremental.user_ids
        assert columnar.export_counts() == incremental.export_counts()
        assert columnar.classify_all() == incremental.classify_all()
        for user_id in columnar.user_ids:
            assert columnar.observation_count(
                user_id
            ) == incremental.observation_count(user_id)
            assert columnar.group_of(user_id) == incremental.group_of(user_id)

    @given(observation_sets(), st.integers(min_value=1, max_value=7))
    @settings(max_examples=40)
    def test_digest_independent_of_batching(self, observations, chunk):
        """Checkpoint digests cannot tell fold batching — or grouper
        implementation — apart."""
        whole = ColumnarGrouper()
        whole.add_many(observations)
        chunked = ColumnarGrouper()
        for start in range(0, len(observations), chunk):
            chunked.add_many(observations[start : start + chunk])
        reference = IncrementalGrouper()
        reference.add_many(observations)
        assert state_digest(whole) == state_digest(chunked)
        assert state_digest(whole) == state_digest(reference)

    @given(observation_sets())
    def test_matches_batch_grouping(self, observations):
        grouper = ColumnarGrouper()
        grouper.add_many(observations)
        reference = group_users(observations)
        classified = grouper.classify_all()
        assert set(classified) == set(reference)
        for user_id, grouping in reference.items():
            assert classified[user_id] == grouping
