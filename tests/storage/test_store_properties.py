"""Property-based tests of tweet-store index consistency.

Random batches of tweets go in; every index and the persistence round
trip must agree with a brute-force model.
"""

from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DuplicateKeyError
from repro.geo.point import GeoPoint
from repro.storage.query import TimeRange, TweetQuery
from repro.storage.tweetstore import TweetStore
from repro.twitter.models import Tweet


@st.composite
def tweet_batches(draw):
    """A batch of tweets with unique ids and assorted GPS/users/times."""
    count = draw(st.integers(min_value=1, max_value=40))
    ids = draw(
        st.lists(
            st.integers(min_value=1, max_value=10_000),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    tweets = []
    for tweet_id in ids:
        user_id = draw(st.integers(min_value=1, max_value=5))
        created = draw(st.integers(min_value=0, max_value=100_000))
        gps = draw(st.booleans())
        tweets.append(
            Tweet(
                tweet_id=tweet_id,
                user_id=user_id,
                created_at_ms=created,
                text=draw(st.sampled_from(["hello", "coffee", "earthquake now"])),
                coordinates=GeoPoint(37.5, 127.0) if gps else None,
            )
        )
    return tweets


class TestIndexConsistency:
    @given(tweet_batches())
    @settings(max_examples=60, deadline=None)
    def test_all_indexes_agree_with_model(self, tweets):
        store = TweetStore()
        store.insert_many(tweets)

        assert len(store) == len(tweets)
        # Time iteration order.
        stamps = [t.created_at_ms for t in store]
        assert stamps == sorted(stamps)
        # GPS index.
        assert store.gps_count() == sum(1 for t in tweets if t.has_gps)
        # Per-user timelines.
        for user_id in {t.user_id for t in tweets}:
            expected = sorted(
                (t.tweet_id for t in tweets if t.user_id == user_id)
            )
            assert [t.tweet_id for t in store.by_user(user_id)] == expected

    @given(
        tweet_batches(),
        st.integers(min_value=0, max_value=100_000),
        st.integers(min_value=0, max_value=100_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_query_equals_brute_force(self, tweets, a, b):
        store = TweetStore()
        store.insert_many(tweets)
        lo, hi = min(a, b), max(a, b)
        query = TweetQuery(time_range=TimeRange(lo, hi), has_gps=True)
        indexed = {t.tweet_id for t in store.query(query)}
        brute = {t.tweet_id for t in tweets if query.matches(t)}
        assert indexed == brute

    @given(tweet_batches())
    @settings(max_examples=30, deadline=None)
    def test_persistence_roundtrip(self, tmp_path_factory, tweets):
        store = TweetStore()
        store.insert_many(tweets)
        path = tmp_path_factory.mktemp("store") / "tweets.jsonl"
        store.save(path)
        loaded = TweetStore.load(path)
        assert len(loaded) == len(store)
        assert [t.tweet_id for t in loaded] == [t.tweet_id for t in store]


class _InsortReference:
    """The per-tweet store the batch write path must reproduce.

    Every tweet goes in with an ordered insert into the per-user and the
    global time index, one at a time — the textbook construction, kept
    here as the oracle for the one-sort bulk path.
    """

    def __init__(self) -> None:
        self.by_id: dict[int, Tweet] = {}
        self.by_user: dict[int, list[int]] = {}
        self.time_index: list[tuple[int, int]] = []
        self.gps_ids: set[int] = set()

    def add(self, tweet: Tweet) -> bool:
        if tweet.tweet_id in self.by_id:
            return False
        self.by_id[tweet.tweet_id] = tweet
        insort(self.by_user.setdefault(tweet.user_id, []), tweet.tweet_id)
        insort(self.time_index, (tweet.created_at_ms, tweet.tweet_id))
        if tweet.has_gps:
            self.gps_ids.add(tweet.tweet_id)
        return True

    def has_duplicate(self, batch: list[Tweet]) -> bool:
        ids = [t.tweet_id for t in batch]
        return len(set(ids)) < len(ids) or any(i in self.by_id for i in ids)


def _assert_same_reads(store: TweetStore, ref: _InsortReference, lo: int, hi: int):
    assert len(store) == len(ref.by_id)
    assert list(store) == [ref.by_id[tid] for _, tid in ref.time_index]
    assert store.user_ids() == sorted(ref.by_user)
    for user_id, ids in ref.by_user.items():
        assert store.by_user(user_id) == [ref.by_id[tid] for tid in ids]
    assert store.gps_tweets() == [ref.by_id[tid] for tid in sorted(ref.gps_ids)]
    window = TweetQuery(time_range=TimeRange(lo, hi))
    assert store.query(window) == [
        ref.by_id[tid] for created, tid in ref.time_index if lo <= created < hi
    ]


@st.composite
def write_sequences(draw):
    """Mixed ``insert`` / ``insert_many`` / ``append_many`` calls.

    Ids come from a small range and timestamps from a narrow one, so
    duplicates (within and across batches, with differing payloads) and
    batches landing before the index tail are the common case.
    """
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["insert", "insert_many", "append_many"]))
        size = 1 if kind == "insert" else draw(st.integers(min_value=0, max_value=12))
        batch = [
            Tweet(
                tweet_id=draw(st.integers(min_value=1, max_value=40)),
                user_id=draw(st.integers(min_value=1, max_value=4)),
                created_at_ms=draw(st.integers(min_value=0, max_value=50)),
                text=draw(st.sampled_from(["a", "b"])),
                coordinates=GeoPoint(37.5, 127.0) if draw(st.booleans()) else None,
            )
            for _ in range(size)
        ]
        # Shuffled order: timelines never arrive sorted.
        ops.append((kind, draw(st.permutations(batch))))
    return ops


class TestBulkEqualsPerTweet:
    @given(
        write_sequences(),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_read_path_agrees(self, tmp_path_factory, ops, a, b):
        path = tmp_path_factory.mktemp("wal") / "wal.jsonl"
        store, ref = TweetStore(), _InsortReference()
        logged: list[Tweet] = []
        for kind, batch in ops:
            if kind == "insert_many":
                assert store.insert_many(batch) == sum(ref.add(t) for t in batch)
            elif ref.has_duplicate(batch):
                with pytest.raises(DuplicateKeyError):
                    if kind == "insert":
                        store.insert(batch[0])
                    else:
                        store.append_many(path, batch)
            elif kind == "insert":
                store.insert(batch[0])
                ref.add(batch[0])
            else:
                assert store.append_many(path, batch) == len(batch)
                for tweet in batch:
                    ref.add(tweet)
                logged.extend(batch)
            _assert_same_reads(store, ref, min(a, b), max(a, b))
        # The log holds exactly the accepted append_many batches.
        loaded = TweetStore.load(path) if path.exists() else TweetStore()
        assert sorted(t.tweet_id for t in loaded) == sorted(t.tweet_id for t in logged)

    def test_batch_before_the_tail_is_merged(self):
        store, ref = TweetStore(), _InsortReference()
        late = [Tweet(tweet_id=i, user_id=1, created_at_ms=100 + i, text="x") for i in (5, 6)]
        early = [Tweet(tweet_id=i, user_id=1, created_at_ms=i, text="x") for i in (3, 1, 2)]
        for batch in (late, early):
            store.insert_many(batch)
            for tweet in batch:
                ref.add(tweet)
        _assert_same_reads(store, ref, 0, 200)
        assert [t.tweet_id for t in store] == [1, 2, 3, 5, 6]
