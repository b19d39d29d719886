"""Tweet store: append-only log persistence with in-memory indexes.

The study's collection phase gathered millions of tweets; everything
downstream (refinement, grouping, event detection) queries them by user,
time, GPS presence, or keyword.  The store keeps tweets in insertion
order, maintains secondary indexes, and can persist to / recover from an
append-only JSONL log — one JSON document per line, so a partially
written final line (a crash mid-append) is detected and ignored on load.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.errors import DuplicateKeyError, NotFoundError
from repro.storage.journal import append_journal, read_journal
from repro.storage.query import TweetQuery
from repro.twitter.models import Tweet


class TweetStore:
    """In-memory tweet store with optional JSONL persistence.

    Indexes maintained on insert:

    * primary — tweet id -> tweet
    * by user — user id -> tweet ids in time order
    * by time — global ``(created_at_ms, tweet_id)`` ordering
    * gps — the subset of ids carrying coordinates
    """

    def __init__(self) -> None:
        self._by_id: dict[int, Tweet] = {}
        self._by_user: dict[int, list[int]] = {}
        self._time_index: list[tuple[int, int]] = []  # (created_at_ms, tweet_id)
        self._gps_ids: set[int] = set()

    # ----------------------------------------------------------------- write
    def insert(self, tweet: Tweet) -> None:
        """Insert one tweet.

        Raises:
            DuplicateKeyError: if the tweet id is already present.
        """
        self._index_batch([tweet], strict=True)

    def insert_many(self, tweets: Iterable[Tweet]) -> int:
        """Insert tweets, skipping duplicates; returns the inserted count.

        Duplicates are skipped whether they collide with a stored tweet or
        with an earlier tweet of the same batch (the first one wins).  The
        result equals inserting the tweets one at a time, at the cost of
        one sort per batch instead of one ordered insert per tweet.
        """
        return self._index_batch(list(tweets), strict=False)

    def _index_batch(self, batch: list[Tweet], *, strict: bool) -> int:
        """Add ``batch`` to every index; returns the count added.

        The one write path: :meth:`insert`, :meth:`insert_many`,
        :meth:`append_many` and :meth:`load` all come through here.  The
        primary index doubles as the duplicate check, against the store
        and within the batch; a strict batch that meets a duplicate takes
        its own primary entries back out before raising, before any other
        index has changed, so the store is left exactly as it was.

        The time index takes the batch's sorted keys with one ``extend``
        when they all follow its last key (the streaming case: in-order
        batches) and is sorted once otherwise.  Per-user id lists follow
        the same rule per author.

        Raises:
            DuplicateKeyError: in ``strict`` mode, if any tweet id is
                already stored or repeats within the batch.
        """
        by_id = self._by_id
        keys: list[tuple[int, int]] = []  # (created_at_ms, tweet_id)
        new_by_user: dict[int, list[int]] = {}
        gps_ids: list[int] = []
        for tweet in batch:
            tweet_id = tweet.tweet_id
            if tweet_id in by_id:
                if strict:
                    for _, added in keys:
                        del by_id[added]
                    raise DuplicateKeyError(f"tweet {tweet_id} already stored")
                continue
            by_id[tweet_id] = tweet
            keys.append((tweet.created_at_ms, tweet_id))
            new_by_user.setdefault(tweet.user_id, []).append(tweet_id)
            if tweet.has_gps:
                gps_ids.append(tweet_id)
        if not keys:
            return 0

        self._gps_ids.update(gps_ids)
        for user_id, ids in new_by_user.items():
            _merge_sorted(self._by_user.setdefault(user_id, []), ids)
        _merge_sorted(self._time_index, keys)
        return len(keys)

    # ------------------------------------------------------------------ read
    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[Tweet]:
        """Iterate all tweets in time order."""
        for _, tweet_id in self._time_index:
            yield self._by_id[tweet_id]

    def get(self, tweet_id: int) -> Tweet:
        """Primary-key lookup.

        Raises:
            NotFoundError: if the id is unknown.
        """
        try:
            return self._by_id[tweet_id]
        except KeyError:
            raise NotFoundError(f"tweet {tweet_id} not stored") from None

    def user_ids(self) -> list[int]:
        """Distinct author ids, sorted."""
        return sorted(self._by_user)

    def by_user(self, user_id: int) -> list[Tweet]:
        """A user's tweets in time order (empty list if none)."""
        return [self._by_id[tid] for tid in self._by_user.get(user_id, [])]

    def gps_count(self) -> int:
        """Number of GPS-tagged tweets."""
        return len(self._gps_ids)

    def gps_tweets(self) -> list[Tweet]:
        """All GPS-tagged tweets in id order."""
        return [self._by_id[tid] for tid in sorted(self._gps_ids)]

    def query(self, query: TweetQuery) -> list[Tweet]:
        """Evaluate a conjunctive query.

        Index selection: a ``user_id`` constraint scans only that user's
        timeline; otherwise a ``time_range`` binary-searches the global
        time index; a bare ``has_gps=True`` (or bbox) uses the GPS subset;
        anything else is a full scan.  Results come back in time order.
        """
        candidates = self._candidates(query)
        return [t for t in candidates if query.matches(t)]

    def _candidates(self, query: TweetQuery) -> list[Tweet]:
        if query.user_id is not None:
            return self.by_user(query.user_id)
        if query.time_range is not None:
            lo = bisect_left(self._time_index, (query.time_range.start_ms, -1))
            hi = bisect_right(self._time_index, (query.time_range.end_ms, -1))
            return [self._by_id[tid] for _, tid in self._time_index[lo:hi]]
        if query.has_gps is True or query.bbox is not None:
            return self.gps_tweets()
        return list(self)

    # ------------------------------------------------------------ persistence
    def save(self, path: str | Path) -> int:
        """Write all tweets as JSONL (time order); returns the line count."""
        path = Path(path)
        count = 0
        with path.open("w", encoding="utf-8") as handle:
            for tweet in self:
                handle.write(json.dumps(tweet.to_dict(), ensure_ascii=False))
                handle.write("\n")
                count += 1
        return count

    def append_many(self, path: str | Path, tweets: Iterable[Tweet]) -> int:
        """Insert a batch and journal it with one buffered write + flush.

        The streaming write-ahead path: the whole batch is serialised to a
        single string and written (then flushed) in one call, so a crash
        mid-append can tear at most the *final* line of the log — which
        :meth:`load` already drops — instead of leaving a partially
        written line in the middle of the batch.

        All or nothing: the whole batch is checked against the store and
        within itself before any index changes, so a duplicate id raises
        with both the log and the in-memory indexes untouched, and the
        same batch minus the offending tweet can be retried.

        Returns the number of records appended.

        Raises:
            DuplicateKeyError: if a tweet id is already present or repeats
                within the batch (nothing is indexed or written then).
        """
        batch = list(tweets)
        self._index_batch(batch, strict=True)
        return append_journal(path, (tweet.to_dict() for tweet in batch))

    def append_log(self, path: str | Path, tweets: Iterable[Tweet]) -> int:
        """Append tweets to an existing JSONL log (crash-tolerant format)."""
        path = Path(path)
        count = 0
        with path.open("a", encoding="utf-8") as handle:
            for tweet in tweets:
                handle.write(json.dumps(tweet.to_dict(), ensure_ascii=False))
                handle.write("\n")
                count += 1
        return count

    @classmethod
    def load(cls, path: str | Path) -> "TweetStore":
        """Rebuild a store from a JSONL log.

        A torn final line (no trailing newline, or unparseable JSON on the
        last line) is dropped silently — the crash-recovery contract of an
        append-only log (the shared journal contract,
        :func:`repro.storage.journal.read_journal`).  Corruption anywhere
        else raises.

        Raises:
            StorageError: if a non-final line is corrupt.
        """
        store = cls()
        store._index_batch(
            read_journal(
                path,
                lambda line: Tweet.from_dict(json.loads(line)),
                description="record",
            ),
            strict=True,
        )
        return store


def _merge_sorted(index: list, new_items: list) -> None:
    """Merge ``new_items`` into the sorted list ``index`` in place.

    ``new_items`` is sorted first; when it starts after ``index``'s last
    entry it is appended as is, otherwise the concatenation is sorted once
    (timsort merges the two sorted runs in linear time).
    """
    new_items.sort()
    tail_before = bool(index) and new_items[0] < index[-1]
    index.extend(new_items)
    if tail_before:
        index.sort()
