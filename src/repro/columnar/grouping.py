"""Grouping over interned columns: integer sort + run-length counting.

The paper's reference method (:func:`~repro.grouping.topk.group_users`,
kept as the test oracle) builds one
:class:`~repro.grouping.strings.LocationString` object per tweet and
counts them in per-user ``Counter`` dicts — object construction, field
validation, and string hashing on every row.  The columnar path packs
each row's five interned ids into a single integer, sorts the packed
keys, and run-length counts the sorted runs; only the *distinct* merged
rows (orders of magnitude fewer than tweets on real data) are ever
materialised back into objects for the final, paper-exact
:class:`~repro.grouping.topk.UserGrouping`.

Byte-identity with :func:`~repro.grouping.topk.group_users` is a theorem
of two facts, both property-tested:

* user output order — packed keys lead with each user's *first-encounter
  index*, so the sorted runs visit users in exactly the order the
  reference method's insertion-ordered ``per_user`` dict does;
* row order — distinct rows are sorted with the shared
  :func:`~repro.columnar.keys.merged_sort_key`, a total order (rendered
  strings are unique per user), so counting order cannot leak through.

:class:`ColumnarGrouper` is the streaming counterpart: per-user counters
keyed by interned-id tuples instead of record objects, drop-in
compatible with :class:`~repro.grouping.incremental.IncrementalGrouper`.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict

from repro.columnar.interner import StringInterner
from repro.columnar.keys import merged_sort_key
from repro.columnar.records import MatchColumns
from repro.errors import InsufficientDataError
from repro.grouping.merge import MergedString, TieBreak
from repro.grouping.strings import LocationString
from repro.grouping.topk import UserGrouping, classify_rows


def merged_rows_packed(columns: MatchColumns) -> dict[str, array]:
    """Merge a columnar batch into packed result columns.

    Sorts the packed ``(user-order, profile, tweet)`` integer keys of
    every row and run-length counts them.  The result is five
    fixed-width columns plus two per-user columns:

    * ``user_ids`` / ``rows_per_user`` — one entry per user, in
      first-encounter order;
    * ``profile_states`` / ``profile_counties`` / ``tweet_states`` /
      ``tweet_counties`` / ``counts`` — one entry per distinct merged
      row, users concatenated in order, each user's rows *unsorted by
      policy* (count-and-tie-break ordering happens where the strings
      live; see :func:`groupings_from_packed`).

    Within a user the distinct rows appear in packed-integer order —
    deterministic, but not the paper's ordering; the tie-break sort is
    applied when the strings are materialised.
    """
    # Dense first-encounter index per user keeps the output in the
    # reference method's insertion order while letting one global integer
    # sort group every user's rows together.  Iterating zipped columns
    # beats five indexed reads per row by a wide margin.
    order: dict[int, int] = {}
    order_get = order.get
    base = len(columns.interner) + 1
    packed: list[int] = []
    append = packed.append
    for user_id, ps, pc, ts, tc in zip(
        columns.user_ids,
        columns.profile_states,
        columns.profile_counties,
        columns.tweet_states,
        columns.tweet_counties,
    ):
        seq = order_get(user_id)
        if seq is None:
            seq = len(order)
            order[user_id] = seq
        append((((seq * base + ps) * base + pc) * base + ts) * base + tc)
    packed.sort()

    by_seq = list(order)  # insertion order: seq -> user_id

    out_users = array("q")
    out_rows_per_user = array("q")
    out_ps = array("q")
    out_pc = array("q")
    out_ts = array("q")
    out_tc = array("q")
    out_counts = array("q")

    previous: int | None = None
    run = 0
    current_seq = -1
    rows_for_current = 0

    def flush_run(key: int, count: int) -> None:
        nonlocal current_seq, rows_for_current
        tc = key % base
        key //= base
        ts = key % base
        key //= base
        pc = key % base
        key //= base
        ps = key % base
        seq = key // base
        if seq != current_seq:
            if current_seq >= 0:
                out_users.append(by_seq[current_seq])
                out_rows_per_user.append(rows_for_current)
            current_seq = seq
            rows_for_current = 0
        out_ps.append(ps)
        out_pc.append(pc)
        out_ts.append(ts)
        out_tc.append(tc)
        out_counts.append(count)
        rows_for_current += 1

    for key in packed:
        if key == previous:
            run += 1
        else:
            if previous is not None:
                flush_run(previous, run)
            previous = key
            run = 1
    if previous is not None:
        flush_run(previous, run)
    if current_seq >= 0:
        out_users.append(by_seq[current_seq])
        out_rows_per_user.append(rows_for_current)

    return {
        "user_ids": out_users,
        "rows_per_user": out_rows_per_user,
        "profile_states": out_ps,
        "profile_counties": out_pc,
        "tweet_states": out_ts,
        "tweet_counties": out_tc,
        "counts": out_counts,
    }


def groupings_from_packed(
    packed: dict[str, array],
    lookup,
    tie_break: TieBreak | None,
) -> dict[int, UserGrouping]:
    """Materialise packed merged columns into per-user groupings.

    Walk the per-user runs, rebuild each distinct row as a
    :class:`MergedString` via ``lookup`` (an interner or lazy string
    table ``lookup(id) -> str``), order with the shared tie-break key,
    and classify.  Output dict order follows the packed user order —
    first-encounter order, as in the reference method.

    Pass ``tie_break=None`` to trust the packed row order instead of
    re-sorting — the columnar study loader does this because its rows
    were stored in final order under a policy it no longer knows.
    """
    sort_key = None if tie_break is None else merged_sort_key(tie_break)
    groupings: dict[int, UserGrouping] = {}
    profile_states = packed["profile_states"]
    profile_counties = packed["profile_counties"]
    tweet_states = packed["tweet_states"]
    tweet_counties = packed["tweet_counties"]
    counts = packed["counts"]
    cursor = 0
    for user_id, row_count in zip(packed["user_ids"], packed["rows_per_user"]):
        rows = [
            MergedString(
                record=LocationString(
                    user_id=user_id,
                    profile_state=lookup(profile_states[index]),
                    profile_county=lookup(profile_counties[index]),
                    tweet_state=lookup(tweet_states[index]),
                    tweet_county=lookup(tweet_counties[index]),
                ),
                count=counts[index],
            )
            for index in range(cursor, cursor + row_count)
        ]
        cursor += row_count
        if sort_key is not None:
            rows.sort(key=sort_key)
        groupings[user_id] = classify_rows(user_id, rows)
    return groupings


def columnar_group_users(
    columns: MatchColumns,
    tie_break: TieBreak = TieBreak.STRING_ASC,
) -> dict[int, UserGrouping]:
    """Run the full grouping method over a columnar batch.

    Drop-in equivalent of :func:`~repro.grouping.topk.group_users` over
    packed columns — identical output, dict order included (property-
    tested in ``tests/columnar/test_grouping.py``).
    """
    packed = merged_rows_packed(columns)
    return groupings_from_packed(packed, columns.interner.lookup, tie_break)


class ColumnarGrouper:
    """Streaming grouping state over interned ids — the columnar
    counterpart of :class:`~repro.grouping.incremental.IncrementalGrouper`.

    Observations fold into per-user counters keyed by 4-tuples of
    interned ids (profile state/county, tweet state/county): no record
    objects, no validation, no string hashing on the hot path.  Strings
    are materialised only when a user is (re)classified or the state is
    exported — and classification output is byte-identical to the
    incremental and batch paths (same rows, same shared sort key, same
    :func:`~repro.grouping.topk.classify_rows`).

    Args:
        tie_break: Equal-count ordering policy (matches the batch path).
        interner: Share a table with the surrounding layer (the
            accumulator's study interner); a private one by default.
    """

    def __init__(
        self,
        tie_break: TieBreak = TieBreak.STRING_ASC,
        interner: StringInterner | None = None,
    ):
        self._tie_break = tie_break
        self._interner = interner if interner is not None else StringInterner()
        self._counts: dict[int, Counter[tuple[int, int, int, int]]] = defaultdict(
            Counter
        )

    @property
    def interner(self) -> StringInterner:
        """The string table the counters' id tuples index into."""
        return self._interner

    # ---------------------------------------------------------------- ingest
    def add(self, observation) -> None:
        """Fold one observation into the per-user interned counters."""
        intern = self._interner.intern
        self._counts[observation.user_id][
            (
                intern(observation.profile_state),
                intern(observation.profile_county),
                intern(observation.tweet_state),
                intern(observation.tweet_county),
            )
        ] += 1

    def add_many(self, observations) -> None:
        """Fold a batch of observations in."""
        for observation in observations:
            self.add(observation)

    # ----------------------------------------------------------------- query
    @property
    def user_ids(self) -> list[int]:
        """Users with at least one observation, sorted."""
        return sorted(self._counts)

    def observation_count(self, user_id: int) -> int:
        """Observations folded in for ``user_id`` (0 if unseen)."""
        if user_id not in self._counts:
            return 0
        return sum(self._counts[user_id].values())

    def classify(self, user_id: int) -> UserGrouping:
        """The user's current grouping (identical to the batch result).

        Raises:
            InsufficientDataError: for a user with no observations.
        """
        counts = self._counts.get(user_id)
        if not counts:
            raise InsufficientDataError(f"user {user_id} has no observations")
        lookup = self._interner.lookup
        rows = [
            MergedString(
                record=LocationString(
                    user_id=user_id,
                    profile_state=lookup(ps),
                    profile_county=lookup(pc),
                    tweet_state=lookup(ts),
                    tweet_county=lookup(tc),
                ),
                count=count,
            )
            for (ps, pc, ts, tc), count in counts.items()
        ]
        rows.sort(key=merged_sort_key(self._tie_break))
        return classify_rows(user_id, rows)

    def group_of(self, user_id: int):
        """Current group, or ``None`` for unseen users (no raising)."""
        if user_id not in self._counts or not self._counts[user_id]:
            return None
        return self.classify(user_id).group

    def classify_all(self) -> dict[int, UserGrouping]:
        """Current groupings for every seen user."""
        return {user_id: self.classify(user_id) for user_id in self._counts}

    def export_counts(self) -> dict[int, dict[str, int]]:
        """Canonical view of the per-user merge counters.

        Identical to :meth:`IncrementalGrouper.export_counts` — rendered
        record form, users ascending, rows sorted by rendered string —
        so checkpoint digests cannot tell the implementations apart.
        """
        lookup = self._interner.lookup
        exported: dict[int, dict[str, int]] = {}
        for user_id in sorted(self._counts):
            rendered = [
                (
                    LocationString(
                        user_id=user_id,
                        profile_state=lookup(ps),
                        profile_county=lookup(pc),
                        tweet_state=lookup(ts),
                        tweet_county=lookup(tc),
                    ).render(),
                    count,
                )
                for (ps, pc, ts, tc), count in self._counts[user_id].items()
            ]
            rendered.sort(key=lambda pair: pair[0])
            exported[user_id] = dict(rendered)
        return exported
