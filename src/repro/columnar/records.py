"""Packed match-record columns — the study's rows as flat int64 arrays.

A :class:`~repro.twitter.models.GeotaggedObservation` is five strings and
two integers in a Python object; a million of them is a million boxed
objects to hash and compare.  :class:`MatchColumns` stores the same
information as six parallel ``array('q')`` columns over a
:class:`~repro.columnar.interner.StringInterner` — user id, interned
profile state/county, interned tweet state/county, timestamp — so the
grouping stage sorts and counts plain integers
(:func:`~repro.columnar.grouping.merged_rows_packed`).

Construction preserves row order exactly, and
:meth:`MatchColumns.to_observations` restores the original objects bit
for bit.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Sequence

from repro.columnar.interner import StringInterner
from repro.errors import ConfigurationError
from repro.twitter.models import GeotaggedObservation

#: The array typecode every column uses: signed 64-bit, fixed width.
TYPECODE = "q"


class MatchColumns:
    """Parallel int64 columns over one interner — the columnar batch.

    Attributes:
        interner: The string table every ``*_id`` column indexes into.
        user_ids: Author id per row.
        profile_states / profile_counties: Interned profile district.
        tweet_states / tweet_counties: Interned tweet district.
        timestamps_ms: Posting time per row.
    """

    __slots__ = (
        "interner",
        "user_ids",
        "profile_states",
        "profile_counties",
        "tweet_states",
        "tweet_counties",
        "timestamps_ms",
    )

    def __init__(
        self,
        interner: StringInterner,
        user_ids: Sequence[int],
        profile_states: Sequence[int],
        profile_counties: Sequence[int],
        tweet_states: Sequence[int],
        tweet_counties: Sequence[int],
        timestamps_ms: Sequence[int],
    ) -> None:
        lengths = {
            len(user_ids),
            len(profile_states),
            len(profile_counties),
            len(tweet_states),
            len(tweet_counties),
            len(timestamps_ms),
        }
        if len(lengths) != 1:
            raise ConfigurationError(
                f"match columns must be parallel; got lengths {sorted(lengths)}"
            )
        self.interner = interner
        self.user_ids = user_ids
        self.profile_states = profile_states
        self.profile_counties = profile_counties
        self.tweet_states = tweet_states
        self.tweet_counties = tweet_counties
        self.timestamps_ms = timestamps_ms

    def __len__(self) -> int:
        return len(self.user_ids)

    @classmethod
    def from_observations(
        cls,
        observations: Iterable[GeotaggedObservation],
        interner: StringInterner | None = None,
    ) -> "MatchColumns":
        """Pack observation rows into columns, interning as encountered.

        The interning sweep order (profile state, profile county, tweet
        state, tweet county per row) matches
        :func:`~repro.columnar.interner.study_interner`, so a batch built
        here carries the same table a study's canonical interner would.
        """
        interner = interner if interner is not None else StringInterner()
        intern = interner.intern
        user_ids = array(TYPECODE)
        profile_states = array(TYPECODE)
        profile_counties = array(TYPECODE)
        tweet_states = array(TYPECODE)
        tweet_counties = array(TYPECODE)
        timestamps_ms = array(TYPECODE)
        # Bound appends hoisted out of the loop: this sweep runs once per
        # observation on the engine's hot path, so the six attribute
        # lookups per row are worth eliding.
        append_user = user_ids.append
        append_ps = profile_states.append
        append_pc = profile_counties.append
        append_ts = tweet_states.append
        append_tc = tweet_counties.append
        append_time = timestamps_ms.append
        for observation in observations:
            append_user(observation.user_id)
            append_ps(intern(observation.profile_state))
            append_pc(intern(observation.profile_county))
            append_ts(intern(observation.tweet_state))
            append_tc(intern(observation.tweet_county))
            append_time(observation.timestamp_ms)
        return cls(
            interner,
            user_ids,
            profile_states,
            profile_counties,
            tweet_states,
            tweet_counties,
            timestamps_ms,
        )

    def row(self, index: int) -> GeotaggedObservation:
        """Materialise one row back into its observation object."""
        lookup = self.interner.lookup
        return GeotaggedObservation(
            user_id=self.user_ids[index],
            profile_state=lookup(self.profile_states[index]),
            profile_county=lookup(self.profile_counties[index]),
            tweet_state=lookup(self.tweet_states[index]),
            tweet_county=lookup(self.tweet_counties[index]),
            timestamp_ms=self.timestamps_ms[index],
        )

    def to_observations(self) -> list[GeotaggedObservation]:
        """Materialise every row, in order (the inverse of packing)."""
        lookup = self.interner.lookup
        return [
            GeotaggedObservation(
                user_id=uid,
                profile_state=lookup(ps),
                profile_county=lookup(pc),
                tweet_state=lookup(ts),
                tweet_county=lookup(tc),
                timestamp_ms=tms,
            )
            for uid, ps, pc, ts, tc, tms in zip(
                self.user_ids,
                self.profile_states,
                self.profile_counties,
                self.tweet_states,
                self.tweet_counties,
                self.timestamps_ms,
            )
        ]
