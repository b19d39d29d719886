"""Persistent cell store: the geocode service's on-disk cache tier.

One JSONL record per resolved 0.001° cell::

    {"cell": [37517, 127047], "path": ["South Korea", "Seoul", "Gangnam-gu", ""]}
    {"cell": [0, 0], "path": null}

``path: null`` records a *negative* outcome (the backend answered
"nowhere"), which is just as cacheable as a hit — re-asking for the
middle of the ocean every run would defeat the tier.

The file shares the repository-wide journal contract
(:mod:`repro.storage.journal`): append-only, single-flush writes, a torn
final line is dropped on load, corruption anywhere else raises.  Because
cell outcomes are pure functions of the cell key (see
:class:`~repro.geocode.service.GeocodeService`), replaying duplicate
records is harmless — last write wins over identical values — so crash
recovery needs no compaction step.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import StorageError
from repro.geo.region import AdminPath
from repro.storage.journal import append_journal, read_journal

#: A cache cell key: quantised ``(lat, lon)`` indexes.
Cell = tuple[int, int]


def _decode(line: str) -> tuple[Cell, AdminPath | None]:
    data = json.loads(line)
    raw_cell = data["cell"]
    cell = (int(raw_cell[0]), int(raw_cell[1]))
    raw_path = data["path"]
    if raw_path is None:
        return cell, None
    country, state, county, town = (str(part) for part in raw_path)
    return cell, AdminPath(country=country, state=state, county=county, town=town)


class CellStore:
    """Append-only persistent map of cell key -> geocode outcome.

    Args:
        path: JSONL file backing the store; loaded eagerly (torn tail
            dropped), created on the first :meth:`put`.

    Raises:
        StorageError: if a non-final line of an existing file is corrupt.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._cells: dict[Cell, AdminPath | None] = {}
        for cell, outcome in read_journal(
            self._path, _decode, description="cell record"
        ):
            self._cells[cell] = outcome

    @property
    def path(self) -> Path:
        """The backing journal file."""
        return self._path

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._cells

    def get(self, cell: Cell) -> AdminPath | None:
        """The stored outcome for ``cell``.

        Raises:
            KeyError: if the cell has never been stored.
        """
        return self._cells[cell]

    def put(self, cell: Cell, outcome: AdminPath | None) -> None:
        """Record one cell outcome durably (no-op if already identical).

        Raises:
            StorageError: if the journal cannot be created or appended to.
        """
        if cell in self._cells and self._cells[cell] == outcome:
            return
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            append_journal(self._path, [_encode(cell, outcome)])
        except OSError as exc:
            raise StorageError(
                f"cannot write geocode cache {self._path}: {exc}"
            ) from exc
        self._cells[cell] = outcome


def _encode(cell: Cell, outcome: AdminPath | None) -> dict[str, object]:
    return {
        "cell": [cell[0], cell[1]],
        "path": None
        if outcome is None
        else [outcome.country, outcome.state, outcome.county, outcome.town],
    }
