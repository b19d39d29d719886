"""Columnar raw-speed core: interned ids, packed columns, mapped files.

The study's hot paths — grouping, streaming folds, serving lookups — all
shuffle the same few thousand location strings.  This package gives
every layer one representation: a :class:`StringInterner` turns each
string into a stable dense integer once, :class:`MatchColumns` stores
match records as parallel int64 columns over that table, and
:mod:`repro.columnar.share` lays columns out in a single mappable file.

Grouping over this representation (:func:`columnar_group_users`) is an
integer sort plus run-length count, property-tested equal to the
paper's reference method (:func:`~repro.grouping.topk.group_users`);
:mod:`repro.columnar.storage` persists whole studies in the same flat
form for zero-parse serving reloads.

Exports resolve lazily (PEP 562): the base grouping modules import
:mod:`repro.columnar.keys` at module load, so the package body must not
eagerly pull in the higher layers it is imported *by*.
"""

from importlib import import_module

_EXPORTS = {
    "BufferReader": "repro.columnar.share",
    "BufferWriter": "repro.columnar.share",
    "COLUMNAR_FORMAT_VERSION": "repro.columnar.storage",
    "ColumnarGrouper": "repro.columnar.grouping",
    "DELIMITER": "repro.columnar.keys",
    "MAGIC": "repro.columnar.share",
    "MatchColumns": "repro.columnar.records",
    "StringInterner": "repro.columnar.interner",
    "StringTable": "repro.columnar.share",
    "TYPECODE": "repro.columnar.records",
    "columnar_group_users": "repro.columnar.grouping",
    "groupings_from_packed": "repro.columnar.grouping",
    "is_columnar_study": "repro.columnar.storage",
    "load_study_columnar": "repro.columnar.storage",
    "location_key": "repro.columnar.keys",
    "merged_rows_packed": "repro.columnar.grouping",
    "merged_sort_key": "repro.columnar.keys",
    "save_study_columnar": "repro.columnar.storage",
    "study_interner": "repro.columnar.interner",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Resolve a public export from its defining submodule on first use."""
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """Expose the lazy exports to introspection alongside the defaults."""
    return sorted(set(globals()) | set(_EXPORTS))
