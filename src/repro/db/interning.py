"""Per-instance value dictionaries: value ⇄ dense integer id.

The storage core stores every attribute value exactly once and refers to it
everywhere else — columns, indexes, chase frontiers, cache keys — by a dense
integer id.  This is the enabling change for cheap storage and cheap probes:

* hashing and comparing an ``int`` is O(1) and allocation-free, while the raw
  string values the engine previously carried through every index probe and
  frontier set pay per-character hashing and equality;
* equal values loaded from different rows (or different relations) collapse
  to a single Python object, so the decoded views the clause layer sees hit
  CPython's pointer-equality fast path on comparison;
* dense ids make columns plain integer arrays, which is what later work needs
  to ship, mmap, or swap columns for numpy buffers without touching the
  learner (see ROADMAP "Open items").

Every :class:`~repro.db.instance.DatabaseInstance` owns one
:class:`ValueInterner`.  Ids are only meaningful relative to the interner
that produced them.  Interners are append-only and never forget a value, so
an id, once handed out, stays valid for the lifetime of every instance sharing the dictionary —
including the copies and repairs derived from an instance, which share its
interner by construction.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, NewType

__all__ = ["ValueId", "ValueInterner", "MISSING_ID"]

#: Opaque alias for the dense value ids handed out by interners.  A distinct
#: type (rather than ``int``) lets mypy catch the two classic id-plane bugs
#: statically: passing a decoded *value* where an id is expected, and mixing
#: value ids with the term-id plane of :mod:`repro.logic.compiled`.  At
#: runtime a ``ValueId`` is exactly an ``int``.
ValueId = NewType("ValueId", int)

#: Id returned by :meth:`ValueInterner.id_of` for values never interned.
#: Negative, so it misses every id-keyed dict/index probe naturally — call
#: sites need no branching to handle unseen values.
MISSING_ID = ValueId(-1)


class ValueInterner:
    """A bidirectional dictionary assigning dense integer ids to values.

    Values must be hashable (the engine stores strings, numbers, booleans and
    ``None``).  Ids are assigned in first-seen order starting at 0, so a
    deterministic load order yields a deterministic dictionary.

    Ids are **type-aware**: Python's dict equality would fold ``1``, ``1.0``
    and ``True`` into one key, and decoding would then silently rewrite
    booleans to integers (and similar).  Interning keys on
    ``(type, value)`` — with a fast path for strings, the dominant case — so
    every stored value round-trips with its exact type.  Strings are keyed
    directly: equal strings share one id and one object, which is the whole
    point of the dictionary.
    """

    __slots__ = ("_str_ids", "_other_ids", "_values")

    def __init__(self, values: Iterable[Hashable] = ()) -> None:
        self._str_ids: dict[str, ValueId] = {}
        self._other_ids: dict[tuple[type, Hashable], ValueId] = {}
        self._values: list[Hashable] = []
        for value in values:
            self.intern(value)

    def intern(self, value: Hashable) -> ValueId:
        """Return the id of *value*, assigning the next dense id on first sight."""
        # ValueId() wrapping only happens on the cold first-sight path; hits
        # return the already-typed id straight out of the dict.
        if type(value) is str:
            vid = self._str_ids.get(value)
            if vid is None:
                vid = ValueId(len(self._values))
                self._str_ids[value] = vid
                self._values.append(value)
            return vid
        key = (value.__class__, value)
        vid = self._other_ids.get(key)
        if vid is None:
            vid = ValueId(len(self._values))
            self._other_ids[key] = vid
            self._values.append(value)
        return vid

    def intern_many(self, values: Iterable[Hashable]) -> tuple[ValueId, ...]:
        intern = self.intern
        return tuple(intern(value) for value in values)

    def id_of(self, value: Hashable) -> ValueId:
        """The id of *value*, or :data:`MISSING_ID` when it was never interned."""
        if type(value) is str:
            return self._str_ids.get(value, MISSING_ID)
        return self._other_ids.get((value.__class__, value), MISSING_ID)

    def value_of(self, vid: ValueId) -> Hashable:
        """Decode one id back to its value (the single shared object)."""
        return self._values[vid]

    def decode_many(self, ids: Iterable[ValueId]) -> tuple[Hashable, ...]:
        values = self._values
        return tuple(values[vid] for vid in ids)

    def __contains__(self, value: Hashable) -> bool:
        return self.id_of(value) != MISSING_ID

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> Iterator[Hashable]:
        """All interned values in id order."""
        return iter(self._values)

    # -- read-only snapshots (the sharded process plane) ----------------- #
    def watermark(self) -> int:
        """Number of ids handed out so far — the append-only high-water mark."""
        return len(self._values)

    def snapshot_flags(self, start: int = 0) -> tuple[int, int, bytes]:
        """``(start, watermark, flags)`` — the is-string plane of ids ``[start, watermark)``.

        One byte per id: 1 when the value is a string, 0 otherwise.  This is
        the only per-id fact the sharded chase plane needs (the chaseability
        type test of :meth:`repro.core.saturation.FrontierChase._chaseable`
        is ``isinstance(value, str)``); shard workers rebuild a
        :class:`~repro.db.sharding.ValueInternerView` from these bytes and
        never see a decoded value.  The interner is append-only, so a worker
        seeded at one watermark is brought current by the delta
        ``snapshot_flags(worker_watermark)``.  There is no lock here: a
        ``ValueInterner`` is owned by one instance and mutated only from the
        thread driving it.
        """
        mark = len(self._values)
        return start, mark, bytes(
            1 if isinstance(value, str) else 0 for value in self._values[start:mark]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValueInterner({len(self)} values)"
