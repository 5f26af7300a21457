"""Hash indexes for the main-memory engine.

Bottom-clause construction repeatedly asks "which tuples of relation R contain
constant ``a`` in attribute ``A``?" (``σ_{A∈M}(R)`` in Algorithm 2).  The
paper implements this with VoltDB's indexes; here each relation instance
maintains

* one :class:`AttributeIndex` per attribute (value id → tuple positions), and
* one :class:`ValueIndex` across all attributes (value id → tuple positions in
  any attribute), which answers "does this relation mention constant ``a``
  anywhere?" in O(1).

Both indexes key on **value ids** (dense integers from the instance's
:class:`~repro.db.interning.ValueInterner`), so steady-state probing hashes
machine integers instead of strings.  Both expose multi-value probes
(``rows_for_many``) so the batched saturation engine can resolve the union of
many examples' frontier values in one walk over the index instead of one
probe per example.

Probe results are immutable and frozen lazily: entries are appended to while
the relation loads and converted to an immutable ``tuple`` / ``frozenset`` on
first probe, so steady-state probing never copies and callers can never
corrupt the index by mutating a result (PR 3 fixed ``AttributeIndex`` this
way; ``ValueIndex`` now follows the same discipline instead of handing out
freshly built — or, worse, internal — mutable sets).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .interning import ValueId

__all__ = ["AttributeIndex", "ValueIndex"]

_EMPTY_FROZENSET: frozenset[int] = frozenset()


class AttributeIndex:
    """Hash index on a single attribute: value id → row positions.

    Rows are recorded in insertion order; because row numbers are assigned
    monotonically, every entry is ascending.  Probes return immutable tuples —
    entries are frozen lazily on first lookup, so steady-state probing does
    not copy.

    Entries are **singleton-compacted**: most (value, attribute) pairs map to
    exactly one row, and a bare ``int`` costs a fraction of a one-element
    list, so single rows are stored unboxed and promoted to a list / frozen
    tuple only when a second row or a probe arrives.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        # int (single unprobed row) | list (still being appended) | tuple
        # (frozen on first probe).
        self._entries: dict[ValueId,int | list[int] | tuple[int, ...]] = {}

    def add(self, key: ValueId, row: int) -> None:
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = row
        elif type(entry) is int:
            self._entries[key] = [entry, row]
        elif type(entry) is tuple:
            self._entries[key] = [*entry, row]
        else:
            entry.append(row)

    def rows_for(self, key: ValueId) -> tuple[int, ...]:
        """Row positions whose attribute equals *key*, ascending (empty tuple if none).

        The returned tuple is immutable; callers cannot corrupt the index by
        mutating a probe result.
        """
        entry = self._entries.get(key)
        if entry is None:
            return ()
        if type(entry) is not tuple:
            entry = (entry,) if type(entry) is int else tuple(entry)
            self._entries[key] = entry
        return entry

    def rows_view(self, key: ValueId) -> Sequence[int]:
        """Iterable over the rows of *key* without freezing the entry.

        Internal helper for membership scans on insert paths: probing through
        :meth:`rows_for` would freeze the entry to a tuple, and the next
        ``add`` would have to copy it back to a list — a freeze/thaw cycle
        per insert that makes deduplicating loads quadratic.  The returned
        object must not be stored or mutated.
        """
        entry = self._entries.get(key)
        if entry is None:
            return ()
        return (entry,) if type(entry) is int else entry

    def rows_for_many(self, keys: Iterable[ValueId]) -> dict[ValueId,tuple[int, ...]]:
        """Batch counterpart of :meth:`rows_for`: key → ascending row positions.

        Per-key cost equals :meth:`rows_for` (hash probes, not a scan); the
        point is the interface — every requested key appears in the result
        (missing keys map to the empty tuple), so batched callers can
        resolve a whole probe set in one call and distribute rows per key.
        """
        return {key: self.rows_for(key) for key in keys}

    def values(self) -> Iterator[ValueId]:
        return iter(self._entries)

    def copy(self) -> "AttributeIndex":
        """Structural copy; immutable entries are shared, live lists are copied."""
        clone = AttributeIndex()
        clone._entries = {
            key: list(entry) if type(entry) is list else entry for key, entry in self._entries.items()
        }
        return clone

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: ValueId) -> bool:
        return key in self._entries


class ValueIndex:
    """Inverted index across all attributes of a relation: value id → rows.

    Maps every value id occurring anywhere in the relation to the rows that
    contain it in at least one attribute.  This is what the frontier chase
    probes once per (relation, frontier value) pair, so entries are stored as
    singleton-compacted row lists while loading and frozen to
    :class:`frozenset` on first probe — the probe result is shared, immutable,
    and never rebuilt.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        # int (single unprobed row) | list (still being appended) | frozenset
        # (frozen on first probe).
        self._entries: dict[ValueId,int | list[int] | frozenset[int]] = {}

    def add(self, key: ValueId, row: int) -> None:
        """Record that *row* contains *key* (callers dedupe per-row repeats)."""
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = row
        elif type(entry) is int:
            self._entries[key] = [entry, row]
        elif type(entry) is frozenset:
            self._entries[key] = [*entry, row]
        else:
            entry.append(row)

    def rows_for(self, key: ValueId) -> frozenset[int]:
        """All rows in which *key* occurs in any attribute, as an immutable frozenset.

        Frozen lazily on first probe and cached, so repeated probes return
        the same shared object and callers can never mutate index internals.
        """
        entry = self._entries.get(key)
        if entry is None:
            return _EMPTY_FROZENSET
        if type(entry) is not frozenset:
            entry = frozenset((entry,)) if type(entry) is int else frozenset(entry)
            self._entries[key] = entry
        return entry

    def rows_for_any(self, keys: Iterable[ValueId]) -> set[int]:
        rows: set[int] = set()
        for key in keys:
            rows |= self.rows_for(key)
        return rows

    def rows_for_many(self, keys: Iterable[ValueId]) -> dict[ValueId,frozenset[int]]:
        """Batch counterpart of :meth:`rows_for`: key → rows containing it anywhere.

        Every requested key appears in the result (missing keys map to an
        empty frozenset).  The batched frontier chase resolves the union of
        all examples' frontier values through one such call per relation and
        depth, then shares the per-value results between every example whose
        frontier contains the value.
        """
        return {key: self.rows_for(key) for key in keys}

    def values(self) -> Iterator[ValueId]:
        return iter(self._entries)

    def copy(self) -> "ValueIndex":
        """Structural copy; immutable entries are shared, live lists are copied."""
        clone = ValueIndex()
        clone._entries = {
            key: list(entry) if type(entry) is list else entry
            for key, entry in self._entries.items()
        }
        return clone

    def __contains__(self, key: ValueId) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)
