"""Relation instances: columnar id storage plus per-attribute indexes.

A relation stores its tuples as **columns of value ids**: one integer array per attribute, all ids drawn from the owning
database instance's :class:`~repro.db.interning.ValueInterner`.  The indexes
(:class:`~repro.db.index.AttributeIndex` per attribute, one
:class:`~repro.db.index.ValueIndex` across attributes) key on the same ids,
so every probe of the chase and the coverage machinery hashes integers.
:class:`~repro.db.tuples.Tuple` objects are lightweight views created lazily
on first access to a row — a relation that is only ever probed by id never
materialises a tuple at all — and duplicate detection probes the first
attribute's index instead of keeping a per-row key set.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .index import AttributeIndex, ValueIndex
from .interning import ValueId, ValueInterner
from .schema import RelationSchema
from .tuples import Tuple
from .types import coerce_value

__all__ = ["RelationInstance"]


class RelationInstance:
    """All tuples of one relation, with hash indexes maintained on insert.

    Tuples are stored positionally; positions ("rows") are stable for the
    lifetime of the instance and are what the indexes refer to.  The engine
    is insert-only — repairs build *new* instances rather than mutating an
    existing one, mirroring the paper's treatment of repairs as separate
    database instances — so a relation only grows and its row count
    witnesses every write.
    """

    __slots__ = (
        "schema",
        "interner",
        "_columns",
        "_attribute_indexes",
        "_value_index",
        "_views",
        "_dup_cache",
        "_canonical",
    )

    def __init__(self, schema: RelationSchema, interner: ValueInterner | None = None) -> None:
        self.schema = schema
        self.interner = interner if interner is not None else ValueInterner()
        self._columns: list[array] = [array("q") for _ in schema.attributes]
        self._attribute_indexes: list[AttributeIndex] = [AttributeIndex() for _ in schema.attributes]
        self._value_index = ValueIndex()
        #: Lazily materialised tuple views, one slot per row.
        self._views: list[Tuple | None] = []
        #: Memoised has_duplicate_rows() verdict: (row count it was computed
        #: at, verdict).
        self._dup_cache: tuple[int, bool] | None = None
        #: Lazily built canonical-row map (see :meth:`canonical_rows`).
        self._canonical: list[int] | None = None

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def insert(self, values: Mapping[str, object] | tuple | list | Tuple, *, deduplicate: bool = False) -> Tuple:
        """Insert a tuple and update indexes.

        With ``deduplicate=True`` an exactly identical tuple is not stored
        twice (the offered tuple is returned).  Duplicates arising from
        *heterogeneous representations* are of course kept — resolving those
        is the learner's job, not the storage layer's.
        """
        interner = self.interner
        view: Tuple | None = None
        if isinstance(values, Tuple):
            if values.relation != self.schema.name:
                raise ValueError(f"tuple belongs to {values.relation!r}, not {self.schema.name!r}")
            view = values
            ids = values.interned_ids(interner)
            if ids is None:
                ids = interner.intern_many(values.values)
        else:
            ids = self._intern_row(values)
        if deduplicate and self._contains_ids(ids):
            return view if view is not None else Tuple.from_ids(self.schema.name, ids, interner)
        row = len(self._views)
        value_index = self._value_index
        for position, key in enumerate(ids):
            self._columns[position].append(key)
            self._attribute_indexes[position].add(key, row)
        if len(set(ids)) == len(ids):
            for key in ids:
                value_index.add(key, row)
        else:
            for key in dict.fromkeys(ids):
                value_index.add(key, row)
        self._views.append(view)
        self._dup_cache = None
        self._canonical = None
        return view if view is not None else Tuple.from_ids(self.schema.name, ids, interner)

    def _intern_row(self, values: Mapping[str, object] | tuple | list) -> tuple:
        """Coerce raw values to the schema's attribute types and intern them."""
        schema = self.schema
        if isinstance(values, Mapping):
            ordered = [values.get(attribute.name) for attribute in schema.attributes]
        else:
            if len(values) != schema.arity:
                # Route through the schema-aware constructor for its error.
                return self.interner.intern_many(Tuple.for_schema(schema, values).values)
            ordered = values
        intern = self.interner.intern
        return tuple(
            intern(coerce_value(value, attribute.type))
            for value, attribute in zip(ordered, schema.attributes)
        )

    def insert_many(self, rows: Iterable[Mapping[str, object] | tuple | list | Tuple], *, deduplicate: bool = False) -> int:
        """Insert many rows; returns the number of tuples actually stored.

        With ``deduplicate=True`` rows that were already present (or repeat
        within *rows*) are skipped, and the returned count reflects only the
        tuples that entered storage — not the number of rows offered.
        """
        before = len(self._views)
        for row in rows:
            self.insert(row, deduplicate=deduplicate)
        return len(self._views) - before

    def _contains_ids(self, ids: tuple) -> bool:
        """Whether an identical row is already stored.

        Probes the first attribute's index and compares the (usually one)
        candidate row's ids instead of spending a tuple per row.
        """
        columns = self._columns
        # rows_view, not rows_for: a frozen probe result would be thawed
        # again by the add() that usually follows, costing a copy per insert.
        for row in self._attribute_indexes[0].rows_view(ids[0]):
            if all(column[row] == key for column, key in zip(columns, ids)):
                return True
        return False

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._views)

    def __iter__(self) -> Iterator[Tuple]:
        for row in range(len(self._views)):
            yield self.tuple_at(row)

    def __contains__(self, tup: Tuple) -> bool:
        if tup.relation != self.schema.name:
            return False
        ids = tup.interned_ids(self.interner)
        if ids is None:
            ids = tuple(self.interner.id_of(value) for value in tup.values)
        return self._contains_ids(ids)

    def tuple_at(self, row: int) -> Tuple:
        view = self._views[row]
        if view is None:
            view = Tuple.from_ids(self.schema.name, self.row_ids(row), self.interner)
            self._views[row] = view
        return view

    def tuples(self) -> list[Tuple]:
        """Return a (materialised) copy of the tuple list."""
        return [self.tuple_at(row) for row in range(len(self._views))]

    def row_ids(self, row: int) -> tuple[ValueId, ...]:
        """The id row at *row*: one value id per attribute, in schema order."""
        return tuple(column[row] for column in self._columns)

    def column_ids(self, position: int) -> Sequence[ValueId]:
        """The raw id column of one attribute (read-only by convention)."""
        return self._columns[position]

    # ------------------------------------------------------------------ #
    # index-backed lookups (value-level API)
    # ------------------------------------------------------------------ #
    def select_equal(self, attribute_name: str, value: object) -> list[Tuple]:
        """``σ_{A = value}(R)`` using the attribute hash index."""
        position = self.schema.position_of(attribute_name)
        rows = self._attribute_indexes[position].rows_for(self.interner.id_of(value))
        # arch-lint: disable=DT01 — AttributeIndex.rows_for returns an ascending tuple
        return [self.tuple_at(row) for row in rows]

    def select_equal_many(self, attribute_name: str, values: Iterable[object]) -> dict[object, list[Tuple]]:
        """``σ_{A = v}(R)`` for every ``v`` in *values* in one call.

        Every requested value appears in the result (possibly mapped to an
        empty list), so batched callers can distribute tuples per probe value
        without falling back to per-value probes.
        """
        position = self.schema.position_of(attribute_name)
        index = self._attribute_indexes[position]
        id_of = self.interner.id_of
        return {
            # arch-lint: disable=DT01 — AttributeIndex.rows_for returns an ascending tuple
            value: [self.tuple_at(row) for row in index.rows_for(id_of(value))] for value in values
        }

    def select_any_attribute(self, values: Iterable[object]) -> list[Tuple]:
        """``σ_{A ∈ M}(R)`` for every attribute A — tuples containing any value in *values*."""
        id_of = self.interner.id_of
        rows = self._value_index.rows_for_any(id_of(value) for value in values)
        return [self.tuple_at(row) for row in sorted(rows)]

    def rows_with_value(self, value: object) -> frozenset[int]:
        return self._value_index.rows_for(self.interner.id_of(value))

    def rows_with_values(self, values: Iterable[object]) -> dict[object, frozenset[int]]:
        """Rows containing each value in any attribute, resolved in one call.

        The multi-value counterpart of :meth:`rows_with_value`; the batched
        frontier chase uses it to probe the union of many examples' frontier
        values once per chase depth instead of once per example.
        """
        id_of = self.interner.id_of
        return {value: self._value_index.rows_for(id_of(value)) for value in values}

    def distinct_values(self, attribute_name: str) -> set[object]:
        position = self.schema.position_of(attribute_name)
        value_of = self.interner.value_of
        return {value_of(key) for key in self._attribute_indexes[position].values()}

    def contains_value(self, value: object) -> bool:
        return self.interner.id_of(value) in self._value_index

    # ------------------------------------------------------------------ #
    # index-backed lookups (id-level API — what the chase runs on)
    # ------------------------------------------------------------------ #
    def rows_equal_id(self, attribute_name: str, key: ValueId) -> tuple[int, ...]:
        """Rows whose attribute holds value id *key*, ascending."""
        position = self.schema.position_of(attribute_name)
        return self._attribute_indexes[position].rows_for(key)

    def rows_equal_ids(self, attribute_name: str, keys: Iterable[ValueId]) -> dict[ValueId, tuple[int, ...]]:
        position = self.schema.position_of(attribute_name)
        return self._attribute_indexes[position].rows_for_many(keys)

    def rows_with_id(self, key: ValueId) -> frozenset[int]:
        """Rows containing value id *key* in any attribute."""
        return self._value_index.rows_for(key)

    def rows_with_ids(self, keys: Iterable[ValueId]) -> dict[ValueId, frozenset[int]]:
        return self._value_index.rows_for_many(keys)

    def contains_id(self, key: ValueId) -> bool:
        return key in self._value_index

    # Read only by perfbench/tracer.py, which wraps it by name; nothing in src/ calls it.
    def any_rows_table_vectorized(self, keys: Iterable[ValueId]) -> dict[ValueId, frozenset[int]]:
        """Non-empty ``{key → rows containing key in any attribute}`` via the value index."""
        return {key: rows for key, rows in self.rows_with_ids(keys).items() if rows}

    # Read only by perfbench/tracer.py, which wraps it by name; nothing in src/ calls it.
    def rows_equal_ids_vectorized(
        self, attribute_name: str, keys: Iterable[ValueId]
    ) -> dict[ValueId, tuple[int, ...]]:
        """Batched ``σ_{A = v}`` via the attribute index (same as :meth:`rows_equal_ids`)."""
        return self.rows_equal_ids(attribute_name, keys)

    def has_duplicate_rows(self) -> bool:
        """Whether at least two stored rows are exactly identical."""
        count = len(self._views)
        if self._dup_cache is None or self._dup_cache[0] != count:
            distinct = len(set(zip(*self._columns))) if count else 0
            self._dup_cache = (count, distinct < count)
        return self._dup_cache[1]

    def canonical_rows(self) -> list[int]:
        """Row → first row holding identical contents, for value-level dedup.

        The chase de-duplicates gathered tuples *by value* (a duplicate row
        reached along another path must not enter a clause twice); mapping
        every row to its first identical row lets that test compare two
        integers instead of building and hashing an id row per candidate.
        Computed lazily in one pass and cached — the map is a pure function
        of the (insert-only) contents.
        """
        canonical = self._canonical
        if canonical is None or len(canonical) != len(self._views):
            first_of: dict[tuple, int] = {}
            canonical = []
            for row in range(len(self._views)):
                ids = self.row_ids(row)
                canonical.append(first_of.setdefault(ids, row))
            self._canonical = canonical
        return canonical

    # ------------------------------------------------------------------ #
    # copies (used by repair generation)
    # ------------------------------------------------------------------ #
    def copy(self) -> "RelationInstance":
        """A structurally shared copy over the same interner.

        Columns and index entries are duplicated (immutable index entries are
        shared until the copy diverges); nothing is decoded or re-interned.
        """
        clone = RelationInstance(self.schema, self.interner)
        clone._columns = [column[:] for column in self._columns]
        clone._attribute_indexes = [index.copy() for index in self._attribute_indexes]
        clone._value_index = self._value_index.copy()
        clone._views = list(self._views)
        clone._dup_cache = self._dup_cache
        return clone

    def map_tuples(self, transform: Callable[[Tuple], Mapping[str, object] | tuple | list | Tuple]) -> "RelationInstance":
        """Return a new instance with *transform* applied to every tuple."""
        clone = RelationInstance(self.schema, self.interner)
        for tup in self:
            clone.insert(transform(tup), deduplicate=True)
        return clone

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.schema.name}[{len(self)} tuples]"
