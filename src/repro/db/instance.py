"""Database instances: a set of relation instances over a schema."""

from __future__ import annotations

import hashlib
import sys
from typing import Callable, Iterable, Iterator, Mapping

from .interning import MISSING_ID, ValueId, ValueInterner
from .relation import RelationInstance
from .schema import DatabaseSchema, RelationSchema, SchemaError
from .tuples import Tuple

__all__ = ["DatabaseInstance"]


class DatabaseInstance:
    """An instance ``I`` of a database schema ``S`` (Section 2.1).

    The instance owns one :class:`RelationInstance` per relation of the
    schema, plus the **value interner** all of them share: every attribute
    value is stored once and referred to by a dense integer id in columns,
    indexes, chase frontiers and cache keys (see :mod:`repro.db.interning`).
    It is the object every other subsystem works against: the bottom-clause
    constructor runs indexed selections over it, constraint checkers scan it
    for violations, and repair generation builds new instances from it.
    """

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self.interner = ValueInterner()
        self._relations: dict[str, RelationInstance] = {
            relation_schema.name: RelationInstance(relation_schema, self.interner)
            for relation_schema in schema
        }

    # ------------------------------------------------------------------ #
    # insertion / access
    # ------------------------------------------------------------------ #
    def relation(self, name: str) -> RelationInstance:
        try:
            return self._relations[name]
        except KeyError as exc:
            raise SchemaError(f"unknown relation {name!r}") from exc

    def insert(
        self,
        relation_name: str,
        values: Mapping[str, object] | tuple | list | Tuple,
        *,
        deduplicate: bool = False,
    ) -> Tuple:
        return self.relation(relation_name).insert(values, deduplicate=deduplicate)

    def insert_many(self, relation_name: str, rows: Iterable, *, deduplicate: bool = False) -> int:
        return self.relation(relation_name).insert_many(rows, deduplicate=deduplicate)

    def __iter__(self) -> Iterator[RelationInstance]:
        return iter(self._relations.values())

    def relations(self) -> dict[str, RelationInstance]:
        return dict(self._relations)

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def tuple_count(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(relation) for relation in self._relations.values())

    def tuple_counts(self) -> dict[str, int]:
        return {name: len(relation) for name, relation in self._relations.items()}

    # ------------------------------------------------------------------ #
    # interning helpers (id-level API)
    # ------------------------------------------------------------------ #
    def intern(self, value: object) -> ValueId:
        """The value id of *value*, assigning one on first sight."""
        return self.interner.intern(value)

    def id_of(self, value: object) -> ValueId:
        """The value id of *value* (:data:`~repro.db.interning.MISSING_ID` if unseen)."""
        return self.interner.id_of(value)

    def intern_values(self, values: Iterable[object]) -> tuple[ValueId, ...]:
        """Intern a value sequence to an id tuple — the canonical cache key.

        The saturation and coverage caches key their per-example entries on
        this: an id tuple hashes and compares as machine integers instead of
        re-hashing the example's strings on every lookup.
        """
        return self.interner.intern_many(values)

    def id_frequency(self, key: ValueId) -> int:
        """Number of tuples (across all relations) containing value id *key*."""
        if key == MISSING_ID:
            return 0
        return sum(len(relation.rows_with_id(key)) for relation in self._relations.values())

    # ------------------------------------------------------------------ #
    # queries used by Algorithm 2
    # ------------------------------------------------------------------ #
    def select_equal(self, relation_name: str, attribute_name: str, value: object) -> list[Tuple]:
        return self.relation(relation_name).select_equal(attribute_name, value)

    def select_equal_many(self, relation_name: str, attribute_name: str, values: Iterable[object]) -> dict[object, list[Tuple]]:
        """Batched ``σ_{A = v}(R)`` for many values in one call."""
        return self.relation(relation_name).select_equal_many(attribute_name, values)

    def tuples_containing(self, relation_name: str, values: Iterable[object]) -> list[Tuple]:
        """``σ_{A∈M}(R)`` over every attribute of the relation."""
        return self.relation(relation_name).select_any_attribute(values)

    def all_tuples(self) -> Iterator[Tuple]:
        for relation in self._relations.values():
            yield from relation

    def value_frequency(self, value: object) -> int:
        """Number of tuples (across all relations) containing *value* in any attribute."""
        return self.id_frequency(self.interner.id_of(value))

    # ------------------------------------------------------------------ #
    # transformation (repair generation)
    # ------------------------------------------------------------------ #
    def copy(self) -> "DatabaseInstance":
        """An independent copy sharing this instance's (append-only) interner."""
        clone = DatabaseInstance.__new__(DatabaseInstance)
        clone.schema = self.schema
        clone.interner = self.interner
        clone._relations = {name: relation.copy() for name, relation in self._relations.items()}
        return clone

    def map_relation(self, relation_name: str, transform: Callable[[Tuple], Tuple]) -> "DatabaseInstance":
        """Return a copy with *transform* applied to every tuple of one relation.

        Rows the transform makes identical to an earlier row collapse into
        it (set semantics); the other relations are copied unchanged.  This
        is how :func:`repro.constraints.repairs.minimal_cfd_repair` and
        :func:`repro.baselines.resolve_entities` build their repairs.
        """
        clone = DatabaseInstance.__new__(DatabaseInstance)
        clone.schema = self.schema
        clone.interner = self.interner
        clone._relations = {
            name: (relation.map_tuples(transform) if name == relation_name else relation.copy())
            for name, relation in self._relations.items()
        }
        return clone

    def replace_value_globally(self, old: object, new: object) -> "DatabaseInstance":
        """Return a copy in which every occurrence of *old* is replaced by *new*.

        This is the semantics of enforcing an MD (Definition 2.2): the two
        unified values are made identical everywhere they appear, and rows
        that become identical to an earlier row collapse into it (set
        semantics), in every relation.  :func:`repro.constraints.repairs.enforce_md`
        builds its repairs with it.
        """
        clone = DatabaseInstance.__new__(DatabaseInstance)
        clone.schema = self.schema
        clone.interner = self.interner
        clone._relations = {
            name: relation.map_tuples(lambda tup: tup.replace_value(old, new))
            for name, relation in self._relations.items()
        }
        return clone

    def with_rows(self, rows: Mapping[str, Iterable]) -> "DatabaseInstance":
        """Return a copy with extra rows inserted (keyed by relation name)."""
        clone = self.copy()
        for relation_name, relation_rows in rows.items():
            clone.insert_many(relation_name, relation_rows)
        return clone

    # ------------------------------------------------------------------ #
    # content identity
    # ------------------------------------------------------------------ #
    def mutation_stamp(self) -> tuple:
        """Cheap token that changes whenever this instance's contents change in place.

        Instances are insert-only (repairs build new instances), so
        per-relation row counts witness every in-place mutation: ``insert``
        is the only in-place write.  Session-level caches that derive
        state from the database (prepared ground clauses, coverage verdicts,
        chase memos) compare stamps to detect that the instance they were
        built over has been mutated underneath them — orders of magnitude
        cheaper than :meth:`content_fingerprint`, and exact for every
        mutation the public API can express.
        """
        return tuple(len(relation) for relation in self._relations.values())

    def content_fingerprint(self) -> str:
        """Deterministic digest of the instance's full contents.

        Two instances share a fingerprint iff every relation holds the same
        tuples in the same insertion order, so the digest witnesses the
        byte-identical reproducibility the scenario generator promises for a
        fixed seed.  Relations are visited in sorted-name order, making the
        digest independent of schema declaration order — and the digest is
        computed over decoded values, making it independent of interner id
        assignment.
        """
        digest = hashlib.sha256()
        for name in sorted(self._relations):
            digest.update(name.encode("utf-8"))
            for tup in self._relations[name]:
                digest.update(repr(tup.values).encode("utf-8"))
        return digest.hexdigest()

    def content_equals(self, other: "DatabaseInstance") -> bool:
        """Whether both instances store exactly the same tuples (order included)."""
        return self.content_fingerprint() == other.content_fingerprint()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, object]:
        """Storage statistics: rows, distinct values, approximate resident bytes.

        Byte counts are estimates from ``sys.getsizeof`` over the owned
        containers (columns, index dictionaries, the interner's dictionary
        and value list) — close enough to watch growth, not an exact heap
        measurement.
        """
        rows = self.tuple_count()
        column_bytes = 0
        index_bytes = 0
        for relation in self._relations.values():
            for position in range(relation.schema.arity):
                column = relation.column_ids(position)
                column_bytes += sys.getsizeof(column)
                index = relation._attribute_indexes[position]
                index_bytes += sys.getsizeof(index._entries)
                index_bytes += sum(
                    sys.getsizeof(entry) for entry in index._entries.values() if type(entry) is not int
                )
            value_entries = relation._value_index._entries
            index_bytes += sys.getsizeof(value_entries)
            index_bytes += sum(sys.getsizeof(entry) for entry in value_entries.values() if type(entry) is not int)
        interner_bytes = (
            sys.getsizeof(self.interner._str_ids)
            + sys.getsizeof(self.interner._other_ids)
            + sys.getsizeof(self.interner._values)
            + sum(sys.getsizeof(value) for value in self.interner.values())
        )
        return {
            "relations": len(self._relations),
            "rows": rows,
            "distinct_values": len(self.interner),
            "approx_column_bytes": column_bytes,
            "approx_index_bytes": index_bytes,
            "approx_interner_bytes": interner_bytes,
            "approx_total_bytes": column_bytes + index_bytes + interner_bytes,
        }

    def describe(self) -> str:
        lines = [f"{name}: {len(relation)} tuples" for name, relation in sorted(self._relations.items())]
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatabaseInstance({self.tuple_count()} tuples over {len(self._relations)} relations)"
