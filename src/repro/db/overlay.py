"""Copy-on-write overlay instances: repairs as tuple-level deltas.

The learner never materialises repairs — that is the paper's whole point —
but repair *generation* (the brute-force test oracles, the DLearn-Repaired
and Castor-Clean baselines) previously copied entire
:class:`~repro.db.instance.DatabaseInstance`\\ s per enforcement step:
every MD enforcement rebuilt every relation, every index, every tuple.

Following the modular-materialisation idea (compute only the delta over a
shared base), an :class:`OverlayInstance` is a view over a base instance plus
a **tuple-level delta** per touched relation:

* ``replaced`` — base rows whose id row was rewritten (row handles keep their
  base position, so logical order is preserved);
* ``dropped`` — base rows removed because the rewrite made them identical to
  an earlier row (the engine's set semantics collapse such duplicates);
* ``added`` — id rows appended after the base rows.

Untouched relations are shared with the base outright.  All ids live in the
base instance's interner (appended to, never rewritten), so building an
overlay never decodes, re-interns or re-indexes the untouched majority of the
database.  Probes answer from the base indexes patched with an O(|delta|)
scan, which is cheap because repair deltas are small by construction.

Every read of the :class:`~repro.db.instance.DatabaseInstance` API is
supported, so constraint checkers, the chase, similarity-index construction
and the full learner run over an overlay unchanged; the property suite
asserts observational equality against :meth:`OverlayInstance.materialize`,
which rebuilds a plain instance and remains the reference path.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from .instance import DatabaseInstance
from .interning import ValueId, ValueInterner
from .relation import RelationInstance
from .schema import SchemaError
from .tuples import Tuple

__all__ = ["OverlayInstance", "OverlayRelation"]


def _intern_output(relation_name: str, tup: Tuple, interner: ValueInterner) -> tuple[ValueId, ...]:
    ids = tup.interned_ids(interner)
    if ids is None:
        ids = interner.intern_many(tup.values)
    if tup.relation != relation_name:
        raise ValueError(f"tuple belongs to {tup.relation!r}, not {relation_name!r}")
    return ids


class OverlayRelation:
    """One relation of an overlay: a base relation plus a tuple-level delta.

    Row handles: base rows keep their base positions (with ``dropped`` holes),
    added rows are numbered after the base's physical rows — so ascending
    handles enumerate the logical insertion order, exactly like a plain
    relation.  The base relation must not be mutated once overlaid.
    """

    __slots__ = ("base", "schema", "interner", "_replaced", "_dropped", "_added", "_views", "_has_duplicates", "_canonical")

    def __init__(
        self,
        base: RelationInstance,
        replaced: dict[int, tuple] | None = None,
        dropped: frozenset[int] = frozenset(),
        added: list[tuple] | None = None,
        *,
        has_duplicates: bool | None = None,
    ) -> None:
        self.base = base
        self.schema = base.schema
        self.interner = base.interner
        self._replaced: dict[int, tuple] = replaced or {}
        self._dropped: frozenset[int] = dropped
        self._added: list[tuple] = added if added is not None else []
        self._views: dict[int, Tuple] = {}
        # Transform-built overlays are duplicate-free by construction; a bare
        # wrap inherits the base's duplicates.
        self._has_duplicates = base.has_duplicate_rows() if has_duplicates is None else has_duplicates
        self._canonical: dict[int, int] | None = None

    @classmethod
    def wrap(cls, base: RelationInstance) -> "OverlayRelation":
        return cls(base)

    # ------------------------------------------------------------------ #
    # delta introspection
    # ------------------------------------------------------------------ #
    @property
    def delta_size(self) -> int:
        """Number of tuple-level delta entries (replaced + dropped + added)."""
        return len(self._replaced) + len(self._dropped) + len(self._added)

    def logical_ids(self) -> Iterator[tuple[int | None, tuple]]:
        """Yield ``(base row | None, id row)`` in logical order (added rows → None)."""
        base = self.base
        replaced = self._replaced
        dropped = self._dropped
        for row in range(len(base)):
            if row in dropped:
                continue
            ids = replaced.get(row)
            yield row, (ids if ids is not None else base.row_ids(row))
        for ids in self._added:
            yield None, ids

    # ------------------------------------------------------------------ #
    # insertion (routes through the delta)
    # ------------------------------------------------------------------ #
    def insert(self, values: Mapping[str, object] | tuple | list | Tuple, *, deduplicate: bool = False) -> Tuple:
        if isinstance(values, Tuple):
            ids = _intern_output(self.schema.name, values, self.interner)
        else:
            ids = self.interner.intern_many(Tuple.for_schema(self.schema, values).values)
        if deduplicate and self._has_row_ids(ids):
            return Tuple.from_ids(self.schema.name, ids, self.interner)
        if not deduplicate and self._has_row_ids(ids):
            self._has_duplicates = True
        self._added.append(ids)
        self._canonical = None
        return Tuple.from_ids(self.schema.name, ids, self.interner)

    def insert_many(self, rows: Iterable, *, deduplicate: bool = False) -> int:
        before = len(self._added)
        for row in rows:
            self.insert(row, deduplicate=deduplicate)
        return len(self._added) - before

    def _has_row_ids(self, ids: tuple) -> bool:
        position0 = 0
        for row in self.rows_equal_id(self.schema.attributes[position0].name, ids[position0]):
            if self.row_ids(row) == ids:
                return True
        return False

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.base) - len(self._dropped) + len(self._added)

    def __iter__(self) -> Iterator[Tuple]:
        base_len = len(self.base)
        dropped = self._dropped
        for row in range(base_len):
            if row not in dropped:
                yield self.tuple_at(row)
        for index in range(len(self._added)):
            yield self.tuple_at(base_len + index)

    def __contains__(self, tup: Tuple) -> bool:
        if tup.relation != self.schema.name:
            return False
        ids = tup.interned_ids(self.interner)
        if ids is None:
            ids = tuple(self.interner.id_of(value) for value in tup.values)
        return self._has_row_ids(ids)

    def tuple_at(self, row: int) -> Tuple:
        base_len = len(self.base)
        if row >= base_len:
            view = self._views.get(row)
            if view is None:
                view = Tuple.from_ids(self.schema.name, self._added[row - base_len], self.interner)
                self._views[row] = view
            return view
        ids = self._replaced.get(row)
        if ids is None:
            return self.base.tuple_at(row)
        view = self._views.get(row)
        if view is None:
            view = Tuple.from_ids(self.schema.name, ids, self.interner)
            self._views[row] = view
        return view

    def tuples(self) -> list[Tuple]:
        return list(self)

    def row_ids(self, row: int) -> tuple:
        base_len = len(self.base)
        if row >= base_len:
            return self._added[row - base_len]
        ids = self._replaced.get(row)
        return ids if ids is not None else self.base.row_ids(row)

    def column_ids(self, position: int) -> list:
        """The logical id column of one attribute (built on demand)."""
        return [ids[position] for _, ids in self.logical_ids()]

    def has_duplicate_rows(self) -> bool:
        return self._has_duplicates

    def canonical_rows(self) -> dict[int, int]:
        """Row handle → first handle holding identical contents (see
        :meth:`repro.db.relation.RelationInstance.canonical_rows`)."""
        canonical = self._canonical
        if canonical is None:
            first_of: dict[tuple, int] = {}
            canonical = {}
            base = self.base
            base_len = len(base)
            replaced = self._replaced
            for row in range(base_len):
                if row in self._dropped:
                    continue
                ids = replaced.get(row)
                if ids is None:
                    ids = base.row_ids(row)
                canonical[row] = first_of.setdefault(ids, row)
            for index, ids in enumerate(self._added):
                handle = base_len + index
                canonical[handle] = first_of.setdefault(ids, handle)
            self._canonical = canonical
        return canonical

    # ------------------------------------------------------------------ #
    # index-backed lookups (id-level: base index probe + delta patch)
    # ------------------------------------------------------------------ #
    def rows_equal_id(self, attribute_name: str, key: object) -> tuple[int, ...]:
        position = self.schema.position_of(attribute_name)
        replaced = self._replaced
        dropped = self._dropped
        rows = [
            row
            for row in self.base.rows_equal_id(attribute_name, key)
            if row not in replaced and row not in dropped
        ]
        rows.extend(row for row, ids in replaced.items() if ids[position] == key)
        rows.sort()
        base_len = len(self.base)
        rows.extend(base_len + index for index, ids in enumerate(self._added) if ids[position] == key)
        return tuple(rows)

    def rows_equal_ids(self, attribute_name: str, keys: Iterable[object]) -> dict[object, tuple[int, ...]]:
        return {key: self.rows_equal_id(attribute_name, key) for key in keys}

    def rows_with_id(self, key: object) -> frozenset[int]:
        replaced = self._replaced
        dropped = self._dropped
        rows = {row for row in self.base.rows_with_id(key) if row not in replaced and row not in dropped}
        rows.update(row for row, ids in replaced.items() if key in ids)
        base_len = len(self.base)
        rows.update(base_len + index for index, ids in enumerate(self._added) if key in ids)
        return frozenset(rows)

    def rows_with_ids(self, keys: Iterable[object]) -> dict[object, frozenset[int]]:
        return {key: self.rows_with_id(key) for key in keys}

    def contains_id(self, key: object) -> bool:
        return bool(self.rows_with_id(key))

    # ------------------------------------------------------------------ #
    # index-backed lookups (value-level API)
    # ------------------------------------------------------------------ #
    def select_equal(self, attribute_name: str, value: object) -> list[Tuple]:
        return [self.tuple_at(row) for row in self.rows_equal_id(attribute_name, self.interner.id_of(value))]

    def select_equal_many(self, attribute_name: str, values: Iterable[object]) -> dict[object, list[Tuple]]:
        return {value: self.select_equal(attribute_name, value) for value in values}

    def select_any_attribute(self, values: Iterable[object]) -> list[Tuple]:
        id_of = self.interner.id_of
        rows: set[int] = set()
        for value in values:
            rows |= self.rows_with_id(id_of(value))
        return [self.tuple_at(row) for row in sorted(rows)]

    def rows_with_value(self, value: object) -> frozenset[int]:
        return self.rows_with_id(self.interner.id_of(value))

    def rows_with_values(self, values: Iterable[object]) -> dict[object, frozenset[int]]:
        id_of = self.interner.id_of
        return {value: self.rows_with_id(id_of(value)) for value in values}

    def distinct_values(self, attribute_name: str) -> set[object]:
        position = self.schema.position_of(attribute_name)
        value_of = self.interner.value_of
        return {value_of(ids[position]) for _, ids in self.logical_ids()}

    def contains_value(self, value: object) -> bool:
        return self.contains_id(self.interner.id_of(value))

    # ------------------------------------------------------------------ #
    # copies
    # ------------------------------------------------------------------ #
    def copy(self) -> "OverlayRelation":
        """An independent overlay with a copied delta over the same base."""
        return OverlayRelation(
            self.base,
            dict(self._replaced),
            self._dropped,
            list(self._added),
            has_duplicates=self._has_duplicates,
        )

    def map_tuples(self, transform: Callable[[Tuple], Mapping[str, object] | tuple | list | Tuple]) -> RelationInstance:
        """Materialising map (reference path; overlays use delta transforms)."""
        clone = RelationInstance(self.schema, self.interner)
        for tup in self:
            clone.insert(transform(tup), deduplicate=True)
        return clone

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.schema.name}[{len(self)} tuples, delta {self.delta_size}]"


def _root_relation(relation: RelationInstance | OverlayRelation) -> RelationInstance:
    return relation.base if isinstance(relation, OverlayRelation) else relation


def _transformed_relation(
    relation: RelationInstance | OverlayRelation,
    transform_ids: Callable[[tuple], tuple],
) -> OverlayRelation:
    """Apply an id-row transform with duplicate collapse, as a delta over the root.

    Mirrors the eager ``map_tuples(..., deduplicate=True)`` semantics exactly:
    logical rows are visited in order, the transform is applied, and any row
    equal to an earlier surviving row is dropped.  The result is expressed
    relative to the *root* base relation, so chained transforms never stack
    overlays on overlays.
    """
    root = _root_relation(relation)
    if isinstance(relation, OverlayRelation):
        logical = relation.logical_ids()
        source_replaced = relation._replaced
        # Rows the source delta already collapsed stay collapsed: the walk
        # below never visits them, so they must be carried into the new delta.
        dropped: set[int] = set(relation._dropped)
    else:
        logical = ((row, relation.row_ids(row)) for row in range(len(relation)))
        source_replaced: dict[int, tuple] = {}
        dropped = set()
    replaced: dict[int, tuple] = {}
    added: list[tuple] = []
    seen: set[tuple] = set()
    for row, ids in logical:
        out = transform_ids(ids)
        if out in seen:
            if row is not None:
                dropped.add(row)
            continue
        seen.add(out)
        if row is None:
            added.append(out)
        elif out != ids or row in source_replaced:
            # ``ids`` equals the root's id row unless the source overlay had
            # already replaced this row, so this records exactly the rows
            # whose contents differ from (or were already deltas over) the
            # root.  A replaced entry that happens to equal the root row is
            # harmless — probes treat it as an override with identical ids.
            replaced[row] = out
    return OverlayRelation(root, replaced, frozenset(dropped), added, has_duplicates=False)


class OverlayInstance(DatabaseInstance):
    """A database instance expressed as copy-on-write deltas over a base.

    Reads behave exactly like the materialised counterpart
    (:meth:`materialize` is the reference the property suite compares
    against); transformations (``replace_value_globally``, ``map_relation``,
    ``with_rows``) return new overlays over the *same* root base, merging
    deltas so chains of repairs never deepen the overlay.
    """

    def __init__(
        self,
        base: DatabaseInstance,
        overlays: Mapping[str, OverlayRelation] | None = None,
    ) -> None:
        if isinstance(base, OverlayInstance):
            raise ValueError("overlay bases must be plain instances; use OverlayInstance.over")
        self.base = base
        self.schema = base.schema
        self.interner = base.interner
        relations: dict[str, RelationInstance | OverlayRelation] = dict(base.relations())
        if overlays:
            for name, overlay in overlays.items():
                if name not in relations:
                    raise SchemaError(f"unknown relation {name!r}")
                relations[name] = overlay
        self._relations = relations

    @classmethod
    def over(cls, instance: DatabaseInstance) -> "OverlayInstance":
        """View *instance* through the overlay API (identity for overlays)."""
        if isinstance(instance, OverlayInstance):
            return instance
        return cls(instance)

    # ------------------------------------------------------------------ #
    # delta introspection
    # ------------------------------------------------------------------ #
    def overlay_relations(self) -> dict[str, OverlayRelation]:
        """The touched relations (those carrying a delta)."""
        return {
            name: relation
            for name, relation in self._relations.items()
            if isinstance(relation, OverlayRelation)
        }

    def delta_size(self) -> int:
        """Total tuple-level delta entries across all touched relations."""
        return sum(relation.delta_size for relation in self.overlay_relations().values())

    def mutation_stamp(self) -> tuple:
        """Per-relation row counts plus each overlay delta's composition.

        Row counts alone cannot witness a replaced row (replacement is
        length-preserving), so touched relations contribute their
        replaced/dropped/added sizes as well — any delta change the overlay
        API can express moves the stamp (see
        :meth:`repro.db.instance.DatabaseInstance.mutation_stamp`).
        """
        return tuple(
            (len(relation), len(relation._replaced), len(relation._dropped), len(relation._added))
            if isinstance(relation, OverlayRelation)
            else len(relation)
            for relation in self._relations.values()
        )

    # ------------------------------------------------------------------ #
    # insertion (copy-on-write: base relations are never mutated)
    # ------------------------------------------------------------------ #
    def insert(
        self,
        relation_name: str,
        values: Mapping[str, object] | tuple | list | Tuple,
        *,
        deduplicate: bool = False,
    ) -> Tuple:
        relation = self.relation(relation_name)
        if not isinstance(relation, OverlayRelation):
            relation = OverlayRelation.wrap(relation)
            self._relations[relation_name] = relation
        return relation.insert(values, deduplicate=deduplicate)

    def insert_many(self, relation_name: str, rows: Iterable, *, deduplicate: bool = False) -> int:
        before = len(self.relation(relation_name))
        for row in rows:
            self.insert(relation_name, row, deduplicate=deduplicate)
        return len(self.relation(relation_name)) - before

    # ------------------------------------------------------------------ #
    # transformation (repair generation — the overlay fast paths)
    # ------------------------------------------------------------------ #
    def copy(self) -> "OverlayInstance":
        """An independent overlay: deltas are copied, the base stays shared."""
        return OverlayInstance(
            self.base, {name: overlay.copy() for name, overlay in self.overlay_relations().items()}
        )

    def replace_value_globally(self, old: object, new: object) -> "OverlayInstance":
        """Definition 2.2 as a delta: only rows containing *old* enter the overlay.

        Matches the eager reference
        (:meth:`repro.db.instance.DatabaseInstance.replace_value_globally`)
        exactly, including the set-semantics collapse of rows that become
        identical to an earlier row — which is why relations that contain
        duplicates are reprocessed even when they never mention *old*.
        """
        old_key = self.interner.id_of(old)
        new_key = self.interner.intern(new)

        def transform_ids(ids: tuple) -> tuple:
            if old_key in ids:
                return tuple(new_key if key == old_key else key for key in ids)
            return ids

        overlays: dict[str, OverlayRelation] = {}
        for name, relation in self._relations.items():
            untouched = not relation.contains_id(old_key) and not relation.has_duplicate_rows()
            if untouched:
                if isinstance(relation, OverlayRelation):
                    # Copy the delta: the new instance must own its overlay
                    # relations exclusively, or a later insert into either
                    # instance would mutate both.
                    overlays[name] = relation.copy()
                continue
            overlays[name] = _transformed_relation(relation, transform_ids)
        return OverlayInstance(self.base, overlays)

    def map_relation(self, relation_name: str, transform: Callable[[Tuple], Tuple]) -> "OverlayInstance":
        """Return an overlay with *transform* applied to every tuple of one relation."""
        relation = self.relation(relation_name)
        interner = self.interner

        def transform_ids(ids: tuple) -> tuple:
            tup = Tuple.from_ids(relation_name, ids, interner)
            out = transform(tup)
            if out is tup:
                return ids
            return _intern_output(relation_name, out, interner)

        # Untouched overlay relations are carried as copies so the new
        # instance owns its deltas exclusively (see replace_value_globally).
        overlays = {
            name: overlay.copy()
            for name, overlay in self.overlay_relations().items()
            if name != relation_name
        }
        overlays[relation_name] = _transformed_relation(relation, transform_ids)
        return OverlayInstance(self.base, overlays)

    def materialize(self) -> DatabaseInstance:
        """Rebuild a plain instance with identical contents (the reference path)."""
        materialized = DatabaseInstance(self.schema)
        for name, relation in self._relations.items():
            materialized.insert_many(name, iter(relation))
        return materialized

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, object]:
        """Base storage statistics plus the overlay's delta footprint."""
        stats = self.base.stats()
        stats["overlay"] = True
        stats["rows"] = self.tuple_count()
        stats["replaced_rows"] = sum(len(o._replaced) for o in self.overlay_relations().values())
        stats["dropped_rows"] = sum(len(o._dropped) for o in self.overlay_relations().values())
        stats["added_rows"] = sum(len(o._added) for o in self.overlay_relations().values())
        return stats

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OverlayInstance({self.tuple_count()} tuples, "
            f"delta {self.delta_size()} over {len(self.overlay_relations())} relations)"
        )
