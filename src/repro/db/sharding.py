"""Row-wise sharded instances: the storage side of the scatter/gather chase.

A :class:`~repro.db.instance.DatabaseInstance` is (interner + id columns +
id-keyed indexes), so it can outgrow one process: this module partitions every
relation **row-wise** into K shards over a shared read-only
:class:`~repro.db.interning.ValueInterner` snapshot.  Each shard holds its
rows' id columns, the matching global row numbers, and its own insert-time
:class:`~repro.db.index.AttributeIndex`/:class:`~repro.db.index.ValueIndex`
keyed directly on **global** rows — so a shard answers the chase's two probe
shapes (membership: "rows containing id ``v`` anywhere"; equality: "rows whose
attribute ``A`` equals ``v``") locally, in global row terms, with the same
insert-time hash indexes the unsharded relation uses (the PR 7 finding:
warm hash indexes beat dense passes at every probed size).

Identity by construction:

* rows are routed by a **deterministic pure-arithmetic hash** of the routing
  column's value id (:func:`shard_of`) — parent and worker processes agree on
  the partition regardless of interpreter hash seeds;
* every row lives in exactly one shard, and each shard receives its rows in
  ascending global order, so per-shard probe answers are disjoint ascending
  row sets whose union/merge (:func:`merge_membership` /
  :func:`merge_equality`) is *equal* to the unsharded index answer;
* relations are insert-only, so a relation's row count says which of its
  rows are routed: :meth:`ShardedInstance.sync` routes exactly the rows past
  it, and :meth:`ShardedInstance.materialize` gathers a fingerprint-identical
  plain instance back from the shards.

Process boundary: a shard crosses once, as a byte wire form
(:meth:`RelationShard.to_wire` — ``array('q')`` buffers, no Python object
graph).  Later dispatches carry only interner flag
deltas (:meth:`~repro.db.interning.ValueInterner.snapshot_flags`), id
frontiers, and the row appends routed by :meth:`ShardedInstance.sync`.
Workers rebuild a :class:`ValueInternerView` — the is-string flag plane,
never decoded values — whose watermark guards against a desynchronised
dispatch.  The scatter/gather pool itself lives in :mod:`repro.core.fanout`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence, cast

from .index import AttributeIndex, ValueIndex
from .instance import DatabaseInstance
from .interning import ValueId, ValueInterner
from .schema import RelationSchema

__all__ = [
    "RelationShard",
    "ShardWire",
    "ShardedInstance",
    "ShardedRelation",
    "ValueInternerView",
    "merge_equality",
    "merge_membership",
    "shard_of",
]

#: 64-bit golden-ratio multiplier (Fibonacci hashing): scrambles the dense,
#: sequential value ids so consecutive ids do not land on consecutive shards.
_ROUTE_MULTIPLIER = 0x9E3779B97F4A7C15
_MASK_64 = (1 << 64) - 1

#: Wire form of one relation shard: ``(relation name, shard index, one bytes
#: buffer per id column, the global-row bytes buffer)``.  Plain bytes and
#: strings — crosses the process boundary without pickling an object graph.
ShardWire = tuple[str, int, tuple[bytes, ...], bytes]

#: Row delta appended to an already-shipped shard: ``(global row, id row)``
#: pairs in ascending global order.
RowDelta = tuple[tuple[int, tuple[ValueId, ...]], ...]


def shard_of(key: int, shard_count: int) -> int:
    """The shard a routing value id belongs to — deterministic, pure arithmetic.

    Multiplicative hashing over the 64-bit ring, high bits taken before the
    modulus: cheap, stable across processes and platforms (no dependence on
    ``PYTHONHASHSEED``), and spreads the dense id space evenly even for the
    small consecutive ids a fresh interner hands out.
    """
    return (((key * _ROUTE_MULTIPLIER) & _MASK_64) >> 32) % shard_count


class ValueInternerView:
    """Read-only flags plane of a :class:`~repro.db.interning.ValueInterner`.

    Shard workers never decode values — probes are id-keyed end to end — so
    the only per-id fact that crosses the process boundary is the is-string
    flag (the chaseability type test).  The view is append-only and extended
    by the deltas each dispatch carries; its watermark doubles as a desync
    guard (a frontier id beyond the watermark means a lost delta).
    Re-delivery is idempotent, a gap raises ``ValueError``, and every
    value-level surface raises ``TypeError``.
    """

    __slots__ = ("_is_str",)

    def __init__(self) -> None:
        self._is_str = bytearray()

    def extend(self, start: int, mark: int, flags: bytes) -> None:
        """Apply a flag delta covering ids ``[start, mark)``.

        Idempotent: a delta at or below the current watermark is a no-op, so
        re-delivery (a retried dispatch) is safe.  A delta starting beyond
        the watermark means a skipped delta — that is a protocol bug, not a
        recoverable condition, and raises.
        """
        have = len(self._is_str)
        if mark <= have:
            return
        if start > have:
            raise ValueError(
                f"interner delta starts at {start} but the view holds {have} ids — a delta was lost"
            )
        self._is_str.extend(flags[have - start :])

    def is_string(self, vid: ValueId) -> bool:
        """Whether id *vid* decodes to a string (the chaseability type test)."""
        return bool(self._is_str[vid])

    def watermark(self) -> int:
        return len(self._is_str)

    def __len__(self) -> int:
        return len(self._is_str)

    # -- refused surfaces: the view must never masquerade as the interner -- #
    def intern(self, value: object) -> ValueId:
        raise TypeError("ValueInternerView is read-only: workers must never intern values")

    def id_of(self, value: object) -> ValueId:
        raise TypeError("ValueInternerView holds flags only: value lookups belong to the parent")

    def value_of(self, vid: ValueId) -> object:
        raise TypeError("ValueInternerView holds flags only: ids cannot be decoded in a worker")

    def decode_many(self, ids: Iterable[ValueId]) -> tuple[object, ...]:
        raise TypeError("ValueInternerView holds flags only: ids cannot be decoded in a worker")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ValueInternerView({len(self)} ids)"


class RelationShard:
    """One shard's rows of one relation: id columns + global rows + indexes.

    Rows arrive in ascending global order (enforced), and the indexes are
    keyed on the **global** row numbers directly — so probe answers need no
    local→global translation, entries stay ascending exactly like the
    unsharded relation's, and the index machinery (singleton compaction,
    lazy freezing, shared immutable probe results) is reused unchanged.
    """

    __slots__ = ("name", "shard_index", "_columns", "_global_rows", "_attribute_indexes", "_value_index")

    def __init__(self, name: str, arity: int, shard_index: int) -> None:
        self.name = name
        self.shard_index = shard_index
        self._columns: list[array[int]] = [array("q") for _ in range(arity)]
        self._global_rows: array[int] = array("q")
        self._attribute_indexes: list[AttributeIndex] = [AttributeIndex() for _ in range(arity)]
        self._value_index = ValueIndex()

    @property
    def arity(self) -> int:
        return len(self._columns)

    def __len__(self) -> int:
        return len(self._global_rows)

    # ------------------------------------------------------------------ #
    # loading
    # ------------------------------------------------------------------ #
    def add_row(self, global_row: int, ids: Sequence[ValueId]) -> None:
        """Append one id row holding global row number *global_row*.

        Global rows must arrive strictly ascending — that is what makes
        every index entry ascending and the cross-shard merges order-exact.
        """
        if len(self._global_rows) and global_row <= self._global_rows[-1]:
            raise ValueError(
                f"rows must arrive in ascending global order: got {global_row} "
                f"after {self._global_rows[-1]} in shard {self.shard_index} of {self.name!r}"
            )
        self._global_rows.append(global_row)
        for position, key in enumerate(ids):
            self._columns[position].append(key)
        self._index_row(global_row, ids)

    def _index_row(self, global_row: int, ids: Sequence[ValueId]) -> None:
        for position, key in enumerate(ids):
            self._attribute_indexes[position].add(key, global_row)
        value_index = self._value_index
        if len(set(ids)) == len(ids):
            for key in ids:
                value_index.add(key, global_row)
        else:
            for key in dict.fromkeys(ids):
                value_index.add(key, global_row)

    def extend_rows(self, rows: Iterable[tuple[int, tuple[ValueId, ...]]]) -> None:
        """Append a dispatched row delta (ascending ``(global row, ids)`` pairs)."""
        for global_row, ids in rows:
            self.add_row(global_row, ids)

    # ------------------------------------------------------------------ #
    # probes (global row terms — what the scatter/gather chase runs on)
    # ------------------------------------------------------------------ #
    def membership_hits(self, keys: Iterable[ValueId]) -> list[tuple[ValueId, frozenset[int]]]:
        """Non-empty ``(key, global rows containing key in any attribute)`` pairs."""
        value_index = self._value_index
        return [(key, rows) for key in keys if (rows := value_index.rows_for(key))]

    def equality_hits(self, position: int, keys: Iterable[ValueId]) -> list[tuple[ValueId, tuple[int, ...]]]:
        """Non-empty ``(key, ascending global rows with attribute == key)`` pairs."""
        index = self._attribute_indexes[position]
        return [(key, rows) for key in keys if (rows := index.rows_for(key))]

    # ------------------------------------------------------------------ #
    # enumeration / wire forms
    # ------------------------------------------------------------------ #
    def id_rows(self, start: int = 0) -> list[tuple[int, tuple[ValueId, ...]]]:
        """``(global row, id row)`` pairs from local position *start*, global order."""
        columns = self._columns
        global_rows = self._global_rows
        return [
            (global_rows[local], cast("tuple[ValueId, ...]", tuple(column[local] for column in columns)))
            for local in range(start, len(global_rows))
        ]

    def to_wire(self) -> ShardWire:
        """The shard as plain byte buffers — crosses the process boundary once."""
        return (
            self.name,
            self.shard_index,
            tuple(column.tobytes() for column in self._columns),
            self._global_rows.tobytes(),
        )

    @classmethod
    def from_wire(cls, wire: ShardWire) -> "RelationShard":
        """Rebuild a shard (columns and indexes) from its wire form.

        Validates the payload's shape before touching storage: a corrupted
        or truncated wire (chaos injection, a half-written transport) must
        fail loudly at registration — a ``desync`` fault the supervisor can
        classify and recover — instead of seeding a worker with garbage it
        would silently prove wrong answers from.
        """
        try:
            name, shard_index, column_bytes, global_bytes = wire
        except (TypeError, ValueError) as error:
            raise ValueError(f"corrupt shard wire: expected a 4-tuple, got {wire!r}") from error
        if not isinstance(name, str) or not isinstance(shard_index, int):
            raise ValueError(f"corrupt shard wire for {name!r}: malformed header")
        shard = cls(name, len(column_bytes), shard_index)
        for column, buffer in zip(shard._columns, column_bytes):
            column.frombytes(buffer)
        shard._global_rows.frombytes(global_bytes)
        row_count = len(shard._global_rows)
        if any(len(column) != row_count for column in shard._columns):
            raise ValueError(
                f"corrupt shard wire for {name!r}: column lengths disagree with the row count"
            )
        if any(
            shard._global_rows[local] >= shard._global_rows[local + 1]
            for local in range(row_count - 1)
        ):
            raise ValueError(
                f"corrupt shard wire for {name!r}: global rows are not strictly ascending"
            )
        columns = shard._columns
        for local, global_row in enumerate(shard._global_rows):
            shard._index_row(
                global_row, cast("tuple[ValueId, ...]", tuple(column[local] for column in columns))
            )
        return shard

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RelationShard({self.name!r}#{self.shard_index}, {len(self)} rows)"


def merge_membership(
    parts: Iterable[Iterable[tuple[ValueId, frozenset[int]]]],
) -> dict[ValueId, frozenset[int]]:
    """Union per-key membership hits across shards into one probe table.

    Shards partition the rows, so per-shard row sets are disjoint and the
    union equals the unsharded :class:`~repro.db.index.ValueIndex` answer.
    Only non-empty keys appear — the same contract as
    :meth:`repro.core.saturation.DatabaseProbeCache.any_rows_table`.
    """
    merged: dict[ValueId, frozenset[int]] = {}
    for part in parts:
        for key, rows in part:
            have = merged.get(key)
            merged[key] = rows if have is None else have | rows
    return merged


def merge_equality(
    parts: Iterable[Iterable[tuple[ValueId, tuple[int, ...]]]],
) -> dict[ValueId, tuple[int, ...]]:
    """Merge per-key equality hits across shards into ascending row tuples.

    Each shard contributes a disjoint ascending run; sorting the
    concatenation therefore reproduces exactly the unsharded
    :class:`~repro.db.index.AttributeIndex` answer.
    """
    merged: dict[ValueId, tuple[int, ...]] = {}
    for part in parts:
        for key, rows in part:
            have = merged.get(key)
            merged[key] = rows if have is None else tuple(sorted(have + rows))
    return merged


class ShardedRelation:
    """Parent-side router for one relation: K shards that only grow."""

    __slots__ = ("schema", "shard_count", "routing_position", "shards")

    def __init__(self, schema: RelationSchema, shard_count: int, *, routing_position: int = 0) -> None:
        self.schema = schema
        self.shard_count = shard_count
        self.routing_position = routing_position if schema.arity else 0
        self.shards = [RelationShard(schema.name, schema.arity, s) for s in range(shard_count)]

    def route_row(self, global_row: int, ids: Sequence[ValueId]) -> None:
        """Append one logical row to the shard its routing id hashes to."""
        key = ids[self.routing_position] if ids else 0
        self.shards[shard_of(key, self.shard_count)].add_row(global_row, ids)

    def total_rows(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = "/".join(str(len(shard)) for shard in self.shards)
        return f"ShardedRelation({self.schema.name!r}, rows {counts})"


class ShardedInstance:
    """Row-wise sharded projection of one database instance.

    The parent keeps the full instance (it remains the correctness backstop
    for mid-depth probes and everything value-level); this object is the
    partitioned probe plane built next to it.  Construction routes each
    relation's id rows once; :meth:`sync` compares each relation's row count
    with the rows already routed and routes *only* the new rows, which
    extend their shards in place.  Routing hashes value ids, and the wire
    forms ship ``array('q')`` buffers.
    """

    def __init__(
        self,
        database: DatabaseInstance,
        shard_count: int,
        *,
        routing_positions: dict[str, int] | None = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.database = database
        self.shard_count = shard_count
        self._routing = dict(routing_positions or {})
        self._relations: dict[str, ShardedRelation] = {}
        #: relation name → number of its rows routed into the shards.
        self._routed: dict[str, int] = {}
        self.sync()

    @property
    def interner(self) -> ValueInterner:
        return cast(ValueInterner, self.database.interner)

    def shard_relations(self) -> dict[str, ShardedRelation]:
        """The live per-relation routers (read-only by convention)."""
        return self._relations

    # ------------------------------------------------------------------ #
    # building / incremental maintenance
    # ------------------------------------------------------------------ #
    def sync(self) -> bool:
        """Bring the shards current with the backing database; True if anything moved.

        Cheap when nothing changed (one row-count comparison per relation).
        Relations are insert-only, so the rows past the routed count are
        exactly the rows written since, and only they are routed.
        """
        changed = False
        for name, relation in self.database.relations().items():
            routed = self._routed.get(name)
            count = len(relation)
            if routed == count:
                continue
            changed = True
            sharded = self._relations.get(name)
            if sharded is None:
                sharded = ShardedRelation(
                    relation.schema, self.shard_count, routing_position=self._routing.get(name, 0)
                )
                self._relations[name] = sharded
            for row in range(routed or 0, count):
                sharded.route_row(row, relation.row_ids(row))
            self._routed[name] = count
        return changed

    # ------------------------------------------------------------------ #
    # parent-side probe plane (the serial scatter and the test oracle)
    # ------------------------------------------------------------------ #
    def membership_table(self, name: str, keys: Iterable[ValueId]) -> dict[ValueId, frozenset[int]]:
        """Shard-union membership probe — equals the unsharded ``rows_with_ids``."""
        materialized = tuple(keys)
        return merge_membership(
            shard.membership_hits(materialized) for shard in self._relations[name].shards
        )

    def equality_table(self, name: str, position: int, keys: Iterable[ValueId]) -> dict[ValueId, tuple[int, ...]]:
        """Shard-merged equality probe — equals the unsharded ``rows_equal_ids``."""
        materialized = tuple(keys)
        return merge_equality(
            shard.equality_hits(position, materialized) for shard in self._relations[name].shards
        )

    # ------------------------------------------------------------------ #
    # wire forms / gather
    # ------------------------------------------------------------------ #
    def wire_shard(self, shard_index: int) -> tuple[ShardWire, ...]:
        """Every relation's shard *shard_index* as wire forms (one seeding payload)."""
        return tuple(sharded.shards[shard_index].to_wire() for sharded in self._relations.values())

    def interner_snapshot(self, start: int = 0) -> tuple[int, int, bytes]:
        """The is-string flag plane the shard workers' views are built from."""
        return self.interner.snapshot_flags(start)

    def materialize(self) -> DatabaseInstance:
        """Gather a plain instance back from the shard bases (the reference path).

        Rows are merged across shards in global order, so the result is
        fingerprint-identical to the backing database itself.
        """
        materialized = DatabaseInstance(self.database.schema)
        interner = self.interner
        for name, sharded in self._relations.items():
            target = materialized.relation(name)
            rows: list[tuple[int, tuple[ValueId, ...]]] = []
            for shard in sharded.shards:
                rows.extend(shard.id_rows())
            rows.sort()
            for _, ids in rows:
                target.insert(interner.decode_many(ids))
        return materialized

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, object]:
        """Shard balance: per-shard row totals and the per-relation spread."""
        per_shard = [0] * self.shard_count
        for sharded in self._relations.values():
            for index, shard in enumerate(sharded.shards):
                per_shard[index] += len(shard)
        return {
            "shard_count": self.shard_count,
            "rows": sum(per_shard),
            "shard_rows": tuple(per_shard),
            "relations": {
                name: tuple(len(shard) for shard in sharded.shards)
                for name, sharded in self._relations.items()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(sharded.total_rows() for sharded in self._relations.values())
        return f"ShardedInstance({total} rows over {self.shard_count} shards)"
