"""Shard-boundary invariants: shard union ≡ unsharded instance, always.

The sharded chase's identity argument rests entirely on the storage layer:
rows partition across shards, per-shard probe answers are disjoint ascending
row sets keyed on global row numbers, and their merges equal the unsharded
index answers key for key.  This suite pins those invariants directly —
deterministic routing, wire-form round-trips, probe identity under hypothesis
across seeds and shard counts, incremental sync and fingerprint-identical
materialisation — so the chase-level tests can lean on them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.instance import DatabaseInstance
from repro.db.interning import MISSING_ID, ValueId
from repro.db.schema import DatabaseSchema, RelationSchema
from repro.db.sharding import (
    RelationShard,
    ShardedInstance,
    ValueInternerView,
    merge_equality,
    merge_membership,
    shard_of,
)


def make_instance(n_rows: int, seed: int = 0) -> DatabaseInstance:
    schema = DatabaseSchema.of(
        RelationSchema.of("person", ("name", "city", "flag")),
        RelationSchema.of("visit", ("name", "place")),
    )
    database = DatabaseInstance(schema)
    person = database.relation("person")
    visit = database.relation("visit")
    for i in range(n_rows):
        j = (i * 7 + seed) % max(n_rows, 1)
        person.insert((f"p{i}", f"c{j % 5}", i % 2))
        visit.insert((f"p{j}", f"loc{i % 3}"))
    return database


class TestShardOf:
    def test_range_and_determinism(self):
        for count in (1, 2, 3, 4, 7):
            for key in range(200):
                shard = shard_of(key, count)
                assert 0 <= shard < count
                assert shard == shard_of(key, count)

    def test_spreads_consecutive_ids(self):
        # The whole point of the multiplicative hash: a fresh interner hands
        # out 0..n-1, and those must not all land on one shard.
        counts = [0] * 4
        for key in range(100):
            counts[shard_of(key, 4)] += 1
        assert all(count > 0 for count in counts)


class TestValueInternerView:
    def test_extend_and_flags(self):
        database = make_instance(8)
        interner = database.interner
        view = ValueInternerView()
        view.extend(*interner.snapshot_flags(0))
        assert len(view) == len(interner)
        for value in ("p0", "c1", "0"):
            assert view.is_string(interner.id_of(value)) is True

    def test_extend_is_idempotent_and_delta_driven(self):
        database = make_instance(4)
        interner = database.interner
        view = ValueInternerView()
        first = interner.snapshot_flags(0)
        view.extend(*first)
        mark = view.watermark()
        view.extend(*first)  # re-delivery is a no-op
        assert view.watermark() == mark
        database.relation("person").insert(("fresh", "c9", 1))
        view.extend(*interner.snapshot_flags(mark))
        assert len(view) == len(interner)
        assert view.is_string(interner.id_of("fresh")) is True

    def test_gap_raises(self):
        view = ValueInternerView()
        with pytest.raises(ValueError, match="delta was lost"):
            view.extend(5, 10, b"\x01" * 5)

    def test_value_surfaces_refused(self):
        view = ValueInternerView()
        for call in (
            lambda: view.intern("x"),
            lambda: view.id_of("x"),
            lambda: view.value_of(ValueId(0)),
            lambda: view.decode_many([ValueId(0)]),
        ):
            with pytest.raises(TypeError):
                call()


class TestRelationShard:
    def test_rows_must_arrive_ascending(self):
        shard = RelationShard("r", 2, 0)
        shard.add_row(3, (ValueId(1), ValueId(2)))
        with pytest.raises(ValueError, match="ascending"):
            shard.add_row(3, (ValueId(1), ValueId(2)))
        with pytest.raises(ValueError, match="ascending"):
            shard.add_row(1, (ValueId(1), ValueId(2)))

    def test_wire_roundtrip_preserves_rows_and_probes(self):
        database = make_instance(40, seed=3)
        sharded = ShardedInstance(database, 3)
        keys = [database.interner.id_of(v) for v in ("p1", "c2", "loc1", "0")]
        for relation in sharded.shard_relations().values():
            for shard in relation.shards:
                clone = RelationShard.from_wire(shard.to_wire())
                assert clone.id_rows() == shard.id_rows()
                assert clone.membership_hits(keys) == shard.membership_hits(keys)
                for position in range(shard.arity):
                    assert clone.equality_hits(position, keys) == shard.equality_hits(position, keys)

    def test_extend_rows_matches_bulk_build(self):
        shard = RelationShard("r", 2, 0)
        rows = [(i * 2, (ValueId(i), ValueId(i % 3))) for i in range(10)]
        shard.extend_rows(rows[:4])
        shard.extend_rows(rows[4:])
        bulk = RelationShard("r", 2, 0)
        bulk.extend_rows(rows)
        assert shard.id_rows() == bulk.id_rows()
        assert shard.membership_hits([ValueId(1)]) == bulk.membership_hits([ValueId(1)])


class TestMerges:
    def test_merge_membership_unions_disjoint_parts(self):
        merged = merge_membership(
            [
                [(ValueId(1), frozenset({0, 2}))],
                [(ValueId(1), frozenset({5})), (ValueId(2), frozenset({1}))],
            ]
        )
        assert merged == {ValueId(1): frozenset({0, 2, 5}), ValueId(2): frozenset({1})}

    def test_merge_equality_sorts_disjoint_runs(self):
        merged = merge_equality([[(ValueId(1), (1, 7))], [(ValueId(1), (3, 5))]])
        assert merged == {ValueId(1): (1, 3, 5, 7)}


class TestShardedInstance:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError, match="shard_count"):
            ShardedInstance(make_instance(4), 0)

    def test_every_row_lands_in_exactly_one_shard(self):
        database = make_instance(60, seed=1)
        sharded = ShardedInstance(database, 4)
        for name, relation in database.relations().items():
            seen: dict[int, int] = {}
            for shard in sharded.shard_relations()[name].shards:
                for global_row, ids in shard.id_rows():
                    assert global_row not in seen
                    seen[global_row] = shard.shard_index
                    assert ids == relation.row_ids(global_row)
            assert sorted(seen) == list(range(len(relation)))

    @settings(max_examples=25, deadline=None)
    @given(
        n_rows=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=10),
        shard_count=st.integers(min_value=1, max_value=5),
    )
    def test_probe_union_equals_unsharded(self, n_rows, seed, shard_count):
        database = make_instance(n_rows, seed=seed)
        sharded = ShardedInstance(database, shard_count)
        interner = database.interner
        keys = [ValueId(vid) for vid in range(len(interner))] + [MISSING_ID]
        for name, relation in database.relations().items():
            table = sharded.membership_table(name, keys)
            for key in keys:
                assert table.get(key, frozenset()) == relation.rows_with_id(key)
            for position, attribute in enumerate(relation.schema.attribute_names):
                equal = sharded.equality_table(name, position, keys)
                for key in keys:
                    assert equal.get(key, ()) == relation.rows_equal_id(attribute, key)

    @settings(max_examples=15, deadline=None)
    @given(
        n_rows=st.integers(min_value=1, max_value=40),
        shard_count=st.integers(min_value=1, max_value=4),
    )
    def test_materialize_fingerprint_identity(self, n_rows, shard_count):
        database = make_instance(n_rows, seed=2)
        sharded = ShardedInstance(database, shard_count)
        assert sharded.materialize().content_fingerprint() == database.content_fingerprint()

    def test_stats_count_all_rows(self):
        database = make_instance(30)
        sharded = ShardedInstance(database, 3)
        stats = sharded.stats()
        assert stats["shard_count"] == 3
        assert stats["rows"] == sum(len(r) for r in database.relations().values())
        assert sum(stats["shard_rows"]) == stats["rows"]


class TestSync:
    def test_plain_growth_extends_without_rebuild(self):
        database = make_instance(20)
        sharded = ShardedInstance(database, 2)
        routers = dict(sharded.shard_relations())
        shards = {name: list(relation.shards) for name, relation in routers.items()}
        rows = sharded.stats()["rows"]
        database.relation("person").insert(("new-p", "c0", 1))
        assert sharded.sync() is True
        assert sharded.sync() is False
        # The new row is appended to the existing shards; nothing is rebuilt.
        assert sharded.stats()["rows"] == rows + 1
        for name, relation in sharded.shard_relations().items():
            assert relation is routers[name]
            assert all(new is old for new, old in zip(relation.shards, shards[name]))
        vid = database.interner.id_of("new-p")
        assert sharded.membership_table("person", [vid])[vid] == database.relation(
            "person"
        ).rows_with_id(vid)
        assert sharded.materialize().content_fingerprint() == database.content_fingerprint()
