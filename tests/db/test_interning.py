"""Tests for the interned columnar storage core.

Covers the value interner (round-trips, dense ids, the MISSING_ID contract),
lazy tuple views, exact value round-trips through storage for non-string
domains, probe answers on plain and overlay storage, and the ``stats()``
reporting helper.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.db import (
    AttributeType,
    DatabaseInstance,
    DatabaseSchema,
    MISSING_ID,
    OverlayInstance,
    RelationSchema,
    Tuple,
    ValueInterner,
    coerce_value,
)

VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)


def mixed_schema() -> DatabaseSchema:
    return DatabaseSchema.of(
        RelationSchema.of(
            "readings",
            [
                ("sensor", AttributeType.STRING),
                ("count", AttributeType.INTEGER),
                ("level", AttributeType.FLOAT),
                ("active", AttributeType.BOOLEAN),
                ("note", AttributeType.ANY),
            ],
        )
    )


class TestValueInterner:
    def test_ids_are_dense_and_first_seen_ordered(self):
        interner = ValueInterner()
        assert interner.intern("a") == 0
        assert interner.intern("b") == 1
        assert interner.intern("a") == 0
        assert len(interner) == 2
        assert list(interner.values()) == ["a", "b"]

    @given(values=st.lists(VALUES, max_size=30))
    def test_round_trip_is_exact(self, values):
        interner = ValueInterner()
        ids = interner.intern_many(values)
        assert interner.decode_many(ids) == tuple(values)
        for value, vid in zip(values, ids):
            assert interner.id_of(value) == vid
            assert interner.value_of(vid) == value

    def test_equal_values_share_one_id_and_one_object(self):
        interner = ValueInterner()
        first = "movie-" + str(1)
        second = "movie-" + str(1)
        assert first is not second  # distinct objects, equal values
        assert interner.intern(first) == interner.intern(second)
        assert interner.value_of(interner.id_of(second)) is first

    def test_missing_id_for_unseen_values(self):
        interner = ValueInterner()
        interner.intern("present")
        assert interner.id_of("absent") == MISSING_ID
        assert "absent" not in interner
        assert "present" in interner

    def test_none_is_internable(self):
        interner = ValueInterner()
        vid = interner.intern(None)
        assert interner.value_of(vid) is None
        assert interner.id_of(None) == vid

    def test_equal_values_of_different_types_keep_distinct_ids(self):
        """dict equality folds 1 == 1.0 == True; interning must not, or decoding
        would silently rewrite booleans/floats to whichever spelling came first."""
        interner = ValueInterner()
        ids = {interner.intern(1), interner.intern(True), interner.intern(1.0)}
        assert len(ids) == 3
        assert interner.value_of(interner.id_of(True)) is True
        assert type(interner.value_of(interner.id_of(1.0))) is float

    def test_interners_have_slots(self):
        assert not hasattr(ValueInterner(), "__dict__")


class TestTupleViews:
    def test_views_decode_lazily_and_cache(self):
        interner = ValueInterner()
        ids = interner.intern_many(("m1", 2007))
        view = Tuple.from_ids("movies", ids, interner)
        assert view._values is not view.values  # decoded on demand
        assert view.values == ("m1", 2007)
        assert view.values is view.values  # cached after first decode

    def test_views_have_slots(self):
        assert not hasattr(Tuple("movies", ("m1",)), "__dict__")

    def test_view_equality_across_interners_and_plain_tuples(self):
        left_interner, right_interner = ValueInterner(), ValueInterner()
        right_interner.intern("padding")  # shift ids so equal values get different ids
        left = Tuple.from_ids("movies", left_interner.intern_many(("m1", 2007)), left_interner)
        right = Tuple.from_ids("movies", right_interner.intern_many(("m1", 2007)), right_interner)
        plain = Tuple("movies", ("m1", 2007))
        assert left == right == plain
        assert hash(left) == hash(right) == hash(plain)
        assert left != Tuple("movies", ("m2", 2007))
        assert left != Tuple("shows", ("m1", 2007))

    def test_views_are_immutable(self):
        view = Tuple("movies", ("m1",))
        with pytest.raises(AttributeError):
            view.relation = "other"


class TestStorageRoundTrip:
    @given(
        rows=st.lists(
            st.tuples(
                st.text(max_size=8),
                st.integers(min_value=-1000, max_value=1000) | st.none(),
                # -0.0 folds with 0.0 under every dict-equality scheme and
                # reprs differently; it is the one value exempt from the
                # exact round-trip contract.
                st.floats(allow_nan=False, allow_infinity=False, width=32).filter(
                    lambda f: not (f == 0.0 and str(f).startswith("-"))
                )
                | st.none(),
                st.booleans() | st.none(),
                VALUES.filter(lambda v: not (isinstance(v, float) and v == 0.0 and str(v).startswith("-"))),
            ),
            max_size=20,
        )
    )
    def test_non_string_domains_round_trip_exactly_in_both_modes(self, rows):
        schema = mixed_schema()
        plain = DatabaseInstance(schema)
        plain.insert_many("readings", rows)
        attributes = schema.relation("readings").attributes
        coerced = [
            tuple(coerce_value(value, attribute.type) for value, attribute in zip(row, attributes))
            for row in rows
        ]
        # Plain storage, and a copy-on-write overlay reading through it.
        for db in (plain, OverlayInstance(plain)):
            stored = [tup.values for tup in db.relation("readings")]
            assert stored == coerced
            # Exact types too: 1 == 1.0 == True would hide a rewritten spelling.
            assert [tuple(map(type, values)) for values in stored] == [
                tuple(map(type, values)) for values in coerced
            ]

    def test_probes_agree_across_storage_modes(self):
        schema = DatabaseSchema.of(RelationSchema.of("movies", ["id", "title"]))
        plain = DatabaseInstance(schema)
        plain.insert_many("movies", [("m1", "Superbad"), ("m2", "Superbad"), ("m3", "Orphanage")])
        # A copy-on-write overlay answers probes by patching its base's.
        for db in (plain, OverlayInstance(plain)):
            movies = db.relation("movies")
            assert [t.values[0] for t in movies.select_equal("title", "Superbad")] == ["m1", "m2"]
            assert movies.rows_with_value("Orphanage") == frozenset({2})
            assert movies.rows_with_value("missing") == frozenset()
            assert db.value_frequency("Superbad") == 2
            assert movies.distinct_values("title") == {"Superbad", "Orphanage"}


class TestStats:
    def test_stats_reports_rows_distinct_values_and_bytes(self):
        schema = DatabaseSchema.of(RelationSchema.of("movies", ["id", "title"]))
        db = DatabaseInstance(schema)
        db.insert_many("movies", [("m1", "Superbad"), ("m2", "Superbad")])
        stats = db.stats()
        assert stats["rows"] == 2
        assert stats["distinct_values"] == 3  # m1, m2, Superbad
        assert stats["approx_total_bytes"] > 0
        assert stats["approx_total_bytes"] == (
            stats["approx_column_bytes"] + stats["approx_index_bytes"] + stats["approx_interner_bytes"]
        )
