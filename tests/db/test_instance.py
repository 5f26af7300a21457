"""Unit tests for tuples, relation instances, indexes and database instances."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import AttributeType, DatabaseInstance, DatabaseSchema, RelationSchema, Tuple
from repro.db.index import AttributeIndex, ValueIndex
from repro.db.schema import SchemaError


@pytest.fixture
def movies_schema() -> RelationSchema:
    return RelationSchema.of("movies", [("id", AttributeType.STRING), ("title", AttributeType.STRING), ("year", AttributeType.INTEGER)])


@pytest.fixture
def tiny_db(movies_schema) -> DatabaseInstance:
    schema = DatabaseSchema.of(movies_schema, RelationSchema.of("genres", ["id", "genre"]))
    database = DatabaseInstance(schema)
    database.insert_many(
        "movies",
        [("m1", "Superbad", 2007), ("m2", "Zoolander", 2001), ("m3", "Orphanage", 2007)],
    )
    database.insert_many("genres", [("m1", "comedy"), ("m2", "comedy"), ("m3", "drama")])
    return database


class TestTuple:
    def test_positional_and_mapping_construction(self, movies_schema):
        positional = Tuple.for_schema(movies_schema, ("m1", "Superbad", "2007"))
        mapping = Tuple.for_schema(movies_schema, {"id": "m1", "title": "Superbad", "year": 2007})
        assert positional == mapping
        assert positional.value_of(movies_schema, "year") == 2007

    def test_missing_mapping_attributes_become_null(self, movies_schema):
        tup = Tuple.for_schema(movies_schema, {"id": "m1"})
        assert tup.value_of(movies_schema, "title") is None

    def test_wrong_arity_rejected(self, movies_schema):
        with pytest.raises(SchemaError):
            Tuple.for_schema(movies_schema, ("m1", "Superbad"))

    def test_values_of_and_replace(self, movies_schema):
        tup = Tuple.for_schema(movies_schema, ("m1", "Superbad", 2007))
        assert tup.values_of(movies_schema, ["id", "year"]) == ("m1", 2007)
        replaced = tup.replace(movies_schema, "year", 2008)
        assert replaced.value_of(movies_schema, "year") == 2008
        assert tup.value_of(movies_schema, "year") == 2007  # immutable

    def test_replace_value_everywhere(self, movies_schema):
        tup = Tuple.for_schema(movies_schema, ("Superbad", "Superbad", 2007))
        replaced = tup.replace_value("Superbad", "SB")
        assert replaced.values == ("SB", "SB", 2007)


class TestIndexes:
    def test_attribute_index(self):
        index = AttributeIndex()
        index.add("a", 0)
        index.add("a", 2)
        index.add("b", 1)
        assert index.rows_for("a") == (0, 2)
        assert index.rows_for("missing") == ()
        assert "a" in index and len(index) == 2

    def test_attribute_index_probe_results_are_immutable(self):
        index = AttributeIndex()
        index.add("a", 0)
        probe = index.rows_for("a")
        assert isinstance(probe, tuple)
        # Adding after a probe must not corrupt earlier results and must be
        # visible in later ones.
        index.add("a", 5)
        assert probe == (0,)
        assert index.rows_for("a") == (0, 5)

    def test_attribute_index_rows_for_many(self):
        index = AttributeIndex()
        index.add("a", 0)
        index.add("a", 2)
        index.add("b", 1)
        grouped = index.rows_for_many(["a", "b", "missing"])
        assert grouped == {"a": (0, 2), "b": (1,), "missing": ()}

    def test_value_index(self):
        index = ValueIndex()
        index.add("x", 0)
        index.add("x", 3)
        index.add("y", 1)
        assert index.rows_for("x") == {0, 3}
        assert index.rows_for_any(["x", "y"]) == {0, 1, 3}
        assert index.rows_for("missing") == frozenset()

    def test_value_index_probe_results_are_immutable_frozensets(self):
        index = ValueIndex()
        index.add("x", 0)
        probe = index.rows_for("x")
        assert isinstance(probe, frozenset)
        # Adding after a probe must not corrupt earlier results and must be
        # visible in later ones (the entry thaws, then re-freezes on probe).
        index.add("x", 5)
        assert probe == {0}
        assert index.rows_for("x") == {0, 5}
        assert isinstance(index.rows_for("x"), frozenset)

    def test_value_index_rows_for_many(self):
        index = ValueIndex()
        index.add("x", 0)
        index.add("x", 3)
        index.add("y", 1)
        grouped = index.rows_for_many(["x", "y", "missing"])
        assert grouped == {"x": frozenset({0, 3}), "y": frozenset({1}), "missing": frozenset()}


class TestRelationInstance:
    def test_insert_and_select(self, tiny_db):
        movies = tiny_db.relation("movies")
        assert len(movies) == 3
        assert [t.values[0] for t in movies.select_equal("year", 2007)] == ["m1", "m3"]
        assert movies.select_equal("title", "Missing") == []

    def test_select_any_attribute(self, tiny_db):
        movies = tiny_db.relation("movies")
        found = movies.select_any_attribute({"Superbad", 2001})
        assert {t.values[0] for t in found} == {"m1", "m2"}

    def test_deduplicate_insert(self, movies_schema):
        from repro.db.relation import RelationInstance

        relation = RelationInstance(movies_schema)
        relation.insert(("m1", "Superbad", 2007))
        relation.insert(("m1", "Superbad", 2007), deduplicate=True)
        assert len(relation) == 1
        relation.insert(("m1", "Superbad", 2007))
        assert len(relation) == 2

    def test_insert_many_reports_stored_count_under_deduplication(self, movies_schema):
        from repro.db.relation import RelationInstance

        relation = RelationInstance(movies_schema)
        rows = [
            ("m1", "Superbad", 2007),
            ("m1", "Superbad", 2007),  # duplicate within the batch
            ("m2", "Zoolander", 2001),
        ]
        assert relation.insert_many(rows, deduplicate=True) == 2
        assert len(relation) == 2
        # Re-offering already-present rows stores nothing.
        assert relation.insert_many(rows, deduplicate=True) == 0
        assert len(relation) == 2
        # Without deduplication every offered row is stored and counted.
        assert relation.insert_many(rows) == 3
        assert len(relation) == 5

    def test_select_equal_many(self, tiny_db):
        movies = tiny_db.relation("movies")
        grouped = movies.select_equal_many("year", [2007, 2001, 1999])
        assert {t.values[0] for t in grouped[2007]} == {"m1", "m3"}
        assert [t.values[0] for t in grouped[2001]] == ["m2"]
        assert grouped[1999] == []
        # Identical to the per-value probes.
        for year in (2007, 2001, 1999):
            assert grouped[year] == movies.select_equal("year", year)

    def test_rows_with_values(self, tiny_db):
        movies = tiny_db.relation("movies")
        grouped = movies.rows_with_values(["Superbad", 2001, "nope"])
        assert grouped["Superbad"] == frozenset(movies.rows_with_value("Superbad"))
        assert grouped[2001] == frozenset(movies.rows_with_value(2001))
        assert grouped["nope"] == frozenset()

    def test_instance_select_equal_many(self, tiny_db):
        grouped = tiny_db.select_equal_many("genres", "genre", ["comedy", "drama", "horror"])
        assert {t.values[0] for t in grouped["comedy"]} == {"m1", "m2"}
        assert [t.values[0] for t in grouped["drama"]] == ["m3"]
        assert grouped["horror"] == []

    def test_distinct_values_and_contains(self, tiny_db):
        movies = tiny_db.relation("movies")
        assert movies.distinct_values("year") == {2007, 2001}
        assert movies.contains_value("Zoolander")
        first = movies.tuple_at(0)
        assert first in movies

    def test_copy_and_map_tuples(self, tiny_db):
        movies = tiny_db.relation("movies")
        clone = movies.copy()
        assert len(clone) == len(movies)
        upper = movies.map_tuples(lambda t: t.replace(movies.schema, "title", str(t.values[1]).upper()))
        assert {t.values[1] for t in upper} == {"SUPERBAD", "ZOOLANDER", "ORPHANAGE"}
        assert {t.values[1] for t in movies} == {"Superbad", "Zoolander", "Orphanage"}


class TestDatabaseInstance:
    def test_counts_and_iteration(self, tiny_db):
        assert tiny_db.tuple_count() == 6
        assert tiny_db.tuple_counts()["genres"] == 3
        assert len(list(tiny_db.all_tuples())) == 6
        assert "movies" in tiny_db.describe()

    def test_tuples_containing(self, tiny_db):
        found = tiny_db.tuples_containing("genres", {"m1", "drama"})
        assert {t.values for t in found} == {("m1", "comedy"), ("m3", "drama")}

    def test_unknown_relation(self, tiny_db):
        with pytest.raises(SchemaError):
            tiny_db.relation("unknown")

    def test_value_frequency(self, tiny_db):
        assert tiny_db.value_frequency("m1") == 2
        assert tiny_db.value_frequency("comedy") == 2
        assert tiny_db.value_frequency("missing") == 0

    def test_replace_value_globally(self, tiny_db):
        replaced = tiny_db.replace_value_globally("m1", "movie-one")
        assert replaced.value_frequency("m1") == 0
        assert replaced.value_frequency("movie-one") == 2
        assert tiny_db.value_frequency("m1") == 2  # original untouched

    def test_duplicate_collapse_matches_eager_set_semantics(self):
        # Replacing 'b'→'a' makes the two left rows identical; set semantics
        # keep the first of them.
        db = DatabaseInstance(DatabaseSchema.of(RelationSchema.of("left", ["key", "name", "tag"])))
        db.insert_many("left", [("a", "a", "c"), ("b", "a", "c"), ("x", "y", "z")])
        replaced = db.replace_value_globally("b", "a")
        assert [t.values for t in replaced.relation("left")] == [("a", "a", "c"), ("x", "y", "z")]
        assert replaced.relation("left").select_equal("key", "b") == []
        assert [t.values[2] for t in replaced.relation("left").select_equal("key", "a")] == ["c"]
        assert db.tuple_counts()["left"] == 3  # original untouched

    def test_pre_existing_duplicates_collapse_on_global_replacement(self):
        # A replacement that touches no row still applies set semantics to
        # every relation, so duplicates stored before it collapse.
        schema = DatabaseSchema.of(
            RelationSchema.of("left", ["key", "name", "tag"]), RelationSchema.of("right", ["key", "label"])
        )
        db = DatabaseInstance(schema)
        db.insert_many("left", [("a", "b", "c"), ("a", "b", "c")])
        db.insert("right", ("z", "z"))
        replaced = db.replace_value_globally("nope", "<fresh>")
        assert replaced.tuple_counts() == {"left": 1, "right": 1}
        assert replaced.relation("left").rows_with_value("a") == frozenset({0})
        assert db.tuple_counts() == {"left": 2, "right": 1}

    def test_map_relation_and_with_rows(self, tiny_db):
        mapped = tiny_db.map_relation("genres", lambda t: t.replace_value("comedy", "Comedy"))
        assert mapped.value_frequency("Comedy") == 2
        extended = tiny_db.with_rows({"movies": [("m4", "New", 2020)]})
        assert extended.tuple_counts()["movies"] == 4
        assert tiny_db.tuple_counts()["movies"] == 3

    def test_copy_is_deep_for_relations(self, tiny_db):
        clone = tiny_db.copy()
        clone.insert("movies", ("m9", "Other", 1999))
        assert tiny_db.tuple_counts()["movies"] == 3
        assert clone.tuple_counts()["movies"] == 4


VALUE = st.sampled_from(["a", "b", "c", "alpha", "x1", None])


class TestRepairTransformations:
    """``replace_value_globally`` / ``map_relation`` against a value-level rebuild."""

    @staticmethod
    def rebuilt(db: DatabaseInstance, rewrite) -> dict[str, list[tuple]]:
        """Every relation's rewritten rows, duplicates dropped after their first."""
        return {
            name: list(dict.fromkeys(rewrite(name, t.values) for t in db.relation(name)))
            for name in db.relation_names
        }

    @staticmethod
    def contents(db: DatabaseInstance) -> dict[str, list[tuple]]:
        return {name: [t.values for t in db.relation(name)] for name in db.relation_names}

    @settings(max_examples=40, deadline=None)
    @given(
        left=st.lists(st.tuples(VALUE, VALUE, VALUE), max_size=12),
        right=st.lists(st.tuples(VALUE, VALUE), max_size=8),
        old=VALUE,
        target=VALUE,
    )
    def test_transformations_equal_a_value_level_rebuild(self, left, right, old, target):
        schema = DatabaseSchema.of(
            RelationSchema.of("left", ["key", "name", "tag"]), RelationSchema.of("right", ["key", "label"])
        )
        db = DatabaseInstance(schema)
        db.insert_many("left", left)
        db.insert_many("right", right)

        def swap(values: tuple, find: object, put: object) -> tuple:
            return tuple(put if value == find else value for value in values)

        replaced = db.replace_value_globally(old, "<fresh>")
        assert self.contents(replaced) == self.rebuilt(db, lambda _, values: swap(values, old, "<fresh>"))
        mapped = db.map_relation("left", lambda tup: tup.replace_value(target, "<mapped>"))
        assert self.contents(mapped) == {
            "left": list(dict.fromkeys(swap(values, target, "<mapped>") for values in left)),
            "right": right,
        }
        # Probes of the rebuilt storage agree with its contents.
        for name in replaced.relation_names:
            relation = replaced.relation(name)
            for value in ("a", "<fresh>", None):
                expected = [t.values for t in relation if value in t.values]
                assert [relation.tuple_at(row).values for row in sorted(relation.rows_with_value(value))] == expected
