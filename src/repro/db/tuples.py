"""Tuples of the main-memory relational engine.

A tuple maps every attribute of its relation schema to a value from the
attribute's domain (Section 2.1).  Tuples are immutable; updates performed by
repairs always build new tuples through :meth:`Tuple.replace`.

Since the interned-columnar storage core, a :class:`Tuple` is a lightweight
*view*: relation storage keeps columns of value ids, and a view produced by
:meth:`Tuple.from_ids` holds only the id row plus a reference to the owning
interner, decoding to concrete values lazily on first access.  Tuples built
directly from values (:meth:`Tuple.for_schema`, or the plain constructor)
behave exactly as before.  Equality and hashing are value-based either way,
so views, directly-built tuples, and tuples from different instances compare
interchangeably; two views over the *same* interner shortcut to an integer
comparison without decoding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping

from .schema import RelationSchema, SchemaError

if TYPE_CHECKING:
    from .interning import ValueId, ValueInterner
from .types import coerce_value

__all__ = ["Tuple"]

_UNSET = object()


class Tuple:
    """One tuple of a relation.

    Attributes
    ----------
    relation:
        Name of the relation the tuple belongs to.
    values:
        Values in schema attribute order (decoded lazily for id-backed views).
    """

    __slots__ = ("relation", "_ids", "_interner", "_values", "_hash")

    def __init__(self, relation: str, values: tuple | list) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "_values", tuple(values))
        object.__setattr__(self, "_ids", None)
        object.__setattr__(self, "_interner", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Tuple is immutable; cannot set {name!r}")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def for_schema(cls, schema: RelationSchema, values: Mapping[str, object] | tuple | list) -> "Tuple":
        """Build a tuple for *schema*, coercing values to attribute types.

        ``values`` may be positional (a sequence in attribute order) or a
        mapping from attribute name to value; missing attributes become NULL.
        """
        if isinstance(values, Mapping):
            ordered = [values.get(attribute.name) for attribute in schema.attributes]
        else:
            if len(values) != schema.arity:
                raise SchemaError(
                    f"relation {schema.name!r} expects {schema.arity} values, got {len(values)}"
                )
            ordered = list(values)
        coerced = tuple(
            coerce_value(value, attribute.type) for value, attribute in zip(ordered, schema.attributes)
        )
        return cls(schema.name, coerced)

    @classmethod
    def from_ids(cls, relation: str, ids: "tuple[ValueId, ...]", interner: "ValueInterner") -> "Tuple":
        """A lazy view over an id row: values decode on first access."""
        view = cls.__new__(cls)
        object.__setattr__(view, "relation", relation)
        object.__setattr__(view, "_values", _UNSET)
        object.__setattr__(view, "_ids", ids)
        object.__setattr__(view, "_interner", interner)
        object.__setattr__(view, "_hash", None)
        return view

    # ------------------------------------------------------------------ #
    # access
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> tuple:
        """Values in schema attribute order, decoded (and cached) on demand."""
        values = self._values
        if values is _UNSET:
            values = self._interner.decode_many(self._ids)
            object.__setattr__(self, "_values", values)
        return values

    def interned_ids(self, interner: "ValueInterner") -> "tuple[ValueId, ...] | None":
        """This view's id row when backed by *interner*, else ``None``.

        Storage uses this as a fast path: inserting a view back into an
        instance sharing the same interner skips coercion and re-interning.
        """
        return self._ids if self._interner is interner else None

    @property
    def arity(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[object]:
        return iter(self.values)

    def __getitem__(self, position: int) -> object:
        return self.values[position]

    def value_of(self, schema: RelationSchema, attribute_name: str) -> object:
        """Return the value of the named attribute (``t[A]`` in the paper)."""
        return self.values[schema.position_of(attribute_name)]

    def values_of(self, schema: RelationSchema, attribute_names: tuple[str, ...] | list[str]) -> tuple[object, ...]:
        """Return the values of several attributes (``t[X]`` in the paper)."""
        return tuple(self.value_of(schema, name) for name in attribute_names)

    # ------------------------------------------------------------------ #
    # identity (value-based)
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tuple):
            return NotImplemented
        if self.relation != other.relation:
            return False
        if self._ids is not None and self._interner is other._interner:
            # Same dictionary: equal ids iff equal values, no decoding needed.
            return self._ids == other._ids
        return self.values == other.values

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.relation, self.values))
            object.__setattr__(self, "_hash", cached)
        return cached

    # ------------------------------------------------------------------ #
    # updates (used by repairs)
    # ------------------------------------------------------------------ #
    def replace(self, schema: RelationSchema, attribute_name: str, value: object) -> "Tuple":
        """Return a copy with one attribute value modified."""
        position = schema.position_of(attribute_name)
        new_values = list(self.values)
        new_values[position] = coerce_value(value, schema.attributes[position].type)
        return Tuple(self.relation, tuple(new_values))

    def replace_value(self, old: object, new: object) -> "Tuple":
        """Return a copy with every occurrence of *old* replaced by *new*.

        Used when an MD unifies two values: all occurrences of either value
        anywhere in the database are replaced by the fresh matched value.
        """
        if old not in self.values:
            return self
        return Tuple(self.relation, tuple(new if value == old else value for value in self.values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tuple(relation={self.relation!r}, values={self.values!r})"

    def __str__(self) -> str:
        inner = ", ".join(repr(value) for value in self.values)
        return f"{self.relation}({inner})"
