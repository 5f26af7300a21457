"""Matching dependencies (MDs).

Section 2.2: an MD

    R1[A1..An] ≈ R2[B1..Bn]  →  R1[C] ⇌ R2[D]

states that whenever the values of the premise attribute pairs are pairwise
*similar*, the values of ``R1[C]`` and ``R2[D]`` refer to the same real-world
value and must be unified (made identical) in any clean instance.  Following
the paper we normalise MDs so the right-hand side identifies a single pair of
comparable attributes.

The library also uses MDs for the target relation of the learning task (e.g.
``highGrossing[title] ≈ movies[title] → ...`` in Example 4.1): the "relation"
on one side may be the target relation, whose tuples are the training
examples rather than stored rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..db.schema import DatabaseSchema, SchemaError
from ..db.tuples import Tuple

__all__ = ["AttributePair", "MatchingDependency"]


@dataclass(frozen=True, slots=True)
class AttributePair:
    """A pair of comparable attributes ``R1[A] / R2[B]``."""

    left_attribute: str
    right_attribute: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.left_attribute}~{self.right_attribute}"


@dataclass(frozen=True)
class MatchingDependency:
    """An MD ``R1[A1..n] ≈ R2[B1..n] → R1[C] ⇌ R2[D]``.

    Attributes
    ----------
    name:
        Identifier used in provenance tags of repair literals and in reports.
    left_relation / right_relation:
        The two (distinct) relation symbols the MD relates.
    premises:
        The attribute pairs whose similarity triggers the MD.
    identified:
        The attribute pair whose values the MD declares interchangeable.
    """

    name: str
    left_relation: str
    right_relation: str
    premises: tuple[AttributePair, ...]
    identified: AttributePair

    def __post_init__(self) -> None:
        if not self.premises:
            raise ValueError(f"MD {self.name!r} needs at least one premise attribute pair")
        if self.left_relation == self.right_relation:
            raise ValueError(
                f"MD {self.name!r}: the paper defines MDs across two distinct relations, "
                f"got {self.left_relation!r} twice"
            )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def simple(
        cls,
        name: str,
        left_relation: str,
        left_attribute: str,
        right_relation: str,
        right_attribute: str,
    ) -> "MatchingDependency":
        """The common single-attribute MD ``R1[A] ≈ R2[B] → R1[A] ⇌ R2[B]``."""
        pair = AttributePair(left_attribute, right_attribute)
        return cls(name, left_relation, right_relation, (pair,), pair)

    @classmethod
    def of(
        cls,
        name: str,
        left_relation: str,
        right_relation: str,
        premises: Sequence[tuple[str, str]],
        identified: tuple[str, str] | None = None,
    ) -> "MatchingDependency":
        premise_pairs = tuple(AttributePair(a, b) for a, b in premises)
        identified_pair = AttributePair(*identified) if identified else premise_pairs[0]
        return cls(name, left_relation, right_relation, premise_pairs, identified_pair)

    # ------------------------------------------------------------------ #
    # validation & orientation
    # ------------------------------------------------------------------ #
    def validate(self, schema: DatabaseSchema, *, target_relation: str | None = None) -> None:
        """Check that the referenced relations/attributes exist and are comparable.

        ``target_relation`` names the learning target, which is not part of
        the stored schema; attributes on that side are not validated.
        """
        for relation, attributes in (
            (self.left_relation, [p.left_attribute for p in self.premises] + [self.identified.left_attribute]),
            (self.right_relation, [p.right_attribute for p in self.premises] + [self.identified.right_attribute]),
        ):
            if relation == target_relation:
                continue
            relation_schema = schema.relation(relation)
            for attribute in attributes:
                if not relation_schema.has_attribute(attribute):
                    raise SchemaError(f"MD {self.name!r}: {relation}.{attribute} does not exist")
        if target_relation in (self.left_relation, self.right_relation):
            return
        for premise in self.premises:
            if not schema.comparable(self.left_relation, premise.left_attribute, self.right_relation, premise.right_attribute):
                raise SchemaError(
                    f"MD {self.name!r}: attributes {self.left_relation}.{premise.left_attribute} and "
                    f"{self.right_relation}.{premise.right_attribute} are not comparable"
                )

    def involves(self, relation_name: str) -> bool:
        return relation_name in (self.left_relation, self.right_relation)

    def other_relation(self, relation_name: str) -> str:
        if relation_name == self.left_relation:
            return self.right_relation
        if relation_name == self.right_relation:
            return self.left_relation
        raise ValueError(f"MD {self.name!r} does not involve relation {relation_name!r}")

    def oriented_premises(self, from_relation: str) -> list[tuple[str, str]]:
        """Premise attribute pairs oriented as (from-attribute, to-attribute)."""
        if from_relation == self.left_relation:
            return [(p.left_attribute, p.right_attribute) for p in self.premises]
        if from_relation == self.right_relation:
            return [(p.right_attribute, p.left_attribute) for p in self.premises]
        raise ValueError(f"MD {self.name!r} does not involve relation {from_relation!r}")

    def oriented_identified(self, from_relation: str) -> tuple[str, str]:
        if from_relation == self.left_relation:
            return (self.identified.left_attribute, self.identified.right_attribute)
        if from_relation == self.right_relation:
            return (self.identified.right_attribute, self.identified.left_attribute)
        raise ValueError(f"MD {self.name!r} does not involve relation {from_relation!r}")

    # ------------------------------------------------------------------ #
    # semantics over tuples
    # ------------------------------------------------------------------ #
    def premises_hold(self, schema: DatabaseSchema, left_tuple: Tuple, right_tuple: Tuple, similar) -> bool:
        """Does ``t1[A1..n] ≈ t2[B1..n]`` hold for the two tuples?

        ``similar`` is a boolean predicate over values (the ``≈`` operator).
        """
        left_schema = schema.relation(self.left_relation)
        right_schema = schema.relation(self.right_relation)
        for premise in self.premises:
            left_value = left_tuple.value_of(left_schema, premise.left_attribute)
            right_value = right_tuple.value_of(right_schema, premise.right_attribute)
            if left_value is None or right_value is None:
                return False
            if left_value != right_value and not similar(left_value, right_value):
                return False
        return True

    def identified_values(self, schema: DatabaseSchema, left_tuple: Tuple, right_tuple: Tuple) -> tuple[object, object]:
        left_schema = schema.relation(self.left_relation)
        right_schema = schema.relation(self.right_relation)
        return (
            left_tuple.value_of(left_schema, self.identified.left_attribute),
            right_tuple.value_of(right_schema, self.identified.right_attribute),
        )

    def __str__(self) -> str:
        premises = ", ".join(
            f"{self.left_relation}[{p.left_attribute}] ~ {self.right_relation}[{p.right_attribute}]" for p in self.premises
        )
        return (
            f"{premises} -> {self.left_relation}[{self.identified.left_attribute}] <=> "
            f"{self.right_relation}[{self.identified.right_attribute}]"
        )
