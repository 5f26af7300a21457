"""Main-memory relational engine.

A deliberately small stand-in for the VoltDB instance the paper runs on
(Section 5): typed schemas, interned columnar relation instances (values
dictionary-encoded to dense ids, see :mod:`repro.db.interning`),
copy-on-write overlay instances for repairs (:mod:`repro.db.overlay`),
conjunctive-query evaluation of repaired clauses, and seeded sampling.
"""

from .index import AttributeIndex, ValueIndex
from .instance import DatabaseInstance
from .interning import MISSING_ID, ValueInterner
from .overlay import OverlayInstance, OverlayRelation
from .query import ClauseEvaluator
from .relation import RelationInstance
from .sampling import Sampler
from .schema import Attribute, DatabaseSchema, RelationSchema, SchemaError
from .tuples import Tuple
from .types import AttributeType, coerce_value

__all__ = [
    "Attribute",
    "AttributeIndex",
    "AttributeType",
    "ClauseEvaluator",
    "DatabaseInstance",
    "DatabaseSchema",
    "MISSING_ID",
    "OverlayInstance",
    "OverlayRelation",
    "RelationInstance",
    "RelationSchema",
    "Sampler",
    "SchemaError",
    "Tuple",
    "ValueIndex",
    "ValueInterner",
    "coerce_value",
]
