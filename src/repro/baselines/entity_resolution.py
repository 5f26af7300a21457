"""A-priori entity resolution, used by the Castor-Clean baseline.

Section 6.1.3: "Castor-Clean: We resolve the heterogeneities between entity
names in attributes that appear in an MD by matching each entity in one
database with the most similar entity in the other database.  We use the same
similarity function used by DLearn.  Once the entities are resolved, we use
Castor to learn over the unified and clean database."

The resolver rewrites, for every MD, the values of the identified attribute
on one side to their single most similar value on the other side (when the
similarity clears the operator's threshold).  The target-relation side of an
MD is never rewritten — training examples are given, not stored — so for MDs
that involve the target the *database* side is rewritten towards the example
values.
"""

from __future__ import annotations

from ..constraints.mds import MatchingDependency
from ..core.problem import LearningProblem
from ..db.instance import DatabaseInstance
from ..similarity.index import SimilarityIndex

__all__ = ["resolve_entities"]


def resolve_entities(problem: LearningProblem, *, top_k: int = 1, threshold: float | None = None) -> DatabaseInstance:
    """Return the problem's database with its MD heterogeneities rewritten.

    Each MD with rewrites yields a new instance
    (:meth:`~repro.db.instance.DatabaseInstance.map_relation`); the original
    instance is never modified, and is returned itself when nothing needs
    rewriting.
    """
    database = problem.database
    indexes = problem.build_similarity_indexes(top_k=max(1, top_k), threshold=threshold)
    for md in problem.mds:
        index = indexes.get(md.name)
        if index is None:
            continue
        database = _resolve_md(database, problem, md, index)
    return database


def _resolve_md(
    database: DatabaseInstance,
    problem: LearningProblem,
    md: MatchingDependency,
    index: SimilarityIndex,
) -> DatabaseInstance:
    rewrite_relation, anchor_relation = _pick_sides(problem, md)
    rewrite_attribute, _anchor_attribute = md.oriented_identified(rewrite_relation)

    relation = database.relation(rewrite_relation)
    schema = relation.schema
    replacements: dict[object, object] = {}
    for value in relation.distinct_values(rewrite_attribute):
        if value is None:
            continue
        matches = index.matches_of(value)
        if not matches:
            continue
        best = matches[0]
        if best.partner != value:
            replacements[value] = best.partner

    if not replacements:
        return database

    def rewrite(tup):
        value = tup.value_of(schema, rewrite_attribute)
        if value in replacements:
            return tup.replace(schema, rewrite_attribute, replacements[value])
        return tup

    return database.map_relation(rewrite_relation, rewrite)


def _pick_sides(problem: LearningProblem, md: MatchingDependency) -> tuple[str, str]:
    """Return (relation to rewrite, relation providing the canonical values)."""
    if md.left_relation == problem.target_name:
        return md.right_relation, md.left_relation
    if md.right_relation == problem.target_name:
        return md.left_relation, md.right_relation
    # Neither side is the target: canonicalise the right relation towards the left.
    return md.right_relation, md.left_relation
