"""Repair generation: stable instances for MDs and minimal repairs for CFDs.

The learner itself never materialises repairs — that is the whole point of
the paper.  Repair generation is still needed in three places:

* the **test suite** validates the coverage semantics (Definitions 3.4/3.6)
  and the commutativity theorems (4.11/4.12) by comparing the learner's
  compact computation against brute-force enumeration over small databases;
* the **DLearn-Repaired baseline** (Section 6.1.3) learns over a single
  minimal repair of the CFD violations;
* the **Castor-Clean baseline** learns over a database whose MD
  heterogeneities were resolved up front.

``enforce_md`` implements Definition 2.2; ``stable_instances`` enumerates the
stable instances reachable by iterating MD applications (exponential — only
for small inputs); ``minimal_cfd_repair`` produces one repair of the CFD
violations using the minimal value-modification semantics the paper adopts
for its baseline.

Every repair is a new plain :class:`~repro.db.instance.DatabaseInstance`,
built by :meth:`~repro.db.instance.DatabaseInstance.replace_value_globally`
(MDs) or :meth:`~repro.db.instance.DatabaseInstance.map_relation` (CFDs) and
sharing the original instance's interner; the original is never modified.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Iterable, Iterator

from ..db.instance import DatabaseInstance
from ..db.tuples import Tuple
from ..logic.terms import Constant, matched_constant
from .cfds import WILDCARD, ConditionalFunctionalDependency
from .mds import MatchingDependency
from .violations import MDMatch, find_cfd_violations, find_md_matches

__all__ = [
    "enforce_md",
    "stable_instances",
    "is_stable",
    "minimal_cfd_repair",
    "repairs_of",
]


def _unified_value(left: object, right: object) -> object:
    """The fresh value ``v_{a,b}`` both sides are unified to (Section 2.2)."""
    return matched_constant(Constant(left), Constant(right)).value


_MATCH_MARKER = "<match:"


def _guarded_similarity(similar: Callable[[object, object], bool]) -> Callable[[object, object], bool]:
    """Wrap a similarity predicate so fresh matched values only match themselves.

    The paper treats the unified value ``v_{a,b}`` as a fresh value whose
    relationship to other values is unknown; without this guard the textual
    rendering of two different matched values can look "similar" to the
    string operator and repair enumeration would keep merging unrelated
    entities.
    """

    def inner(left: object, right: object) -> bool:
        left_is_match = isinstance(left, str) and left.startswith(_MATCH_MARKER)
        right_is_match = isinstance(right, str) and right.startswith(_MATCH_MARKER)
        if left_is_match or right_is_match:
            return left == right
        return similar(left, right)

    return inner


def enforce_md(instance: DatabaseInstance, match: MDMatch) -> DatabaseInstance:
    """Enforce one MD on one matched tuple pair (Definition 2.2).

    Both identified values are replaced *globally* with the fresh unified
    value ``v_{a,b}``: the paper treats the two original values as two
    representations of one real-world value, so every other occurrence of
    either representation denotes that same value as well.  Global
    replacement is also what makes repeated enforcement terminate.
    """
    if not match.needs_enforcement:
        return instance
    unified = _unified_value(match.left_value, match.right_value)
    repaired = instance.replace_value_globally(match.left_value, unified)
    return repaired.replace_value_globally(match.right_value, unified)


def _pending_matches(
    instance: DatabaseInstance,
    mds: Iterable[MatchingDependency],
    similar: Callable[[object, object], bool],
) -> list[MDMatch]:
    guarded = _guarded_similarity(similar)
    pending: list[MDMatch] = []
    for md in mds:
        pending.extend(find_md_matches(instance, md, guarded, only_disagreeing=True))
    return pending


def is_stable(
    instance: DatabaseInstance,
    mds: Iterable[MatchingDependency],
    similar: Callable[[object, object], bool],
) -> bool:
    """A stable instance has no MD match left that still needs enforcement."""
    return not _pending_matches(instance, list(mds), similar)


def _instance_fingerprint(instance: DatabaseInstance) -> frozenset[tuple[str, tuple[object, ...]]]:
    return frozenset((tup.relation, tup.values) for tup in instance.all_tuples())


def stable_instances(
    instance: DatabaseInstance,
    mds: Iterable[MatchingDependency],
    similar: Callable[[object, object], bool],
    *,
    limit: int = 64,
    max_steps: int = 10_000,
) -> Iterator[DatabaseInstance]:
    """Enumerate stable instances reachable by iterating MD enforcement.

    Different enforcement orders can produce different stable instances
    (Example 2.3); this generator explores all orders, deduplicates states
    and yields each distinct stable instance once.  Both the number of
    yielded instances and the number of explored states are bounded because
    the search is exponential by nature — use only on small databases.
    """
    mds = list(mds)
    seen_states: set[frozenset] = set()
    yielded: set[frozenset] = set()
    stack: list[DatabaseInstance] = [instance]
    steps = 0
    produced = 0

    while stack and produced < limit and steps < max_steps:
        current = stack.pop()
        steps += 1
        fingerprint = _instance_fingerprint(current)
        if fingerprint in seen_states:
            continue
        seen_states.add(fingerprint)

        pending = _pending_matches(current, mds, similar)
        if not pending:
            if fingerprint not in yielded:
                yielded.add(fingerprint)
                produced += 1
                yield current
            continue
        for match in pending:
            stack.append(enforce_md(current, match))


def minimal_cfd_repair(
    instance: DatabaseInstance,
    cfds: Iterable[ConditionalFunctionalDependency],
    *,
    max_rounds: int = 10,
) -> DatabaseInstance:
    """Produce one repair of the CFD violations by minimal value modification.

    For every CFD and every violating LHS group the right-hand side values
    are unified to the group's most frequent RHS value that satisfies the
    RHS pattern (falling back to the pattern constant itself when no tuple
    satisfies it).  Repairing one CFD can induce violations of another
    (Section 4.1 discusses the analogous effect on clauses), so the procedure
    iterates to a fixpoint, bounded by ``max_rounds``.

    This mirrors the "minimal repair method, which is popular in repairing
    CFDs" that the paper uses to build the DLearn-Repaired baseline
    (Section 6.1.3).

    Each repairing step builds a new instance; the original instance itself
    is returned when no violation needs repairing.
    """
    cfds = list(cfds)
    current: DatabaseInstance = instance
    for _ in range(max_rounds):
        changed = False
        for cfd in cfds:
            relation = current.relation(cfd.relation)
            schema = relation.schema
            groups: dict[tuple[object, ...], list[Tuple]] = defaultdict(list)
            for tup in relation:
                if cfd.lhs_matches_pattern(schema, tup):
                    groups[cfd.lhs_values(schema, tup)].append(tup)

            replacements: dict[Tuple, Tuple] = {}
            for group in groups.values():
                rhs_values = [cfd.rhs_value(schema, tup) for tup in group]
                valid_values = [value for value in rhs_values if _rhs_ok(cfd, value)]
                needs_repair = len(set(rhs_values)) > 1 or any(not _rhs_ok(cfd, value) for value in rhs_values)
                if not needs_repair:
                    continue
                if valid_values:
                    target_value = Counter(valid_values).most_common(1)[0][0]
                elif cfd.rhs_pattern is not WILDCARD:
                    target_value = cfd.rhs_pattern
                else:  # pragma: no cover - unreachable: some value always exists
                    target_value = rhs_values[0]
                for tup in group:
                    if cfd.rhs_value(schema, tup) != target_value:
                        replacements[tup] = tup.replace(schema, cfd.rhs, target_value)

            if replacements:
                changed = True
                current = current.map_relation(
                    cfd.relation, lambda tup, mapping=replacements: mapping.get(tup, tup)
                )
        if not changed:
            break
    return current


def _rhs_ok(cfd: ConditionalFunctionalDependency, value: object) -> bool:
    return cfd.rhs_pattern is WILDCARD or value == cfd.rhs_pattern


def repairs_of(
    instance: DatabaseInstance,
    mds: Iterable[MatchingDependency],
    cfds: Iterable[ConditionalFunctionalDependency],
    similar: Callable[[object, object], bool],
    *,
    limit: int = 64,
) -> Iterator[DatabaseInstance]:
    """Enumerate repairs of *instance*: stable under the MDs and satisfying the CFDs.

    Section 3.1: "A repair of I is a stable instance of I that satisfies Φ."
    Each stable instance is CFD-repaired with the minimal-modification
    procedure; distinct results are yielded once.  Exponential — small
    databases (tests) only.
    """
    cfds = list(cfds)
    seen: set[frozenset] = set()
    for stable in stable_instances(instance, mds, similar, limit=limit):
        repaired = minimal_cfd_repair(stable, cfds)
        fingerprint = _instance_fingerprint(repaired)
        if fingerprint not in seen:
            seen.add(fingerprint)
            yield repaired
