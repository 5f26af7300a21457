"""Compiled integer-plane θ-subsumption.

The object-level reference engine
(:class:`repro.testing.oracles.ReferenceSubsumptionChecker`) runs its NP-hard
backtracking search directly on boxed :class:`~repro.logic.terms.Variable` /
:class:`~repro.logic.terms.Constant` dataclasses: every binding copies a
dict-backed :class:`~repro.logic.substitution.Substitution`, every candidate
probe hashes tuples of terms, and every recursion re-derives per-goal data
from scratch.  This module compiles a clause pair into a flat integer form
once and runs the same search on arrays:

* a :class:`TermInterner` (shared per database preparation, analogous to
  :class:`repro.db.interning.ValueInterner`) maps every term to a dense int
  id, so term equality is machine-int equality;
* the general clause's variables become *slots* of a fixed-size mutable
  binding array (slot → term id, ``-1`` for unbound) with an undo **trail**,
  making bind/backtrack O(1) instead of O(|θ|) dict copies;
* the specific clause's literals become int-tuple rows grouped by signature
  id, with a per-argument-position ``{term id → row bitmask}`` table so that
  candidate pre-filtering is a couple of dict probes and an ``&``;
* the general clause's goals are decomposed into connected components of the
  variable-sharing join graph (head-bound slots do not connect); independent
  components are solved separately instead of multiplying branching factors.

The compiled engine is observationally equal to the reference checker —
identical verdicts, valid witnesses, identical retained-literal lists — and
:class:`~repro.logic.subsumption.SubsumptionChecker` runs every check on it;
the reference lives in :mod:`repro.testing.oracles` as the oracle the
property suites compare against.

Budget semantics: the compiled search honours the checker's ``max_steps``
valve with the same conservative "does not subsume" answer.  Steps charge
every search node its number of unassigned goals plus every real candidate
scan, so the budget bounds the node count — and with it per-check wall
clock — not just scan attempts; the exact step a given pair exhausts at is
an engine property, not a clause-pair property, exactly as the counter
already made it between two reference runs with different limits.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, NewType, Sequence, TypeVar

from .atoms import ComparisonOp, Literal, LiteralKind
from .clauses import HornClause
from .substitution import Substitution
from .terms import Term, Variable, is_constant, is_variable

__all__ = [
    "TermId",
    "TermInterner",
    "ClauseCompiler",
    "CompiledGeneral",
    "CompiledSpecific",
]

#: Opaque alias for the dense term ids handed out by :class:`TermInterner`.
#: Distinct from :data:`repro.db.interning.ValueId` on purpose: the two id
#: planes are meaningless relative to each other's dictionaries, and typing
#: them separately lets mypy reject a term id flowing into a value-id probe
#: (or vice versa) at signature boundaries.  At runtime a ``TermId`` is
#: exactly an ``int``.  Goal argument *codes* stay plain ``int``: a code
#: mixes term ids (``>= 0``) with complemented slot numbers (``< 0``), so it
#: is deliberately not a ``TermId``.
TermId = NewType("TermId", int)

#: Comparison / condition operator codes on the integer plane.
_EQ, _SIM, _NEQ = 0, 1, 2

_OP_CODE = {ComparisonOp.EQ: _EQ, ComparisonOp.SIM: _SIM, ComparisonOp.NEQ: _NEQ}
_KIND_CODE = {LiteralKind.EQUALITY: _EQ, LiteralKind.SIMILARITY: _SIM, LiteralKind.INEQUALITY: _NEQ}

#: Compiled-form caches are cleared wholesale past this size.  One learning
#: run touches at most a few hundred distinct clauses per side, and bulk
#: prediction reuses a ground form only within the batch that built it, so
#: eviction is a safety valve that bounds the live heap of long-lived
#: preparations, not a steady-state event.  The cap only bounds the
#: compiled *forms*: the term and signature dictionaries are
#: append-only for the compiler's lifetime — ids handed out must stay valid
#: for every compiled form still in use, exactly like the storage layer's
#: value interner — so a serving process that keeps meeting fresh constants
#: should scope its sessions (and with them their compilers) rather than
#: hold one compiler forever.
_COMPILE_CACHE_SIZE = 1024


class BudgetExceeded(Exception):
    """Raised by the compiled search when the checker's step budget runs out."""


class TermInterner:
    """Bidirectional term ⇄ dense-int-id dictionary, shared across clauses.

    Ids are only meaningful relative to the interner that produced them; two
    compiled clause forms can be matched against each other iff they were
    compiled through the same interner (the checker guards this).  The
    interner is append-only.  One interner serves every session over a
    database preparation, so first-sight inserts are locked: sessions driven
    from different threads must never hand out one id twice.
    """

    __slots__ = ("_ids", "_terms", "_is_var", "_lock")

    def __init__(self) -> None:
        self._ids: dict[Term, TermId] = {}
        self._terms: list[Term] = []
        self._is_var: list[bool] = []
        self._lock = threading.Lock()

    def intern(self, term: Term) -> TermId:
        """Return the id of *term*, assigning the next dense id on first sight."""
        # TermId() wrapping only happens on the locked first-sight path; hits
        # return the already-typed id straight out of the dict.
        tid = self._ids.get(term)
        if tid is None:
            with self._lock:
                tid = self._ids.get(term)
                if tid is None:
                    tid = TermId(len(self._terms))
                    self._terms.append(term)
                    self._is_var.append(is_variable(term))
                    self._ids[term] = tid
        return tid

    def intern_many(self, terms: Iterable[Term]) -> tuple[TermId, ...]:
        intern = self.intern
        return tuple(intern(term) for term in terms)

    def term_of(self, tid: TermId) -> Term:
        return self._terms[tid]

    def is_var(self, tid: TermId) -> bool:
        return self._is_var[tid]

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TermInterner({len(self)} terms)"


class _Goal:
    """One structural (relation or repair) literal of the compiled general clause.

    ``codes`` encodes the argument terms: ``code >= 0`` is a term id that must
    match the candidate exactly, ``code < 0`` is variable slot ``~code``.
    ``cond`` carries the compiled condition comparisons for repair literals.
    ``footprint`` is the frozenset of slots whose bindings can change the
    goal's match outcome (argument and condition slots), used for dirty-goal
    tracking during the search.
    """

    __slots__ = ("sig", "codes", "cond", "footprint", "literal")

    literal: Literal | None

    def __init__(
        self,
        sig: int,
        codes: tuple[int, ...],
        cond: tuple[tuple[int, int, int], ...] | None,
        footprint: frozenset[int],
        literal: Literal | None = None,
    ) -> None:
        self.sig = sig
        self.codes = codes
        self.cond = cond
        self.footprint = footprint
        self.literal = literal


class _Group:
    """All specific-side candidate rows sharing one signature id."""

    __slots__ = ("base", "nrows", "pos_masks", "full_mask")

    def __init__(self, base: int, nrows: int, pos_masks: list[dict[int, int]]) -> None:
        self.base = base
        self.nrows = nrows
        self.pos_masks = pos_masks
        self.full_mask = (1 << nrows) - 1


class CompiledGeneral:
    """Flat integer form of the general (C) side of subsumption checks."""

    __slots__ = (
        "terms",
        "clause",
        "head_key",
        "head_codes",
        "nslots",
        "slot_terms",
        "slot_ids",
        "var_slot",
        "goals",
        "comparison_triples",
        "comparison_is_eq",
        "comparison_literals",
        "body_entries",
        "components",
        "ground_triples",
        "all_goal_idxs",
        "all_triples_ordered",
    )

    # Slots are assigned by ClauseCompiler.compile_general, not in __init__;
    # the class-level annotations give mypy the attribute types anyway.
    terms: TermInterner
    clause: HornClause
    head_key: tuple[str, int]
    head_codes: tuple[int, ...]
    nslots: int
    slot_terms: tuple[Variable, ...]
    slot_ids: tuple[TermId, ...]
    var_slot: dict[TermId, int]
    goals: "tuple[_Goal, ...]"
    comparison_triples: tuple[tuple[int, int, int], ...]
    comparison_is_eq: tuple[bool, ...]
    comparison_literals: tuple[Literal, ...]
    body_entries: tuple[tuple[bool, int], ...]
    components: tuple[tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]], ...]
    ground_triples: tuple[tuple[int, int, int], ...]
    all_goal_idxs: tuple[int, ...]
    all_triples_ordered: tuple[tuple[int, int, int], ...]

    def witness_theta(self, binding: Sequence[int]) -> Substitution:
        """Decode a binding array back to a boxed substitution."""
        term_of = self.terms.term_of
        return Substitution(
            {self.slot_terms[slot]: term_of(tid) for slot, tid in enumerate(binding) if tid >= 0}
        )

    def ordered_triples(self, comp_idxs: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
        """Comparison triples for *comp_idxs*, equality literals first.

        The single home of the comparison-evaluation order (the reference
        checker's stable equality-first sort — equalities may bind still-free
        variables): component compilation and the retained-generalization
        retry both order through here.
        """
        ordered = sorted(comp_idxs, key=lambda j: 0 if self.comparison_is_eq[j] else 1)
        return tuple(self.comparison_triples[j] for j in ordered)


class CompiledSpecific:
    """Flat integer form of the specific (D) side of subsumption checks.

    Rows are the equality-collapsed structural literals of ``clause``
    grouped by signature in order of first appearance (so candidate
    iteration order matches the reference checker's), addressed by a global
    candidate index; ``canon_of`` folds duplicate collapsed literals onto
    one id so connectivity checks compare literal identity the way the
    reference's literal sets do.
    """

    __slots__ = (
        "terms",
        "clause",
        "head_key",
        "head_ids",
        "groups",
        "rows",
        "conds",
        "literal_of",
        "canon_of",
        "collapse_ids",
        "similar",
        "unequal",
        "conn_map",
        "has_repairs",
    )

    # Slots are assigned by ClauseCompiler.compile_specific, not in __init__;
    # the class-level annotations give mypy the attribute types anyway.
    terms: TermInterner
    clause: HornClause
    head_key: tuple[str, int]
    head_ids: tuple[TermId, ...]
    groups: "dict[int, _Group]"
    rows: list[tuple[TermId, ...]]
    conds: list[frozenset[tuple[int, int, int]] | None]
    literal_of: list[Literal]
    canon_of: list[int]
    collapse_ids: dict[TermId, TermId]
    similar: set[tuple[int, int]]
    unequal: set[tuple[int, int]]
    conn_map: dict[int, tuple[int, ...]]
    has_repairs: bool

    def witness_mapped(self, assignment: Iterable[int]) -> frozenset[Literal]:
        literal_of = self.literal_of
        return frozenset(literal_of[gidx] for gidx in assignment)


def _pair(left: int, right: int) -> tuple[int, int]:
    return (left, right) if left <= right else (right, left)


#: Literal signature: (kind, predicate, arity).
Signature = tuple[str, str, int]

#: Cache key of a compiled form: (head, body tuple); see ClauseCompiler.__init__.
_ClauseKey = tuple[Literal, tuple[Literal, ...]]

_Form = TypeVar("_Form", CompiledGeneral, CompiledSpecific)


class _UnionFind:
    """Union–find over terms, used to collapse D-side equality literals.

    ``find`` is iterative with full path compression: D-side equality chains
    grow with the clause (one link per equality literal), so a recursive walk
    can exhaust Python's recursion limit mid-subsumption on large bottom
    clauses.  ``union`` of two distinct constants marks the structure
    ``unsatisfiable`` instead of collapsing them — the body asserts an
    equality that holds in no model, and merging the constants would let a
    general clause match literals it cannot actually map onto.
    """

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}
        self.unsatisfiable = False

    def find(self, term: Term) -> Term:
        root = term
        parent = self._parent.get(root, root)
        while parent != root:
            root = parent
            parent = self._parent.get(root, root)
        while term != root:
            next_term = self._parent[term]
            self._parent[term] = root
            term = next_term
        return root

    def mapping(self) -> dict[Term, Term]:
        """Every known term mapped to its current root (used by clause compilation)."""
        return {term: self.find(term) for term in list(self._parent)}

    def union(self, left: Term, right: Term) -> None:
        root_left, root_right = self.find(left), self.find(right)
        if root_left == root_right:
            return
        if is_constant(root_left) and is_constant(root_right):
            # Two distinct constants asserted equal: the body is unsatisfiable.
            # Refuse the merge — matching against the uncollapsed terms stays
            # sound, and the flag lets callers surface the inconsistency.
            self.unsatisfiable = True
            return
        # Prefer constants as representatives so collapsed variables expose
        # their ground value to constant pre-filtering.
        if is_constant(root_left):
            self._parent[root_right] = root_left
        else:
            self._parent[root_left] = root_right


def _collapse_body(
    clause: HornClause,
) -> tuple[_UnionFind, dict[Signature, list[Literal]], set[frozenset[Term]], set[frozenset[Term]]]:
    """The equality collapse of *clause*'s body, as the specific side of a check sees it.

    Returns the collapse map, the collapsed structural (relation and repair)
    literals grouped by signature in body order, and the collapsed
    similarity and inequality term pairs.  If ``D`` asserts ``x = y`` the two
    terms denote one value in every model of ``D``, so matching against the
    collapsed clause is sound.
    """
    collapse = _UnionFind()
    for literal in clause.body:
        if literal.kind is LiteralKind.EQUALITY:
            collapse.union(literal.terms[0], literal.terms[1])
    canon: dict[Term, Term] = {}
    index: dict[Signature, list[Literal]] = {}
    similar: set[frozenset[Term]] = set()
    unequal: set[frozenset[Term]] = set()
    for literal in clause.body:
        if literal.is_relation or literal.is_repair:
            mapping: dict[Term, Term] = {}
            for term in literal.all_terms():
                root = canon.get(term)
                if root is None:
                    root = canon[term] = collapse.find(term)
                mapping[term] = root
            collapsed = literal.replace_terms(mapping)
            index.setdefault(collapsed.signature(), []).append(collapsed)
        elif literal.kind is LiteralKind.SIMILARITY:
            similar.add(frozenset((collapse.find(literal.terms[0]), collapse.find(literal.terms[1]))))
        elif literal.kind is LiteralKind.INEQUALITY:
            unequal.add(frozenset((collapse.find(literal.terms[0]), collapse.find(literal.terms[1]))))
    return collapse, index, similar, unequal


class ClauseCompiler:
    """Compiles clauses of one database preparation into the shared integer plane.

    Owns the preparation's :class:`TermInterner` and signature dictionary
    plus the one bounded cache of compiled forms per side:
    :meth:`general_form` and :meth:`specific_form` compile a clause on its
    first sight and serve the same form to every later check, in every
    session over the preparation.  Compiled forms are pure functions of the
    clause, so database writes never invalidate them.
    """

    __slots__ = ("terms", "_sig_ids", "_lock", "_general_cache", "_specific_cache")

    def __init__(self) -> None:
        self.terms = TermInterner()
        self._sig_ids: dict[Signature, int] = {}
        self._lock = threading.Lock()
        # Cache keys are (head, body-tuple), NOT the clause: HornClause
        # equality ignores body order and duplicates, but compiled forms are
        # order-sensitive — retained_generalization processes literals in
        # body order and candidate rows follow it — so order-variant clauses
        # must not share a compiled form.
        self._general_cache: dict[_ClauseKey, CompiledGeneral] = {}
        self._specific_cache: dict[_ClauseKey, CompiledSpecific] = {}

    def signature_id(self, signature: Signature) -> int:
        sid = self._sig_ids.get(signature)
        if sid is None:
            with self._lock:
                sid = self._sig_ids.get(signature)
                if sid is None:
                    sid = len(self._sig_ids)
                    self._sig_ids[signature] = sid
        return sid

    # ------------------------------------------------------------------ #
    # cached entry points
    # ------------------------------------------------------------------ #
    # A compiled form belongs to the compiler whose term dictionary it was
    # built over.  Forms hold that dictionary, not the compiler: a back
    # reference would put every cached form in a cycle with the compiler's
    # caches, and a dropped preparation's whole compiled plane would then
    # wait for the cyclic collector instead of being freed at once.
    def general_form(self, clause: HornClause) -> CompiledGeneral:
        """The compiled general (C) side of *clause*, compiled on first sight."""
        return self._cached(self._general_cache, clause, self.compile_general)

    def specific_form(self, clause: HornClause) -> CompiledSpecific:
        """The compiled specific (D) side of *clause*, compiled on first sight."""
        return self._cached(self._specific_cache, clause, self.compile_specific)

    def _cached(
        self, cache: dict[_ClauseKey, _Form], clause: HornClause, compile_form: Callable[[HornClause], _Form]
    ) -> _Form:
        key = (clause.head, clause.body)
        form = cache.get(key)
        if form is None:
            form = compile_form(clause)
            # The compiler is shared by every session over one database
            # preparation; eviction (check, clear, insert) stays atomic
            # under its lock.  A racing duplicate compile would be fine —
            # forms are pure — but a clear interleaving with an insert
            # must not lose the entry.
            with self._lock:
                if len(cache) >= _COMPILE_CACHE_SIZE:
                    cache.clear()
                cache[key] = form
        return form

    # ------------------------------------------------------------------ #
    # general-side compilation
    # ------------------------------------------------------------------ #
    def compile_general(self, clause: HornClause) -> CompiledGeneral:
        """Compile *clause* as the general side (uncached; see :meth:`general_form`)."""
        slots: dict[Variable, int] = {}

        def code_of(term: Term) -> int:
            if is_variable(term):
                slot = slots.get(term)
                if slot is None:
                    slot = len(slots)
                    slots[term] = slot
                return ~slot
            return self.terms.intern(term)

        def compile_condition(literal: Literal) -> tuple[tuple[int, int, int], ...]:
            return tuple(
                (_OP_CODE[c.op], code_of(c.left), code_of(c.right)) for c in literal.condition.comparisons
            )

        compiled = CompiledGeneral()
        head = clause.head
        compiled.head_codes = tuple(code_of(t) for t in head.terms)
        compiled.head_key = (head.predicate, head.arity)

        goals: list[_Goal] = []
        triples: list[tuple[int, int, int]] = []
        comp_literals: list[Literal] = []
        body_entries: list[tuple[bool, int]] = []
        for literal in clause.body:
            if literal.is_relation or literal.is_repair:
                codes = tuple(code_of(t) for t in literal.terms)
                cond = compile_condition(literal) if literal.is_repair else None
                footprint = {~c for c in codes if c < 0}
                if cond:
                    for _, left, right in cond:
                        if left < 0:
                            footprint.add(~left)
                        if right < 0:
                            footprint.add(~right)
                goals.append(
                    _Goal(self.signature_id(literal.signature()), codes, cond, frozenset(footprint), literal)
                )
                body_entries.append((True, len(goals) - 1))
            else:
                triples.append((_KIND_CODE[literal.kind], code_of(literal.terms[0]), code_of(literal.terms[1])))
                comp_literals.append(literal)
                body_entries.append((False, len(triples) - 1))

        compiled.terms = self.terms
        compiled.clause = clause
        compiled.nslots = len(slots)
        compiled.slot_terms = tuple(slots)
        compiled.slot_ids = self.terms.intern_many(slots)
        compiled.var_slot = {tid: slot for slot, tid in enumerate(compiled.slot_ids)}
        compiled.goals = tuple(goals)
        compiled.comparison_triples = tuple(triples)
        compiled.comparison_is_eq = tuple(kind == _EQ for kind, _, _ in triples)
        compiled.comparison_literals = tuple(comp_literals)
        compiled.body_entries = tuple(body_entries)
        self._decompose(compiled)
        return compiled

    def _decompose(self, compiled: CompiledGeneral) -> None:
        """Connected components of the join graph over non-head-bound slots.

        Goals and comparison literals are the nodes; two nodes are connected
        when they share a slot that is *not* bound by the head seed.  Each
        component is solved independently — the verdict is the conjunction —
        which turns a multiplicative branching factor into an additive one.
        Comparisons with no free slot are pure checks, evaluated once before
        any component search.
        """
        head_slots = {~code for code in compiled.head_codes if code < 0}
        n_goals = len(compiled.goals)
        items: list[frozenset[int]] = [goal.footprint - head_slots for goal in compiled.goals]
        for _, left, right in compiled.comparison_triples:
            free = {~c for c in (left, right) if c < 0} - head_slots
            items.append(frozenset(free))

        parent = list(range(len(items)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        slot_owner: dict[int, int] = {}
        for index, free in enumerate(items):
            for slot in free:
                owner = slot_owner.setdefault(slot, index)
                if owner != index:
                    parent[find(index)] = find(owner)

        grouped: dict[int, tuple[list[int], list[int]]] = {}
        ground: list[int] = []
        for index, free in enumerate(items):
            is_goal = index < n_goals
            if not free and not is_goal:
                ground.append(index - n_goals)
                continue
            root = find(index)
            goal_idxs, comp_idxs = grouped.setdefault(root, ([], []))
            if is_goal:
                goal_idxs.append(index)
            else:
                comp_idxs.append(index - n_goals)

        compiled.components = tuple(
            (tuple(goal_idxs), compiled.ordered_triples(comp_idxs))
            for goal_idxs, comp_idxs in grouped.values()
        )
        compiled.ground_triples = compiled.ordered_triples(ground)
        compiled.all_goal_idxs = tuple(range(n_goals))
        compiled.all_triples_ordered = compiled.ordered_triples(range(len(compiled.comparison_triples)))

    # ------------------------------------------------------------------ #
    # specific-side compilation
    # ------------------------------------------------------------------ #
    def compile_specific(self, clause: HornClause) -> CompiledSpecific:
        """Compile *clause* as the specific side (uncached; see :meth:`specific_form`).

        The body's equality literals are collapsed first (see
        :func:`_collapse_body`); the rows are the collapsed structural
        literals.
        """
        collapse, index, similar, unequal = _collapse_body(clause)
        intern = self.terms.intern
        compiled = CompiledSpecific()
        compiled.terms = self.terms
        compiled.clause = clause
        head = clause.head
        compiled.head_key = (head.predicate, head.arity)
        compiled.head_ids = tuple(intern(collapse.find(t)) for t in head.terms)

        rows: list[tuple[TermId, ...]] = []
        conds: list[frozenset[tuple[int, int, int]] | None] = []
        literal_of: list[Literal] = []
        canon_of: list[int] = []
        canon_ids: dict[Literal, int] = {}
        groups: dict[int, _Group] = {}
        for signature, literals in index.items():
            base = len(rows)
            arity = signature[2]
            pos_masks: list[dict[int, int]] = [{} for _ in range(arity)]
            for row, literal in enumerate(literals):
                ids = tuple(intern(t) for t in literal.terms)
                rows.append(ids)
                literal_of.append(literal)
                canon_of.append(canon_ids.setdefault(literal, base + row))
                if literal.is_repair:
                    conds.append(
                        frozenset(
                            (_OP_CODE[c.op], *_pair(intern(c.left), intern(c.right)))
                            for c in literal.condition.comparisons
                        )
                    )
                else:
                    conds.append(None)
                for pos, tid in enumerate(ids):
                    pos_masks[pos][tid] = pos_masks[pos].get(tid, 0) | (1 << row)
            groups[self.signature_id(signature)] = _Group(base, len(literals), pos_masks)

        compiled.groups = groups
        compiled.rows = rows
        compiled.conds = conds
        compiled.literal_of = literal_of
        compiled.canon_of = canon_of
        compiled.collapse_ids = {
            intern(term): intern(root) for term, root in collapse.mapping().items()
        }
        compiled.similar = self._pair_set(similar)
        compiled.unequal = self._pair_set(unequal)

        distinct = list(canon_ids)
        compiled.has_repairs = any(literal.is_repair for literal in distinct)
        conn_map: dict[int, tuple[int, ...]] = {}
        if compiled.has_repairs:
            collapsed_clause = HornClause(head, tuple(distinct))
            for literal in distinct:
                if literal.is_repair:
                    continue
                connected = collapsed_clause.repair_literals_connected_to(literal)
                if connected:
                    # connected is a set; sort the ids so equal clauses always
                    # compile to identical conn_map tuples.
                    conn_map[canon_ids[literal]] = tuple(sorted(canon_ids[r] for r in connected))
        compiled.conn_map = conn_map
        return compiled

    def _pair_set(self, pairs: Iterable[frozenset[Term]]) -> set[tuple[int, int]]:
        """Symmetric term-pair sets (similarity / inequality) as sorted id pairs."""
        out: set[tuple[int, int]] = set()
        for pair in pairs:
            ids = [self.terms.intern(t) for t in pair]
            out.add((ids[0], ids[0]) if len(ids) == 1 else _pair(ids[0], ids[1]))
        return out


class CompiledSearch:
    """One θ-subsumption search over a compiled clause pair.

    Mutable per-check state: the binding array, the undo trail, the goal →
    candidate assignment, and the step counter.  The search mirrors the
    reference checker's dynamic most-constrained-goal-first backtracking —
    including its candidate order, so the first witness found (and with it
    every verdict that depends on which witness is examined for repair
    connectivity) is decided by the same preference — but runs it per join
    component with bitmask candidate pre-filtering and dirty-goal candidate
    caching.
    """

    __slots__ = (
        "cg",
        "cs",
        "binding",
        "trail",
        "assignment",
        "steps",
        "max_steps",
        "require_connectivity",
    )

    def __init__(
        self,
        cg: CompiledGeneral,
        cs: CompiledSpecific,
        *,
        max_steps: int | None,
        steps: int = 0,
    ) -> None:
        self.cg = cg
        self.cs = cs
        self.binding = [-1] * cg.nslots
        self.trail: list[int] = []
        self.assignment: dict[int, int] = {}
        self.steps = steps
        self.max_steps = max_steps
        self.require_connectivity = False

    # ------------------------------------------------------------------ #
    # driver entry points
    # ------------------------------------------------------------------ #
    def seed_head(self) -> bool:
        """Bind the head slots against the specific clause's collapsed head."""
        cg, cs = self.cg, self.cs
        if cg.head_key != cs.head_key:
            return False
        binding = self.binding
        for code, tid in zip(cg.head_codes, cs.head_ids):
            if code >= 0:
                if code != tid:
                    return False
            else:
                slot = ~code
                bound = binding[slot]
                if bound < 0:
                    binding[slot] = tid
                    self.trail.append(slot)
                elif bound != tid:
                    return False
        return True

    def run(self) -> bool:
        """Solve every join component independently (no connectivity requirement)."""
        if not self.check_comparisons(self.cg.ground_triples):
            return False
        for goal_idxs, triples in self.cg.components:
            if not self.search(goal_idxs, triples, {}):
                return False
        return True

    def run_with_connectivity(self) -> bool:
        """Exhaustive single-blob search for a witness satisfying Definition 4.4.

        Connectivity couples components (whether a D literal is mapped
        depends on every goal's image), so the retry gives up decomposition
        and searches all goals jointly, checking connectivity at each
        complete assignment — the reference's retry semantics.
        """
        self.require_connectivity = True
        if not self.check_comparisons(self.cg.ground_triples):
            return False
        return self.search(self.cg.all_goal_idxs, self.cg.all_triples_ordered, {})

    def witness_theta(self) -> Substitution:
        return self.cg.witness_theta(self.binding)

    def witness_mapped(self) -> frozenset[Literal]:
        return self.cs.witness_mapped(self.assignment.values())

    # ------------------------------------------------------------------ #
    # backtracking core
    # ------------------------------------------------------------------ #
    def undo(self, mark: int) -> None:
        trail = self.trail
        binding = self.binding
        while len(trail) > mark:
            binding[trail.pop()] = -1

    def search(
        self,
        goal_idxs: Sequence[int],
        triples: tuple[tuple[int, int, int], ...],
        cache: dict[int, list[int]],
    ) -> bool:
        """Most-constrained-goal-first backtracking over one goal set.

        ``cache`` memoises each goal's consistent-candidate list; entries are
        dropped for exactly the goals whose footprint intersects the slots a
        branch newly bound, so clean goals are never re-scanned at deeper
        recursion levels (the integer-plane form of the reference checker's
        dirty-goal tracking).
        """
        assignment = self.assignment
        remaining = [g for g in goal_idxs if g not in assignment]
        if not remaining:
            mark = len(self.trail)
            if not self.check_comparisons(triples):
                self.undo(mark)
                return False
            if self.require_connectivity and not self.connectivity_ok():
                self.undo(mark)
                return False
            return True

        # Every node costs O(|remaining|) regardless of how the selection
        # loop short-circuits (the remaining rebuild, the selection scan, the
        # per-branch cache filtering); charge it up front so the step budget
        # bounds the number of search nodes — and with it wall clock — the
        # way the pre-cache full rescans implicitly did.
        if self.max_steps is not None:
            self.steps += len(remaining)
            if self.steps > self.max_steps:
                raise BudgetExceeded()

        goals = self.cg.goals
        best_goal = -1
        best: list[int] | None = None
        for g in remaining:
            candidates = cache.get(g)
            if candidates is None:
                candidates = self.consistent_rows(goals[g])
                cache[g] = candidates
            if best is None or len(candidates) < len(best):
                best_goal, best = g, candidates
                if not best:
                    return False
                if len(best) == 1:
                    break

        goal = goals[best_goal]
        for gidx in best:
            mark = len(self.trail)
            if not self.match_candidate(goal, gidx):
                self.undo(mark)
                continue
            newly = set(self.trail[mark:])
            child_cache = {
                g: candidates
                for g, candidates in cache.items()
                if g != best_goal and not (goals[g].footprint & newly)
            }
            assignment[best_goal] = gidx
            if self.search(goal_idxs, triples, child_cache):
                return True
            del assignment[best_goal]
            self.undo(mark)
        return False

    def candidate_mask(self, goal: _Goal) -> tuple[_Group | None, int]:
        """Bitmask pre-filter over *goal*'s signature group under the current bindings.

        The per-position ``{term id → row bitmask}`` tables narrow the row
        set with dict probes and ``&`` before any row is touched; positions
        whose slot is still unbound constrain nothing.  Shared by the
        backtracking scan and the greedy retained-generalization scan so the
        two stay in lockstep.
        """
        group = self.cs.groups.get(goal.sig)
        if group is None:
            return None, 0
        mask = group.full_mask
        binding = self.binding
        for pos, code in enumerate(goal.codes):
            if code >= 0:
                value = code
            else:
                value = binding[~code]
                if value < 0:
                    continue
            mask &= group.pos_masks[pos].get(value, 0)
            if not mask:
                break
        return group, mask

    def consistent_rows(self, goal: _Goal) -> list[int]:
        """Global indexes of the candidates matching *goal* under the current bindings.

        Mask-surviving rows still run the full match (repeated variables,
        unbound-slot binding, repair conditions) against the binding array;
        each attempted row charges the step budget.
        """
        group, mask = self.candidate_mask(goal)
        rows: list[int] = []
        if not mask:
            return rows
        base = group.base
        max_steps = self.max_steps
        while mask:
            low = mask & -mask
            mask ^= low
            gidx = base + low.bit_length() - 1
            if max_steps is not None:
                self.steps += 1
                if self.steps > max_steps:
                    raise BudgetExceeded()
            mark = len(self.trail)
            if self.match_candidate(goal, gidx):
                rows.append(gidx)
            self.undo(mark)
        return rows

    def greedy_match(self, goal: _Goal) -> int | None:
        """First candidate of *goal* matching the current bindings, kept bound.

        The greedy arm of retained generalization: candidate order is row
        order (the reference checker's index order), and bindings of the
        first full match stay on the trail.

        Budget: the scan charges ``max_steps`` exactly what the reference
        greedy loop would probe — one step per signature-group candidate up
        to and including the first match, the whole group when none matches
        (the reference has no bitmask prefilter and scans every candidate).
        Charging the *reference* count rather than the rows actually touched
        keeps the two engines' exhaustion points aligned, so budget-capped
        retained lists stay identical.  Raises :class:`BudgetExceeded` even
        after a successful match when the charge tips the budget; bindings
        are then still on the trail and the caller must undo to its mark.
        """
        group, mask = self.candidate_mask(goal)
        if group is None:
            return None  # no signature group: the reference probes nothing
        base = group.base
        matched: int | None = None
        while mask:
            low = mask & -mask
            mask ^= low
            gidx = base + low.bit_length() - 1
            mark = len(self.trail)
            if self.match_candidate(goal, gidx):
                matched = gidx
                break
            self.undo(mark)
        if self.max_steps is not None:
            self.steps += (matched - base + 1) if matched is not None else group.nrows
            if self.steps > self.max_steps:
                raise BudgetExceeded()
        return matched

    def match_candidate(self, goal: _Goal, gidx: int) -> bool:
        """Match one candidate row; bindings go on the trail (caller undoes on failure)."""
        binding = self.binding
        trail = self.trail
        for code, tid in zip(goal.codes, self.cs.rows[gidx]):
            if code >= 0:
                if code != tid:
                    return False
            else:
                slot = ~code
                bound = binding[slot]
                if bound < 0:
                    binding[slot] = tid
                    trail.append(slot)
                elif bound != tid:
                    return False
        cond = goal.cond
        if cond is not None and not self.condition_ok(cond, self.cs.conds[gidx]):
            return False
        return True

    # ------------------------------------------------------------------ #
    # comparison / condition semantics (mirrors the reference checker)
    # ------------------------------------------------------------------ #
    def apply(self, code: int) -> int:
        """θ-apply one code: constants are themselves, unbound slots their own variable."""
        if code >= 0:
            return code
        bound = self.binding[~code]
        return bound if bound >= 0 else self.cg.slot_ids[~code]

    def substitute(self, code: int) -> tuple[int, bool]:
        """θ-apply one condition code, with the reference's unbound-term notion.

        A substituted term is *unbound* when it is a variable not in θ: an
        unbound slot's own variable, or a bound value that is a variable of
        the specific clause (which θ never maps).
        """
        if code >= 0:
            return code, False
        slot = ~code
        bound = self.binding[slot]
        if bound < 0:
            return self.cg.slot_ids[slot], True
        if self.cs.terms.is_var(bound):
            owner = self.cg.var_slot.get(bound)
            if owner is None or self.binding[owner] < 0:
                return bound, True
        return bound, False

    def condition_ok(self, cond: tuple[tuple[int, int, int], ...], spec_keys: frozenset | None) -> bool:
        keys = spec_keys if spec_keys is not None else frozenset()
        for op, left, right in cond:
            lid, l_unbound = self.substitute(left)
            rid, r_unbound = self.substitute(right)
            if l_unbound or r_unbound:
                # Comparisons over still-unbound variables only constrain the
                # eventual repair application, not the subsumption mapping.
                continue
            if (op, *_pair(lid, rid)) not in keys:
                return False
        return True

    def check_comparisons(self, triples: tuple[tuple[int, int, int], ...]) -> bool:
        """Equality / similarity / inequality literals of C under the current θ.

        Bindings made by equality literals go on the trail; the caller is
        responsible for undoing to its mark on failure.
        """
        cs = self.cs
        collapse = cs.collapse_ids
        binding = self.binding
        slot_ids = self.cg.slot_ids
        for kind, left, right in triples:
            lid = self.apply(left)
            rid = self.apply(right)
            lid = collapse.get(lid, lid)
            rid = collapse.get(rid, rid)
            if kind == _EQ:
                if lid == rid:
                    continue
                if left < 0 and binding[~left] < 0 and lid == slot_ids[~left]:
                    binding[~left] = rid
                    self.trail.append(~left)
                elif right < 0 and binding[~right] < 0 and rid == slot_ids[~right]:
                    binding[~right] = lid
                    self.trail.append(~right)
                else:
                    return False
            elif kind == _SIM:
                if lid == rid:
                    continue
                if _pair(lid, rid) not in cs.similar:
                    return False
            else:  # _NEQ
                if lid == rid:
                    if not cs.terms.is_var(lid):
                        return False
                    if (lid, rid) not in cs.unequal:
                        return False
        return True

    # ------------------------------------------------------------------ #
    # Definition 4.4, second bullet
    # ------------------------------------------------------------------ #
    def connectivity_ok(self) -> bool:
        """Every repair literal of D connected to a mapped non-repair literal is mapped."""
        canon_of = self.cs.canon_of
        mapped = {canon_of[gidx] for gidx in self.assignment.values()}
        conn_map = self.cs.conn_map
        for canon in mapped:
            required = conn_map.get(canon)
            if required and not all(repair in mapped for repair in required):
                return False
        return True
