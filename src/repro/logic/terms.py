"""First-order terms used throughout the library.

The paper's clause language (Section 2.1) has two kinds of terms:

* *constants* — data values drawn from attribute domains, and
* *variables* — placeholders introduced when a bottom clause is built from
  database tuples (each distinct constant is mapped to a fresh variable).

Terms are immutable and hashable so they can be used as dictionary keys in
substitutions and as members of frozen sets inside clauses.

Two additional helpers model the paper's value-matching machinery:

* :func:`fresh_variable` produces variables with a monotonically increasing
  suffix drawn from a :class:`VariableFactory`, used when constructing bottom
  clauses and repair literals.
* :func:`matched_constant` builds the fresh value ``v_{a,b}`` that the paper
  assumes is created when two values ``a`` and ``b`` are unified by a matching
  dependency (Section 2.2: "matching every pair of values a and b in the
  database creates a fresh value denoted as v_{a,b}").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Union

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "VariableFactory",
    "fresh_variable",
    "matched_constant",
    "is_variable",
    "is_constant",
]


@dataclass(frozen=True, slots=True)
class Variable:
    """A logical variable such as ``x`` or ``v_title_3``.

    Variables compare and hash by name only; two variables with the same name
    are the same variable.  Names never contain whitespace so that the textual
    rendering of a clause can be parsed back unambiguously in tests.

    The hash is memoised at construction: terms are hashed far more often
    than they are created (substitution bindings, signature indexes, clause
    caches), so the precomputed value keeps those dictionary operations flat.
    """

    name: str
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if any(ch.isspace() for ch in self.name):
            raise ValueError(f"variable name must not contain whitespace: {self.name!r}")
        object.__setattr__(self, "_hash", hash(("Variable", self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant (data value) such as ``'comedy'`` or ``2007``.

    The wrapped value may be any hashable Python object; in practice the
    database layer stores strings, integers and floats.  ``None`` is allowed
    and represents a missing (NULL) value.
    """

    value: object = field(default=None)
    _hash: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Ensure hashability early: a constant that cannot be hashed would
        # break substitutions and indexes much later with a confusing error.
        # The computed hash is memoised for the same reason as Variable's.
        try:
            object.__setattr__(self, "_hash", hash(("Constant", self.value)))
        except TypeError as exc:  # pragma: no cover - defensive
            raise TypeError(f"constant value must be hashable, got {type(self.value)!r}") from exc

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:  # pragma: no cover - trivial
        return repr(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


Term = Union[Variable, Constant]


def is_variable(term: Term) -> bool:
    """Return ``True`` when *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_constant(term: Term) -> bool:
    """Return ``True`` when *term* is a :class:`Constant`."""
    return isinstance(term, Constant)


class VariableFactory:
    """Produce fresh, never-repeating variables.

    Bottom-clause construction, repair-literal introduction and clause
    standardisation all need variables guaranteed not to collide with any
    variable already present in a clause.  A single factory instance is
    threaded through those code paths.

    Parameters
    ----------
    prefix:
        Prefix used for generated names (default ``"v"``).
    reserved:
        Names that must never be produced, e.g. the variables already used by
        an existing clause.
    """

    def __init__(self, prefix: str = "v", reserved: frozenset[str] | set[str] = frozenset()) -> None:
        self._prefix = prefix
        self._counter = itertools.count()
        self._reserved = set(reserved)

    def fresh(self, hint: str | None = None) -> Variable:
        """Return a fresh variable.

        ``hint`` is embedded in the generated name to keep clauses readable,
        e.g. ``fresh("title")`` may return ``Variable("v_title_7")``.
        """
        base = f"{self._prefix}_{hint}" if hint else self._prefix
        while True:
            name = f"{base}_{next(self._counter)}"
            if name not in self._reserved:
                self._reserved.add(name)
                return Variable(name)


_DEFAULT_FACTORY = VariableFactory()


def fresh_variable(hint: str | None = None) -> Variable:
    """Return a fresh variable from a process-wide default factory.

    Library code that needs reproducible names should create its own
    :class:`VariableFactory`; this helper exists for interactive use and
    small tests.
    """
    return _DEFAULT_FACTORY.fresh(hint)


def matched_constant(left: Constant, right: Constant) -> Constant:
    """Return the fresh value ``v_{a,b}`` created by unifying two values.

    The paper does not fix a matching function (the correct unified value is
    generally unknowable); it only assumes unification produces a fresh value
    determined by the pair.  We make the value canonical by sorting the two
    string renderings so that ``matched_constant(a, b) == matched_constant(b, a)``.
    """
    a, b = sorted([repr(left.value), repr(right.value)])
    return Constant(f"<match:{a}|{b}>")
