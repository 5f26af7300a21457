"""Process-pool safety: what crosses a process boundary must pickle.

:mod:`repro.core.fanout` ships chase depths to ``ProcessPoolExecutor``
shard workers.  Everything submitted to such a pool — the callable, its arguments,
the ``initializer``/``initargs`` pair — is pickled; a lambda, a function
defined inside another function, a ``threading.Lock`` or an open file handle
in that payload raises ``PicklingError`` at dispatch time (or, worse, only
under the ``spawn`` start method, where CI on Linux ``fork`` never sees it).
The sanctioned shape is the one ``fanout`` uses: module-level worker
functions over module-level seeded state, with plain ints/bytes/tuples as
arguments.

**PF01** flags, at submission sites of process executors (direct
``ProcessPoolExecutor(...)`` calls; names, ``self`` attributes and loop
variables traceably bound to one; ``submit``/``map`` through either):

* a ``lambda`` or a function *defined inside another function* as the
  submitted callable or ``initializer`` — neither pickles by reference;
* arguments (``submit`` arguments and ``initargs`` elements) that carry a
  lock (``self.<attr>`` where the attribute is a configured lock name or
  contains ``"lock"``), an inline ``open(...)`` / ``Lock()``-family call, a
  name bound to one, or a lambda.

Thread pools are exempt: nothing is pickled there, so closures over engine
state are fine.  The receiver analysis is
deliberately local — only executors *visibly* constructed from a configured
factory in the same module are treated as process pools, so the rule never
guesses about objects that merely look pool-shaped.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..config import RuleConfig
from . import register
from .base import ModuleContext, RawViolation, Rule, call_name, walk_scopes

__all__ = ["ProcessPoolPicklability"]

#: Constructor calls whose results never pickle: the ``threading`` primitive
#: family plus open file handles.
_NONPICKLABLE_CALLS = (
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "Barrier",
    "open",
)


def _self_attr(node: ast.expr) -> str | None:
    """``self.attr`` -> ``"attr"``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _PoolTracker:
    """Names / ``self`` attributes traceably bound to a process-executor factory."""

    def __init__(self, tree: ast.Module, factories: tuple[str, ...]) -> None:
        self.factories = factories
        self.names: set[str] = set()
        self.attrs: set[str] = set()
        self._collect_bindings(tree)
        self._collect_aliases(tree)

    # ------------------------------------------------------------------ #
    def _is_factory_call(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Call) and call_name(node.func) in self.factories

    def _value_builds_pool(self, value: ast.expr) -> bool:
        """The assigned value is a factory call or a container of them."""
        if self._is_factory_call(value):
            return True
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            return any(self._is_factory_call(element) for element in value.elts)
        if isinstance(value, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            return self._is_factory_call(value.elt)
        return False

    def _bind(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.names.add(target.id)
            return
        attr = _self_attr(target)
        if attr is not None:
            self.attrs.add(attr)

    def _collect_bindings(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and self._value_builds_pool(node.value):
                for target in node.targets:
                    self._bind(target)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if self._is_factory_call(item.context_expr) and item.optional_vars is not None:
                        self._bind(item.optional_vars)

    def _collect_aliases(self, tree: ast.Module) -> None:
        """Loop variables iterating a tracked container are pools themselves."""
        for _ in range(3):  # chained aliases converge in a hop or two
            before = len(self.names)
            for node in ast.walk(tree):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    if self.refers_to_pool(node.iter):
                        self._bind(node.target)
                elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
                    for generator in node.generators:
                        if self.refers_to_pool(generator.iter):
                            self._bind(generator.target)
            if len(self.names) == before:
                return

    # ------------------------------------------------------------------ #
    def refers_to_pool(self, node: ast.expr) -> bool:
        if self._is_factory_call(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        attr = _self_attr(node)
        if attr is not None:
            return attr in self.attrs
        if isinstance(node, ast.Subscript):
            return self.refers_to_pool(node.value)
        return False


@register
class ProcessPoolPicklability(Rule):
    id = "PF01"
    name = "process-pool-picklability"
    description = (
        "Payloads submitted to process executors must pickle: no lambdas or "
        "nested functions as callables, no locks or open handles in arguments."
    )

    def check(self, module: ModuleContext, config: RuleConfig) -> Iterator[RawViolation]:
        factories = tuple(config.option("executor_factories", ["ProcessPoolExecutor"]))
        lock_names = tuple(config.option("lock_names", ["_lock"]))
        tracker = _PoolTracker(module.tree, factories)

        # Functions defined inside another function don't pickle by reference.
        nested_defs: set[str] = set()
        for scope in walk_scopes(module.tree):
            for node in ast.walk(scope):
                if node is not scope and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested_defs.add(node.name)

        # Names visibly bound to a non-picklable constructor result.
        handle_bindings: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and call_name(node.value.func) in _NONPICKLABLE_CALLS
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        handle_bindings[target.id] = call_name(node.value.func) or "?"

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_name(node.func) in factories:
                yield from self._check_initializer(node, nested_defs, handle_bindings, lock_names)
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
                and tracker.refers_to_pool(node.func.value)
            ):
                yield from self._check_submission(node, nested_defs, handle_bindings, lock_names)

    # ------------------------------------------------------------------ #
    def _check_initializer(
        self,
        call: ast.Call,
        nested_defs: set[str],
        handle_bindings: dict[str, str],
        lock_names: tuple[str, ...],
    ) -> Iterator[RawViolation]:
        for keyword in call.keywords:
            if keyword.arg == "initializer":
                yield from self._check_callable(keyword.value, nested_defs, "initializer")
            elif keyword.arg == "initargs" and isinstance(keyword.value, (ast.Tuple, ast.List)):
                for element in keyword.value.elts:
                    yield from self._check_argument(element, handle_bindings, lock_names, "initargs")

    def _check_submission(
        self,
        call: ast.Call,
        nested_defs: set[str],
        handle_bindings: dict[str, str],
        lock_names: tuple[str, ...],
    ) -> Iterator[RawViolation]:
        method = call.func.attr  # type: ignore[union-attr]  # guarded by caller
        if not call.args:
            return
        yield from self._check_callable(call.args[0], nested_defs, method)
        if method == "map":
            return  # iterable *elements* are pickled; the iterable itself is not
        for argument in call.args[1:]:
            yield from self._check_argument(argument, handle_bindings, lock_names, method)
        for keyword in call.keywords:
            yield from self._check_argument(keyword.value, handle_bindings, lock_names, method)

    def _check_callable(
        self, node: ast.expr, nested_defs: set[str], site: str
    ) -> Iterator[RawViolation]:
        if isinstance(node, ast.Lambda):
            yield self.violation(
                node,
                f"lambda passed as process-pool {site}: lambdas don't pickle — "
                "use a module-level function",
            )
        elif isinstance(node, ast.Name) and node.id in nested_defs:
            yield self.violation(
                node,
                f"nested function {node.id!r} passed as process-pool {site}: functions "
                "defined inside another function don't pickle — move it to module level",
            )

    def _check_argument(
        self,
        argument: ast.expr,
        handle_bindings: dict[str, str],
        lock_names: tuple[str, ...],
        site: str,
    ) -> Iterator[RawViolation]:
        for node in ast.walk(argument):
            attr = _self_attr(node)
            if attr is not None and (attr in lock_names or "lock" in attr.lower()):
                yield self.violation(
                    node,
                    f"self.{attr} in process-pool {site} arguments: locks don't pickle "
                    "and would be meaningless in another process",
                )
            elif isinstance(node, ast.Call) and call_name(node.func) in _NONPICKLABLE_CALLS:
                yield self.violation(
                    node,
                    f"{call_name(node.func)}(...) result in process-pool {site} arguments "
                    "does not pickle — pass plain data and rebuild in the worker",
                )
            elif isinstance(node, ast.Name) and node.id in handle_bindings:
                yield self.violation(
                    node,
                    f"{node.id!r} (bound to {handle_bindings[node.id]}(...)) in process-pool "
                    f"{site} arguments does not pickle — pass plain data and rebuild in the worker",
                )
            elif isinstance(node, ast.Lambda):
                yield self.violation(
                    node,
                    f"lambda in process-pool {site} arguments: lambdas don't pickle",
                )
