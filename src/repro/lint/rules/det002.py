"""DET002 — no unordered iteration in determinism-critical packages.

Inside ``core/``, ``sketch/`` and ``baselines/`` (the sampler hot paths),
iterating a ``set``/``frozenset`` or a ``dict.keys()`` view feeds Python's
arbitrary (insertion-history-dependent) ordering into downstream state.
When that order reaches a reservoir's RNG or a serialised payload, resumed
and sharded runs silently diverge from uninterrupted ones — the exact bug
class PR 2 fixed by hand in the two-pass counters.  Wrap the iterable in
``sorted(...)`` (canonical order) before looping.

Detection is heuristic but high-precision; it flags iteration where the
iterable is

* a direct ``set(...)`` / ``frozenset(...)`` call, set literal, or set
  comprehension;
* a ``.keys()`` call;
* a local variable assigned one of the above in the same function;
* a ``self.X`` attribute declared as a set (``self.X: Set[...] = ...`` or
  ``self.X = set()``) anywhere in the class.

Membership tests (``x in s``) are order-free and never flagged; neither is
anything already wrapped in ``sorted(...)``, including a comprehension fed
straight into ``sorted``/``set``/``frozenset`` (the wrapper launders the
iteration order before it can reach anything stateful).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.lint.rules.base import (
    FileContext,
    Rule,
    enclosing_symbols,
    self_attr_target,
)
from repro.lint.violations import Violation

_HOT_DIRS = ("core", "sketch", "baselines")
_SET_ANNOTATIONS = ("set", "Set", "frozenset", "FrozenSet", "AbstractSet", "MutableSet")


def _is_set_annotation(annotation: ast.expr) -> bool:
    """Whether an annotation expression denotes a set type."""
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):  # typing.Set[...] spelled t.Set
        return node.attr in _SET_ANNOTATIONS
    return isinstance(node, ast.Name) and node.id in _SET_ANNOTATIONS


def _is_set_expr(node: ast.expr) -> bool:
    """Whether an expression *directly* builds a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_keys_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
    )


class _ClassSetAttrs(ast.NodeVisitor):
    """Collect ``self.X`` attributes declared as sets within a class."""

    def __init__(self) -> None:
        self.set_attrs: Set[str] = set()

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        name = self_attr_target(node.target)
        if name is not None and _is_set_annotation(node.annotation):
            self.set_attrs.add(name)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_set_expr(node.value):
            for target in node.targets:
                name = self_attr_target(target)
                if name is not None:
                    self.set_attrs.add(name)
        self.generic_visit(node)


def _function_set_locals(func: ast.AST) -> Dict[str, int]:
    """Local names bound to set-building expressions inside ``func``."""
    names: Dict[str, int] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and _is_set_annotation(node.annotation)
        ):
            names[node.target.id] = node.lineno
    return names


class Det002UnorderedIteration(Rule):
    code = "DET002"
    summary = "set/dict.keys() iteration without sorted() in a hot path"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_dirs(*_HOT_DIRS):
            return
        symbols = enclosing_symbols(ctx.tree)

        # Class-level knowledge: which self attributes are sets.
        class_attrs: Dict[str, Set[str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                collector = _ClassSetAttrs()
                collector.visit(node)
                class_attrs[node.name] = collector.set_attrs

        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            scope = symbols.get(id(func), func.name)
            owner = scope.rsplit(".", 2)[-2] if "." in scope else ""
            self_sets = class_attrs.get(owner, set())
            local_sets = _function_set_locals(func)

            def describe(iterable: ast.expr) -> Optional[str]:
                if _is_set_expr(iterable):
                    return "a set built inline"
                if _is_keys_call(iterable):
                    return "a dict.keys() view"
                if isinstance(iterable, ast.Name) and iterable.id in local_sets:
                    return f"set-typed local {iterable.id!r}"
                attr = self_attr_target(iterable)
                if attr is not None and attr in self_sets:
                    return f"set-typed attribute self.{attr}"
                return None

            # Comprehensions whose entire result feeds an order-laundering
            # call: ``sorted(f(x) for x in some_set)`` is deterministic.
            laundered = set()
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("sorted", "set", "frozenset")
                    and node.args
                    and isinstance(
                        node.args[0],
                        (ast.ListComp, ast.SetComp, ast.GeneratorExp),
                    )
                ):
                    laundered.add(id(node.args[0]))

            for node in ast.walk(func):
                iterables = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iterables.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                    if id(node) in laundered:
                        continue
                    iterables.extend(gen.iter for gen in node.generators)
                for iterable in iterables:
                    reason = describe(iterable)
                    if reason is None:
                        continue
                    yield self.violation(
                        ctx,
                        iterable,
                        f"iteration over {reason} leaks arbitrary ordering "
                        "into a determinism-critical path; wrap in sorted(...)",
                        symbol=scope,
                    )
