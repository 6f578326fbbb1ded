"""ASY002 — coroutines must not mutate module-level shared state.

Sessions are isolated by design: all cross-session state lives in the
:class:`~repro.serve.manager.SessionManager`, and no manager op awaits
mid-session — feed, poll, snapshot, stats, close and merge each run from
reading a session to finishing with it without yielding, so no lock is
needed.  A coroutine that instead mutates a *module-level* mutable — a
cache dict, a list of live sessions, a global counter — creates state
outside that table, which other coroutines can read-modify-write across
an await: the interleaving (hence the stored value) depends on
scheduling, which breaks both correctness under concurrency and the
serve benchmarks' bit-identity audit.

Flagged inside the body of an ``async def`` in ``repro/serve``:

* a ``global NAME`` declaration followed by any assignment to ``NAME``
  (rebinding module state from a coroutine);
* a mutating method call (``append``/``add``/``update``/``pop``/
  ``setdefault``/``clear``/``extend``/``remove``/``discard``/``insert``/
  ``popitem``) on a name the dataflow layer identified as a module-level
  mutable container;
* subscript or augmented assignment targeting such a name.

Shared state that genuinely must be module-level (none currently exists
in the tree) needs a justified suppression explaining why no await can
interleave its updates.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.lint.rules.base import FileContext, Rule, enclosing_symbols
from repro.lint.violations import Violation

_MUTATING_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "clear",
    "remove",
    "discard",
}


class Asy002SharedStateMutation(Rule):
    code = "ASY002"
    summary = "module-level mutable state mutated from a coroutine body"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_dirs("serve"):
            return
        from repro.lint.dataflow import module_flow

        flow = module_flow(ctx)
        symbols = enclosing_symbols(ctx.tree)
        module_mutables = set(flow.module_mutables)
        for func in ast.walk(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            own = flow.own_nodes(func)
            declared_global: Set[str] = set()
            for node in own:
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
            shadowed = self._locally_bound(own, declared_global)
            shared = (module_mutables - shadowed) | declared_global
            for node in own:
                violation = self._mutation(node, shared, declared_global)
                if violation is None:
                    continue
                target, how = violation
                yield self.violation(
                    ctx,
                    node,
                    f"coroutine {func.name!r} {how} module-level state "
                    f"{target!r}; route shared mutation through the session "
                    "manager's locked coroutines (feed-gate discipline)",
                    symbol=symbols.get(id(node), ""),
                )

    @staticmethod
    def _locally_bound(own: List[ast.AST], declared_global: Set[str]) -> Set[str]:
        """Names (re)bound locally in the coroutine — they shadow globals."""
        bound: Set[str] = set()
        for node in own:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    bound.add(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                if isinstance(node.target, ast.Name):
                    bound.add(node.target.id)
        return bound - declared_global

    @staticmethod
    def _mutation(
        node: ast.AST, shared: Set[str], declared_global: Set[str]
    ) -> Optional[Tuple[str, str]]:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (
                isinstance(receiver, ast.Name)
                and receiver.id in shared
                and node.func.attr in _MUTATING_METHODS
            ):
                return receiver.id, f"mutates (.{node.func.attr}())"
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in shared
                ):
                    return target.value.id, "writes an item of"
                if isinstance(target, ast.Name) and target.id in declared_global:
                    return target.id, "rebinds (via global)"
        if isinstance(node, ast.AugAssign):
            target = node.target
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in shared
            ):
                return target.value.id, "writes an item of"
            if isinstance(target, ast.Name) and target.id in declared_global:
                return target.id, "rebinds (via global)"
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in shared
                ):
                    return target.value.id, "deletes an item of"
        return None
