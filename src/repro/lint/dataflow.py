"""Lightweight intra-module dataflow for flow-aware rules.

The v1 rules pattern-match raw AST nodes; the v2 families (ASY/SRV/
DET004) need a little more context: *which names are bound to what* and
*which local functions call which*.  This module computes exactly that —
nothing inter-procedural beyond one file, nothing type-inferred beyond
constructor calls — and caches one :class:`ModuleFlow` per
:class:`FileContext` so several rules can share the pass.

Two layers:

* **name bindings** — for every function, local names assigned from a
  resolvable constructor call (``p = Path(x)`` binds ``p`` to
  ``pathlib.Path``), with propagation through ``/``-joins of bound names
  (``tmp = directory / "f"`` stays a Path);
* **call-graph edges** — for every function, the module-level functions
  it calls by bare name, as ``(caller, callee, call node)`` edges.

:func:`find_file` locates one scanned file by path suffix for the
project-wide rules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.rules.base import FileContext, build_import_map, qualified_name

#: Constructors whose result binding we track, qualified name -> tag.
_TRACKED_CONSTRUCTORS = {
    "pathlib.Path": "path",
    "pathlib.PurePath": "path",
    "pathlib.PosixPath": "path",
    "pathlib.WindowsPath": "path",
}

#: Calls that build a mutable container at module level.
_MUTABLE_BUILDERS = {
    "list",
    "dict",
    "set",
    "collections.deque",
    "collections.Counter",
    "collections.defaultdict",
    "collections.OrderedDict",
}


def _constructor_tag(node: ast.expr, imports: Dict[str, str]) -> Optional[str]:
    """The binding tag of an expression, or None when untracked."""
    if isinstance(node, ast.Call):
        qual = qualified_name(node.func, imports)
        if qual in _TRACKED_CONSTRUCTORS:
            return _TRACKED_CONSTRUCTORS[qual]
    return None


@dataclass
class FunctionFlow:
    """Per-function facts a flow-aware rule can query."""

    node: ast.AST  # the FunctionDef / AsyncFunctionDef
    qualname: str
    is_async: bool
    #: All parameter names, positional and keyword.
    params: Tuple[str, ...]
    #: Local name -> binding tag ("path", ...) from constructor assignments.
    bindings: Dict[str, str] = field(default_factory=dict)
    #: Bare module-level function names this function calls, with sites.
    local_calls: List[Tuple[str, ast.Call]] = field(default_factory=list)


def _is_mutable_literal(node: ast.expr, imports: Dict[str, str]) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        qual = qualified_name(node.func, imports)
        return qual in _MUTABLE_BUILDERS
    return False


class ModuleFlow:
    """One file's dataflow facts (see the module docstring)."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.imports = build_import_map(ctx.tree)
        #: Module-level function definitions by bare name.
        self.module_functions: Dict[str, ast.AST] = {}
        #: Module-level names bound to mutable containers -> first line.
        self.module_mutables: Dict[str, int] = {}
        #: Qualname -> per-function flow facts.
        self.functions: Dict[str, FunctionFlow] = {}
        self._function_by_node: Dict[int, FunctionFlow] = {}
        self._collect_module_level()
        self._collect_functions()

    # -- construction --------------------------------------------------------

    def _collect_module_level(self) -> None:
        for stmt in self.ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_functions[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign):
                if _is_mutable_literal(stmt.value, self.imports):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            self.module_mutables.setdefault(target.id, stmt.lineno)
            elif isinstance(stmt, ast.AnnAssign):
                if stmt.value is not None and _is_mutable_literal(
                    stmt.value, self.imports
                ) and isinstance(stmt.target, ast.Name):
                    self.module_mutables.setdefault(stmt.target.id, stmt.lineno)

    def _collect_functions(self) -> None:
        def visit(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{scope}.{child.name}" if scope else child.name
                    info = self._build_function(child, qualname)
                    self.functions[qualname] = info
                    self._function_by_node[id(child)] = info
                    visit(child, qualname)
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{scope}.{child.name}" if scope else child.name)
                else:
                    visit(child, scope)

        visit(self.ctx.tree, "")

    def _build_function(self, func: ast.AST, qualname: str) -> FunctionFlow:
        args = func.args  # type: ignore[attr-defined]
        params = tuple(
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        )
        info = FunctionFlow(
            node=func,
            qualname=qualname,
            is_async=isinstance(func, ast.AsyncFunctionDef),
            params=params,
        )
        # Name bindings: constructor assignments, then propagate through
        # `/`-joins so `tmp = directory / "x"` keeps the path tag.  Two
        # passes over the (rare) binop assignments cover chains built in
        # either source order without full fixpoint iteration.
        own = self._own_statements(func)
        for _ in range(2):
            for node in own:
                if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                    continue
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                tag = _constructor_tag(node.value, self.imports)
                if tag is None and isinstance(node.value, ast.BinOp) and isinstance(
                    node.value.op, ast.Div
                ):
                    left = node.value.left
                    if isinstance(left, ast.Name):
                        tag = info.bindings.get(left.id)
                if tag is not None:
                    info.bindings[target.id] = tag
        for node in own:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                name = node.func.id
                if name in self.module_functions:
                    info.local_calls.append((name, node))
        return info

    @staticmethod
    def _own_statements(func: ast.AST) -> List[ast.AST]:
        """All nodes of ``func`` excluding nested function/class bodies."""
        out: List[ast.AST] = []

        def walk(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    continue
                out.append(child)
                walk(child)

        walk(func)
        return out

    # -- queries -------------------------------------------------------------

    def function_at(self, func_node: ast.AST) -> Optional[FunctionFlow]:
        return self._function_by_node.get(id(func_node))

    def own_nodes(self, func_node: ast.AST) -> List[ast.AST]:
        """Nodes belonging to ``func_node`` itself (nested defs excluded)."""
        return self._own_statements(func_node)

    def binding_of(self, func_node: ast.AST, name: str) -> Optional[str]:
        info = self.function_at(func_node)
        if info is None:
            return None
        return info.bindings.get(name)


def module_flow(ctx: FileContext) -> ModuleFlow:
    """The (cached) :class:`ModuleFlow` of one parsed file."""
    cached = getattr(ctx, "_module_flow", None)
    if cached is None:
        cached = ModuleFlow(ctx)
        ctx._module_flow = cached  # type: ignore[attr-defined]
    return cached


def find_file(
    files: Sequence[FileContext], suffix: str
) -> Optional[FileContext]:
    """The scanned file whose path ends with ``suffix`` (posix components)."""
    for ctx in files:
        if ctx.endswith(suffix):
            return ctx
    return None
