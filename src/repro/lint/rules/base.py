"""Rule plumbing: the rule interface and shared AST utilities.

A rule is a small class with a ``code``, a ``summary``, and a ``check``
method yielding :class:`~repro.lint.violations.Violation` records.  Most
rules are *per-file* (``check`` sees one parsed module); rules that need
the whole tree (SRV001's error-code table cross-check) set
``project_wide`` and implement ``check_project`` over every parsed file
at once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.lint.violations import Violation


@dataclass
class FileContext:
    """One parsed source file as the rules see it."""

    path: str  # posix-style, as discovered
    source: str
    tree: ast.Module
    #: Path split into parts, for cheap "is this under core/?" checks.
    parts: Sequence[str] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.parts:
            self.parts = tuple(p for p in self.path.replace("\\", "/").split("/") if p)

    def in_dirs(self, *names: str) -> bool:
        """Whether any path component matches one of ``names``."""
        return any(part in names for part in self.parts)

    def endswith(self, suffix: str) -> bool:
        """Posix suffix match, component-aligned (``util/rng.py``)."""
        want = tuple(suffix.split("/"))
        return tuple(self.parts[-len(want):]) == want


class Rule:
    """Base class for all lint rules."""

    code: str = ""
    summary: str = ""
    project_wide: bool = False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        """Yield violations for one file (per-file rules)."""
        return iter(())

    def check_project(self, files: List[FileContext]) -> Iterator[Violation]:
        """Yield violations needing the whole tree (project-wide rules)."""
        return iter(())

    # -- helpers shared by concrete rules -----------------------------------

    def violation(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        symbol: str = "",
    ) -> Violation:
        return Violation(
            code=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            symbol=symbol,
        )


def build_import_map(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the fully qualified module/object they denote.

    ``import random`` → ``{"random": "random"}``;
    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from numpy import random as nr`` → ``{"nr": "numpy.random"}``;
    ``from random import randrange`` → ``{"randrange": "random.randrange"}``.
    Only top-level and function/class-nested plain imports are recorded —
    enough for the determinism rules, which care about stdlib modules.
    """
    mapping: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    mapping[alias.asname] = alias.name
                else:
                    # ``import numpy.random`` binds the root name ``numpy``.
                    root = alias.name.split(".")[0]
                    mapping[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports never reach the stdlib targets
            for alias in node.names:
                mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def qualified_name(node: ast.expr, imports: Dict[str, str]) -> Optional[str]:
    """Resolve a Name/Attribute chain to a dotted qualified name.

    ``np.random.default_rng`` with ``{"np": "numpy"}`` resolves to
    ``numpy.random.default_rng``; unresolvable shapes return ``None``.
    """
    chain: List[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        chain.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    root = imports.get(cur.id)
    if root is None:
        return None
    chain.append(root)
    return ".".join(reversed(chain))


def enclosing_symbols(tree: ast.Module) -> Dict[int, str]:
    """Map every node id to its enclosing ``Class.method`` symbol string."""
    symbols: Dict[int, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            child_scope = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                child_scope = f"{scope}.{child.name}" if scope else child.name
            symbols[id(child)] = child_scope
            visit(child, child_scope)

    visit(tree, "")
    return symbols


def self_attr_target(node: ast.expr) -> Optional[str]:
    """Return ``X`` when ``node`` is the expression ``self.X``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def assigned_self_attrs(func: ast.FunctionDef) -> Dict[str, int]:
    """Attributes assigned as ``self.X = ...`` in ``func`` → first line."""
    attrs: Dict[str, int] = {}

    def record(target: ast.expr, line: int) -> None:
        name = self_attr_target(target)
        if name is not None:
            attrs.setdefault(name, line)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record(element, line)

    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, node.lineno)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            record(node.target, node.lineno)
    return attrs
