#!/usr/bin/env python
"""Process-global state checks, run by the CI docs job.

A simulated world owns all of its mutable state: ids come from the
object that issues them (the JobTracker numbers jobs by submission
and counts attempts, the NameNode counts blocks) and the observability
bundle is passed in, never picked up from an ambient default.  Then
one process can hold any number of worlds, and loading a snapshot of
one cannot disturb another.  This scan keeps it that way under
``src/repro/``:

1. No ``global`` statement.
2. No ``itertools.count(...)`` evaluated at module or class level —
   such a counter is shared by every world in the process.  Counters
   created inside a function (typically ``__init__``) belong to the
   instance and are fine.

``ALLOWED`` names deliberate exceptions as ``"path:line"`` with a
reason; it is empty.

Exit code 0 when clean; 1 with a line per violation otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"

#: ``"src/repro/<file>.py:<line>"`` -> why that site may hold
#: process-global state.
ALLOWED: Dict[str, str] = {}


def _count_names(tree: ast.Module) -> Set[str]:
    """Local names bound to ``itertools.count`` by ``from`` imports."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
        for alias in node.names
        if alias.name == "count"
    }


def _is_count_call(node: ast.AST, names: Set[str]) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return (
            func.attr == "count"
            and isinstance(func.value, ast.Name)
            and func.value.id == "itertools"
        )
    return isinstance(func, ast.Name) and func.id in names


def _outside_functions(node: ast.AST) -> Iterator[ast.AST]:
    """Every node evaluated at module or class level (function and
    lambda bodies run per call, so they are skipped)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            # Decorators and defaults still run at definition time.
            args = child.args
            for expr in [*getattr(child, "decorator_list", []),
                         *args.defaults, *args.kw_defaults]:
                if expr is not None:
                    yield expr
                    yield from _outside_functions(expr)
            continue
        yield child
        yield from _outside_functions(child)


def scan(path: Path) -> List[Tuple[int, str]]:
    """(line, what) for every violation in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [
        (node.lineno, f"`global {', '.join(node.names)}` statement")
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
    ]
    names = _count_names(tree)
    found += [
        (node.lineno, "itertools.count(...) at module or class level")
        for node in _outside_functions(tree)
        if _is_count_call(node, names)
    ]
    return sorted(found)


def main() -> int:
    violations = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(REPO).as_posix()
        for line, what in scan(path):
            if f"{rel}:{line}" not in ALLOWED:
                violations.append(f"{rel}:{line}: {what}")
    for v in violations:
        print(v)
    if violations:
        print(
            f"{len(violations)} process-global state violation(s): give "
            "the state to the object that owns it, or list the site in "
            "ALLOWED with a reason"
        )
        return 1
    print("process-global state checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
