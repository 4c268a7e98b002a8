"""Nothing without a caller: every top-level def in ``src/repro`` is used.

Every module-level function and class under ``src/repro`` must be
referenced — as a name, an attribute, an imported name, or a string equal
to it — by some non-test python file in ``src/``, ``examples/`` or
``benchmarks/e2e/``.  A reference inside the definition itself does not
count, and neither does a package ``__init__`` re-exporting the name
(its ``from … import`` list and ``__all__``).  Dunder names and the
public surface, ``repro.__all__``, are exempt: a library may export what
it does not call.  So is each name in :data:`KEPT`, with its reason.  A
definition only its own tests reach fails with its ``file:line``; delete
it, or give it a caller.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Set, Tuple

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = (ROOT / "src", ROOT / "examples", ROOT / "benchmarks" / "e2e")

#: Definitions kept with only test callers, each with why.
KEPT = {
    "chaos_plan": "the chaos battery's nemesis until it passes on campaign_plan "
    "(docs/protocol.md §5)",
}


def _is_test_file(path: Path) -> bool:
    return path.name.startswith("test_") or path.name == "conftest.py"


def _definitions() -> Iterator[Tuple[str, str]]:
    """(name, ``file:line``) of every top-level def and class in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name, f"{path.relative_to(ROOT)}:{node.lineno}"


def _names_in(node: ast.AST) -> Iterator[str]:
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name.rsplit(".", 1)[-1]
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


def _is_reexport(node: ast.stmt) -> bool:
    """An ``__init__``'s ``from … import`` list or ``__all__`` assignment."""
    if isinstance(node, ast.ImportFrom):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def _references() -> Set[str]:
    found: Set[str] = set()
    for directory in CALLER_DIRS:
        for path in sorted(directory.rglob("*.py")):
            if _is_test_file(path):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if path.name == "__init__.py" and _is_reexport(node):
                    continue
                names = set(_names_in(node))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names.discard(node.name)  # a definition does not call itself
                found |= names
    return found


def test_every_definition_has_a_caller():
    exempt = set(repro.__all__) | set(KEPT)
    used = _references()
    orphans = [
        f"{where}: {name} is used by nothing outside the tests"
        for name, where in _definitions()
        if name not in used and name not in exempt
        and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not orphans, "delete these or give them a caller:\n" + "\n".join(orphans)
