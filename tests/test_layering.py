"""The import order is enforced: a layer only imports layers below it.

Every module under ``src/repro`` is parsed and every import counted,
function-level (lazy) imports included.  Each import names a unit — a
top-level package (``repro.core``) or module (``repro.cluster``) — and
must point strictly down :data:`LAYERS`, the order docs/architecture.md
lists.  A total order with only downward edges is a DAG, so this also
rules out import cycles.  A new back edge fails with its ``file:line``.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Bottom to top.  ``repro`` is the public facade (``repro/__init__.py``):
#: it re-exports from below, and nothing inside the package imports it.
LAYERS = (
    "ops", "config", "stats", "obs", "sim", "engine", "net", "storage",
    "paxos", "mdcc", "baselines", "cluster", "core", "usecases", "trace",
    "workload", "faults", "check", "scale", "harness", "experiments", "cli",
    "repro",
)

#: Units that belong to another layer: the compiled half of the kernel,
#: and the ``python -m repro`` entry point.
ALIASES = {"_ckernel": "sim", "__main__": "cli"}


def _unit(module: str) -> str:
    parts = module.split(".")
    return ALIASES.get(parts[1], parts[1]) if len(parts) > 1 else "repro"


def _is_submodule(name: str) -> bool:
    return name in ALIASES or any(
        path.exists() for path in (PACKAGE / name, PACKAGE / f"{name}.py")
    )


def _modules() -> Iterator[Tuple[str, List[str], Path]]:
    """(unit, enclosing package as dotted parts, path) per source file."""
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = list(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
            yield _unit(".".join(parts)), parts, path
        else:
            yield _unit(".".join(parts)), parts[:-1], path


def _targets(node: ast.AST, package: List[str]) -> List[str]:
    """The ``repro`` modules an import statement loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        parent = package[: len(package) - node.level + 1]
        base = ".".join(parent + [base] if base else parent)
    if base != "repro":
        return [base]
    return [
        f"repro.{alias.name}" if _is_submodule(alias.name) else "repro"
        for alias in node.names
    ]


def package_imports() -> Iterator[Tuple[str, str, str, str]]:
    """(importing unit, imported unit, imported module, ``file:line``)."""
    for source, package, path in _modules():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            for target in _targets(node, package):
                if target == "repro" or target.startswith("repro."):
                    where = f"{path.relative_to(ROOT)}:{node.lineno}"
                    yield source, _unit(target), target, where


def test_every_unit_has_a_place_in_the_order():
    units = {unit for unit, _, _ in _modules()}
    units |= {imported for _, imported, _, _ in package_imports()}
    unplaced = sorted(units - set(LAYERS))
    assert not unplaced, f"add to LAYERS and docs/architecture.md: {unplaced}"


def test_every_import_points_down():
    rank = {layer: index for index, layer in enumerate(LAYERS)}
    upward = [
        f"{where}: {source} imports {module} ({imported} is not below {source})"
        for source, imported, module, where in package_imports()
        if source != imported and rank[imported] > rank[source]
    ]
    assert not upward, "imports against the layer order:\n" + "\n".join(upward)


def test_docs_list_the_same_order():
    text = " ".join((ROOT / "docs" / "architecture.md").read_text().split())
    assert " → ".join(LAYERS) in text


def test_lower_layers_load_no_harness_or_experiments():
    """At runtime too: importing the simulator, the checker and the scale
    layer pulls in nothing from the harness or the experiment drivers."""
    probe = (
        "import sys\n"
        "import repro.obs, repro.core, repro.cluster, repro.faults\n"
        "import repro.check, repro.check.campaign, repro.scale\n"
        "print('\\n'.join(sorted(sys.modules)))\n"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    upper = [m for m in loaded if re.match(r"repro\.(harness|experiments)\b", m)]
    assert "repro.check.campaign" in loaded
    assert not upper, upper
