"""Guard against dead public surface.

Every public top-level function and class in `src/natmt` must be named
somewhere that is not its own definition: by program code (`src/natmt/`,
`scripts/`, `perfbench/`) or by an acceptance gate (`tests/test_acceptance.py`).
A name only unit tests reach is a helper to delete or a test reference to move
into the test that uses it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "natmt"
CALLERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def _public_definitions(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _references(path: Path) -> set[tuple[str, str | None]]:
    """(name, top-level definition it appears in, or None) for every Name,
    Attribute and imported name in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                found.add((node.attr, owner))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update((alias.name.rsplit(".", 1)[-1], owner)
                             for alias in node.names)
    return found


def test_every_public_name_has_a_caller():
    refs = {path: _references(path) for path in CALLERS}
    unreferenced = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name in _public_definitions(module)
        if not any(ref == name and not (path == module and owner == name)
                   for path, found in refs.items() for ref, owner in found)]
    assert unreferenced == []
