"""Guard against dead surface and orphaned helpers.

Every top-level function and class in `src/natmt`, public or private
(`_name`), must be named somewhere that is not its own definition: by program
code (`src/natmt/`, `scripts/`, `perfbench/`) or by an acceptance gate
(`tests/test_acceptance.py`). A name only unit tests reach is a helper to
delete or a test reference to move into the test that uses it.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "natmt"
CALLERS = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def _definitions(path: Path, private: bool) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") == private]


def _references(path: Path) -> set[tuple[str, str | None, bool]]:
    """(name, top-level definition it appears in or None, whether it is a
    bare Name) for every Name, Attribute and imported name in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add((node.id, owner, True))
            elif isinstance(node, ast.Attribute):
                found.add((node.attr, owner, False))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update((alias.name.rsplit(".", 1)[-1], owner, False)
                             for alias in node.names)
    return found


def test_every_public_name_has_a_caller():
    refs = {path: _references(path) for path in CALLERS}
    unreferenced = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name in _definitions(module, private=False)
        if not any(ref == name and not (path == module and owner == name)
                   for path, found in refs.items() for ref, owner, _ in found)]
    assert unreferenced == []


def test_every_private_helper_has_a_caller():
    # in its own module any use outside the definition counts; elsewhere only
    # `module._name` or an import does, as a bare `_name` there is that file's
    # own (perfbench has its own `_log_probs`)
    refs = {path: _references(path) for path in CALLERS}
    orphans = [
        f"{module.stem}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for name in _definitions(module, private=True)
        if not any(ref == name and (owner != name if path == module else not bare)
                   for path, found in refs.items() for ref, owner, bare in found)]
    assert orphans == []
