"""Guard against dead surface and orphaned helpers.

Every top-level function and class in `src/natmt`, public or private
(`_name`), must be named somewhere that is not its own definition: by program
code (`src/natmt/`, `scripts/`, `perfbench/`) or by an acceptance gate
(`tests/test_acceptance.py`). A name only unit tests reach is a helper to
delete or a test reference to move into the test that uses it.

Every parameter with a default must be passed by some call of its function
in that code: a default no caller overrides is a knob that does nothing.

Program code silences no warning: a warning that its own caller must silence
is a result sent through a second channel.
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _functions(path: Path):
    """(qualified name, name a call uses, definition, leading parameters a
    call does not pass) for the file's top-level functions and methods. A
    class's `__init__` is called by the class name; other special methods
    run by syntax (`model(x)`), not by a name a call shows, and are skipped."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(top, FUNCTIONS):
            yield top.name, top.name, top, 0
        elif isinstance(top, ast.ClassDef):
            for fn in top.body:
                if not isinstance(fn, FUNCTIONS) or (
                        fn.name.startswith("__") and fn.name != "__init__"):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in fn.decorator_list)
                yield (f"{top.name}.{fn.name}",
                       top.name if fn.name == "__init__" else fn.name, fn,
                       0 if static else 1)


def _defaulted_parameters(path: Path):
    """(qualified name, name a call uses, parameter, its position among a
    call's arguments or None when keyword-only) for every parameter with a
    default."""
    for qualified, called, fn, bound in _functions(path):
        positional = [*fn.args.posonlyargs, *fn.args.args]
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], first):
            yield qualified, called, arg.arg, i - bound
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield qualified, called, arg.arg, None


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed_by_a_caller():
    # `cli.main` takes `argv` from the console entry point's `sys.argv`
    calls: dict[str, list[ast.Call]] = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = [
        f"{module.stem}.{qualified}({param})"
        for module in sorted(PACKAGE.glob("*.py"))
        for qualified, called, param, position in _defaulted_parameters(module)
        if not any(_passes(call, param, position) for call in calls.get(called, []))]
    assert [p for p in unpassed if p != "cli.main(argv)"] == []


SILENCERS = {"catch_warnings", "simplefilter", "filterwarnings"}


def test_program_code_silences_no_warning():
    # the acceptance gates are tests and may record warnings
    found = [f"{path.relative_to(ROOT)}:{node.lineno}"
             for path in CALLERS if path.parent.name != "tests"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in SILENCERS]
    assert found == []
