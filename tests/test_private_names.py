"""Every module-level private name in the package is used somewhere in it,
and every module-level import is read by its module.

A private helper that nothing in ``src/`` calls any more is dead code, and
so is an import its module never reads; these tests name them. They read the
sources with the standard ``ast`` module, so no linter is needed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "reflectspec"


def defined_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement binds: a def, a class or an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def used_names(node: ast.AST) -> set[str]:
    """Names a subtree reads, as a bare name, an attribute or an import."""
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            used.update(alias.name for alias in n.names)
    return used


def test_every_module_level_private_name_is_used():
    statements = [
        (path.name, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    assert statements
    uses = [used_names(node) for _, node in statements]
    unused = [
        f"{module}: {name}"
        for i, (module, node) in enumerate(statements)
        for name in defined_names(node)
        if name.startswith("_") and not name.startswith("__")
        # A use inside the definition itself (recursion) does not count.
        and not any(name in used for j, used in enumerate(uses) if j != i)
    ]
    assert unused == []


def test_every_module_level_import_is_read():
    # ``__init__.py`` imports to re-export; ``from __future__`` sets a flag.
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unread += [f"{path.name}: {name}" for name in bound if name not in read]
    assert unread == []
