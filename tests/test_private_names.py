"""Every module-level private name in the package is used somewhere in it,
every module-level import is read by its module, every name the package
exports has a user, every public function, class and constant has a reader
outside the tests, no handler catches ``InternalConsistencyError``, and
every constant and attribute README's code names exists.

A private helper that nothing in ``src/`` calls any more is dead code, and
so is an import its module never reads or a public function only tests
call; these tests name them. They read the sources with the standard
``ast`` module, so no linter is needed.
"""

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import numpy

from reflectspec.errors import InternalConsistencyError, ReflectSpecError

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "reflectspec"

# Exports with no user in another package module, perfbench or README, and
# why each stays.
EXPORTS_KEPT = {
    "ReportRow": "the row type run_sweep returns",
    "ReflectiveLayout": "the layout type build_reflective_input returns",
    "one_hot": "the acceptance suite imports it",
}

# Public module-level functions and classes that no other statement of the
# package, no perfbench file and no README code span reads, and why each stays.
PUBLIC_KEPT = {
    "one_hot": "the acceptance suite imports it",
}

# Names README's code spans take from outside the package.
README_EXTERNAL = {"np": numpy, "dataclasses": dataclasses, "PCG64": numpy.random.PCG64}


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


def test_no_source_reads_an_array_typecode():
    """A model reads a session's buffer (``models._Tokens``) unchecked and
    checks every other context; a typecode test would trust a caller's
    ``array`` as well, a second rule for the same decision."""
    reads = [
        f"{path.name}:{n.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(n, ast.Attribute) and n.attr == "typecode"
    ]
    assert reads == []


def readme_spans() -> list[str]:
    """README's code spans outside fenced blocks."""
    readme = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(encoding="utf-8"), flags=re.S)
    return re.findall(r"`([^`]+)`", readme)


def outside_readers() -> set[str]:
    """Names perfbench reads, also as strings (it looks engine bindings up by
    name), and the words of README's code spans."""
    bench = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
        bench |= used_names(tree) | {s for s in strings if isinstance(s, str)}
    return bench | set(re.findall(r"\w+", " ".join(readme_spans())))


def test_every_export_has_a_user():
    """A name ``__init__`` imports is read by another package module, by
    perfbench, or in README's code; or it is in ``EXPORTS_KEPT``."""
    exports = {
        alias.asname or alias.name: node.module
        for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    readers = {
        path.stem: used_names(ast.parse(path.read_text(encoding="utf-8")))
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
    }
    outside = outside_readers()
    unused = {
        name
        for name, module in exports.items()
        if name not in outside
        and not any(name in used for stem, used in readers.items() if stem != module)
    }
    assert sorted(unused - EXPORTS_KEPT.keys()) == []
    # A kept name that gains a user, or stops being exported, leaves the list.
    assert sorted(EXPORTS_KEPT.keys() - unused) == []


def unread_public_names(public_names) -> set[str]:
    """The names ``public_names(node)`` gives for each top-level statement
    of the package that no other such statement, no perfbench file and no
    README code span reads. ``__init__`` re-exports and the tests do not
    count."""
    statements = [
        node
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    uses = [used_names(node) for node in statements]
    outside = outside_readers()
    return {
        name
        for i, node in enumerate(statements)
        for name in public_names(node)
        if name not in outside and not any(name in used for j, used in enumerate(uses) if j != i)
    }


def test_every_public_function_and_class_has_a_reader():
    """A public module-level def or class has a reader
    (``unread_public_names``), or it is in ``PUBLIC_KEPT``."""
    unread = unread_public_names(
        lambda node: [node.name]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        else []
    )
    assert sorted(unread - PUBLIC_KEPT.keys()) == []
    # A kept name that gains a reader, or goes, leaves the list.
    assert sorted(PUBLIC_KEPT.keys() - unread) == []


def test_every_public_constant_has_a_reader():
    """A public UPPER_CASE module constant has a reader
    (``unread_public_names``): one nothing reads holds a value no code
    depends on."""
    unread = unread_public_names(
        lambda node: [n for n in defined_names(node) if re.fullmatch(r"[A-Z][A-Z0-9_]*", n)]
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        else []
    )
    assert sorted(unread) == []


def test_no_handler_names_the_fault_class():
    """``InternalConsistencyError`` is no ``ReflectSpecError``, so the
    handlers that record a caller's error never see it, and no ``except``
    clause in the package may catch it."""
    handlers = [
        f"{path.name}:{n.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(n, ast.ExceptHandler)
        and n.type is not None
        and "InternalConsistencyError" in used_names(n.type)
    ]
    assert handlers == []
    assert not issubclass(InternalConsistencyError, ReflectSpecError)


def unresolved_names(spans: list[str]) -> list[str]:
    """The UPPER_CASE constants and ``name.attr`` chains in ``spans`` that do
    not resolve. A constant resolves to a module-level name of a package
    module; ``module.name`` to a name of that package module, ``Class.attr``
    to an attribute or dataclass field of that package class, and
    ``README_EXTERNAL`` names (``PCG64``, ``np.zeros``) to numpy's. Flag spans
    (``--corpus FILE``), bracketed tokens (``[BACK]``) and file names
    (``stats.json``) name no constant."""
    names: dict[str, object] = dict(README_EXTERNAL)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"reflectspec.{path.stem}")
        names.setdefault(path.stem, module)
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for name in defined_names(node):
                names.setdefault(name, getattr(module, name))
    missing = object()
    unresolved = []
    for span in spans:
        if span.startswith("-"):
            continue
        text = re.sub(r"\[\w+\]", "", span)
        unresolved += [c for c in re.findall(r"\b[A-Z][A-Z0-9_]+\b", text) if c not in names]
        for chain in re.findall(r"\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", text):
            head, *attrs = chain.split(".")
            if attrs[-1] in ("py", "json", "csv", "txt", "md"):
                continue
            obj = names.get(head, missing)
            for attr in attrs:
                if dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
                    break  # a field, which a class without a default lacks
                obj = getattr(obj, attr, missing)
            if obj is missing:
                unresolved.append(chain)
    return unresolved


def test_every_constant_and_attribute_readme_names_resolves():
    assert unresolved_names(readme_spans()) == []


def test_the_readme_audit_flags_stale_names():
    spans = ["MEMO_BYTES", "models.memo_windows", "DecodeConfig.nope", "Nope.x", "TABLE_BYTES",
             "bench.CellRunner", "StepStats.accepted_n", "np.zeros", "PCG64", "[BACK]",
             "--corpus FILE", "stats.json"]
    assert unresolved_names(spans) == ["MEMO_BYTES", "models.memo_windows", "DecodeConfig.nope", "Nope.x"]
