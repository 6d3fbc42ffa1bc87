"""Every module-level private name in the package is used somewhere in it,
every module-level import is read by its module, every name the package
exports has a user, every public function, class and constant has a reader
outside the tests, no handler catches ``InternalConsistencyError``, only
the setting readers write a setting check's message, only ``stack_rows``
reads a caller's array, and every constant and attribute README's code
names exists.

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
}

# Public module-level functions and classes that no other statement of the
# package, no perfbench file and no README code span reads, and why each stays.
PUBLIC_KEPT: dict[str, str] = {}

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


# The messages of the setting readers (``tokens.setting_int``,
# ``setting_real`` and ``setting_flag``): a check in one of these shapes is
# written by a reader, or it is one of ``SHAPES_KEPT``.
READER_SHAPES = ("must be an integer", "must be a real number", "must be a bool", "must lie in [", "must be >=")
READERS = {"tokens.setting_int", "tokens.setting_real", "tokens.setting_flag"}
SHAPES_KEPT = {
    "models.TableModel.__init__": "the seed's interval is half-open, [-2**63, 2**63), as README quotes it",
    "tokens.softmax": "a per-row kernel: its temperature check stays one comparison, with no reader call",
    "tokens.sampling_distribution": "a per-row kernel: its temperature check stays as softmax's does",
    "cli._jobs": "argparse's usage error (exit 2) for --jobs, raised as an ArgumentTypeError",
}


def scopes_where(tree: ast.AST, scope: str, hit) -> set[str]:
    """The innermost def or class, as ``module.name``, of each node of
    ``tree`` for which ``hit`` holds."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= scopes_where(node, f"{scope}.{node.name}", hit)
            continue
        if hit(node):
            found.add(scope)
        found |= scopes_where(node, scope, hit)
    return found


def shape_writers(tree: ast.AST, scope: str) -> set[str]:
    """The scopes of the strings of ``tree`` (f-string parts and docstrings
    too) that hold a reader shape."""
    return scopes_where(
        tree,
        scope,
        lambda node: isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(shape in node.value for shape in READER_SHAPES),
    )


def test_only_the_setting_readers_write_their_messages():
    """A setting's type and closed range are read by ``tokens``'s readers,
    so each such message has one shape and one writer; a hand-written check
    in that shape is a second rule for the same decision."""
    writers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        writers |= shape_writers(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(writers - READERS - SHAPES_KEPT.keys()) == []
    # A kept check that goes, or stops writing the shape, leaves the list.
    assert sorted(SHAPES_KEPT.keys() - writers) == []


def test_the_reader_shape_audit_flags_a_hand_written_check():
    source = '''
class Spec:
    def __post_init__(self):
        if self.order < 1:
            raise InvalidConfigError(f"order must be >= 1, got {self.order}")

def fuse(alpha):
    """alpha must lie in [0, 1]."""

def check(epsilon):
    raise InvalidConfigError(f"epsilon must lie in (0, 1], got {epsilon!r}")
'''
    assert shape_writers(ast.parse(source), "m") == {"m.Spec.__post_init__", "m.fuse"}


# The one reader of a caller's array: it alone converts to float64, checks
# the dimensions and turns numpy's refusals into the package's errors.
ARRAY_READER = "tokens.stack_rows"


def array_readers(tree: ast.AST, scope: str) -> set[str]:
    """The scopes of ``tree`` that call numpy's ``asarray``, by attribute
    (``np.asarray``) or by its imported name."""
    return scopes_where(
        tree,
        scope,
        lambda node: (isinstance(node, ast.Attribute) and node.attr == "asarray")
        or (isinstance(node, ast.Name) and node.id == "asarray"),
    )


def test_only_the_array_reader_reads_a_callers_array():
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        readers |= array_readers(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert readers == {ARRAY_READER}


def test_the_array_reader_audit_flags_a_second_reader():
    source = '''
from numpy import asarray

def stack_rows(rows):
    return np.asarray(rows, dtype=np.float64)

class Check:
    def validate(self, probs):
        return asarray(probs)
'''
    assert array_readers(ast.parse(source), "m") == {"m.stack_rows", "m.Check.validate"}


def test_the_array_readers_callers_check_no_shape():
    """``validate_logits``, ``validate_distribution``, ``distribution_block``
    and ``fuse`` read their arrays through ``stack_rows``, which checks the
    dimensions; the functions behind them read no shape of their own."""
    for module, name in [("tokens", "_finite_logits"), ("tokens", "_check_probabilities"), ("reflective", "fuse")]:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        [function] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name]
        reads = {n.attr for n in ast.walk(function) if isinstance(n, ast.Attribute)}
        assert reads.isdisjoint({"shape", "ndim", "size"}), name


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
