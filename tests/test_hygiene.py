"""Every function, class and method the package defines is used somewhere,
and every name a package module imports is used in that module.

The first scan collects every name the source, the tests and the benchmark
harness mention: identifiers, attribute names, imported names, and string
constants that spell an identifier (export lists and the tracer's wrap
tables name functions as strings).  A module-level function or class of
`bnsense`, or a method of one of its classes, that none of them mentions is
dead code.  Methods the interpreter calls (dunders) and overrides of a
base-class method are used through the base class and are exempt.

The second scan reads each module of `bnsense` on its own.  A name bound by
an import there must be read as an identifier somewhere in the module or be
listed in its `__all__`, which re-exports it.  `__init__.py` only
re-exports and is exempt.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bnsense"
SCANNED = (ROOT / "src", ROOT / "tests", ROOT / "benchmarks")


def _mentioned_names() -> set[str]:
    names = set()
    for top in SCANNED:
        for path in top.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and node.value.isidentifier():
                    names.add(node.value)
    return names


def _definitions():
    """(qualified name, bare name) of every module-level def and class and their methods."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(
            "bnsense" if path.stem == "__init__" else f"bnsense.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{path.stem}.{node.name}", node.name
            elif isinstance(node, ast.ClassDef):
                yield f"{path.stem}.{node.name}", node.name
                bases = getattr(module, node.name).__mro__[1:]
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    name = item.name
                    if name.startswith("__") and name.endswith("__"):
                        continue
                    if any(hasattr(base, name) for base in bases):
                        continue
                    yield f"{path.stem}.{node.name}.{name}", name


def test_every_definition_is_referenced():
    mentioned = _mentioned_names()
    unused = [qualified for qualified, name in _definitions() if name not in mentioned]
    assert unused == []


def _unused_imports(path: Path) -> list[str]:
    """Names bound by an import in the module that the module never uses."""
    module = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_import_is_used():
    unused = {path.stem: names for path in sorted(PACKAGE.glob("*.py"))
              if path.stem != "__init__" and (names := _unused_imports(path))}
    assert unused == {}
