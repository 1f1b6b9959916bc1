"""Guards for the public surface: what the package names exists and has a
runtime reader, and the runtime needs nothing beyond the standard library."""

import ast
import importlib
import pkgutil
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

import anires

SRC = Path(anires.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(anires.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"anires.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_reexports_exist():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"anires.{node.module}")
        for alias in node.names:
            assert getattr(anires, alias.asname or alias.name) is getattr(module, alias.name)


def test_runtime_imports_only_stdlib():
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            foreign += [(path.name, r) for r in roots if r not in sys.stdlib_module_names]
    assert foreign == []


def test_no_assert_statements():
    # python -O strips assert statements, so a check at run time must raise
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert asserts == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def _loads(tree):
    """The names that ``tree`` reads, as Name or Attribute loads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def test_public_names_have_a_runtime_caller():
    # a name in a module's __all__, or a method defined in the body of an exported
    # class (dunders aside), must be read somewhere in the package (a Name or
    # Attribute load outside __init__.py) or be named by the benchmark; formulas
    # that only tests evaluate live in tests/paper_formulas.py
    used = set()
    exported = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used.update(_loads(tree))
        names = getattr(importlib.import_module(f"anires.{path.stem}"), "__all__", ())
        exported += names
        exported += [item.name for node in tree.body
                     if isinstance(node, ast.ClassDef) and node.name in names
                     for item in node.body if isinstance(item, ast.FunctionDef)
                     and not (item.name.startswith("__") and item.name.endswith("__"))]
    bench = " ".join(p.read_text() for p in (ROOT / "perfbench").glob("*.py"))
    unused = sorted(name for name in exported
                    if name not in used and re.search(rf"\b{name}\b", bench) is None)
    assert unused == []


def _bound(node):
    """The names that a module or class body statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_private_names_have_a_reader():
    # a private module-level function, class or value (a _CONSTANT, or a flag
    # parser such as cli._fraction), or a private member of a class, must be
    # read somewhere in the package outside its own definition, so a helper
    # that a refactor leaves behind fails here
    reads = Counter()
    private = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads.update(_loads(tree))
        for node in tree.body:
            for item in [node, *(node.body if isinstance(node, ast.ClassDef) else [])]:
                private += [(f"{path.name}:{name}", name, item) for name in _bound(item)
                            if name.startswith("_") and not name.endswith("__")]
    assert len(private) > 40
    unread = [where for where, name, item in private if reads[name] == Counter(_loads(item))[name]]
    assert unread == []


def test_benchmark_trace_targets_resolve():
    # perfbench/tracing.py wraps these names from outside; a rename in anires must
    # fail here, not in `run.py --trace 1`.  Class members resolve through the
    # class __dict__, as Tracer.install reads them.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    assert targets
    missing = []
    for module, path, _, _ in targets:
        owner = importlib.import_module(f"anires.{module}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}:{path}")
    assert missing == []
