"""Every module under ``src/repro`` is reached from a program entry point.

The import graph is read with :mod:`ast`; nothing is imported. The entry
points are the CLI (``repro.__main__``) and every script under
``benchmarks/``, ``perfbench/``, ``examples/`` and ``tools/``. An import
statement is an edge, and so is a string constant that names a module: the
CLI's ``EXPERIMENTS``/``NETWORKS`` tables and the packages' lazy export maps
load modules by name. Tests are not entry points, so code that only its own
tests reach fails here. ``repro.testing``, the conformance library the tests
drive, is the one exempt package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_DIRS = ("benchmarks", "perfbench", "examples", "tools")
EXEMPT = "repro.testing"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _references(path: Path, package: str) -> set[str]:
    """Every dotted name ``path`` imports or spells out, with its parents."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: resolve against the importing package
                anchor = package.split(".")[: package.count(".") + 2 - node.level]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    # Importing ``a.b.c`` runs ``a`` and ``a.b`` first.
    return {
        ".".join(parts[:i])
        for parts in (name.split(".") for name in names)
        for i in range(1, len(parts) + 1)
    }


def test_every_module_is_reached_from_an_entry_point():
    modules = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}

    def package(name: str) -> str:
        is_pkg = modules[name].name == "__init__.py"
        return name if is_pkg else name.rpartition(".")[0]

    entry_files = [p for d in ENTRY_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    todo = {"repro.__main__"}
    for path in entry_files:
        todo |= _references(path, "") & modules.keys()
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= (_references(modules[name], package(name)) & modules.keys()) - reached

    unreached = sorted(
        name
        for name in modules.keys() - reached
        if name != EXEMPT and not name.startswith(EXEMPT + ".")
    )
    assert unreached == [], f"modules no entry point reaches: {unreached}"
