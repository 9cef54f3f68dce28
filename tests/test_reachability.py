"""Every module under ``src/repro`` is reached from a program entry point.

The import graph is read with :mod:`ast`; nothing is imported. The entry
points are the CLI (``repro.__main__``) and every script under
``perfbench/``, ``examples/`` and ``tools/``. An import statement is an
edge, and so is a string constant that names a module: the
CLI's ``EXPERIMENTS``/``NETWORKS`` tables and the packages' lazy export maps
load modules by name. Tests are not entry points, so code that only its own
tests reach fails here. ``repro.testing``, the conformance library the tests
drive, is the one exempt package.

The same parse guards one import boundary: the simulator layers whose hook
sites record events (``hw``, ``kernels``, ``frame``, ``simmpi``,
``parallel``, ``pipeline``, ``faults``, ``trace`` and the serving engine)
import nothing from ``repro.metrics``. They report through trace spans and
the fault injector; the ``metrics`` report reads its numbers from the run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_DIRS = ("perfbench", "examples", "tools")
EXEMPT = "repro.testing"
#: Packages and modules under ``src/repro`` that must not import repro.metrics.
HOOK_SITES = (
    "hw", "kernels", "frame", "simmpi", "parallel", "pipeline", "faults",
    "trace", "serve/engine.py",
)


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _package(path: Path) -> str:
    """The package relative imports in ``path`` resolve against."""
    name = _module_name(path)
    return name if path.name == "__init__.py" else name.rpartition(".")[0]


def _references(path: Path, package: str, *, strings: bool = True) -> set[str]:
    """Every dotted name ``path`` imports or (with ``strings``) spells out
    in a string constant, with its parents."""
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
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    # Importing ``a.b.c`` runs ``a`` and ``a.b`` first.
    return {
        ".".join(parts[:i])
        for parts in (name.split(".") for name in names)
        for i in range(1, len(parts) + 1)
    }


def test_every_module_is_reached_from_an_entry_point():
    modules = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
    entry_files = [p for d in ENTRY_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    todo = {"repro.__main__"}
    for path in entry_files:
        todo |= _references(path, "") & modules.keys()
    reached: set[str] = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        path = modules[name]
        todo |= (_references(path, _package(path)) & modules.keys()) - reached

    unreached = sorted(
        name
        for name in modules.keys() - reached
        if name != EXEMPT and not name.startswith(EXEMPT + ".")
    )
    assert unreached == [], f"modules no entry point reaches: {unreached}"


def test_hook_sites_do_not_import_metrics():
    files = []
    for site in HOOK_SITES:
        path = SRC / "repro" / site
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    importers = sorted(
        _module_name(path)
        for path in files
        if "repro.metrics" in _references(path, _package(path), strings=False)
    )
    assert importers == [], f"hook-site modules importing repro.metrics: {importers}"
