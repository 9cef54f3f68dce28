"""Every module under ``src/repro`` is reached from a program entry point.

The import graph is read with :mod:`ast`; nothing is imported. The entry
points are the CLI (``repro.__main__``) and every script under
``perfbench/``, ``examples/`` and ``tools/``. An import statement is an
edge, and so is a string constant that names a module: the
CLI's ``EXPERIMENTS``/``NETWORKS`` tables load modules by name. Tests are not entry points, so code that only its own
tests reach fails here. ``repro.testing``, the conformance library the tests
drive, is the one exempt package.

The same parse guards one import boundary: the simulator layers whose hook
sites record events (``hw``, ``kernels``, ``frame``, ``simmpi``,
``parallel``, ``pipeline``, ``faults``, ``trace`` and the serving engine)
import nothing from ``repro.metrics``. They report through trace spans and
the fault injector; the ``metrics`` report reads its numbers from the run.

:func:`test_every_definition_is_reached_from_an_entry_point` repeats the
walk one level down, for every top-level function and class and every
method. ``docs/testing.md`` says what counts as a reference there and what
to do when it fails.
"""

import ast
import re
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


#: Definitions that no entry point reaches and that stay anyway, each with
#: the reason it stays. The test fails on a stale entry too.
ALLOWED_UNREACHED = {
    "repro.kernels.gemm.SWGemmPlan.tile_walk": (
        "pins the GEMM cost formula: tests/test_tile_walks.py and the kernel "
        "conformance checks replay it against cost().dma_bytes"
    ),
    "repro.kernels.im2col._TransformPlanBase.tile_walk": (
        "pins the im2col/col2im cost formula: replayed against cost().dma_bytes "
        "and the stated time bound"
    ),
    "repro.kernels.conv_implicit.ImplicitConvPlan.tile_walk": (
        "pins the implicit-conv cost formula: its replay never moves more "
        "than cost().dma_bytes"
    ),
    "repro.frame.blob.Blob.has_data": (
        "tests/test_deferred_fills.py checks through it that building a net "
        "for pricing draws no weights; every reached accessor (data, diff) "
        "materialises the blob it reads"
    ),
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = (*_FUNCS, ast.ClassDef)
#: A string constant that spells a (dotted) name, as ``perfbench/layers.py``
#: does with ``"CoreGroup.__init__"``.
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")


def _body(node: ast.AST) -> list[ast.stmt]:
    """The statements of a module, class or function, docstring dropped."""
    body = node.body
    first = body[0] if body else None
    if (
        isinstance(first, ast.Expr)
        and isinstance(first.value, ast.Constant)
        and isinstance(first.value.value, str)
    ):
        return body[1:]
    return body


class _Mentions(ast.NodeVisitor):
    """The names a piece of code mentions, outside docstrings.

    ``attributes`` holds every attribute name that is read or deleted (an
    assignment ``obj.name = ...`` calls no method) and every part of an
    identifier-shaped string constant; ``prefixes`` the literal head of a
    name that ``getattr`` assembles from an f-string
    (``f"cost_{direction}"``). Code reaches a method on an object, so only
    these reach a method. ``names`` adds every bare name and the original
    name behind an ``import ... as`` alias; those reach functions and
    classes too."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.attributes: set[str] = set()
        self.prefixes: set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if not isinstance(node.ctx, ast.Store):
            self.attributes.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and _IDENTIFIER.match(node.value):
            self.attributes.update(node.value.split("."))

    def visit_alias(self, node: ast.alias) -> None:
        if node.asname:
            self.names.add(node.name.rpartition(".")[2])

    def visit_Call(self, node: ast.Call) -> None:
        name = node.args[1] if len(node.args) > 1 else None
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and isinstance(name, ast.JoinedStr)
            and name.values
            and isinstance(name.values[0], ast.Constant)
        ):
            self.prefixes.add(name.values[0].value)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for part in (*node.decorator_list, node.args, node.returns, *_body(node)):
            if part is not None:
                self.visit(part)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for part in (*node.decorator_list, *node.bases, *node.keywords, *_body(node)):
            self.visit(part)

    def mention(self, definition: ast.AST) -> None:
        """Add what ``definition`` mentions; a class's methods are their own
        definitions, so only its header and other statements count."""
        if isinstance(definition, ast.ClassDef):
            parts = [*definition.decorator_list, *definition.bases, *definition.keywords]
            parts += [s for s in _body(definition) if not isinstance(s, _FUNCS)]
            for part in parts:
                self.visit(part)
        else:
            self.visit(definition)


def _is_root(node: ast.AST) -> bool:
    """Dunder methods run on their class's protocol; ``@register_layer``
    builders run from the netspec registry by type name."""
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "register_layer"
        for d in node.decorator_list
    )


def _reexports(stmt: ast.stmt, path: Path) -> bool:
    """Whether ``stmt`` only re-exports names: an ``__all__`` assignment,
    or an import in a package ``__init__``. Naming a name there does not
    use it."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return path.name == "__init__.py"
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
    )


def test_every_definition_is_reached_from_an_entry_point():
    """A name-graph walk over every definition under ``src/repro``.

    Nothing is imported. The module-level code of every module outside
    ``repro.testing`` is a root: the test above shows an entry point
    imports each of them, and importing runs that code. So is every
    script under ``perfbench/``, ``examples/`` and ``tools/``, whole.
    Re-exports (:func:`_reexports`) are not roots. A reached definition
    reaches every definition whose name it mentions (:class:`_Mentions`);
    a method needs its class reached as well, and a bare variable of the
    same name does not reach it.
    """
    mentions = _Mentions()
    #: qualified name -> (definition, qualified name of its class or None)
    defs: dict[str, tuple[ast.AST, str | None]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        if module == EXEMPT or module.startswith(EXEMPT + "."):
            continue
        for stmt in _body(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(stmt, _DEFS):
                if not _reexports(stmt, path):
                    mentions.visit(stmt)
                continue
            owner = f"{module}.{stmt.name}"
            defs[owner] = (stmt, None)
            if isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, _FUNCS):
                        defs[f"{owner}.{sub.name}"] = (sub, owner)
    for d in ENTRY_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            mentions.visit(ast.parse(path.read_text(encoding="utf-8")))

    reached: set[str] = set()
    grew = True
    while grew:
        grew = False
        for qual, (node, owner) in defs.items():
            if qual in reached or (owner is not None and owner not in reached):
                continue
            name = node.name
            if (
                _is_root(node)
                or name in mentions.attributes
                or (owner is None and name in mentions.names)
                or any(name.startswith(p) for p in mentions.prefixes)
            ):
                reached.add(qual)
                mentions.mention(node)
                grew = True

    # A method of an unreached class is reported through its class.
    unreached = {
        qual: node.lineno
        for qual, (node, owner) in defs.items()
        if qual not in reached and (owner is None or owner in reached)
    }
    found = sorted(f"{qual} (line {line})" for qual, line in unreached.items()
                   if qual not in ALLOWED_UNREACHED)
    assert found == [], f"definitions no entry point reaches: {found}"
    stale = sorted(ALLOWED_UNREACHED.keys() - unreached.keys())
    assert stale == [], f"allow-listed definitions that are reached or gone: {stale}"
