#!/usr/bin/env python3
"""Docs link checker (stdlib only; run by CI and tests/test_docs_links.py).

Four guarantees:

1. every relative markdown link in the repo's documentation resolves to
   an existing file or directory (http/mailto/pure-anchor links are
   skipped; ``#fragment`` suffixes are stripped before resolving);
2. every package under ``src/repro/`` is reachable from the
   documentation landing page ``docs/index.md`` — a new subsystem must
   be added to the index before CI goes green;
3. every ``repro`` import in the fenced python blocks of those files and
   in the scripts under ``examples/`` and ``tools/`` names a module that
   exists, and every name it imports is defined in that module or is one
   of its submodules. A package ``__init__`` defines nothing it does not
   bind itself, so ``from repro.simmpi import SimComm`` fails: import it
   from ``repro.simmpi.comm``. Read with :mod:`ast`; nothing is imported;
4. every inline code span of those files (ROADMAP.md excepted: its
   history names deleted code on purpose) names only code that exists.
   In a dotted ``repro.`` path the longest module prefix exists under
   ``src/``, the next name is defined at that module's top level, and a
   name after that is a member of that class (defined in its body or set
   on ``self`` in a method). Every ``repro/.../*.py`` path is a file under
   ``src/``. A span that is a CamelCase name (two or more capitals and a
   lowercase letter: ``PlanCost``, ``SGDSolver``), optionally called and
   then optionally followed by one ``.member``, names a class or function
   defined at the top level of a module under ``src/repro``,
   ``perfbench/`` or ``tools/``, and the member is one of that class's.

Usage: ``python tools/check_docs_links.py [repo_root]`` — prints one
line per problem and exits 1 if any were found.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

#: Markdown files checked for broken relative links.
DOC_GLOBS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "docs/*.md")

#: Inline markdown links: [text](target). Images share the syntax.
_LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Fenced code blocks, removed before link extraction (``[i]`` indexing
#: and the like inside code would otherwise false-positive).
_FENCE_RE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)

#: Script directories whose files are import-checked.
SCRIPT_DIRS = ("examples", "tools")

#: A fenced python block; group 1 is its body.
_PYTHON_FENCE_RE = re.compile(r"^```python[ \t]*\n(.*?)^```", re.MULTILINE | re.DOTALL)

#: Docs whose inline code spans must name existing code (guarantee 4).
SPAN_EXEMPT = ("ROADMAP.md",)

#: An inline code span; group 1 is its text.
_SPAN_RE = re.compile(r"`([^`\n]+)`")

#: A dotted ``repro.`` path, and a ``repro/.../*.py`` file path.
_DOTTED_RE = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
_PY_PATH_RE = re.compile(r"\brepro/[\w/]*\.py\b")

#: Where the class or function a CamelCase span names must be defined.
CODE_DIRS = ("src/repro", "perfbench", "tools")

#: A span that is a name, optionally called, then optionally one
#: ``.member``, itself optionally called: ``Name``, ``Name(x=1).member()``.
_NAME_SPAN_RE = re.compile(
    r"(?P<name>[A-Z][A-Za-z0-9]*)(?:\([^()]*\))?"
    r"(?:\.(?P<member>[A-Za-z_]\w*)(?:\([^()]*\))?)?\Z"
)


def doc_files(root: pathlib.Path) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for pattern in DOC_GLOBS:
        files.extend(sorted(root.glob(pattern)))
    return files


def links_in(path: pathlib.Path) -> list[str]:
    text = _FENCE_RE.sub("", path.read_text(encoding="utf-8"))
    return _LINK_RE.findall(text)


def is_relative(target: str) -> bool:
    if target.startswith(("http://", "https://", "mailto:", "#")):
        return False
    return "://" not in target


def check_links(root: pathlib.Path) -> list[str]:
    """All problems found (empty list = docs are consistent)."""
    problems: list[str] = []
    index = root / "docs" / "index.md"
    if not index.is_file():
        problems.append("docs/index.md is missing (the documentation landing page)")

    reachable_from_index: set[pathlib.Path] = set()
    for doc in doc_files(root):
        for target in links_in(doc):
            if not is_relative(target):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (doc.parent / rel).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(root)}: broken link '{target}' "
                    f"(resolved to {resolved})"
                )
            elif doc == index:
                reachable_from_index.add(resolved)

    src = root / "src" / "repro"
    for pkg in sorted(p for p in src.iterdir() if (p / "__init__.py").is_file()):
        covered = any(
            target == pkg.resolve() or target.is_relative_to(pkg.resolve())
            for target in reachable_from_index
        )
        if not covered:
            problems.append(
                f"docs/index.md: package src/repro/{pkg.name} is not linked "
                "from the documentation index"
            )
    return problems


def _defined_names(body: list[ast.stmt]) -> set[str]:
    """Names the top-level statements ``body`` define: functions, classes
    and assignment targets, also inside if/for/while/with/try blocks.
    An import binds a name but defines nothing."""
    names: set[str] = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        for block in ("body", "orelse", "finalbody"):
            names |= _defined_names(getattr(node, block, []))
        for handler in getattr(node, "handlers", []):
            names |= _defined_names(handler.body)
    return names


def _own_members(node: ast.ClassDef) -> set[str]:
    """Names class ``node`` defines in its body or sets on ``self``."""
    members = _defined_names(node.body)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store):
            if isinstance(sub.value, ast.Name) and sub.value.id == "self":
                members.add(sub.attr)
    return members


class _Modules:
    """What each ``repro`` module under ``src`` defines, parsed on demand."""

    def __init__(self, src: pathlib.Path) -> None:
        self.src = src
        self._defined: dict[str, set[str]] = {}
        self._trees: dict[str, ast.Module] = {}

    def tree(self, module: str) -> ast.Module:
        """The parsed source of ``module``."""
        if module not in self._trees:
            self._trees[module] = ast.parse(self.path(module).read_text(encoding="utf-8"))
        return self._trees[module]

    def path(self, module: str) -> pathlib.Path | None:
        """The file that defines ``module``, or None."""
        base = self.src.joinpath(*module.split("."))
        for path in (base.with_suffix(".py"), base / "__init__.py"):
            if path.is_file():
                return path
        return None

    def provides(self, module: str, name: str) -> bool:
        """Whether ``from module import name`` names what defines it."""
        if module not in self._defined:
            self._defined[module] = _defined_names(self.tree(module).body)
        return name in self._defined[module] or self.path(f"{module}.{name}") is not None

    def members(self, module: str, name: str) -> set[str] | None:
        """Names class ``name`` of ``module`` defines in its body or sets
        on ``self``, its bases in ``module`` included; None if ``module``
        defines no class ``name``."""
        for node in self.tree(module).body:
            if isinstance(node, ast.ClassDef) and node.name == name:
                members = _own_members(node)
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        members |= self.members(module, base.id) or set()
                return members
        return None


class _Definitions:
    """The top-level classes and functions of every module under
    :data:`CODE_DIRS`, by name."""

    def __init__(self, root: pathlib.Path) -> None:
        self.classes: dict[str, list[ast.ClassDef]] = {}
        self.functions: set[str] = set()
        for directory in CODE_DIRS:
            for path in sorted((root / directory).rglob("*.py")):
                for node in ast.parse(path.read_text(encoding="utf-8")).body:
                    if isinstance(node, ast.ClassDef):
                        self.classes.setdefault(node.name, []).append(node)
                    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.functions.add(node.name)

    def members(self, name: str, seen: frozenset[str] = frozenset()) -> set[str]:
        """Names every class called ``name`` defines in its body or sets
        on ``self``, its bases defined under :data:`CODE_DIRS` included."""
        members: set[str] = set()
        for node in self.classes.get(name, ()):
            members |= _own_members(node)
            for base in node.bases:
                if isinstance(base, ast.Name) and base.id not in seen | {name}:
                    members |= self.members(base.id, seen | {name})
        return members


def _is_camel_case(name: str) -> bool:
    """``PlanCost`` and ``SGDSolver`` are; ``Tracer`` and ``SW_PARAMS`` are not."""
    return sum(map(str.isupper, name)) >= 2 and any(map(str.islower, name))


def _import_problems(
    code: str, modules: _Modules, where: str, first_line: int = 1
) -> list[str]:
    """Why each ``repro`` import in ``code`` would fail, one line apiece.

    ``code`` starts on line ``first_line`` of the file ``where``. A module
    the code imports under a name (``from repro import trace``) is checked
    at its attribute uses too: ``trace.tracing`` must be defined in
    ``repro.trace``.
    """
    try:
        tree = ast.parse(code)
    except SyntaxError as exc:
        return [f"{where}:{first_line}: python does not parse ({exc.msg})"]
    problems: list[str] = []

    def report(node: ast.AST, why: str) -> None:
        problems.append(f"{where}:{first_line + node.lineno - 1}: {why}")

    aliases: dict[str, str] = {}  # local name -> the module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "repro":
                    continue
                if modules.path(alias.name) is None:
                    report(node, f"no module {alias.name}")
                elif alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            module = node.module
            if module.split(".")[0] != "repro":
                continue
            if modules.path(module) is None:
                report(node, f"no module {module}")
                continue
            for alias in node.names:
                if not modules.provides(module, alias.name):
                    report(node, f"{module} defines no {alias.name}")
                elif modules.path(f"{module}.{alias.name}") is not None:
                    aliases[alias.asname or alias.name] = f"{module}.{alias.name}"
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and not modules.provides(aliases[node.value.id], node.attr)
        ):
            report(node, f"{aliases[node.value.id]} defines no {node.attr}")
    return problems


def check_imports(root: pathlib.Path) -> list[str]:
    """Every ``repro`` import of the docs' python blocks and scripts that
    names a missing module or a name its module does not define."""
    modules = _Modules(root / "src")
    problems: list[str] = []
    for doc in doc_files(root):
        text = doc.read_text(encoding="utf-8")
        for match in _PYTHON_FENCE_RE.finditer(text):
            first = text.count("\n", 0, match.start(1)) + 1
            problems += _import_problems(
                match.group(1), modules, str(doc.relative_to(root)), first
            )
    for directory in SCRIPT_DIRS:
        for script in sorted((root / directory).rglob("*.py")):
            problems += _import_problems(
                script.read_text(encoding="utf-8"), modules, str(script.relative_to(root))
            )
    return problems


def _span_problem(span: str, modules: _Modules, definitions: _Definitions) -> str | None:
    """Why an inline code span names code that does not exist, or None."""
    match = _NAME_SPAN_RE.match(span)
    if match and _is_camel_case(match["name"]):
        name, member = match["name"], match["member"]
        if name not in definitions.classes:
            if name not in definitions.functions:
                return f"no class or function {name} under {', '.join(CODE_DIRS)}"
            if member:
                return f"{name} is not a class, so it has no {member}"
        elif member and member not in definitions.members(name):
            return f"class {name} has no member {member}"
        return None
    for path in _PY_PATH_RE.findall(span):
        if not (modules.src / path).is_file():
            return f"no file src/{path}"
    for dotted in _DOTTED_RE.findall(span):
        parts = dotted.split(".")
        cut = next(i for i in range(len(parts), 0, -1) if modules.path(".".join(parts[:i])))
        module, rest = ".".join(parts[:cut]), parts[cut:]
        if not rest:
            continue
        if not modules.provides(module, rest[0]):
            return f"{module} defines no {rest[0]}"
        if len(rest) > 1:
            members = modules.members(module, rest[0])
            if members is None:
                return f"{module}.{rest[0]} is not a class, so it has no {rest[1]}"
            if rest[1] not in members:
                return f"{module}.{rest[0]} has no member {rest[1]}"
    return None


def check_code_spans(root: pathlib.Path) -> list[str]:
    """Every inline code span of the docs that names missing code."""
    modules = _Modules(root / "src")
    definitions = _Definitions(root)
    problems: list[str] = []
    for doc in doc_files(root):
        where = str(doc.relative_to(root))
        if where in SPAN_EXEMPT:
            continue
        text = _FENCE_RE.sub(lambda m: "\n" * m.group(0).count("\n"), doc.read_text(encoding="utf-8"))
        for match in _SPAN_RE.finditer(text):
            why = _span_problem(match.group(1), modules, definitions)
            if why:
                line = text.count("\n", 0, match.start()) + 1
                problems.append(f"{where}:{line}: `{match.group(1)}`: {why}")
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parents[1]
    problems = check_links(root) + check_imports(root) + check_code_spans(root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} documentation problem(s)")
        return 1
    print(
        f"docs OK: {len(doc_files(root))} files checked, all links resolve, "
        "every repro import names what defines it, every code span names code that exists"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
