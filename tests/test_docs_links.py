"""The documentation stays consistent: tier-1 wrapper around the checker.

``tools/check_docs_links.py`` (also a CI step) asserts that every
relative markdown link resolves, that every ``src/repro/*`` package is
reachable from ``docs/index.md``, that every ``repro`` import in the
docs' python blocks and in ``examples/`` and ``tools/`` names the module
that defines what it imports, and that every inline code span of the docs
(ROADMAP.md aside) names a ``repro`` module, definition, class member or
source file that exists, and every CamelCase name span a class or
function defined under ``src/repro``, ``perfbench/`` or ``tools/``.
"""

from __future__ import annotations

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "check_docs_links", ROOT / "tools" / "check_docs_links.py"
)
check_docs_links = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs_links)


def test_all_doc_links_resolve_and_packages_are_indexed():
    problems = check_docs_links.check_links(ROOT)
    assert problems == []


def test_docs_and_scripts_import_from_the_defining_module():
    assert check_docs_links.check_imports(ROOT) == []


def test_doc_code_spans_name_existing_code():
    assert check_docs_links.check_code_spans(ROOT) == []


def test_checker_detects_breakage(tmp_path):
    """The checker itself can fail (a checker that cannot fail proves nothing)."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "src" / "repro" / "ghost").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "ghost" / "__init__.py").write_text("")
    (tmp_path / "README.md").write_text("[gone](docs/nope.md)\n")
    (tmp_path / "docs" / "index.md").write_text("# index\nno links here\n")
    problems = check_docs_links.check_links(tmp_path)
    assert any("broken link" in p for p in problems)
    assert any("ghost" in p for p in problems)


def test_import_checker_detects_breakage(tmp_path):
    ghost = tmp_path / "src" / "repro" / "ghost"
    ghost.mkdir(parents=True)
    (ghost.parent / "__init__.py").write_text("")
    (ghost / "__init__.py").write_text("from repro.ghost.impl import Thing\n")
    (ghost / "impl.py").write_text("class Thing:\n    pass\n")
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "bad.py").write_text(
        "from repro.ghost import Thing\n"       # a re-export: not where it is defined
        "from repro.ghost.impl import Thing\n"  # fine
        "from repro.nowhere import x\n"
    )
    (tmp_path / "README.md").write_text(
        "# r\n\n```python\nfrom repro import ghost\nghost.impl.Thing()\nghost.missing()\n```\n"
    )
    problems = check_docs_links.check_imports(tmp_path)
    assert problems == [
        "README.md:6: repro.ghost defines no missing",
        "examples/bad.py:1: repro.ghost defines no Thing",
        "examples/bad.py:3: no module repro.nowhere",
    ]


def test_code_span_checker_detects_breakage(tmp_path):
    ghost = tmp_path / "src" / "repro" / "ghost"
    ghost.mkdir(parents=True)
    (ghost.parent / "__init__.py").write_text("")
    (ghost / "__init__.py").write_text("")
    (ghost / "impl.py").write_text(
        "class Base:\n    def walk(self):\n        pass\n\n\n"
        "class Thing(Base):\n    def __init__(self):\n        self.size = 1\n\n"
        "    def run(self):\n        pass\n\n\ndef helper():\n    pass\n"
    )
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "notes.md").write_text(
        "`repro.ghost.impl.Thing.run`, `repro.ghost.impl.Thing.size`,\n"
        "`repro.ghost.impl.Thing.walk()` and `repro/ghost/impl.py` exist.\n"
        "```\n`repro.ghost.gone` in a fenced block is not a span\n```\n"
        "`repro.ghost.impl.Gone` `repro.ghost.impl.Thing.fly`\n"
        "`repro.ghost.impl.helper.x` `python -m repro.ghost.missing`\n"
        "`src/repro/ghost/gone.py`\n"
    )
    (tmp_path / "ROADMAP.md").write_text("history: `repro.ghost.gone`\n")
    assert check_docs_links.check_code_spans(tmp_path) == [
        "docs/notes.md:6: `repro.ghost.impl.Gone`: repro.ghost.impl defines no Gone",
        "docs/notes.md:6: `repro.ghost.impl.Thing.fly`: "
        "repro.ghost.impl.Thing has no member fly",
        "docs/notes.md:7: `repro.ghost.impl.helper.x`: "
        "repro.ghost.impl.helper is not a class, so it has no x",
        "docs/notes.md:7: `python -m repro.ghost.missing`: repro.ghost defines no missing",
        "docs/notes.md:8: `src/repro/ghost/gone.py`: no file src/repro/ghost/gone.py",
    ]


def test_camel_case_span_checker_detects_breakage(tmp_path):
    """A CamelCase span names a class or function under ``src/repro``,
    ``perfbench/`` or ``tools/``, and its one ``.member`` is the class's."""
    impl = tmp_path / "src" / "repro" / "ghost" / "impl.py"
    impl.parent.mkdir(parents=True)
    impl.write_text(
        "class GhostBase:\n    def walk(self):\n        pass\n\n\n"
        "class GhostThing(GhostBase):\n    def __init__(self):\n        self.size = 1\n\n"
        "    def run(self):\n        pass\n\n\ndef MakeGhost():\n    pass\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "tool.py").write_text("class ToolReport:\n    pass\n")
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "notes.md").write_text(
        "`GhostThing`, `GhostThing.size`, `GhostThing(x=1).walk()`, `MakeGhost()`,\n"
        "`ToolReport`, `Tracer`, `SW_PARAMS` and `GhostThing is fine` pass.\n"
        "`GoneThing` `GhostThing.fly` `MakeGhost.x` `SGDGone(lr=1)`\n"
    )
    assert check_docs_links.check_code_spans(tmp_path) == [
        "docs/notes.md:3: `GoneThing`: no class or function GoneThing under "
        "src/repro, perfbench, tools",
        "docs/notes.md:3: `GhostThing.fly`: class GhostThing has no member fly",
        "docs/notes.md:3: `MakeGhost.x`: MakeGhost is not a class, so it has no x",
        "docs/notes.md:3: `SGDGone(lr=1)`: no class or function SGDGone under "
        "src/repro, perfbench, tools",
    ]
