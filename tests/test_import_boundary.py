"""Set-up loads only what runs: the package import boundary.

A package ``__init__`` names its modules in its docstring and imports
none of them, so ``from repro.x.y import f`` loads ``x/__init__.py``,
``y`` and what ``y`` imports, not the rest of ``x``. Every benchmark
child pays for what its set-up loads (``setup_s`` in ``perfbench/``), so
three checks hold the boundary:

* in a fresh interpreter per workload, the imports each ``perfbench``
  workload makes during set-up load none of the modules that workload
  never runs (the prototxt/netspec front end, the extended solvers, the
  FFT conv plan and the trace exporters);
* no ``src/repro/**/__init__.py`` imports from its own package, except
  the packages whose package-level names ``perfbench`` imports
  (``parallel``, ``pipeline``, ``serve``, ``frame.model_zoo``);
* a cold pass over the six paper harnesses never loads ``numpy.random``:
  the nets it builds are only priced, so they seed no generator.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_reachability import _references

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: The imports each perfbench workload makes while it sets up
#: (``perfbench/workloads.py``).
SETUP_IMPORTS = {
    "paper_tables": (
        "from repro.frame.model_zoo import PAPER_NETWORKS\n"
        "from repro.harness import (\n"
        "    fig8_alexnet_layers, fig9_vgg_layers, fig10_scalability,\n"
        "    fig11_comm_ratio, table2_vgg_conv, table3_throughput,\n"
        ")\n"
    ),
    "train_exec": "import repro.frame.solver\nimport repro.parallel\nimport repro.pipeline\n",
    "trace_timelines": (
        "from repro.frame.model_zoo import lenet, resnet_small\n"
        "from repro.pipeline import plan_stages\n"
        "from repro.serve import NetForwardCostModel, ServeConfig\n"
        "import repro.trace.critpath\n"
        "import repro.trace.session\n"
        "import repro.trace.whatif\n"
    ),
}

#: Modules no workload runs; its set-up must not load them.
NOT_LOADED = (
    "repro.frame.netspec",
    "repro.frame.prototxt",
    "repro.frame.solvers_ext",
    "repro.kernels.conv_fft",
    "repro.trace.export",
    "repro.trace.timeline",
    "repro.trace.attribution",
)

#: Package -> the own-package names its ``__init__`` may import.
INIT_IMPORTS_ALLOWED = {
    "repro.parallel": None,
    "repro.pipeline": None,
    "repro.serve": None,
    "repro.frame.model_zoo": None,
}


def _loaded_after(code: str, prefix: str = "repro") -> set[str]:
    """``prefix`` modules a fresh interpreter holds after running ``code``."""
    probe = code + (
        "import json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


@pytest.mark.parametrize("workload", sorted(SETUP_IMPORTS))
def test_setup_imports_load_nothing_the_workload_never_runs(workload):
    loaded = _loaded_after(SETUP_IMPORTS[workload])
    assert "repro" in loaded  # the probe saw the imports
    assert sorted(loaded.intersection(NOT_LOADED)) == []


def test_paper_pass_never_loads_numpy_random():
    harnesses = (
        "table2_vgg_conv", "fig8_alexnet_layers", "fig9_vgg_layers",
        "fig10_scalability", "fig11_comm_ratio", "table3_throughput",
    )
    probe = SETUP_IMPORTS["paper_tables"] + "".join(f"{h}.generate()\n" for h in harnesses)
    loaded = _loaded_after(probe, prefix="numpy")
    assert "numpy" in loaded  # the probe saw the imports
    assert "numpy.random" not in loaded


def test_package_inits_import_nothing_from_their_own_package():
    offenders = {}
    for path in sorted((SRC / "repro").rglob("__init__.py")):
        package = ".".join(path.relative_to(SRC).parent.parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # A module-level __getattr__ is a lazy export map by another name.
        assert not any(
            isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
            for node in tree.body
        ), f"{package} exports lazily"
        imported = {
            name
            for name in _references(path, package, strings=False)
            if name.startswith(package + ".")
        }
        if package in INIT_IMPORTS_ALLOWED:
            allowed = INIT_IMPORTS_ALLOWED[package]
            imported = set() if allowed is None else imported - allowed
        if imported:
            offenders[package] = sorted(imported)
    assert offenders == {}, f"package __init__ files importing their own modules: {offenders}"
