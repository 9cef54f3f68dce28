"""Test-tree configuration: pin the BLAS thread pools, load the conformance plugin.

A BLAS call splits its float reductions across its threads, so a golden
that pins float32 training losses (``tests/golden/chaos_reports.json``)
depends on how many cores the machine has. The suite therefore runs
under the pins every benchmark child gets (``THREAD_PINS`` in
``perfbench/run.py``: one BLAS/OpenMP thread), set here, before anything
imports NumPy. They override the caller's environment, so the suite
computes the same floats whatever ``OPENBLAS_NUM_THREADS`` says.

The plugin (``repro.testing.pytest_plugin``) parametrizes any test that
uses the ``kernel_name`` / ``collective_name`` / ``layer_name`` fixtures
over the conformance registry and registers the ``conformance`` marker.
"""

import importlib.util
import os
import pathlib


def _thread_pins() -> dict[str, str]:
    """``THREAD_PINS`` of ``perfbench/run.py`` (loaded by path; it imports
    nothing from NumPy or ``repro``)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.THREAD_PINS


THREAD_PINS = _thread_pins()
os.environ.update(THREAD_PINS)

pytest_plugins = ["repro.testing.pytest_plugin"]
