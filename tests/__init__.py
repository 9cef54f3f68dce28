"""The test tree, pinned to the benchmark's BLAS threads before NumPy loads.

A BLAS call splits its float reductions across its threads, so a golden
that pins float32 training losses (``tests/golden/chaos_reports.json``)
depends on how many cores the machine has. The tests therefore run under
the pins every benchmark child gets (``THREAD_PINS`` in
``perfbench/run.py``: one BLAS/OpenMP thread). They are set here because
both pytest (through ``tests/conftest.py``) and a golden regeneration
(``python -m tests.<module>``) import this package before anything
imports NumPy. They override the caller's environment, so the tests
compute the same floats whatever ``OPENBLAS_NUM_THREADS`` says.
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
