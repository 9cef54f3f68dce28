"""Test-tree configuration: load the conformance plugin.

The plugin (``repro.testing.pytest_plugin``) parametrizes any test that
uses the ``kernel_name`` / ``collective_name`` / ``layer_name`` fixtures
over the conformance registry and registers the ``conformance`` marker.
The BLAS thread pins are set in ``tests/__init__.py``, which pytest
imports before this file.
"""

pytest_plugins = ["repro.testing.pytest_plugin"]
