"""Pytest plugin exposing the conformance registry as parametrized fixtures.

Enable it once per test tree (``pytest_plugins = ["repro.testing.pytest_plugin"]``
in ``conftest.py``). Any test that names one of the fixtures below is
automatically parametrized over the corresponding registry and marked
``conformance``:

* ``kernel_name`` — every registered kernel spec;
* ``collective_name`` — every registered collective spec;
* ``layer_name`` — every registered gradcheck layer case;
* ``fault_seed`` — every chaos replay seed from :func:`conformance_seeds`
  (all fault profiles), so faulted collectives ride the same
  ``pytest -m conformance`` selection.

``pytest -m conformance`` selects exactly the registry-driven tests. The
default fuzz budget (:data:`FAST_CONFIGS` seeded configurations per spec)
keeps tier-1 runtime bounded; ``--conformance-full`` raises it to
:data:`FULL_CONFIGS` for nightly/CI deep runs. The active budget is
exposed through the ``conformance_configs`` fixture.
"""

from __future__ import annotations

import pytest

from repro.faults.plan import BASE_SEED, PROFILES, seed_string
from repro.testing import gradcheck as _gradcheck
from repro.testing import registry as _registry

#: Seeded configs per spec in the default (tier-1) run.
FAST_CONFIGS = 25
#: Seeded configs per spec under ``--conformance-full``.
FULL_CONFIGS = 100


def pytest_addoption(parser: pytest.Parser) -> None:
    group = parser.getgroup("conformance")
    group.addoption(
        "--conformance-full",
        action="store_true",
        default=False,
        help=(
            "fuzz the full budget of seeded configs per kernel/collective "
            f"({FULL_CONFIGS} instead of {FAST_CONFIGS})"
        ),
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers",
        "conformance: registry-driven differential/invariant/gradient conformance tests",
    )


def pytest_collection_modifyitems(config: pytest.Config, items: list) -> None:
    fixtures = {
        "kernel_name",
        "collective_name",
        "layer_name",
        "fault_seed",
        "conformance_configs",
    }
    for item in items:
        if fixtures & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.conformance)


def pytest_generate_tests(metafunc: pytest.Metafunc) -> None:
    if "kernel_name" in metafunc.fixturenames:
        metafunc.parametrize("kernel_name", _registry.kernel_names())
    if "collective_name" in metafunc.fixturenames:
        metafunc.parametrize("collective_name", _registry.collective_names())
    if "layer_name" in metafunc.fixturenames:
        metafunc.parametrize("layer_name", _gradcheck.registered_layers())
    if "fault_seed" in metafunc.fixturenames:
        metafunc.parametrize("fault_seed", conformance_seeds())


def conformance_seeds(n_per_profile: int = 2, base_seed: int = BASE_SEED) -> list[str]:
    """The fault seeds ``pytest -m conformance`` replays (all profiles)."""
    return [
        seed_string(profile, i, base_seed)
        for profile in PROFILES
        for i in range(n_per_profile)
    ]


@pytest.fixture
def conformance_configs(request: pytest.FixtureRequest) -> int:
    """Number of seeded fuzz configs each spec must pass in this run."""
    if request.config.getoption("--conformance-full"):
        return FULL_CONFIGS
    return FAST_CONFIGS
