"""The wall-clock benchmark's wrapped callables stay where it looks for them.

``perfbench/layers.py`` wraps every ``TARGETS`` entry it finds through
``vars(owner)[name]``. A refactor that moves a wrapped method into a base
class, or a function into another module, breaks that lookup; this test
makes such a refactor fail the tier-1 suite instead of only the
benchmark's ``--self-check`` run.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, attr) for module_name, attr, *_ in module.TARGETS]


@pytest.mark.parametrize("module_name, attr", _targets(), ids=lambda v: v)
def test_target_is_defined_on_its_owner(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert name in vars(owner), (
        f"perfbench wraps {module_name}.{attr} through vars(); "
        f"{owner.__name__} no longer defines {name!r} itself"
    )
