"""Registry-driven kernel conformance: differential fuzz + cost invariants.

One test per registered kernel spec (parametrized by the conformance
plugin): every seeded configuration must satisfy the cost-model invariant
battery (positive finite time, DMA conservation, monotone scaling, and a
tile walk that moves the priced bytes within the LDM) *and*, where the
spec executes a kernel, match the dense NumPy reference within the spec's
tolerance.
Failures print reproducible seed strings (``repro.testing.reproduce``).
"""

from repro.testing import differential


def test_kernel_conformance(kernel_name, conformance_configs):
    reports = differential.fuzz_kernel(kernel_name, n_configs=conformance_configs)
    assert len(reports) == conformance_configs
    bad = [r for r in reports if not r.ok]
    assert not bad, differential.summarize(reports)


def test_kernel_fuzz_is_reproducible(kernel_name):
    """The seed string replays the exact configuration and verdict."""
    first = differential.fuzz_kernel(kernel_name, n_configs=3)
    for report in first:
        replay = differential.reproduce(report.seed)
        assert replay.config == report.config
        assert replay.ok == report.ok
        assert replay.max_ulp == report.max_ulp
