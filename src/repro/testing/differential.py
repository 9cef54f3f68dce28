"""Seeded differential fuzzer: plan-vs-reference with reproducible seeds.

Every fuzzed configuration is addressed by a *seed string* of the form
``"<spec>:<base_seed_hex>:<index>"`` (e.g. ``"conv_implicit:0x5caffe:17"``).
The string fully determines the sampled configuration and all random
inputs, so any failure reported by CI can be replayed locally with
:func:`reproduce`.

For each configuration the fuzzer:

1. samples a config from the spec's edge-case-biased sampler;
2. builds the plan and runs the cost-invariant battery, tile walk included
   (:func:`repro.testing.invariants.check_plan`);
3. where the spec has a runner, executes the kernel against the dense
   reference and records the maximum ulp / absolute mismatch.

A configuration *passes* when every comparison is within the spec's
tolerance and every invariant holds; otherwise the report carries the
failing label and the seed string to reproduce it.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.testing import registry
from repro.testing.invariants import InvariantViolation, check_collective_result, check_plan

#: Default fuzz namespace (the package-wide deterministic seed).
BASE_SEED = 0x5CAFFE


# --------------------------------------------------------------------------- #
# seed strings
# --------------------------------------------------------------------------- #
def seed_string(name: str, index: int, base_seed: int = BASE_SEED) -> str:
    """Canonical reproducible address of one fuzz configuration."""
    return f"{name}:{base_seed:#x}:{index}"


def parse_seed_string(s: str) -> tuple[str, int, int]:
    """Invert :func:`seed_string` -> ``(name, base_seed, index)``."""
    try:
        name, base_hex, index = s.rsplit(":", 2)
        return name, int(base_hex, 16), int(index)
    except ValueError as exc:
        raise ValueError(
            f"malformed seed string {s!r} (expected '<spec>:<hex>:<index>')"
        ) from exc


def config_rng(name: str, index: int, base_seed: int = BASE_SEED) -> np.random.Generator:
    """Deterministic generator for one (spec, index) pair.

    The spec name is folded in via CRC32 so two specs at the same index
    never share a stream.
    """
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng([base_seed, tag, index])


# --------------------------------------------------------------------------- #
# reports
# --------------------------------------------------------------------------- #
def max_ulp_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Largest elementwise distance in units-in-the-last-place (float64)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    scale = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    scale = np.maximum(scale, np.finfo(np.float64).tiny)
    return float(np.max(np.abs(a - b) / scale))


@dataclass
class FuzzReport:
    """Outcome of one fuzzed configuration."""

    spec: str
    index: int
    seed: str
    config: dict[str, Any]
    ok: bool = True
    max_ulp: float = 0.0
    max_abs: float = 0.0
    failures: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAIL"
        head = f"[{status}] {self.seed} {self.config} ulp={self.max_ulp:.3g}"
        if self.failures:
            head += "\n  " + "\n  ".join(self.failures)
        return head


def summarize(reports: list[FuzzReport]) -> str:
    """One-line digest plus every failing seed string (for CI logs)."""
    bad = [r for r in reports if not r.ok]
    head = f"{len(reports) - len(bad)}/{len(reports)} configs ok"
    if bad:
        head += "; reproduce failures with repro.testing.reproduce(seed):\n"
        head += "\n".join(str(r) for r in bad)
    return head


# --------------------------------------------------------------------------- #
# kernel fuzzing
# --------------------------------------------------------------------------- #
def run_kernel_case(
    spec: registry.KernelSpec, index: int, base_seed: int = BASE_SEED
) -> FuzzReport:
    """Fuzz one configuration of one kernel spec (invariants + differential)."""
    rng = config_rng(spec.name, index, base_seed)
    config = spec.sample(rng)
    report = FuzzReport(
        spec=spec.name,
        index=index,
        seed=seed_string(spec.name, index, base_seed),
        config=config,
    )
    try:
        plan = spec.build(config)
    except Exception as exc:  # an edge-case config the plan must accept
        report.ok = False
        report.failures.append(f"build raised {type(exc).__name__}: {exc}")
        return report

    try:
        check_plan(spec, config, plan)
    except InvariantViolation as exc:
        report.ok = False
        report.failures.append(f"invariant: {exc}")

    if spec.run is not None:
        try:
            comparisons = spec.run(plan, config, rng)
        except Exception as exc:
            report.ok = False
            report.failures.append(f"execution raised {type(exc).__name__}: {exc}")
            return report
        for label, actual, expected in comparisons:
            actual = np.asarray(actual, dtype=np.float64)
            expected = np.asarray(expected, dtype=np.float64)
            if actual.shape != expected.shape:
                report.ok = False
                report.failures.append(
                    f"{label}: shape {actual.shape} != reference {expected.shape}"
                )
                continue
            ulp = max_ulp_diff(actual, expected)
            abs_err = float(np.max(np.abs(actual - expected))) if actual.size else 0.0
            report.max_ulp = max(report.max_ulp, ulp)
            report.max_abs = max(report.max_abs, abs_err)
            if not np.allclose(actual, expected, rtol=spec.rtol, atol=spec.atol):
                report.ok = False
                report.failures.append(
                    f"{label}: max |err| {abs_err:.3g} ({ulp:.3g} ulp) exceeds "
                    f"rtol={spec.rtol} atol={spec.atol}"
                )
    return report


def fuzz_kernel(
    name: str, n_configs: int = 25, base_seed: int = BASE_SEED
) -> list[FuzzReport]:
    """Fuzz ``n_configs`` seeded configurations of a registered kernel."""
    spec = registry.get_kernel(name)
    return [run_kernel_case(spec, i, base_seed) for i in range(n_configs)]


# --------------------------------------------------------------------------- #
# collective fuzzing
# --------------------------------------------------------------------------- #
def _collective_config(
    spec: registry.CollectiveSpec, rng: np.random.Generator
) -> dict[str, Any]:
    p = int(rng.choice(np.asarray(spec.ranks)))
    n = int(rng.choice(np.asarray([1, 3, 17, 64, 255, 1024])))
    average = bool(rng.choice(np.asarray(spec.reduce_ops)))
    root = int(rng.integers(0, p))
    return {"p": p, "n": n, "average": average, "root": root}


def run_collective_case(
    spec: registry.CollectiveSpec, index: int, base_seed: int = BASE_SEED
) -> FuzzReport:
    """Fuzz one configuration of one collective spec."""
    rng = config_rng(spec.name, index, base_seed)
    config = _collective_config(spec, rng)
    report = FuzzReport(
        spec=spec.name,
        index=index,
        seed=seed_string(spec.name, index, base_seed),
        config=config,
    )
    p, n = config["p"], config["n"]
    inputs = [rng.normal(size=n) for _ in range(p)]
    comm = registry.make_fuzz_comm(p)
    try:
        outputs, result = spec.execute(comm, inputs, config)
    except Exception as exc:
        report.ok = False
        report.failures.append(f"execution raised {type(exc).__name__}: {exc}")
        return report
    try:
        check_collective_result(result, p, label=spec.name)
    except InvariantViolation as exc:
        report.ok = False
        report.failures.append(f"invariant: {exc}")
    expected = spec.reference(inputs, config)
    if len(outputs) != len(expected):
        report.ok = False
        report.failures.append(
            f"rank count mismatch: {len(outputs)} outputs vs {len(expected)} expected"
        )
        return report
    for rank, (actual, want) in enumerate(zip(outputs, expected)):
        actual = np.asarray(actual, dtype=np.float64).ravel()
        want = np.asarray(want, dtype=np.float64).ravel()
        if actual.shape != want.shape:
            report.ok = False
            report.failures.append(
                f"rank {rank}: shape {actual.shape} != reference {want.shape}"
            )
            continue
        ulp = max_ulp_diff(actual, want)
        report.max_ulp = max(report.max_ulp, ulp)
        if actual.size:
            report.max_abs = max(report.max_abs, float(np.max(np.abs(actual - want))))
        if not np.allclose(actual, want, rtol=spec.rtol, atol=spec.atol):
            report.ok = False
            report.failures.append(
                f"rank {rank}: result diverges from dense reference "
                f"(max {report.max_abs:.3g}, {ulp:.3g} ulp)"
            )
    return report


def fuzz_collective(
    name: str, n_configs: int = 25, base_seed: int = BASE_SEED
) -> list[FuzzReport]:
    """Fuzz ``n_configs`` seeded configurations of a registered collective."""
    spec = registry.get_collective(name)
    return [run_collective_case(spec, i, base_seed) for i in range(n_configs)]


# --------------------------------------------------------------------------- #
# reproduction
# --------------------------------------------------------------------------- #
def reproduce(seed: str) -> FuzzReport:
    """Re-run the exact configuration a seed string addresses."""
    name, base_seed, index = parse_seed_string(seed)
    if name in registry.KERNELS:
        return run_kernel_case(registry.get_kernel(name), index, base_seed)
    if name in registry.COLLECTIVES:
        return run_collective_case(registry.get_collective(name), index, base_seed)
    raise KeyError(
        f"{name!r} is not a registered kernel or collective "
        f"(kernels: {registry.kernel_names()}; collectives: {registry.collective_names()})"
    )
