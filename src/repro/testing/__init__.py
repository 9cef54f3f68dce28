"""Differential-correctness conformance layer (the `repro.testing` subsystem).

swCaffe's credibility rests on two claims: every executed kernel and
topology-aware collective is *numerically equivalent* to a dense
reference, and every simulated cost is *physically sane* (positive,
monotone in problem size, and for a blocked kernel matched by a tile walk
that moves the priced bytes within the 64 KiB LDM). This package
turns those claims into reusable machinery instead of ad-hoc per-test
checks:

* :mod:`repro.testing.references` — slow-but-obviously-correct dense
  NumPy implementations of conv/pool/GEMM and of the collective
  reduction semantics, written with explicit loops so a reviewer can
  verify them by inspection, and the closed-form ring allreduce cost;
* :mod:`repro.testing.registry` — the conformance registry: every kernel
  plan, collective algorithm and differentiable layer registers a spec
  describing how to sample configs, build an instance and compare it
  against its reference;
* :mod:`repro.testing.differential` — the seeded shape/param fuzzer that
  drives kernel-vs-reference comparisons and reports max-ulp mismatches
  with a reproducible seed string;
* :mod:`repro.testing.gradcheck` — central-difference gradient checking
  as a library API (promoted from ``tests/gradcheck.py``);
* :mod:`repro.testing.invariants` — cost-model sanity assertions applied
  to every plan the fuzzer generates;
* :mod:`repro.testing.chrome` — the structural validator every test
  runs on an exported Chrome trace;
* :mod:`repro.testing.pytest_plugin` — ``@conformance``-marked
  parametrized fixtures so new kernels/collectives/layers get coverage
  by registration rather than by hand-written tests.
"""
