"""Sequential phase sums against the generator-per-field oracle.

``combine_sequential`` reads each field with one C-level ``sum`` over the
phases, ``repeat_sequential`` sums ``n`` equal phases without building a
list, and ``PlanCost.__add__`` combines two. The oracle below is the
earlier ``combine_sequential`` verbatim: six generator sums. All three
must equal it field for field, bit for bit (``-0.0`` included), on any
interpreter, since each keeps Python's ``sum`` as the accumulator (which
Python 3.12 made compensated for floats). Phases mix magnitudes, signed
zeros and subnormals; tier 1 draws 50 cases per test and
``REPRO_HEAVY=1`` 2000.
"""

import os
import struct

from hypothesis import given, settings, strategies as st

from repro.kernels.plan import PlanCost, combine_sequential, repeat_sequential

HEAVY = bool(int(os.environ.get("REPRO_HEAVY", "0") or "0"))
DEPTH = settings(max_examples=2000 if HEAVY else 50, deadline=None)

FIELDS = ("compute_s", "dma_s", "rlc_s", "overhead_s", "flops", "dma_bytes")


def oracle(costs: list[PlanCost]) -> PlanCost:
    """The generator-per-field ``combine_sequential``, kept verbatim."""
    compute = sum(c.compute_s for c in costs)
    dma = sum(c.dma_s for c in costs)
    rlc = sum(c.rlc_s for c in costs)
    flops = sum(c.flops for c in costs)
    dbytes = sum(c.dma_bytes for c in costs)
    total = sum(c.total_s for c in costs)
    overhead = total - max(compute, dma, rlc)
    overhead = max(overhead, 0.0)
    return PlanCost(
        compute_s=compute,
        dma_s=dma,
        rlc_s=rlc,
        overhead_s=overhead,
        flops=flops,
        dma_bytes=dbytes,
    )


def bits(cost: PlanCost) -> tuple:
    """Every field's type and IEEE bit pattern (so ``-0.0 != 0.0``)."""
    values = [getattr(cost, name) for name in FIELDS]
    return tuple(map(type, values)), struct.pack("<6d", *values)


#: Mixed magnitudes (bounded so 300-phase sums stay finite), signed zeros
#: and subnormals.
VALUE = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.1, 1.0, 2.0**53]),
)
PHASE = st.builds(
    PlanCost,
    compute_s=VALUE,
    dma_s=VALUE,
    rlc_s=VALUE,
    overhead_s=VALUE,
    flops=VALUE,
    dma_bytes=VALUE,
)


@DEPTH
@given(st.lists(PHASE, min_size=1, max_size=300))
def test_distinct_phases(costs):
    assert bits(combine_sequential(costs)) == bits(oracle(costs))


@DEPTH
@given(PHASE, st.integers(min_value=1, max_value=300))
def test_repeated_phases(cost, n):
    want = bits(oracle([cost] * n))
    assert bits(repeat_sequential(cost, n)) == want
    assert bits(combine_sequential([cost] * n)) == want


@DEPTH
@given(PHASE, PHASE)
def test_pair_sum(a, b):
    assert bits(a + b) == bits(oracle([a, b]))
