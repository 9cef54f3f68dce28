"""Blocked GEMM with the 8-step register-communication schedule (Sec. IV-A).

The algorithm: matrices A (m x k), B (k x n), C (m x n) are tiled over the
8x8 CPE mesh; CPE(i, j) owns tiles A(i, :), B(:, j) and computes C(i, j).
At time step t, CPE(i, t) column-broadcasts A(i, t) and CPE(t, j)
row-broadcasts B(t, j); every CPE accumulates ``C(i,j) += A(i,t) @ B(t,j)``.
Eight steps complete the product with each operand fetched from memory to
LDM exactly once — the highest possible flop-to-byte ratio.

Matrices too large for LDM are processed in outer blocks (Principle 3:
blocks are chosen as large as LDM allows so DMA runs at full bandwidth).

Because the SW26010 instruction set has no single-precision register
communication, single-precision GEMMs pay an inline float<->double
conversion, modeled as a compute-efficiency tax.

The schedule is described once more as a data-free tile walk
(:meth:`SWGemmPlan.tile_walk`), which moves exactly the bytes ``cost()``
prices (``tests/test_tile_walks.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import PlanError
from repro.kernels.plan import KernelPlan, PlanCost, Transfer
from repro.hw.spec import SW26010Params


@dataclass(frozen=True)
class GemmBlocking:
    """Outer blocking of a large GEMM into LDM-resident panels."""

    mb: int
    nb: int
    kb: int

    @property
    def flop_per_byte(self) -> float:
        """Arithmetic intensity of one block at 4-byte elements."""
        traffic = 4.0 * (self.mb * self.kb + self.kb * self.nb + self.mb * self.nb)
        return 2.0 * self.mb * self.nb * self.kb / traffic


#: Memoized blocking choices. One search scores a grid of up to 729
#: candidate blockings (the paper nets average ~280 LDM-feasible ones) in
#: one array pass of the full cost model; layer shapes repeat heavily
#: (every conv in a net maps to a handful of GEMM shapes), so the search
#: runs once per distinct (params, m, n, k, dtype) tuple per process.
_BLOCKING_CACHE: dict[tuple, GemmBlocking] = {}
_BLOCKING_CACHE_MAX = 65536

#: Read-only per-dimension candidate tables, keyed ``(dim, mesh, axis)``,
#: and LDM-overflow masks of the grid, keyed ``(params, len_m, len_n,
#: len_k)``: the paper nets' GEMM shapes share dimensions and grid sizes.
_AXIS_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, ...]] = {}
_OVERFLOW_CACHE: dict[tuple, np.ndarray] = {}


def _remember(cache: dict, key: tuple, value):
    """Store ``value`` under ``key``, clearing a full cache first."""
    if len(cache) >= _BLOCKING_CACHE_MAX:
        cache.clear()
    cache[key] = value
    return value


# Pipeline/SIMD fill per dimension, from the per-CPE tile extent
# (see SWGemmPlan._compute_efficiency for the calibration).
def _row_fill(mt: float) -> float:
    return min(1.0, (mt / 32.0) ** 1.6)


def _col_fill(nt: float) -> float:
    return nt / (nt + 2.0)


def _depth_fill(kt: float) -> float:
    return kt * kt / (kt * kt + 37.0)


_AXIS_FILLS = (_row_fill, _col_fill, _depth_fill)


def _axis_table(dim: int, mesh: int, along: int) -> tuple[np.ndarray, ...]:
    """(block, block count, fringe utilisation, pipeline fill) of each
    candidate block size of one dimension, laid along grid axis ``along``
    (0 for m, 1 for n, 2 for k), computed in scalar Python once per key."""
    key = (dim, mesh, along)
    table = _AXIS_CACHE.get(key)
    if table is not None:
        return table
    fill = _AXIS_FILLS[along]
    candidates = [mesh * x for x in (1, 2, 4, 8, 16, 24, 32, 48, 64)]
    # Blocks stay within one mesh row of the dim: the library does not pad
    # a dim far beyond its extent, and the calibrated small-shape collapse
    # (Table II / Fig. 8) depends on that.
    rows = []
    for b in [c for c in candidates if c < dim + mesh] or [mesh]:
        blocks = math.ceil(dim / b)
        rows.append((b, blocks, dim / (blocks * b), fill(max(1.0, b / mesh))))
    shape = [1, 1, 1]
    shape[along] = len(rows)
    table = tuple(np.array(col).reshape(shape) for col in zip(*rows))
    for column in table:
        column.flags.writeable = False
    return _remember(_AXIS_CACHE, key, table)


class SWGemmPlan(KernelPlan):
    """Cost plan for ``C += A @ B`` on one core group.

    Parameters
    ----------
    m, n, k:
        GEMM dimensions.
    dtype_bytes:
        Element size in memory (4 = single precision, the Caffe default).
    """

    name = "swgemm"

    #: Fraction of peak the double-pipeline FMA kernel sustains with full
    #: tiles (register blocking, dual issue) — calibrated against the best
    #: sustained DGEMM results on SW26010 (Jiang et al., ICPP'17 report
    #: >85% of peak for large square matrices; the swCaffe layer kernels
    #: run shorter and irregular shapes, so the library sustains less).
    base_efficiency = 0.82

    #: Extra compute tax for single-precision data: float->double widening
    #: before RLC and narrowing after, done inline with SIMD shuffles.
    single_precision_tax = 0.18

    def __init__(
        self,
        m: int,
        n: int,
        k: int,
        dtype_bytes: int = 4,
        params: SW26010Params | None = None,
    ) -> None:
        super().__init__(params)
        if min(m, n, k) <= 0:
            raise PlanError(f"GEMM dims must be positive, got {(m, n, k)}")
        if dtype_bytes <= 0:
            raise PlanError(f"dtype_bytes must be positive, got {dtype_bytes}")
        self.m, self.n, self.k = int(m), int(n), int(k)
        self.dtype_bytes = int(dtype_bytes)
        self.blocking = self._choose_blocking()

    # ------------------------------------------------------------------ #
    # blocking
    # ------------------------------------------------------------------ #
    def _ldm_fit(
        self, mb: int | np.ndarray, nb: int | np.ndarray, kb: int | np.ndarray
    ) -> bool | np.ndarray:
        """Whether per-CPE tiles of a candidate block fit in LDM.

        Tiles live in LDM in double precision (RLC granularity), double
        buffered on the A/B panels so DMA overlaps compute. Elementwise
        over arrays of block sizes.
        """
        mesh = self.params.cpe_rows
        per_cpe = 8.0 * (
            2 * (mb / mesh) * (kb / mesh)  # A tile, double buffered
            + 2 * (kb / mesh) * (nb / mesh)  # B tile, double buffered
            + (mb / mesh) * (nb / mesh)  # C accumulator
        )
        reserve = 4 * 1024  # stack, control blocks
        return per_cpe <= self.params.ldm_bytes - reserve

    def _choose_blocking(self) -> GemmBlocking:
        """Pick the LDM-resident blocking with the lowest modeled time.

        Candidates are scored with the full cost model rather than raw
        arithmetic intensity: intensity alone prefers the largest block
        even when it leaves a ragged fringe (e.g. m=498 split 384+114),
        which the efficiency model then prices far below a slightly
        smaller block that divides the problem evenly. Ties break toward
        higher intensity, keeping the historical choice for shapes the
        model prices identically, then toward the first in (mb, nb, kb)
        order.
        """
        key = (self.params, self.m, self.n, self.k, self.dtype_bytes)
        cached = _BLOCKING_CACHE.get(key)
        if cached is not None:
            return cached
        mb, nb, kb, total_s = self._candidate_scores()
        best_s = total_s.min()
        if best_s == np.inf:
            raise PlanError("no LDM-feasible GEMM blocking found")
        tied = np.unravel_index(np.flatnonzero(total_s == best_s), total_s.shape)
        blocks = [GemmBlocking(int(mb.flat[i]), int(nb.flat[j]), int(kb.flat[l]))
                  for i, j, l in zip(*tied)]
        best = max(blocks, key=lambda blk: blk.flop_per_byte)  # first of equals
        return _remember(_BLOCKING_CACHE, key, best)

    def _candidate_scores(self) -> tuple[np.ndarray, ...]:
        """Modeled seconds of every candidate blocking, in one NumPy pass.

        Returns the candidate ``mb``, ``nb`` and ``kb`` laid along the
        three axes of a grid, and that grid's ``_cost_for(blk).total_s``,
        ``inf`` where the tiles do not fit in LDM. Each dimension's block
        sizes, block counts, fringe utilisations and fills come from
        :func:`_axis_table` and broadcast along its axis; the grid is scored with
        ``_cost_for``'s operations in the same order, the DMA and RLC terms
        by the engines' own formulas. NumPy rounds each elementwise
        operation as Python does, so every score is bit-identical. The
        candidate arrays and ``_ldm_fit``'s mask are memoized read-only; a
        dimension's candidates are a prefix of one list, so the mask
        depends only on the grid's size.
        """
        m, n, k, dtype_bytes = self.m, self.n, self.k, self.dtype_bytes
        mesh = self.params.cpe_rows
        mb, m_blocks, util_m, fill_m = _axis_table(m, mesh, 0)
        nb, n_blocks, util_n, fill_n = _axis_table(n, mesh, 1)
        kb, k_blocks, util_k, fill_k = _axis_table(k, mesh, 2)
        flops = 2.0 * m * n * k
        # Multiplying by 1.0 is exact, so doubles take the same path.
        precision = 1.0 - self.single_precision_tax if dtype_bytes < 8 else 1.0
        eff = self.base_efficiency * (fill_m * fill_n * fill_k)
        eff = eff * (util_m * util_n * util_k) * precision
        compute_s = flops / (self._cg.peak_flops * np.maximum(eff, 1e-3))
        # Exact in int64, as in Python, while the traffic stays below 2**63 bytes.
        dma_bytes = n_blocks * m * k * dtype_bytes + m_blocks * k * n * dtype_bytes
        dma_bytes = (dma_bytes + 2 * m * n * dtype_bytes).astype(np.float64)
        row_bytes = np.minimum(kb, nb) * dtype_bytes
        dma_s = self._cg.dma.bulk_time(dma_bytes, block_bytes=row_bytes)
        n_outer = m_blocks * n_blocks * k_blocks
        rlc_s = self._cg.rlc.broadcast_time(n_outer * (8.0 * (mb * kb + kb * nb)))
        total_s = np.maximum(np.maximum(compute_s, dma_s), rlc_s)
        total_s = total_s + n_outer * self.params.dma_latency_s
        key = (self.params, mb.size, nb.size, kb.size)
        overflow = _OVERFLOW_CACHE.get(key)
        if overflow is None:
            overflow = _remember(_OVERFLOW_CACHE, key, ~self._ldm_fit(mb, nb, kb))
            overflow.flags.writeable = False
        total_s[overflow] = np.inf
        return mb, nb, kb, total_s

    # ------------------------------------------------------------------ #
    # cost model
    # ------------------------------------------------------------------ #
    def _compute_efficiency(self, blk: GemmBlocking | None = None) -> float:
        """Sustained fraction of CPE-cluster peak for this shape.

        Per-CPE tile dims drive pipeline/SIMD fill. Calibrated against the
        paper's Table II operating points:

        * the m dimension (rows per CPE row) is the critical one — the
          paper states GEMM only becomes compute-bound for m > 160, i.e.
          mt = m/8 > 20; a steep power law reproduces the measured collapse
          at m = 64 (conv1_2: ~60-110 Gflops) while large-m layers sustain
          >400 Gflops;
        * short contraction dims (conv1_1's K*K*Ni = 27) waste the 8-step
          register-communication pipeline — a quadratic Hill curve hits the
          measured 5.3 Gflops;
        * the n dimension only needs to fill the SIMD lanes.

        Known artifact: because the small-m penalty shrinks superlinearly
        as m grows, *total* time can dip slightly when m crosses out of the
        starved regime at fixed n, k. Achieved Gflops stays monotone (see
        ``tests/test_cost_properties.py``), which is the invariant the
        paper's measurements support.
        """
        mesh = self.params.cpe_rows
        blk = blk or self.blocking
        fill = (
            _row_fill(max(1.0, blk.mb / mesh))
            * _col_fill(max(1.0, blk.nb / mesh))
            * _depth_fill(max(1.0, blk.kb / mesh))
        )
        # Fringe blocks: the last block in each dim is partially full.
        util = (
            (self.m / (math.ceil(self.m / blk.mb) * blk.mb))
            * (self.n / (math.ceil(self.n / blk.nb) * blk.nb))
            * (self.k / (math.ceil(self.k / blk.kb) * blk.kb))
        )
        eff = self.base_efficiency * fill * util
        if self.dtype_bytes < 8:
            eff *= 1.0 - self.single_precision_tax
        return max(eff, 1e-3)

    def traffic_bytes(self, blk: GemmBlocking | None = None) -> float:
        """Total DRAM traffic of the blocked GEMM.

        A panels are re-read once per column-block sweep, B panels once per
        row-block sweep, C read+written once.
        """
        blk = blk or self.blocking
        m_blocks = math.ceil(self.m / blk.mb)
        n_blocks = math.ceil(self.n / blk.nb)
        a_bytes = n_blocks * self.m * self.k * self.dtype_bytes
        b_bytes = m_blocks * self.k * self.n * self.dtype_bytes
        c_bytes = 2 * self.m * self.n * self.dtype_bytes
        return float(a_bytes + b_bytes + c_bytes)

    def rlc_bytes(self, blk: GemmBlocking | None = None) -> float:
        """Register-communication traffic (tiles are broadcast in doubles)."""
        blk = blk or self.blocking
        m_blocks = math.ceil(self.m / blk.mb)
        n_blocks = math.ceil(self.n / blk.nb)
        k_blocks = math.ceil(self.k / blk.kb)
        per_block = 8.0 * (blk.mb * blk.kb + blk.kb * blk.nb)
        return m_blocks * n_blocks * k_blocks * per_block

    def cost(self) -> PlanCost:
        """Simulated time for the full blocked GEMM on one core group."""
        return self._cost_for(self.blocking)

    def _cost_for(self, blk: GemmBlocking) -> PlanCost:
        """Cost under a candidate blocking (also the chooser's objective)."""
        flops = 2.0 * self.m * self.n * self.k
        eff = self._compute_efficiency(blk)
        compute_s = flops / (self._cg.peak_flops * eff)
        dma_bytes = self.traffic_bytes(blk)
        # DMA rows of each panel are contiguous runs of kb/nb elements.
        row_bytes = min(blk.kb, blk.nb) * self.dtype_bytes
        dma_s = self._cg.dma.bulk_time(dma_bytes, block_bytes=row_bytes)
        rlc_s = self._cg.rlc.broadcast_time(self.rlc_bytes(blk))
        n_outer = (
            math.ceil(self.m / blk.mb)
            * math.ceil(self.n / blk.nb)
            * math.ceil(self.k / blk.kb)
        )
        overhead_s = n_outer * self.params.dma_latency_s
        return PlanCost(
            compute_s=compute_s,
            dma_s=dma_s,
            rlc_s=rlc_s,
            overhead_s=overhead_s,
            flops=flops,
            dma_bytes=dma_bytes,
        )

    # ------------------------------------------------------------------ #
    # tile walk
    # ------------------------------------------------------------------ #
    def tile_walk(self) -> Iterator[Transfer]:
        """The blocked schedule's DMA transfers, moving no data.

        Per C block: read the C tile, then per contraction block the A and
        B panels, then write the C tile back, all in ``dtype_bytes``
        elements. Operands are row-major, so each tile row is one
        contiguous run. While the panels stream, the resident set is the
        double-buffered A/B tiles plus the C accumulator, in whole per-CPE
        tiles of doubles (the RLC granularity ``_ldm_fit`` budgets); the C
        transfers hold the accumulator alone.
        """
        blk, d, mesh = self.blocking, self.dtype_bytes, self.params.cpe_rows
        for i0 in range(0, self.m, blk.mb):
            rows = min(blk.mb, self.m - i0)
            for j0 in range(0, self.n, blk.nb):
                cols = min(blk.nb, self.n - j0)
                c_tile = 8 * -(-rows // mesh) * -(-cols // mesh)
                c = Transfer(rows * cols * d, cols * d, ldm_bytes=c_tile)
                yield c
                for k0 in range(0, self.k, blk.kb):
                    depth = min(blk.kb, self.k - k0)
                    a_tile = 8 * -(-rows // mesh) * -(-depth // mesh)
                    b_tile = 8 * -(-depth // mesh) * -(-cols // mesh)
                    resident = 2 * (a_tile + b_tile) + c_tile
                    yield Transfer(rows * depth * d, depth * d, ldm_bytes=resident)
                    yield Transfer(depth * cols * d, cols * d, ldm_bytes=resident)
                yield c
