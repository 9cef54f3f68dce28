"""swCaffe's blocked kernels against naive SW26010 ports (Sec. III).

The naive-port harness prices the same GEMM and streaming work as a plain
MPE port and as a CPE port without LDM staging; the blocked plans must
win, by the margins the paper's design principles predict.
"""

from repro.harness import naive_port


class TestNaivePortHarness:
    def test_swcaffe_beats_both_baselines(self):
        for row in naive_port.generate():
            assert row.swcaffe_s < row.naive_mpe_s, row.kernel
            assert row.swcaffe_s < row.cpe_no_ldm_s, row.kernel

    def test_gemm_naive_gap_is_large(self):
        # Principle 1's point: the MPE is ~64x weaker than the CPE cluster.
        row = naive_port.compare_gemm()
        assert row.speedup_vs_naive > 10

    def test_streaming_punishes_fine_grained_dma(self):
        # Principles 2/3: per-element strided DMA collapses bandwidth.
        row = naive_port.compare_streaming()
        assert row.speedup_vs_no_ldm > 5

    def test_render(self):
        assert "naive" in naive_port.render()
