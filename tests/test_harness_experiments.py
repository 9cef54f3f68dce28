"""Shape tests for the heavyweight experiment harnesses.

These pin the paper's qualitative results: Table II's plan winners and
availability pattern, Table III's throughput ordering and ratios, the
Fig. 8/9 per-layer structure, and the Fig. 10/11 scaling behaviour. Module-
scoped fixtures keep the expensive net builds to one per module.
"""

from pathlib import Path

import pytest

from repro.harness import (
    ablations,
    fig8_alexnet_layers,
    fig10_scalability,
    table2_vgg_conv,
    table3_throughput,
)


@pytest.fixture(scope="module")
def table2_rows():
    return table2_vgg_conv.generate()


@pytest.fixture(scope="module")
def table3_rows():
    return table3_throughput.generate()


@pytest.fixture(scope="module")
def fig8_rows():
    return fig8_alexnet_layers.generate()


@pytest.fixture(scope="module")
def scaling_points():
    return fig10_scalability.generate()


class TestTable2:
    def test_implicit_availability_pattern(self, table2_rows):
        """Paper's '-' cells: conv1_1 has no implicit plan at all; conv1_2
        and conv2_1 lack implicit backward; conv2_2 onward has everything."""
        rows = {r.name: r for r in table2_rows}
        assert rows["1_1"].forward.implicit_s is None
        assert rows["1_2"].forward.implicit_s is not None
        assert rows["1_2"].weight_diff.implicit_s is None
        assert rows["2_1"].weight_diff.implicit_s is None
        assert rows["2_2"].weight_diff.implicit_s is not None
        assert rows["2_2"].in_diff.implicit_s is not None

    def test_conv1_1_has_no_input_gradient(self, table2_rows):
        rows = {r.name: r for r in table2_rows}
        assert rows["1_1"].in_diff.gflops is None  # the paper's "NA"

    def test_forward_winners_match_paper(self, table2_rows):
        """Implicit wins {1_2, 2_1, 2_2, 5_x}; explicit wins {3_x, 4_x}."""
        rows = {r.name: r for r in table2_rows}
        implicit_wins = {"1_2", "2_1", "2_2", "5_1", "5_2", "5_3"}
        explicit_wins = {"1_1", "3_1", "3_2", "3_3", "4_1", "4_2", "4_3"}
        for name in implicit_wins:
            assert rows[name].forward.winner == "implicit", name
        for name in explicit_wins:
            assert rows[name].forward.winner == "explicit", name

    def test_input_gradient_winner_is_implicit_when_available(self, table2_rows):
        for r in table2_rows:
            if r.in_diff.implicit_s is not None:
                assert r.in_diff.winner == "implicit", r.name

    def test_gflops_rise_with_depth(self, table2_rows):
        """Paper: ~5 Gflops on conv1_1 rising to ~415 at conv3_2."""
        rows = {r.name: r for r in table2_rows}
        assert rows["1_1"].forward.gflops < 30
        assert rows["3_2"].forward.gflops > 300
        assert rows["1_1"].forward.gflops < rows["2_2"].forward.gflops < rows["3_2"].forward.gflops

    def test_implicit_forward_times_near_paper(self, table2_rows):
        """Calibration anchors: implicit fwd within 15% of the paper."""
        paper = {"1_2": 4.30, "2_2": 2.34, "3_2": 1.79, "4_2": 1.68, "5_1": 0.40}
        rows = {r.name: r for r in table2_rows}
        for name, expected in paper.items():
            got = rows[name].forward.implicit_s
            assert abs(got - expected) / expected < 0.15, (name, got, expected)

    def test_render(self, table2_rows):
        text = table2_vgg_conv.render(table2_rows)
        assert "conv" in text and "Gflops" in text


class TestTable3:
    def test_all_five_networks(self, table3_rows):
        assert {r.network for r in table3_rows} == {
            "AlexNet", "VGG-16", "VGG-19", "ResNet-50", "GoogleNet",
        }

    def test_sw_beats_gpu_only_on_alexnet(self, table3_rows):
        rows = {r.network: r for r in table3_rows}
        assert rows["AlexNet"].sw_over_gpu > 1.0
        for name in ("VGG-16", "VGG-19", "ResNet-50", "GoogleNet"):
            assert rows[name].sw_over_gpu < 1.0, name

    def test_vgg_ratios_near_half(self, table3_rows):
        rows = {r.network: r for r in table3_rows}
        assert 0.3 < rows["VGG-16"].sw_over_gpu < 0.6
        assert 0.3 < rows["VGG-19"].sw_over_gpu < 0.6

    def test_small_channel_nets_are_weakest_vs_gpu(self, table3_rows):
        """Paper: ResNet-50 and GoogLeNet reach only ~0.2x of the GPU."""
        rows = {r.network: r for r in table3_rows}
        assert rows["GoogleNet"].sw_over_gpu < rows["VGG-16"].sw_over_gpu
        assert rows["GoogleNet"].sw_over_gpu < 0.3

    def test_sw_beats_cpu_everywhere(self, table3_rows):
        for r in table3_rows:
            assert r.sw_over_cpu > 1.0, r.network

    def test_sw_absolute_throughputs_near_paper(self, table3_rows):
        """SW img/s within a factor ~2 of the paper's column."""
        paper = {
            "AlexNet": 94.17, "VGG-16": 6.21, "VGG-19": 5.52,
            "ResNet-50": 5.56, "GoogleNet": 14.97,
        }
        rows = {r.network: r for r in table3_rows}
        for name, expected in paper.items():
            got = rows[name].sw_img_s
            assert expected / 2 < got < expected * 2, (name, got, expected)

    def test_render(self, table3_rows):
        assert "img/sec" in table3_throughput.render(table3_rows)

    def test_experiments_md_quotes_the_harness(self, table3_rows):
        """EXPERIMENTS.md's "meas" cells are the harness's rows, rounded."""
        text = (Path(__file__).resolve().parents[1] / "EXPERIMENTS.md").read_text(
            encoding="utf-8"
        )
        section = text.split("## Table III", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip("|\n ").split("|")]
            if line.startswith("|") and cells[0].endswith(")"):
                rows[cells[0]] = cells[2:11:2]
        for r in table3_rows:
            want = (r.cpu_img_s, r.gpu_img_s, r.sw_img_s, r.sw_over_gpu, r.sw_over_cpu)
            assert rows[f"{r.network} ({r.batch})"] == [f"{v:.2f}" for v in want]


class TestFig8:
    def test_bandwidth_bound_layers_slower_on_sw(self, fig8_rows):
        """Pooling/ReLU/BN layers hide in the GPU's 288 GB/s but cost real
        time on SW26010 — every one must be slower on SW."""
        for r in fig8_rows:
            if r.type in ("Pooling", "ReLU", "BatchNorm", "Dropout"):
                assert r.sw_forward_s > r.gpu_forward_s, r.name

    def test_conv2_faster_on_sw(self, fig8_rows):
        """The 5x5 conv2 is one of the layers where SW26010 wins in Fig. 8."""
        rows = {r.name: r for r in fig8_rows}
        assert rows["conv2"].sw_forward_s < rows["conv2"].gpu_forward_s

    def test_first_conv_slower_on_sw(self, fig8_rows):
        rows = {r.name: r for r in fig8_rows}
        assert rows["conv1"].sw_forward_s > rows["conv1"].gpu_forward_s

    def test_layer_sequence_matches_figure(self, fig8_rows):
        names = [r.name for r in fig8_rows]
        for expected in ("conv1", "conv1/bn", "relu1", "pool1", "fc6", "fc8"):
            assert expected in names


class TestFig10and11:
    def test_speedups_monotone_in_nodes(self, scaling_points):
        for label in {p.label for p in scaling_points}:
            curve = sorted(
                (p for p in scaling_points if p.label == label),
                key=lambda p: p.n_nodes,
            )
            speedups = [p.speedup for p in curve]
            assert all(a < b for a, b in zip(speedups, speedups[1:])), label

    def test_speedups_sublinear(self, scaling_points):
        for p in scaling_points:
            assert p.speedup < p.n_nodes

    def test_alexnet_batch_ordering(self, scaling_points):
        """Fig. 10: at 1024 nodes, larger sub-mini-batch scales better."""
        at_1024 = {p.label: p for p in scaling_points if p.n_nodes == 1024}
        assert (
            at_1024["AlexNet, B=64"].speedup
            < at_1024["AlexNet, B=128"].speedup
            < at_1024["AlexNet, B=256"].speedup
        )

    def test_resnet_scales_better_than_alexnet(self, scaling_points):
        """Paper: ResNet-50's smaller model / heavier compute -> better
        scalability (928x vs 715x at 1024 nodes)."""
        at_1024 = {p.label: p for p in scaling_points if p.n_nodes == 1024}
        assert at_1024["ResNet50, B=32"].speedup > at_1024["AlexNet, B=256"].speedup

    def test_endpoint_speedups_near_paper(self, scaling_points):
        at_1024 = {p.label: p for p in scaling_points if p.n_nodes == 1024}
        assert 400 < at_1024["AlexNet, B=64"].speedup < 750
        assert 550 < at_1024["AlexNet, B=256"].speedup < 850
        assert 800 < at_1024["ResNet50, B=32"].speedup < 970

    def test_comm_fraction_monotone_and_ordered(self, scaling_points):
        at_1024 = {p.label: p for p in scaling_points if p.n_nodes == 1024}
        # Fig. 11: smaller batches pay a larger communication share.
        assert (
            at_1024["AlexNet, B=64"].comm_fraction
            > at_1024["AlexNet, B=128"].comm_fraction
            > at_1024["AlexNet, B=256"].comm_fraction
        )
        # AlexNet's 232.6 MB model communicates more than ResNet's 97.7 MB.
        assert (
            at_1024["AlexNet, B=256"].comm_fraction
            > at_1024["ResNet50, B=64"].comm_fraction
        )

    def test_comm_fraction_ranges(self, scaling_points):
        at_1024 = {p.label: p for p in scaling_points if p.n_nodes == 1024}
        assert 0.30 < at_1024["AlexNet, B=64"].comm_fraction < 0.65
        assert 0.18 < at_1024["AlexNet, B=256"].comm_fraction < 0.35
        assert 0.05 < at_1024["ResNet50, B=32"].comm_fraction < 0.20


class TestAblations:
    def test_every_design_choice_pays_off(self):
        for result in ablations.generate():
            assert result.gain > 1.0, result.name

    def test_io_striping_gain_is_large(self):
        r = ablations.io_striping_ablation()
        assert r.gain > 10

    def test_render(self):
        assert "gain" in ablations.render([ablations.io_striping_ablation()])


class TestFig11Overlap:
    """The bucketed-overlap variant of the Fig. 11 sweep."""

    @pytest.fixture(scope="class")
    def bucketed_points(self):
        return fig10_scalability.generate(bucket_mb=96.0)

    def test_exposed_comm_strictly_below_fused_at_16_plus(
        self, scaling_points, bucketed_points
    ):
        fused = {(p.label, p.n_nodes): p for p in scaling_points}
        bucketed = {(p.label, p.n_nodes): p for p in bucketed_points}
        for (label, n), fp in fused.items():
            if n < 16:
                continue
            bp = bucketed[(label, n)]
            assert bp.comm_fraction < fp.comm_fraction, (label, n)
            assert bp.overlap_hidden_s > 0.0, (label, n)
            assert bp.iteration_s < fp.iteration_s, (label, n)

    def test_fused_points_report_no_hidden_time(self, scaling_points):
        assert all(p.overlap_hidden_s == 0.0 for p in scaling_points)

    def test_overlap_render_compares_both_sweeps(self):
        from repro.harness import fig11_comm_ratio

        out = fig11_comm_ratio.render_overlap(96.0)
        assert "fused" in out and "bucketed" in out
        assert "hidden behind backward" in out
