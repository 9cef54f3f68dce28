"""Tests for the ``profile`` view and the ResNet-18/34 zoo additions."""

import pytest

from repro.frame.model_zoo import lenet
from repro.frame.model_zoo.resnet_small import build_resnet18, build_resnet34
from repro.metrics.roofline import BOUNDS, cost_totals, net_roofline, render_profile


def _table_rows(text: str) -> list[list[str]]:
    """The data rows of a rendered profile table, cells stripped."""
    lines = text.splitlines()
    body = lines[3:lines.index(next(l for l in lines if l.startswith("totals: ")))]
    return [[cell.strip() for cell in line.split("|")] for line in body]


class TestProfileView:
    @pytest.fixture(scope="class")
    def net(self):
        return lenet.build(batch_size=8)

    @pytest.fixture(scope="class")
    def rows(self, net):
        return net_roofline(net)

    def test_every_layer_is_a_row_or_folded(self, net, rows):
        """The rows skip free directions; the view still accounts for every
        layer of the net, in layer order, listed or folded."""
        table = _table_rows(render_profile(net, rows))
        folded = table[-1][0]
        assert folded.startswith("(") and folded.endswith(" small layers)")
        listed = [row[0] for row in table[:-1]]
        names = [layer.name for layer in net.layers]
        assert listed == [n for n in names if n in listed]
        assert len(listed) + int(folded[1:].split()[0]) == len(names)
        # A layer the rows skip in both directions is free, so folded.
        free = set(names) - {row.layer for row in rows}
        assert free and not free & set(listed)

    def test_totals_sum_the_rows(self, net, rows):
        totals = cost_totals(rows)
        for name in ("compute_s", "dma_s", "rlc_s", "overhead_s", "flops", "dma_bytes"):
            assert totals[name] == sum(getattr(row.cost, name) for row in rows)
        assert totals["total_s"] == sum(row.total_s for row in rows)
        assert totals["total_s"] == pytest.approx(net.sw_iteration_time(), rel=1e-9)
        assert cost_totals([]) == {name: 0 for name in totals}

    def test_bottleneck_is_a_bound(self, net, rows):
        table = _table_rows(render_profile(net, rows))
        assert {row[-1] for row in table[:-1]} <= set(BOUNDS)
        assert table[-1][-1] == "-"

    def test_render_names_the_net_and_every_part(self, net, rows):
        text = render_profile(net, rows)
        assert text.startswith("SW26010 profile of 'lenet'")
        totals = text.splitlines()[-1]
        assert totals.startswith("totals: compute=")
        assert [part.split("=")[0] for part in totals[8:].split(" | ")[0].split(", ")] == list(BOUNDS)
        assert "iteration=" in totals


class TestSmallResNets:
    def test_resnet18_parameters(self):
        net = build_resnet18(batch_size=1)
        n = sum(p.count for p in net.params)
        assert abs(n - 11.69e6) < 0.2e6

    def test_resnet34_parameters(self):
        net = build_resnet34(batch_size=1)
        n = sum(p.count for p in net.params)
        assert abs(n - 21.8e6) < 0.3e6

    def test_resnet18_topology(self):
        net = build_resnet18(batch_size=1)
        adds = [l for l in net.layers if l.type == "Eltwise"]
        assert len(adds) == 8  # 2+2+2+2 basic blocks
        assert net.blobs["pool5"].shape == (1, 512, 1, 1)

    def test_resnet18_faster_than_resnet34(self):
        t18 = build_resnet18(batch_size=8).sw_iteration_time()
        t34 = build_resnet34(batch_size=8).sw_iteration_time()
        assert t18 < t34

    def test_bad_depth(self):
        from repro.frame.model_zoo.resnet_small import _build

        with pytest.raises(ValueError):
            _build(50, 1, 10, None, None, False)
