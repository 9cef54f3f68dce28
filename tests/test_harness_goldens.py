"""Golden of the simulated numbers the experiment harnesses report.

``tests/golden/harness_numbers.json`` pins three sections, every float as
its ``repr``:

* ``metrics`` -- 62 end results of the paper and extension harnesses,
  keyed suite -> case -> name: Table I-III, Figs. 2, 7 and 10/11, the
  naive port, the overlap ablation, the executed collectives, serving,
  the pipeline bubble and hybrid bet, and the zero cost of disabled
  tracing and fault injection.
* ``roofline`` -- each Fig. 8 (AlexNet, B=256) and Fig. 9 (VGG-16, B=64)
  layer direction's :class:`~repro.kernels.plan.PlanCost` parts and its
  roofline bound, from :func:`~repro.metrics.roofline.net_roofline`.
* ``scaling`` -- each Fig. 10/11 point's
  :class:`~repro.parallel.ssgd.IterationBreakdown`, for the paper's fused
  allreduce and for 96 MB buckets.

The other tests pin that those parts add up, bit for bit, to the totals
the figures print, and the qualitative claims behind the numbers that no
other test makes.

Regenerate with ``python -m tests.test_harness_goldens``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import tempfile

import numpy as np
import pytest

from repro.faults.injector import injecting
from repro.faults.plan import FaultPlan, seed_string
from repro.faults.session import run_chaos
from repro.frame.layers.data import DataLayer
from repro.frame.layers.inner_product import InnerProductLayer
from repro.frame.layers.softmax import SoftmaxWithLossLayer
from repro.frame.model_zoo import alexnet, lenet, vgg
from repro.frame.net import Net
from repro.frame.solver import SGDSolver
from repro.harness import (
    ablations,
    allreduce_sweep,
    fig10_scalability,
    fig2_dma,
    fig6_network,
    fig7_allreduce,
    fig8_alexnet_layers,
    fig9_vgg_layers,
    inference_throughput,
    memory_budget,
    naive_port,
    serving_latency,
    straggler_study,
    table1_specs,
    table2_vgg_conv,
    table3_throughput,
)
from repro.metrics.roofline import net_roofline
from repro.parallel.ssgd import SSGDIterationModel
from repro.parallel.trainer import DistributedTrainer
from repro.perf.layer_cost import net_iteration_time
from repro.pipeline.model import PipelineIterationModel
from repro.pipeline.partition import plan_stages
from repro.pipeline.schedule import simulate_pipeline
from repro.simmpi.collectives.binomial import binomial_allreduce
from repro.simmpi.collectives.rhd import rhd_allreduce
from repro.simmpi.collectives.ring import ring_allreduce
from repro.simmpi.comm import SimComm
from repro.simmpi.reorder import block_placement, round_robin_placement
from repro.topology.cost_model import LinearCostModel
from repro.topology.fabric import TaihuLightFabric
from repro.trace.critpath import build_graph, schedule
from repro.trace.session import trace_training_step
from repro.trace.tracer import tracing
from repro.utils.rng import seeded_rng

GOLDEN = pathlib.Path(__file__).parent / "golden" / "harness_numbers.json"

#: The Fig. 8/9 nets, priced at the figures' batch sizes.
ROOFLINE_NETS = {
    "fig8_alexnet": (alexnet.build, fig8_alexnet_layers),
    "fig9_vgg16": (vgg.build_vgg16, fig9_vgg_layers),
}
#: The Fig. 10/11 studies: the paper's fused allreduce and 96 MB buckets.
SCALING_STUDIES = {"fused": None, "bucketed_96mb": 96.0}


# --------------------------------------------------------------------------- #
# metrics: one function per suite, case -> name -> value
# --------------------------------------------------------------------------- #
def _ablation_overlap():
    result = ablations.overlap_ablation()
    fused = {(p.label, p.n_nodes): p for p in fig10_scalability.generate()}
    bucketed = {
        (p.label, p.n_nodes): p for p in fig10_scalability.generate(bucket_mb=96.0)
    }
    at_1024, at_16 = ("AlexNet, B=128", 1024), ("AlexNet, B=128", 16)
    return {
        "ablation_overlap": {
            "exposed_fused_s": result.baseline_value,
            "exposed_bucketed_s": result.improved_value,
            "gain": result.gain,
        },
        "overlap_comm_ratio_sweep": {
            "comm_fraction_fused_1024": fused[at_1024].comm_fraction,
            "comm_fraction_bucketed_1024": bucketed[at_1024].comm_fraction,
            "hidden_s_1024": bucketed[at_1024].overlap_hidden_s,
            "comm_fraction_fused_16": fused[at_16].comm_fraction,
            "comm_fraction_bucketed_16": bucketed[at_16].comm_fraction,
        },
    }


class _Shard:
    """A seekable cycle over one rank's fixed batches."""

    def __init__(self, batches):
        self.batches, self.i = batches, 0
        self.sample_shape = batches[0][0].shape[1:]

    def next_batch(self, batch_size):
        batch = self.batches[self.i % len(self.batches)]
        self.i += 1
        return batch

    def seek(self, n_batches, batch_size):
        self.i = n_batches


def _mlp_factory(ranks=4, per_worker=3, dim=5, classes=3, steps=8):
    """Identical one-layer classifiers over disjoint seekable shards."""
    rng = np.random.default_rng(0)
    n = ranks * per_worker
    data = [
        (
            rng.normal(size=(n, dim)).astype(np.float32),
            rng.integers(0, classes, size=n),
        )
        for _ in range(steps)
    ]

    def factory(rank):
        lo, hi = rank * per_worker, (rank + 1) * per_worker
        shard = _Shard([(img[lo:hi], lab[lo:hi]) for img, lab in data])
        net = Net("mlp")
        net.add(DataLayer("data", shard, per_worker), [], ["data", "label"])
        net.add(InnerProductLayer("ip", classes, rng=seeded_rng(7)), ["data"], ["out"])
        net.add(SoftmaxWithLossLayer("loss"), ["out", "label"], ["loss"])
        return net

    return factory


def _chaos_overhead(ranks=4, iters=6):
    off = DistributedTrainer(_mlp_factory(), ranks, algorithm="rhd")
    s_off = off.step(iters)
    zero = DistributedTrainer(_mlp_factory(), ranks, algorithm="rhd")
    zero_plan = FaultPlan(seed="none", profile="transient", ranks=ranks, iterations=iters)
    with injecting(zero_plan):
        s_zero = zero.step(iters)
    delta = np.max(np.abs(off.packers[0].pack_data() - zero.packers[0].pack_data()))
    with tempfile.TemporaryDirectory() as snapshots:
        report = run_chaos(
            _mlp_factory(),
            ranks=ranks,
            iterations=iters,
            seed=seed_string("crash", 0),
            snapshot_every=2,
            snapshot_dir=snapshots,
        )
    assert report.weights_match
    return {
        "disabled_overhead_is_zero": {
            "overhead_sim_s": abs(s_zero.comm_time_s - s_off.comm_time_s),
            "weights_delta": delta,
        },
        "crash_recovery_cost": {
            "fault_sim_s": report.fault_time_s,
            "rank_rebuilds": report.rank_rebuilds,
            "surviving_ranks": report.surviving_ranks,
        },
    }


def _collectives_micro(p=16, q=4, n_elems=1 << 16):
    model = LinearCostModel(alpha=1e-6, beta1=1e-10, beta2=4e-10, gamma=3e-10)
    fabric = TaihuLightFabric(n_nodes=p, nodes_per_supernode=q)
    cases = {
        "ring": (ring_allreduce, block_placement),
        "binomial": (binomial_allreduce, block_placement),
        "rhd-block": (rhd_allreduce, block_placement),
        "rhd-round-robin": (rhd_allreduce, round_robin_placement),
    }
    out = {}
    for case, (algo, placement) in cases.items():
        rng = np.random.default_rng(0)
        bufs = [rng.normal(size=n_elems) for _ in range(p)]
        expected = np.sum(bufs, axis=0)
        res = algo(SimComm(fabric, placement(p, q), cost=model), bufs)
        np.testing.assert_allclose(bufs[0], expected, rtol=1e-10)
        out[f"allreduce_engine[{case}]"] = {"sim_time": res.time_s, "steps": res.steps}
    return out


def _critpath_overhead(iters=2):
    def solver_time():
        net = lenet.build(batch_size=16)
        return SGDSolver(net, base_lr=0.005, momentum=0.9).step(iters).simulated_time_s

    off = solver_time()
    with tracing():
        on = solver_time()
    tracer, _ = trace_training_step(lenet.build(batch_size=16), ranks=16, iterations=1)
    graph = build_graph(tracer)
    sched = schedule(graph)
    assert sched.end_to_end_s == tracer.end_time()
    return {
        "tracing_disabled_overhead_is_zero": {"overhead_sim_s": abs(on - off)},
        "graph_build_on_fig10_sized_trace": {
            "trace_spans": len(tracer.spans),
            "graph_nodes": len(graph.spans),
            "graph_edges": len(graph.edges),
            "end_to_end_sim_s": sched.end_to_end_s,
        },
    }


def _fig10_scalability():
    points = fig10_scalability.generate()
    at_1024 = {p.label: p.speedup for p in points if p.n_nodes == 1024}
    return {
        "fig10_scalability": {
            "resnet50_speedup_1024": at_1024["ResNet50, B=32"],
            "alexnet_speedup_1024": at_1024["AlexNet, B=64"],
        }
    }


def _fig2_dma():
    series = {s.label: s for s in fig2_dma.generate()["continuous"]}
    return {
        "fig2_dma_curves": {
            "dma_64cpe_peak": series["64CPE"].bandwidth_gbs[-1],
            "dma_1cpe_peak": series["1CPE"].bandwidth_gbs[-1],
        }
    }


def _fig7_allreduce():
    result = fig7_allreduce.generate()
    return {
        "fig7_allreduce_example": {
            "original_sim_time": result.original_simulated_s,
            "improved_sim_time": result.improved_simulated_s,
            "improvement": result.improvement,
        }
    }


def _naive_port():
    rows = naive_port.generate()
    return {
        "naive_port_motivation": {
            "total_swcaffe_sim_time": sum(r.swcaffe_s for r in rows),
            "min_speedup_vs_mpe": min(r.naive_mpe_s / r.swcaffe_s for r in rows),
        }
    }


def _pipeline_bubble(s=4, m=16, nodes=16, bucket_mb=32.0, sub_batch=8):
    fd, ob = (
        simulate_pipeline([1.0] * s, [2.0] * s, n_microbatches=m, schedule=kind)
        for kind in ("fill_drain", "1f1b")
    )
    expected = (s - 1) / (m + s - 1)
    assert fd.bubble_frac == pytest.approx(expected, rel=0, abs=1e-12)
    assert ob.bubble_frac == pytest.approx(expected, rel=0, abs=1e-12)
    assert ob.makespan_s == fd.makespan_s

    net = vgg.build_vgg16(batch_size=sub_batch)
    compute_s = net_iteration_time(net, "sw26010")
    plan = plan_stages(net, s)
    hybrid = PipelineIterationModel(
        plan, n_microbatches=m, replicas=nodes // s, bucket_mb=bucket_mb
    ).breakdown()
    dp = SSGDIterationModel(compute_s=compute_s, model_bytes=net.param_bytes())
    dp_fused = dp.breakdown(nodes)
    dp_bucketed = dataclasses.replace(dp, bucket_mb=bucket_mb).breakdown(nodes)
    # The hybrid bet: less exposed comm than bucketed data parallelism,
    # and a shorter iteration than the paper's fused one, at 16 nodes.
    assert hybrid.comm_fraction < dp_bucketed.comm_fraction
    assert hybrid.total_s < dp_fused.total_s
    return {
        "bubble_matches_formula": {
            "fill_drain_bubble": fd.bubble_frac,
            "one_f_one_b_bubble": ob.bubble_frac,
            "uniform_makespan_s": fd.makespan_s,
        },
        "vgg_hybrid_beats_bucketed_dp": {
            "hybrid_comm_frac": hybrid.comm_fraction,
            "dp_bucketed_comm_frac": dp_bucketed.comm_fraction,
            "dp_fused_iteration_s": dp_fused.total_s,
            "hybrid_iteration_s": hybrid.total_s,
            "hybrid_bubble_frac": hybrid.bubble_frac,
            "stage_imbalance": plan.stage_imbalance,
        },
    }


def _serving_latency():
    comparison = serving_latency.generate()
    b1, dy = comparison.batch1, comparison.dynamic
    # Dynamic batching beats batch=1 on throughput and goodput at no worse
    # SLO attainment, inside the SLO.
    assert dy.throughput_rps > b1.throughput_rps
    assert dy.goodput_rps > b1.goodput_rps
    assert dy.slo_attainment >= b1.slo_attainment
    assert dy.latency_percentile(99) <= serving_latency.SLO_S
    return {
        "serving_latency": {
            "dynamic_p99_s": dy.latency_percentile(99),
            "dynamic_goodput_rps": dy.goodput_rps,
            "dynamic_slo_attainment": dy.slo_attainment,
            "dynamic_mean_batch": dy.mean_batch_size,
            "batch1_p99_s": b1.latency_percentile(99),
            "batch1_goodput_rps": b1.goodput_rps,
            "batch1_shed": b1.n_shed,
            "goodput_speedup": dy.goodput_rps / b1.goodput_rps,
        }
    }


def _table1_specs():
    (sw,) = [r for r in table1_specs.generate() if "SW26010" in str(r["name"])]
    return {
        "table1_specs": {
            "sw_bandwidth": sw["bandwidth_gbs"],
            "sw_double_perf": sw["double_tflops"],
            "sw_flop_per_byte": sw["flop_per_byte"],
        }
    }


def _table2_vgg_conv():
    rows = table2_vgg_conv.generate()
    assert len(rows) == 13
    return {
        "table2_vgg_conv": {
            "total_forward_best": sum(r.forward.best_s for r in rows),
            "implicit_forward_wins": sum(r.forward.winner == "implicit" for r in rows),
        }
    }


def _table3_throughput():
    img_s = {}
    for row in table3_throughput.generate():
        net = row.network.lower().replace("-", "").replace(" ", "_")
        img_s[f"{net}_sw_img_s"] = row.sw_img_s
    return {"table3_throughput": img_s}


SUITES = {
    "ablation_overlap": _ablation_overlap,
    "chaos_overhead": _chaos_overhead,
    "collectives_micro": _collectives_micro,
    "critpath_overhead": _critpath_overhead,
    "fig10_scalability": _fig10_scalability,
    "fig2_dma": _fig2_dma,
    "fig7_allreduce": _fig7_allreduce,
    "naive_port": _naive_port,
    "pipeline_bubble": _pipeline_bubble,
    "serving_latency": _serving_latency,
    "table1_specs": _table1_specs,
    "table2_vgg_conv": _table2_vgg_conv,
    "table3_throughput": _table3_throughput,
}


# --------------------------------------------------------------------------- #
# the per-resource breakdowns behind Figs. 8-11
# --------------------------------------------------------------------------- #
def _roofline_rows(name):
    build, figure = ROOFLINE_NETS[name]
    return net_roofline(build(batch_size=figure.BATCH))


def _scaling_study(name):
    return fig10_scalability.build_study(bucket_mb=SCALING_STUDIES[name])


def _reprs(values: dict) -> dict:
    """Each number as the ``repr`` of its float."""
    return {name: repr(float(value)) for name, value in values.items()}


def harness_numbers() -> dict:
    """All three golden sections, values as they are stored."""
    metrics = {
        suite: {case: _reprs(values) for case, values in generate().items()}
        for suite, generate in SUITES.items()
    }
    roofline = {
        name: [
            {
                "layer": row.layer,
                "direction": row.direction,
                **_reprs(dataclasses.asdict(row.cost)),
                "bound": row.verdict.bound,
            }
            for row in _roofline_rows(name)
        ]
        for name in ROOFLINE_NETS
    }
    scaling = {}
    for name in SCALING_STUDIES:
        study = _scaling_study(name)
        scaling[name] = {
            label: {
                str(n): _reprs(dataclasses.asdict(model.breakdown(n)))
                for n in study.node_counts
            }
            for label, model in study.configs.items()
        }
    return {"metrics": metrics, "roofline": roofline, "scaling": scaling}


def render(numbers: dict) -> str:
    return json.dumps(numbers, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def numbers():
    return harness_numbers()


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN.is_file(), (
        f"golden file missing: {GOLDEN}; regenerate with "
        "`python -m tests.test_harness_goldens`"
    )
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("section", ["metrics", "roofline", "scaling"])
def test_section_matches_golden(numbers, golden, section):
    assert numbers[section] == golden[section]


def test_golden_holds_62_metrics(golden):
    assert set(golden) == {"metrics", "roofline", "scaling"}
    metrics = golden["metrics"]
    assert sum(len(v) for cases in metrics.values() for v in cases.values()) == 62


@pytest.mark.parametrize("name", sorted(ROOFLINE_NETS))
def test_roofline_totals_are_the_figure_times(name):
    """Each layer direction's parts add up to the time Fig. 8/9 prints."""
    rows = {(row.layer, row.direction): row for row in _roofline_rows(name)}
    times = {}
    for r in ROOFLINE_NETS[name][1].generate():
        times[r.name, "fwd"], times[r.name, "bwd"] = r.sw_forward_s, r.sw_backward_s
    for key, t in times.items():
        assert (t > 0) == (key in rows), key
        if t > 0:
            assert rows[key].total_s == t, key
    # The rows the figure leaves out are its loss layer's.
    left_out = {rows[key].layer_type for key in rows.keys() - times.keys()}
    assert left_out == {"SoftmaxWithLoss"}


@pytest.mark.parametrize("name", sorted(SCALING_STUDIES))
def test_breakdown_totals_are_the_scaling_iterations(name):
    """Each Fig. 10/11 point's parts add up to its iteration time."""
    study = _scaling_study(name)
    for point in study.run():
        breakdown = study.configs[point.label].breakdown(point.n_nodes)
        assert breakdown.total_s == point.iteration_s, (point.label, point.n_nodes)
        assert breakdown.comm_fraction == point.comm_fraction


# --------------------------------------------------------------------------- #
# claims behind the numbers that no other test makes
# --------------------------------------------------------------------------- #
def test_placement_and_packing_ablation_gains():
    assert ablations.allreduce_placement_ablation().gain > 1.5
    assert ablations.packing_ablation().gain > 2.0


def test_round_robin_renumbering_wins_at_4mb():
    at_4mb = {p.algorithm: p.time_s for p in allreduce_sweep.generate((1 << 22,))}
    assert at_4mb["rhd (round-robin)"] < at_4mb["rhd (block)"]


def test_paper_batches_fit_in_memory():
    assert all(row.footprint.fits() for row in memory_budget.generate())


def test_straggler_jitter_never_speeds_up_an_iteration():
    assert all(p.mean_inflation >= 1.0 for p in straggler_study.generate())


def test_inference_throughput_covers_five_nets():
    rows = inference_throughput.generate()
    assert len(rows) == 5
    assert all(r.sw_img_s > 0 for r in rows)


def test_figure_panels_and_layers():
    assert set(fig2_dma.generate()) == {"continuous", "strided"}
    assert set(fig6_network.generate()) == {"bandwidth", "latency"}
    assert any(r.name == "conv1_1" for r in fig9_vgg_layers.generate())


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(harness_numbers()))
    print(f"wrote {GOLDEN}")
