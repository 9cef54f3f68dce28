"""The what-if engine (:mod:`repro.trace.whatif`) and its CLI surface.

The acceptance invariant of the subsystem: a projection is *verifiable* —
re-running the simulator with the same :class:`CostScaling` installed
produces the projected end-to-end time exactly (serial-fabric training
schedules; ``REL_TOL`` otherwise). Also pins the ``--scale`` parser, the
``python -m repro whatif`` exit codes, and the consistency between the
critical path's exposed-collective attribution and the ``exposed_s``
args of the ``collective_service`` spans.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.frame.model_zoo import lenet
from repro.trace.whatif import REL_TOL, parse_scales, project, whatif_training


def _lenet():
    return lenet.build(batch_size=16)


class TestParseScales:
    def test_parses_classes_and_layers(self):
        assert parse_scales(["dma=0.5", "rlc=2.0", "layer:conv1=0.25"]) == {
            "dma": 0.5, "rlc": 2.0, "layer:conv1": 0.25,
        }

    def test_empty_is_identity(self):
        assert parse_scales([]) == {}

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="class=factor"):
            parse_scales(["dma0.5"])

    def test_non_numeric_factor_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            parse_scales(["dma=fast"])

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            parse_scales(["gpu=0.5"])

    def test_non_positive_factor_rejected(self):
        with pytest.raises(ValueError):
            parse_scales(["dma=0"])


class TestProjectFactors:
    """``project`` checks factors the way ``parse_scales`` does."""

    @staticmethod
    def two_spans():
        from repro.trace.tracer import Tracer

        tr = Tracer()
        tr.emit("get", "dma_transfer", track="cg0", dur=1.0)
        tr.emit("gemm", "cpe_compute", track="cg0", dur=1.0)
        return tr

    def test_valid_factors_project(self):
        proj = project(self.two_spans(), {"dma": 0.5})
        assert (proj.baseline_s, proj.projected_s) == (2.0, 1.5)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown scale class 'dmaa'"):
            project(self.two_spans(), {"dmaa": 0.5})

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError, match="must be > 0"):
            project(self.two_spans(), {"dma": 0.0})

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError, match="must be > 0"):
            project(self.two_spans(), {"dma": -1.0})

    def test_nan_factor_rejected(self):
        with pytest.raises(ValueError, match="must be > 0"):
            project(self.two_spans(), {"dma": float("nan")})

    def test_inf_factor_rejected(self):
        with pytest.raises(ValueError, match="must be > 0 and finite"):
            project(self.two_spans(), {"dma": float("inf")})


class TestTrainingValidation:
    def test_acceptance_case_is_exact(self):
        """lenet, 8 ranks, dma=0.5: projected == simulated, bit for bit."""
        result = whatif_training(_lenet(), {"dma": 0.5}, ranks=8, validate=True)
        v = result.validation
        assert v is not None
        assert v.abs_error_s == 0.0
        assert v.ok

    @pytest.mark.parametrize("factors", [
        {"rlc": 2.0},
        {"collective": 3.0},
        {"layer:conv1": 0.25},
        {"dma": 0.5, "rlc": 2.0, "cpe": 0.8, "overhead": 0.5},
    ])
    def test_factor_sets_validate_exactly(self, factors):
        result = whatif_training(_lenet(), factors, ranks=5, validate=True)
        assert result.validation.abs_error_s == 0.0

    def test_multi_iteration_within_tolerance(self):
        result = whatif_training(
            _lenet(), {"dma": 0.5, "cpe": 0.8}, ranks=4, iterations=3,
            validate=True,
        )
        assert result.validation.rel_error <= REL_TOL
        assert result.validation.ok
        # Each iteration lays out on one chain, so the fold is exact too.
        assert result.validation.abs_error_s == 0.0

    def test_misspelt_layer_rejected(self):
        with pytest.raises(ValueError, match="'layer:nosuch' names no layer"):
            whatif_training(_lenet(), {"layer:nosuch": 0.5}, ranks=2)

    def test_identity_projection_is_noop(self):
        result = whatif_training(_lenet(), {}, ranks=4)
        assert result.projection.projected_s == result.projection.baseline_s
        assert result.projection.speedup == 1.0

    def test_speedup_direction(self):
        faster = whatif_training(_lenet(), {"cpe": 0.5}, ranks=2)
        slower = whatif_training(_lenet(), {"cpe": 2.0}, ranks=2)
        assert faster.projection.speedup > 1.0
        assert slower.projection.speedup < 1.0

    def test_json_schema(self):
        result = whatif_training(_lenet(), {"dma": 0.5}, ranks=2, validate=True)
        obj = result.to_json()
        assert obj["schema"] == "repro-whatif/1"
        assert obj["factors"] == {"dma": 0.5}
        assert obj["validation"]["ok"] is True
        assert obj["critpath"]["schema"] == "repro-critpath/1"
        json.dumps(obj)  # serializable


class TestOverlapCounterConsistency:
    def test_on_path_exposure_matches_overlap_exposed_counter(self):
        """The critical path attributes exactly the collective seconds the
        service spans report as exposed."""
        from repro.simmpi.nonblocking import IAllreduceQueue
        from repro.simmpi.comm import SimComm
        from repro.simmpi.reorder import block_placement
        from repro.simmpi.collectives.rhd import rhd_allreduce
        from repro.topology.fabric import TaihuLightFabric
        from repro.trace.critpath import critical_path
        from repro.trace.tracer import tracing

        fabric = TaihuLightFabric(n_nodes=4, nodes_per_supernode=4)
        with tracing() as tr:
            comm = SimComm(fabric, block_placement(4, 4))
            queue = IAllreduceQueue(comm, rhd_allreduce, origin_s=0.0)
            # Back-to-back launches: the fabric never idles, so every
            # service window lands on the critical path.
            for k in range(3):
                bufs = [np.ones(4000) for _ in range(4)]
                queue.iallreduce(bufs, ready_s=0.0, tag=f"b{k}")
            barrier = queue.fabric.free_s * 0.5
            queue.wait_all(barrier_s=barrier)
        report = critical_path(tr)
        counter = sum(
            s.args["exposed_s"] for s in tr.spans if s.cat == "collective_service"
        )
        assert counter > 0
        assert report.collective_exposed_s == pytest.approx(counter, rel=1e-12)


class TestServingProjection:
    def test_steady_workload_projection_scales_with_batch_factor(self):
        from repro.serve.arrivals import ArrivalPlan
        from repro.serve.costmodel import TableCostModel
        from repro.serve.engine import ServeConfig, ServingEngine
        from repro.trace.tracer import tracing

        requests = ArrivalPlan.from_seed(
            "steady:0xc0ffee:0", rate_rps=250.0, n_requests=6
        ).generate()
        engine = ServingEngine(
            TableCostModel({b: 0.010 for b in range(1, 3)}),
            ServeConfig(max_batch=2, max_wait_s=0.005, queue_bound=4, slo_s=0.05),
        )
        with tracing() as tr:
            engine.run(requests)
        proj = project(tr, {"batch": 2.0})
        assert proj.baseline_s == tr.end_time()
        # The last batch's compute doubles; earlier batches partially hide
        # behind arrival floors, so the makespan grows but less than 2x.
        assert proj.baseline_s < proj.projected_s < 2.0 * proj.baseline_s


class TestCLI:
    def run_main(self, argv):
        from repro.__main__ import main

        return main(argv)

    def test_validate_exits_zero(self, capsys):
        rc = self.run_main(
            ["whatif", "lenet", "--ranks", "2", "--scale", "dma=0.5",
             "--validate"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out

    def test_json_output_is_machine_readable(self, capsys):
        rc = self.run_main(
            ["whatif", "lenet", "--ranks", "2", "--scale", "rlc=2.0", "--json"]
        )
        assert rc == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["schema"] == "repro-whatif/1"

    def test_bad_scale_exits_two(self, capsys):
        rc = self.run_main(["whatif", "lenet", "--scale", "warp=0.5"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_out_writes_report(self, tmp_path, capsys):
        path = tmp_path / "whatif.json"
        rc = self.run_main(
            ["whatif", "lenet", "--ranks", "2", "--scale", "dma=0.5",
             "--validate", "--out", str(path)]
        )
        capsys.readouterr()
        assert rc == 0
        obj = json.loads(path.read_text())
        assert obj["validation"]["ok"] is True

    def test_registered_in_command_registry(self):
        from repro.__main__ import COMMANDS, REGISTRY

        assert "whatif" in REGISTRY
        assert "whatif" in COMMANDS


class TestHarnessSummaries:
    def test_serving_whatif_summary(self):
        from repro.harness.serving_latency import render_whatif

        text = render_whatif()
        assert "critical path" in text
        assert "what-if batch=0.5" in text
        assert "last completion" in text
