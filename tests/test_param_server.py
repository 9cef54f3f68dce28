"""Tests for the parameter-server baseline (the scheme the paper rejects)."""

import pytest

from repro.parallel.param_server import ParameterServerModel
from repro.parallel.ssgd import SSGDIterationModel


class TestTimingModel:
    def test_ingestion_scales_linearly_with_workers(self):
        m = ParameterServerModel(model_bytes=100e6, n_servers=8)
        t64 = m.sync_time(64)
        t128 = m.sync_time(128)
        assert t128 == pytest.approx(2 * t64, rel=1e-6)

    def test_more_servers_help(self):
        few = ParameterServerModel(model_bytes=100e6, n_servers=2)
        many = ParameterServerModel(model_bytes=100e6, n_servers=32)
        assert many.sync_time(256) < few.sync_time(256)

    def test_single_worker_free(self):
        assert ParameterServerModel(model_bytes=1e6).sync_time(1) == 0.0
        with pytest.raises(ValueError):
            ParameterServerModel(model_bytes=1e6).sync_time(0)

    def test_allreduce_wins_at_scale(self):
        """The paper's argument: per-server ingestion grows linearly with
        workers while the allreduce grows logarithmically (plus a fixed
        bandwidth term), so allreduce must win at TaihuLight scale."""
        model_bytes = 232.6e6
        ps = ParameterServerModel(model_bytes=model_bytes, n_servers=16)
        ssgd = SSGDIterationModel(compute_s=1.0, model_bytes=model_bytes)
        assert ps.sync_time(1024) > 3 * ssgd.breakdown(1024).allreduce_s
