"""Chrome trace-event export tests (:mod:`repro.trace.export`).

The golden-file test pins the exact JSON the exporter produces for a small
hand-built trace (``tests/golden/trace_small.json``) — byte-for-byte, since
traces are deterministic simulated time. ``validate_chrome`` is exercised
both on real exports and on deliberately broken objects.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.testing.chrome import validate_chrome
from repro.trace.export import to_chrome, write_chrome_json
from repro.trace.tracer import Tracer

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_small.json"


def small_tracer() -> Tracer:
    """Two ranks, each with compute/DMA/collective activity + an instant."""
    tr = Tracer()
    for r in range(2):
        with tr.context(f"rank{r}"):
            tr.emit("conv1 fwd", "layer_fwd", track="layers", dur=2e-3,
                    args={"layer_type": "Convolution"})
            tr.emit("conv1 fwd", "cpe_compute", track="cpe", start=0.0, dur=1.5e-3)
            tr.emit("dma_get", "dma_transfer", track="dma", start=0.0, dur=0.5e-3,
                    args={"bytes": 65536, "n_cpes": 64})
            tr.instant_event("launch bucket0", "collective_launch",
                             track="collective", start=2e-3,
                             args={"nbytes": 32768})
            tr.emit("step0", "collective_step", track="collective",
                    start=2e-3, dur=1e-4, args={"partner": 1 - r})
    return tr


def render(tracer: Tracer) -> str:
    return json.dumps(to_chrome(tracer), indent=1, sort_keys=True) + "\n"


class TestGolden:
    def test_matches_checked_in_golden_file(self):
        assert GOLDEN.is_file(), (
            f"golden file missing: {GOLDEN}; regenerate with "
            "`python -m tests.test_trace_export`"
        )
        assert render(small_tracer()) == GOLDEN.read_text()

    def test_golden_file_is_valid_chrome_format(self):
        assert validate_chrome(json.loads(GOLDEN.read_text())) == []

    def test_write_chrome_json_round_trips(self, tmp_path):
        path = write_chrome_json(small_tracer(), str(tmp_path / "t.json"))
        obj = json.loads(pathlib.Path(path).read_text())
        assert validate_chrome(obj) == []
        assert obj == to_chrome(small_tracer())


class TestStructure:
    @pytest.fixture()
    def chrome(self):
        return to_chrome(small_tracer())

    def test_one_process_per_rank(self, chrome):
        names = [e["args"]["name"] for e in chrome["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"]
        assert names == ["rank0", "rank1"]

    def test_one_thread_per_resource(self, chrome):
        threads = {(e["pid"], e["args"]["name"]) for e in chrome["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        for pid in (1, 2):
            assert {n for p, n in threads if p == pid} == {
                "layers", "cpe", "dma", "collective"}

    def test_timestamps_are_microseconds(self, chrome):
        ev = next(e for e in chrome["traceEvents"]
                  if e["ph"] == "X" and e["name"] == "conv1 fwd"
                  and e["cat"] == "layer_fwd")
        assert ev["ts"] == 0.0 and ev["dur"] == pytest.approx(2000.0)

    def test_instants_are_thread_scoped(self, chrome):
        inst = [e for e in chrome["traceEvents"] if e["ph"] == "i"]
        assert len(inst) == 2
        assert all(e["s"] == "t" and "dur" not in e for e in inst)

    def test_args_pass_through(self, chrome):
        ev = next(e for e in chrome["traceEvents"]
                  if e.get("cat") == "dma_transfer")
        assert ev["args"] == {"bytes": 65536, "n_cpes": 64}


class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome([1, 2, 3])

    def test_rejects_missing_trace_events(self):
        assert validate_chrome({"displayTimeUnit": "ns"})

    def test_rejects_missing_fields(self):
        errs = validate_chrome({"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]})
        assert any("missing" in e for e in errs)

    def test_rejects_negative_duration(self):
        errs = validate_chrome({"traceEvents": [
            {"name": "p", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "p"}},
            {"name": "t", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "t"}},
            {"name": "x", "cat": "c", "ph": "X", "ts": 0, "dur": -5,
             "pid": 1, "tid": 1},
        ]})
        assert any("dur" in e for e in errs)

    def test_rejects_unnamed_pids(self):
        errs = validate_chrome({"traceEvents": [
            {"name": "x", "cat": "c", "ph": "X", "ts": 0, "dur": 1,
             "pid": 9, "tid": 9},
        ]})
        assert any("process_name" in e for e in errs)
        assert any("thread_name" in e for e in errs)

    def test_rejects_unserializable(self):
        errs = validate_chrome({"traceEvents": [], "oops": object()})
        assert any("serializable" in e for e in errs)

    def test_empty_tracer_exports_validly(self):
        assert validate_chrome(to_chrome(Tracer())) == []


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(render(small_tracer()))
    print(f"wrote {GOLDEN}")
