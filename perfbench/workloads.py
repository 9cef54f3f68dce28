"""The benchmark's three workloads.

Each workload is set up once per child process and then runs a fixed
number of rounds. A round is a list of named operations, each a callable
that does one seeded piece of work, checks its outputs and returns a
message per failed check. An operation of a given name does the same
amount of work in every round and every child of a run: the seed picks
orders, data streams and stream indices, never the amount of work, so
the child can time every operation and the parent can compare repeats.

* ``paper_tables`` — one pass over Table II, Figs. 8-11 and Table III
  through each harness's ``generate()``, in seeded order; host time is
  net construction and cold pricing (frame, kernels, hw, perf). Every
  simulated number must equal ``refs/paper_tables.json`` bit for bit.
* ``train_exec`` — executed LeNet training: a 4-rank bucketed
  ``DistributedTrainer``, a 2-stage x 4-microbatch ``PipelineTrainer`` and
  the single-worker ``SGDSolver`` at the same effective batch; host time
  is layer execution, the solver and simmpi data movement. The pipeline
  must equal the solver bitwise, every parameter must be finite, and the
  final weights must match ``refs/train_exec.json``.
* ``trace_timelines`` — traced serving streams, data-parallel steps and
  pipeline walks on nets and cost models prepared during set-up (so
  pricing runs warm), each followed by ``critical_path`` and a what-if
  ``project``; host time is the event walks and the trace layer. The
  identity projection must equal the recorded end time, and served plus
  shed requests must equal arrivals.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

REFS = Path(__file__).resolve().parent / "refs"


def _load(name: str) -> dict:
    with open(REFS / name, encoding="utf-8") as fh:
        return json.load(fh)


def _flat_items(mapping: dict, prefix: str = ""):
    for key, value in mapping.items():
        if isinstance(value, dict):
            yield from _flat_items(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def flatten(rows, key) -> dict[str, object]:
    """Every field of every row, keyed ``<row key>/<field>``."""
    out = {}
    for row in rows:
        for field, value in _flat_items(dataclasses.asdict(row)):
            out[f"{key(row)}/{field}"] = value
    return out


def compare(values: dict, ref: dict) -> str | None:
    """Why ``values`` differs from ``ref`` (exact equality), or None."""
    bad = [
        k for k, v in values.items() if isinstance(v, float) and not math.isfinite(v)
    ]
    if bad:
        return f"non-finite value at {bad[0]}"
    if values.keys() != ref.keys():
        return f"keys differ: {sorted(values.keys() ^ ref.keys())[:3]}"
    diff = [k for k in ref if values[k] != ref[k]]
    if diff:
        k = diff[0]
        return f"{len(diff)} value(s) differ, e.g. {k}: {values[k]!r} != {ref[k]!r}"
    return None


def _point_key(point) -> str:
    return f"{point.label}@{point.n_nodes}"


def paper_operations() -> dict[str, tuple]:
    """``{operation: (generate, row key)}``, one per artifact or Table III net.

    An operation named ``<artifact>/<prefix>`` produces the rows whose
    reference keys start with ``<prefix>/``.
    """
    from repro.frame.model_zoo import PAPER_NETWORKS
    from repro.harness import (
        fig8_alexnet_layers,
        fig9_vgg_layers,
        fig10_scalability,
        fig11_comm_ratio,
        table2_vgg_conv,
        table3_throughput,
    )

    by_name = lambda row: row.name  # noqa: E731
    ops = {
        "table2": (table2_vgg_conv.generate, by_name),
        "fig8": (fig8_alexnet_layers.generate, by_name),
        "fig9": (fig9_vgg_layers.generate, by_name),
        "fig10": (fig10_scalability.generate, _point_key),
        "fig11": (fig11_comm_ratio.generate, _point_key),
    }
    for name, entry in PAPER_NETWORKS.items():
        ops[f"table3/{name}"] = (
            functools.partial(table3_throughput.generate, {name: entry}),
            lambda row: row.network,
        )
    return ops


def reference_slice(refs: dict, operation: str) -> dict:
    """The stored values one operation must reproduce."""
    artifact, _, prefix = operation.partition("/")
    table = refs[artifact]
    if not prefix:
        return table
    return {k: v for k, v in table.items() if k.startswith(f"{prefix}/")}


class PaperTables:
    """One cold pass over the cost-model paper artifacts per child.

    The run seed alone fixes the order, so every child of a run repeats
    the same pass and per-operation times can be compared across children.
    """

    rounds = 1

    def __init__(self, seed: int, child: int, perturb: bool) -> None:
        self.ops = paper_operations()
        self.order = list(self.ops)
        random.Random(f"paper_tables:{seed}").shuffle(self.order)
        self.refs = _load("paper_tables.json")
        if perturb:
            table = self.refs["table3"]
            key = sorted(table)[-1]
            table[key] = math.nextafter(table[key], math.inf)
        self.paper = _load("table3_paper.json")["img_s"]
        self.table3_rows: list = []
        self.extra: dict[str, float] = {}

    def _check(self, name: str) -> list[str]:
        generate, key = self.ops[name]
        rows = generate()
        problem = compare(flatten(rows, key), reference_slice(self.refs, name))
        if name.startswith("table3/"):
            self.table3_rows += rows
            if len(self.table3_rows) == len(self.paper):
                self.extra.update(paper_error(self.table3_rows, self.paper))
        return [problem] if problem else []

    def operations(self, index: int) -> list[tuple[str, object]]:
        return [(name, functools.partial(self._check, name)) for name in self.order]


def paper_error(rows, paper: dict) -> dict[str, float]:
    """Mean |simulated - paper| / paper over Table III's img/s cells, in %."""
    errors: dict[str, list[float]] = {"cpu": [], "k40m": [], "sw": []}
    for row in rows:
        ref = paper[row.network]
        for device, sim in (
            ("cpu", row.cpu_img_s), ("k40m", row.gpu_img_s), ("sw", row.sw_img_s)
        ):
            errors[device].append(abs(sim - ref[device]) / ref[device])
    cells = [e for column in errors.values() for e in column]
    return {
        "perf.paper_err_pct": 100.0 * sum(cells) / len(cells),
        "perf.paper_err_sw_pct": 100.0 * sum(errors["sw"]) / len(errors["sw"]),
    }


# --------------------------------------------------------------------------- #
# train_exec
# --------------------------------------------------------------------------- #
#: Data streams with stored final-weight digests; the seed picks among them.
N_STREAMS = 8
BATCH = 16
RANKS = 4
MICROBATCHES = 4
ITERS = 6
#: The quickstart's finite configuration. At base_lr=0.01 the 4-rank run
#: drives parameters non-finite within 20 iterations while the loss still
#: reads plausibly, which is why every parameter is checked.
SOLVER = dict(base_lr=0.005, momentum=0.9, weight_decay=1e-4)


def _lenet(source_seed: int):
    from repro.frame.model_zoo import lenet
    from repro.io.dataset import SyntheticImageNet

    source = SyntheticImageNet(
        num_classes=10, sample_shape=(1, 28, 28), seed=source_seed
    )
    return lenet.build(batch_size=BATCH, source=source, rng=np.random.default_rng(7))


def digest(params) -> str:
    """SHA-256 over every parameter's dtype, shape and bytes."""
    h = hashlib.sha256()
    for p in params:
        data = np.ascontiguousarray(p.data)
        h.update(f"{data.dtype.str}{data.shape}".encode())
        h.update(data.tobytes())
    return h.hexdigest()


def _finite(params) -> bool:
    return all(np.isfinite(p.data).all() for p in params)


def train_dp(stream: int) -> tuple[str, list[str]]:
    """4-rank bucketed data-parallel LeNet; (weight digest, failed checks)."""
    from repro.parallel import DistributedTrainer

    dp = DistributedTrainer(
        lambda rank: _lenet(stream * 100 + rank), RANKS,
        bucket_mb=0.5, backward_s=0.01, **SOLVER,
    )
    stats = dp.step(ITERS)
    problems = []
    if not dp.replicas_in_sync():
        problems.append("replicas diverged")
    if not all(_finite(net.params) for net in dp.nets):
        problems.append("non-finite parameters")
    if not all(math.isfinite(x) for x in stats.losses):
        problems.append("non-finite loss")
    return digest(dp.nets[0].params), problems


def train_baseline(stream: int):
    """Single-worker solver at the pipeline's effective batch; (net, checks)."""
    from repro.frame.solver import SGDSolver

    baseline = _lenet(stream * 100 + 50)
    stats = SGDSolver(baseline, iter_size=MICROBATCHES, **SOLVER).step(ITERS)
    problems = []
    if not _finite(baseline.params) or not all(math.isfinite(x) for x in stats.losses):
        problems.append("non-finite parameters or loss")
    return baseline, problems


def train_pipeline(stream: int, schedule: str, baseline) -> list[str]:
    """2-stage pipeline; its weights must equal ``baseline``'s bitwise."""
    from repro.pipeline import PipelineTrainer

    pipe = PipelineTrainer(
        lambda rank: _lenet(stream * 100 + 50), 2,
        n_microbatches=MICROBATCHES, schedule=schedule, **SOLVER,
    )
    pipe.step(ITERS)
    got, want = pipe.nets[0].params, baseline.params if baseline else []
    if len(got) != len(want) or not all(
        g.data.dtype == w.data.dtype and np.array_equal(g.data, w.data)
        for g, w in zip(got, want)
    ):
        return ["weights differ from the single-worker solver"]
    return []


class TrainExec:
    """Executed training of three trainers per round on a seeded stream.

    The pipeline's schedule alternates between rounds; both schedules do
    the same layer work, so they share one operation name.
    """

    rounds = 2

    def __init__(self, seed: int, child: int, perturb: bool) -> None:
        import repro.frame.solver  # noqa: F401  (imports belong to set-up)
        import repro.parallel  # noqa: F401
        import repro.pipeline  # noqa: F401

        self.rng = random.Random(f"train_exec:{seed}:{child}")
        self.refs = _load("train_exec.json")
        if perturb:
            self.refs = {k: dict(v, baseline="0" * 64) for k, v in self.refs.items()}
        self.baseline = None
        self.extra: dict[str, float] = {}

    def _dp(self, stream: int) -> list[str]:
        weights, problems = train_dp(stream)
        if weights != self.refs[str(stream)]["dp"]:
            problems.append("final-weight digest differs")
        return problems

    def _baseline(self, stream: int) -> list[str]:
        self.baseline = None
        net, problems = train_baseline(stream)
        self.baseline = net
        if digest(net.params) != self.refs[str(stream)]["baseline"]:
            problems.append("final-weight digest differs")
        return problems

    def operations(self, index: int) -> list[tuple[str, object]]:
        stream = self.rng.randrange(N_STREAMS)
        schedule = ("1f1b", "fill_drain")[(index + self.rng.randrange(2)) % 2]
        return [
            ("dp", functools.partial(self._dp, stream)),
            ("baseline", functools.partial(self._baseline, stream)),
            ("pipeline", lambda: train_pipeline(stream, schedule, self.baseline)),
        ]


# --------------------------------------------------------------------------- #
# trace_timelines
# --------------------------------------------------------------------------- #
#: Arrivals per serving stream.
SERVE_REQUESTS = 6000
#: Offered load as a share of the batched engine's capacity.
SERVE_LOADS = (0.6, 1.5)
#: Ranks of the traced data-parallel steps.
DP_RANKS = (16, 64, 256)
PIPE_STAGES = 8
PIPE_MICROBATCHES = 256
#: What-if classes each kind of trace responds to.
WHATIF_CLASSES = {
    "serve": ("batch",),
    "dp": ("cpe", "dma", "rlc", "collective"),
    "pipeline": ("stage", "p2p"),
}


class TraceTimelines:
    """Traced event walks with warm pricing, each analysed afterwards."""

    rounds = 2

    def __init__(self, seed: int, child: int, perturb: bool) -> None:
        from repro.frame.model_zoo import lenet, resnet_small
        from repro.pipeline import plan_stages
        from repro.serve import NetForwardCostModel, ServeConfig

        import repro.trace.critpath  # noqa: F401  (lazy modules load in set-up)
        import repro.trace.session  # noqa: F401
        import repro.trace.whatif  # noqa: F401

        self.rng = random.Random(f"trace_timelines:{seed}:{child}")
        self.perturb = perturb
        self.extra: dict[str, float] = {}
        self.dp_net = lenet.build(batch_size=64)
        self.dp_net.sw_iteration_time()  # choose and cache every conv plan
        self.config = ServeConfig()
        self.cost_model = NetForwardCostModel(
            resnet_small.build_resnet18, name="resnet18"
        )
        for batch in range(1, self.config.max_batch + 1):
            self.cost_model.cost(batch)
        self.capacity = self.config.max_batch / self.cost_model.compute_s(
            self.config.max_batch
        )
        self.plan = plan_stages(resnet_small.build_resnet18(batch_size=32), PIPE_STAGES)

    def _serve(self, profile: str, load: float):
        from repro.serve import ArrivalPlan, ServingEngine, seed_string
        from repro.trace.tracer import Tracer, tracing

        plan = ArrivalPlan.from_seed(
            seed_string(profile, self.rng.randrange(1 << 16)),
            rate_rps=load * self.capacity,
            n_requests=SERVE_REQUESTS,
        )
        tracer = Tracer()
        with tracing(tracer):
            report = ServingEngine(self.cost_model, self.config).run(plan.generate())
        problems = []
        if not report.n_completed + report.n_shed == report.n_requests == SERVE_REQUESTS:
            problems.append(
                f"served {report.n_completed} + shed {report.n_shed} != "
                f"arrivals {SERVE_REQUESTS}"
            )
        return tracer, problems

    def _dp(self, ranks: int):
        from repro.trace.session import trace_training_step

        tracer, summary = trace_training_step(self.dp_net, ranks=ranks)
        problems = []
        if not (math.isfinite(summary.total_s) and summary.total_s > 0):
            problems.append(f"step time {summary.total_s!r}")
        return tracer, problems

    def _pipeline(self, schedule: str):
        from repro.pipeline import PipelineIterationModel, emit_pipeline_trace
        from repro.trace.tracer import Tracer

        timeline = PipelineIterationModel(
            self.plan, n_microbatches=PIPE_MICROBATCHES, schedule=schedule
        ).timeline()
        tracer = Tracer()
        emit_pipeline_trace(tracer, timeline)
        problems = []
        if timeline.makespan_s != tracer.end_time():
            problems.append("trace end differs from the walked makespan")
        return tracer, problems

    def _analyse(self, kind: str, tracer) -> list[str]:
        from repro.trace.critpath import build_graph, critical_path
        from repro.trace.whatif import project

        graph = build_graph(tracer)
        report = critical_path(graph)
        factors = {
            cls: self.rng.choice((0.5, 2.0)) for cls in WHATIF_CLASSES[kind]
        }
        projection = project(graph, factors)
        end = tracer.end_time()
        if self.perturb:
            end = math.nextafter(end, math.inf)
        problems = []
        if not report.end_to_end_s == projection.baseline_s == end:
            problems.append(
                f"identity projection {projection.baseline_s!r} != recorded end {end!r}"
            )
        if not (math.isfinite(projection.projected_s) and projection.projected_s > 0):
            problems.append(f"projection {projection.projected_s!r}")
        return problems

    def _operation(self, kind: str, arg) -> list[str]:
        run = {"serve": self._serve, "dp": self._dp, "pipeline": self._pipeline}[kind]
        tracer, problems = run(*arg)
        return problems + self._analyse(kind, tracer)

    def operations(self, index: int) -> list[tuple[str, object]]:
        ops = [("serve", (profile, load)) for profile in ("poisson", "bursty")
               for load in SERVE_LOADS]
        ops += [("dp", (ranks,)) for ranks in DP_RANKS]
        ops += [("pipeline", (schedule,)) for schedule in ("1f1b", "fill_drain")]
        self.rng.shuffle(ops)
        return [
            ("/".join(map(str, (kind, *arg))),
             functools.partial(self._operation, kind, arg))
            for kind, arg in ops
        ]


WORKLOADS = {
    "paper_tables": PaperTables,
    "train_exec": TrainExec,
    "trace_timelines": TraceTimelines,
}


def write_references() -> None:
    """Regenerate ``refs/paper_tables.json`` and ``refs/train_exec.json``.

    Only for a deliberate change of simulated results: the references are
    what every later run is checked against.
    """
    tables: dict[str, dict] = {}
    for name, (generate, key) in paper_operations().items():
        values = flatten(generate(), key)
        problem = compare(values, values)
        if problem:
            raise ValueError(f"{name}: {problem}")
        tables.setdefault(name.partition("/")[0], {}).update(values)
    streams = {}
    for stream in range(N_STREAMS):
        dp, problems = train_dp(stream)
        baseline, more = train_baseline(stream)
        problems += more + train_pipeline(stream, "1f1b", baseline)
        if problems:
            raise ValueError(f"stream {stream}: {problems}")
        streams[str(stream)] = {"dp": dp, "baseline": digest(baseline.params)}
    for name, data in (("paper_tables.json", tables), ("train_exec.json", streams)):
        with open(REFS / name, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
