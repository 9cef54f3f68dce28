"""Critical-path profiler overhead: disabled tracing must cost exactly nothing.

The committed baseline pins ``overhead_sim_s`` at ``0.0``: the simulated
time of a training run is identical with and without a tracer installed —
instrumentation reads the clock, it never advances it (the tracing analogue
of the fault plane's zero-overhead contract). The second case records the
deterministic size and identity-schedule end time of the dependency graph
built from a 16-rank traced data-parallel step — the Fig. 10/11 iteration
of :class:`~repro.parallel.ssgd.SSGDIterationModel`, with its local reduce,
barrier, allreduce and SGD update — so graph-construction changes (dropped
edges, altered chaining) show up in the bench diff, and its wall time
tracks the build cost itself.
"""

from repro.frame.model_zoo import lenet
from repro.frame.solver import SGDSolver
from repro.trace.critpath import build_graph, schedule
from repro.trace.session import trace_training_step
from repro.trace.tracer import tracing

ITERS = 2


def test_tracing_disabled_overhead_is_zero(benchmark):
    def run():
        off = SGDSolver(lenet.build(batch_size=16), base_lr=0.005, momentum=0.9)
        s_off = off.step(ITERS)
        with tracing():
            on = SGDSolver(lenet.build(batch_size=16), base_lr=0.005, momentum=0.9)
            s_on = on.step(ITERS)
        return s_off, s_on

    s_off, s_on = benchmark(run)
    overhead = abs(s_on.simulated_time_s - s_off.simulated_time_s)
    assert overhead == 0.0
    benchmark.record("overhead_sim_s", overhead, "s")


def test_graph_build_on_fig10_sized_trace(benchmark):
    def run():
        net = lenet.build(batch_size=16)
        tracer, _ = trace_training_step(net, ranks=16, iterations=1)
        graph = build_graph(tracer)
        return tracer, graph, schedule(graph)

    tracer, graph, sched = benchmark(run)
    # The identity schedule reproduces the recorded end time bitwise.
    assert sched.end_to_end_s == tracer.end_time()
    benchmark.record("trace_spans", float(len(tracer.spans)), "spans")
    benchmark.record("graph_nodes", float(len(graph.nodes)), "nodes")
    benchmark.record("graph_edges", float(len(graph.edges)), "edges")
    benchmark.record("end_to_end_sim_s", sched.end_to_end_s, "s")
