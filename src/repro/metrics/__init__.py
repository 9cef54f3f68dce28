"""``repro.metrics`` — roofline attribution, the metrics report and the
benchmark pipeline.

Three pieces (see ``docs/observability.md``), imported from their modules:

* the **roofline analyzer** (:mod:`repro.metrics.roofline`): classifies
  every priced kernel and layer as compute-, DMA- or RLC-bound with its
  achieved fraction of the respective hardware ceiling;
* the **metrics report** (:mod:`repro.metrics.session`, behind ``python -m
  repro metrics <net>``): per-resource utilization of the traced training
  step, its roofline table and a counters block written from what the run
  returns (:mod:`repro.metrics.registry`; no registry is ambient and no
  simulator hook feeds one), plus a Perfetto export whose counter tracks
  are derived from the spans (:mod:`repro.metrics.export`);
* the **benchmark pipeline** (:mod:`repro.metrics.benchfmt` /
  :mod:`repro.metrics.benchrun`): the shared runner that writes every
  ``benchmarks/bench_*`` result as a versioned ``BENCH_<suite>.json``,
  diffable by ``tools/bench_compare.py``.
"""
