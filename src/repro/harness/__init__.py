"""Experiment harnesses: one module per paper table/figure.

Every module exposes ``generate()`` returning structured rows/series and
``main()`` printing the paper-style output. ``tests/golden/harness_numbers.json``
pins their simulated numbers bit for bit, and EXPERIMENTS.md records
paper-vs-measured values for each.

| Module | Reproduces |
|---|---|
| ``table1_specs`` | Table I — processor comparison |
| ``fig2_dma`` | Fig. 2 — DMA bandwidth curves |
| ``fig6_network`` | Fig. 6 — Sunway vs Infiniband P2P |
| ``fig7_allreduce`` | Fig. 7 — 8-node allreduce example |
| ``table2_vgg_conv`` | Table II — VGG-16 conv plan comparison |
| ``fig8_alexnet_layers`` | Fig. 8 — AlexNet per-layer times |
| ``fig9_vgg_layers`` | Fig. 9 — VGG-16 per-layer times |
| ``table3_throughput`` | Table III — img/s on CPU/K40m/SW |
| ``fig10_scalability`` | Fig. 10 — speedup to 1024 nodes |
| ``fig11_comm_ratio`` | Fig. 11 — communication fractions |
| ``ablations`` | DESIGN.md §4 design-choice ablations |
| ``naive_port`` | Sec. III motivation: naive port vs redesign |
| ``roofline_report`` | extension — per-layer roofline attribution |
| ``report`` | run everything in paper order |
"""

__all__ = [
    "table1_specs",
    "fig2_dma",
    "fig6_network",
    "fig7_allreduce",
    "table2_vgg_conv",
    "fig8_alexnet_layers",
    "fig9_vgg_layers",
    "table3_throughput",
    "fig10_scalability",
    "fig11_comm_ratio",
    "ablations",
    "naive_port",
    "roofline_report",
    "report",
]
