"""Scalability study (paper Figs. 10-11).

Sweeps node counts for each (network, sub-mini-batch) configuration and
reports weak-scaling speedups and communication fractions. Configurations
default to the paper's: AlexNet with sub-mini-batch 64/128/256 and
ResNet-50 with 32/64, on supernodes of 256 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.parallel.ssgd import SSGDIterationModel


#: The node counts plotted in Fig. 10/11 (powers of two, 2..1024).
PAPER_NODE_COUNTS = (2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class ScalingPoint:
    """One (config, node-count) sample of the study."""

    label: str
    n_nodes: int
    iteration_s: float
    speedup: float
    comm_fraction: float
    #: Allreduce seconds hidden behind backward (0 for the fused path).
    overlap_hidden_s: float = 0.0


@dataclass
class ScalingStudy:
    """Collects scaling curves for several training configurations."""

    node_counts: tuple[int, ...] = PAPER_NODE_COUNTS
    configs: dict[str, SSGDIterationModel] = field(default_factory=dict)

    def add_config(self, label: str, model: SSGDIterationModel) -> None:
        """Register a (net, batch) configuration under ``label``."""
        if label in self.configs:
            raise ValueError(f"duplicate scaling config {label!r}")
        self.configs[label] = model

    def run(self) -> list[ScalingPoint]:
        """Evaluate every config at every node count."""
        points: list[ScalingPoint] = []
        for label, model in self.configs.items():
            for n in self.node_counts:
                breakdown = model.breakdown(n)
                points.append(
                    ScalingPoint(
                        label=label,
                        n_nodes=n,
                        iteration_s=breakdown.total_s,
                        speedup=model.speedup(n),
                        comm_fraction=breakdown.comm_fraction,
                        overlap_hidden_s=breakdown.overlap_hidden_s,
                    )
                )
        return points
