"""Table III: training throughput (img/s) on CPU, K40m and SW26010.

Reads each of the paper's five networks at its paper batch size from its
priced record (:func:`~repro.perf.layer_cost.net_record`: a full training
iteration on all three device models) and reports throughputs plus the
SW/NV and SW/CPU ratios — the headline comparison of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frame.model_zoo import PAPER_NETWORKS
from repro.perf.layer_cost import net_record
from repro.utils.tables import Table


@dataclass(frozen=True)
class ThroughputRow:
    """One network's throughput comparison."""

    network: str
    batch: int
    cpu_img_s: float
    gpu_img_s: float
    sw_img_s: float

    @property
    def sw_over_gpu(self) -> float:
        return self.sw_img_s / self.gpu_img_s

    @property
    def sw_over_cpu(self) -> float:
        return self.sw_img_s / self.cpu_img_s


def generate(networks: dict | None = None) -> list[ThroughputRow]:
    """Throughput rows for every configured network."""
    networks = networks if networks is not None else PAPER_NETWORKS
    rows = []
    for name, (builder, batch) in networks.items():
        record = net_record(builder, batch)
        rows.append(
            ThroughputRow(
                network=name,
                batch=batch,
                cpu_img_s=record.throughput("cpu"),
                gpu_img_s=record.throughput("k40m"),
                sw_img_s=record.throughput("sw26010"),
            )
        )
    return rows


def render(rows: list[ThroughputRow] | None = None) -> str:
    rows = rows if rows is not None else generate()
    table = Table(
        headers=["network", "batch", "CPU", "NV K40m", "SW", "SW/NV", "SW/CPU"],
        title="Table III: training throughput (img/sec)",
    )
    for r in rows:
        table.add_row(
            r.network, r.batch,
            round(r.cpu_img_s, 2), round(r.gpu_img_s, 2), round(r.sw_img_s, 2),
            round(r.sw_over_gpu, 2), round(r.sw_over_cpu, 2),
        )
    return table.render()


def main() -> None:  # pragma: no cover
    print(render())


if __name__ == "__main__":  # pragma: no cover
    main()
