"""Extension: allreduce algorithm sweep over message sizes.

Complements Fig. 7: for a fixed 64-node / 4-supernode allocation, sweeps
the gradient payload from 1 KB to 64 MB and reports each algorithm's
simulated time — showing the latency-vs-bandwidth regimes (ring's p*alpha
penalty, the tree's log(p)-times-n bandwidth penalty, RHD's balance) and
the constant factor the round-robin renumbering removes at every size.

Each point replays the algorithm's schedule on a fresh communicator, the
accounting the executed collective charges before it moves any data, so
the times equal the executed ones bit for bit while no rank buffer is
allocated (``tests/test_trace_integration.py`` pins the equality).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simmpi import SimComm, block_placement, round_robin_placement
from repro.simmpi.collectives.binomial import binomial_schedule
from repro.simmpi.collectives.reduce_ops import replay
from repro.simmpi.collectives.rhd import rhd_schedule
from repro.simmpi.collectives.ring import ring_schedule
from repro.topology import LinearCostModel, TaihuLightFabric
from repro.utils.tables import Table

P, Q = 64, 16
MODEL = LinearCostModel(alpha=1e-6, beta1=1 / 10e9, beta2=4 / 10e9, gamma=3e-11)
SIZES = tuple(1024 * 4**i for i in range(9))  # 1 KB .. 64 MB

ALGOS = (
    ("ring", ring_schedule, "block"),
    ("binomial", binomial_schedule, "block"),
    ("rhd (block)", rhd_schedule, "block"),
    ("rhd (round-robin)", rhd_schedule, "round-robin"),
)


@dataclass(frozen=True)
class SweepPoint:
    algorithm: str
    nbytes: int
    time_s: float


def generate(sizes: tuple[int, ...] = SIZES) -> list[SweepPoint]:
    """Time every algorithm at every payload size of float64 elements.

    Replays each algorithm's schedule (the rounds, pairs and bytes the
    executed collective charges) rather than moving data.
    """
    fabric = TaihuLightFabric(n_nodes=P, nodes_per_supernode=Q)
    points = []
    for nbytes in sizes:
        n_elems = max(P, nbytes // 8)
        for name, schedule, placement in ALGOS:
            pl = (
                block_placement(P, Q)
                if placement == "block"
                else round_robin_placement(P, Q)
            )
            comm = SimComm(fabric, pl, cost=MODEL)
            result = replay(comm, schedule(P, n_elems, 8))
            points.append(SweepPoint(name, nbytes, result.time_s))
    return points


def render(points: list[SweepPoint] | None = None) -> str:
    points = points if points is not None else generate()
    names = [a[0] for a in ALGOS]
    sizes = sorted({p.nbytes for p in points})
    table = Table(
        headers=["bytes"] + names,
        title=f"Extension: allreduce sweep, {P} nodes in {P // Q} supernodes (us)",
    )
    lookup = {(p.algorithm, p.nbytes): p.time_s for p in points}
    for n in sizes:
        table.add_row(n, *(round(lookup[(name, n)] * 1e6, 1) for name in names))
    return table.render()


def main() -> None:  # pragma: no cover
    print(render())


if __name__ == "__main__":  # pragma: no cover
    main()
