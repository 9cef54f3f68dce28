"""Communication cost models for the TaihuLight network.

Two granularities are provided:

* :class:`LinearCostModel` — the textbook alpha-beta-gamma model the paper
  adopts from Thakur, Rabenseifner & Gropp for its allreduce analysis
  (Eqs. 2-6): message time = ``alpha + beta * n``; local reduction costs
  ``gamma`` per byte. Intra-supernode traffic pays ``beta1``; traffic across
  over-subscribed supernode boundaries pays ``beta2 = 4 * beta1`` (the
  central switching network is provisioned at 1/4 bandwidth).

* :class:`NetworkModel` — a size-dependent curve (saturating bandwidth plus
  fixed startup latency) calibrated to the measured P2P behaviour in Fig. 6,
  used for realistic end-to-end message pricing and for regenerating the
  figure itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import GB, US


#: Over-subscription factor of the central switching network (Sec. II-B:
#: "designed to use only a quarter of the potential bandwidth").
OVERSUBSCRIPTION = 4.0


@dataclass(frozen=True)
class LinearCostModel:
    """Alpha-beta-gamma model (Thakur et al.) for collective analysis.

    Attributes
    ----------
    alpha:
        Per-message startup latency in seconds.
    beta1:
        Transfer seconds per byte inside one supernode.
    beta2:
        Transfer seconds per byte across over-subscribed supernode links
        (``~ 4 * beta1`` on TaihuLight).
    gamma:
        Local reduction seconds per byte (depends on whether the sum runs
        on the MPE or on the CPE clusters; see :mod:`repro.parallel.packing`).
    """

    alpha: float
    beta1: float
    beta2: float
    gamma: float

    def ptp_time(self, nbytes: float, *, cross_supernode: bool = False) -> float:
        """Time to send one ``nbytes`` message point-to-point."""
        beta = self.beta2 if cross_supernode else self.beta1
        return self.alpha + beta * float(nbytes)

    def reduce_time(self, nbytes: float) -> float:
        """Time to locally reduce ``nbytes`` of received data."""
        return self.gamma * float(nbytes)


@dataclass(frozen=True)
class NetworkModel:
    """Size-dependent P2P model: startup latency + saturating bandwidth.

    ``bandwidth(n) = peak * n / (n + n_half)`` and
    ``time(n) = alpha + n / bandwidth(n)``. The ``n_half`` knee controls how
    quickly the curve ramps; the Sunway network ramps more slowly than
    Infiniband FDR, which is exactly the paper's observation that SW latency
    exceeds IB latency for messages larger than ~2 KB while peak bandwidth
    is higher.
    """

    name: str
    alpha: float
    peak_bw_uni: float
    peak_bw_bi: float
    n_half: float

    def bandwidth(self, nbytes: float, *, bidirectional: bool = False, oversubscribed: bool = False) -> float:
        """Achieved bandwidth in bytes/s for an ``nbytes`` message."""
        n = float(nbytes)
        if n <= 0:
            return 0.0
        peak = self.peak_bw_bi if bidirectional else self.peak_bw_uni
        if oversubscribed:
            peak /= OVERSUBSCRIPTION
        return peak * n / (n + self.n_half)

    def ptp_time(self, nbytes: float, *, oversubscribed: bool = False) -> float:
        """End-to-end time (the "latency" curve of Fig. 6) for one message."""
        n = float(nbytes)
        if n <= 0:
            return self.alpha
        return self.alpha + n / self.bandwidth(n, oversubscribed=oversubscribed)

    def effective_beta(self, nbytes: float, *, oversubscribed: bool = False) -> float:
        """Per-byte transfer time at a given message size (for Eqs. 2-6)."""
        return 1.0 / self.bandwidth(max(float(nbytes), 1.0), oversubscribed=oversubscribed)

    def to_linear(self, nbytes: float, gamma: float) -> LinearCostModel:
        """Freeze this curve at one message size into a linear model."""
        beta1 = self.effective_beta(nbytes)
        return LinearCostModel(
            alpha=self.alpha, beta1=beta1, beta2=beta1 * OVERSUBSCRIPTION, gamma=gamma
        )


#: The Sunway TaihuLight network, calibrated to Sec. II-B / Fig. 6:
#: theoretical 16 GB/s per link, ~12 GB/s achieved with MPI for very large
#: messages, microsecond startup latency, and a slow bandwidth ramp — the
#: measured latency curve sits above Infiniband FDR's for every message
#: larger than ~2 KB even though the Sunway link peaks higher. Only Fig. 6
#: plots it; simulated communicators price on the collective curve below.
SW_NETWORK = NetworkModel(
    name="Sunway",
    alpha=1.0 * US,
    peak_bw_uni=12 * GB,
    peak_bw_bi=20 * GB,
    n_half=1.75e6,
)

#: Effective network curve for *collective* operations at scale, used by
#: the Fig. 10/11 scaling study and, as the :class:`TaihuLightFabric`
#: default, by every simulated communicator. MPI collectives on TaihuLight
#: achieve far less than the P2P link peak (the paper's own Fig. 6 latency
#: panel shows ~0.6 GB/s effective at 2 MB messages), and the paper's measured
#: communication fractions at 1024 nodes (Fig. 11: AlexNet ~1.1 s, ResNet-50
#: ~0.69 s per 232.6 / 97.7 MB allreduce) pin the effective per-link
#: collective bandwidth at ~0.65 GB/s with a multi-megabyte half-saturation
#: knee and ~1 ms of software overhead per collective step. See
#: EXPERIMENTS.md ("Fig. 10/11 calibration") for the derivation.
SW_COLLECTIVE_NETWORK = NetworkModel(
    name="Sunway-collective",
    alpha=1.0e-3,
    peak_bw_uni=0.651 * GB,
    peak_bw_bi=1.1 * GB,
    n_half=7.4e6,
)

#: Default linear model for allreduce analysis at large message sizes:
#: beta1 from the 12 GB/s achieved bandwidth, beta2 four times that, gamma
#: for an MPE-side reduction (the baseline the paper improves on).
SW_LINEAR = LinearCostModel(
    alpha=1.0 * US,
    beta1=1.0 / (12 * GB),
    beta2=OVERSUBSCRIPTION / (12 * GB),
    gamma=1.0 / (3.3 * GB),
)
