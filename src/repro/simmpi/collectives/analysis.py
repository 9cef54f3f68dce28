"""Closed-form allreduce cost models (paper Eqs. 2-6).

These are the analytic expressions the paper derives with the Thakur et al.
alpha-beta-gamma model; the simulated collectives are property-tested to
match them exactly when run over the same :class:`LinearCostModel`, which is
the strongest evidence the simulation implements the algorithms the paper
analyzes.

All formulas assume ``p`` a power of two and ``q | p`` (clamped to
``q = p`` when the job fits in one supernode, which makes the original and
improved schemes coincide, as they should).
"""

from __future__ import annotations

import math

from repro.topology.cost_model import LinearCostModel


def _check(p: int, q: int) -> int:
    if p < 1 or (p & (p - 1)) != 0:
        raise ValueError(f"p must be a power of two, got {p}")
    q = min(q, p)
    if p % q != 0:
        raise ValueError(f"q={q} must divide p={p}")
    return q


def original_allreduce_cost(nbytes: float, p: int, q: int, model: LinearCostModel) -> float:
    """Eq. 2 with Eqs. 3-4: RHD allreduce under adjacent (block) numbering.

    ``t = 2 log(p) alpha + 2 [(q-1) beta1 + (p-q) beta2] n/p
    + gamma n (p-1)/p``.
    """
    q = _check(p, q)
    n = float(nbytes)
    if p == 1:
        return 0.0
    logp = math.log2(p)
    comm = 2 * ((q - 1) * model.beta1 + (p - q) * model.beta2) * n / p
    return 2 * logp * model.alpha + comm + model.gamma * n * (p - 1) / p


def improved_allreduce_cost(nbytes: float, p: int, q: int, model: LinearCostModel) -> float:
    """Eq. 2 with Eqs. 5-6: RHD allreduce under round-robin numbering.

    ``t = 2 log(p) alpha + 2 [(p - p/q) beta1 + (p/q - 1) beta2] n/p
    + gamma n (p-1)/p``.
    """
    q = _check(p, q)
    n = float(nbytes)
    if p == 1:
        return 0.0
    logp = math.log2(p)
    s = p // q
    comm = 2 * ((p - s) * model.beta1 + (s - 1) * model.beta2) * n / p
    return 2 * logp * model.alpha + comm + model.gamma * n * (p - 1) / p


def stepwise_rhd_cost(
    nbytes: float,
    p: int,
    q: int,
    network,
    gamma: float,
    placement: str = "round-robin",
) -> float:
    """RHD allreduce priced step by step with a size-dependent network curve.

    The linear closed forms above assume one beta per link class; real
    messages shrink geometrically through the halving phase, and the
    achieved bandwidth depends on the message size (Fig. 6). This walks the
    2 log(p) steps, pricing each with ``network.ptp_time(step_bytes,
    oversubscribed=...)`` where oversubscription is decided by the step's
    logical distance and the placement scheme — the pricing used by the
    Fig. 10/11 scaling study, where per-rank chunks are only hundreds of
    kilobytes.

    Parameters
    ----------
    network:
        A :class:`~repro.topology.cost_model.NetworkModel`.
    gamma:
        Local reduction seconds/byte.
    placement:
        ``"round-robin"`` (the paper's scheme: distances that are multiples
        of the supernode count stay local) or ``"block"`` (the MPICH
        default: distances >= q cross supernodes).
    """
    if p < 1 or (p & (p - 1)) != 0:
        raise ValueError(f"p must be a power of two, got {p}")
    if placement not in ("round-robin", "block"):
        raise ValueError(f"unknown placement {placement!r}")
    q = min(q, p)
    if p % q != 0:
        raise ValueError(f"q={q} must divide p={p}")
    if p == 1:
        return 0.0
    n = float(nbytes)
    s = p // q
    total = 0.0
    d = p // 2
    size = n / 2.0
    while d >= 1:
        if placement == "round-robin":
            cross = s > 1 and d % s != 0
        else:
            cross = d >= q
        step = network.ptp_time(size, oversubscribed=cross)
        # Reduce-scatter step also reduces the received half; the mirror
        # allgather step moves the same bytes without reduction.
        total += (step + gamma * size) + step
        d //= 2
        size /= 2.0
    return total
