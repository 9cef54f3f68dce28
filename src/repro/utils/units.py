"""Byte/time unit constants and human-readable formatting.

All simulated quantities in this package use SI seconds and plain byte
counts; these helpers keep conversion factors in one place so cost models
never embed magic numbers.
"""

from __future__ import annotations

# Binary byte units (used for on-chip memories: LDM, caches).
KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

# Decimal byte units (used for bandwidths quoted in GB/s, as in the paper).
KB = 1000
MB = 1000 * KB
GB = 1000 * MB

# Time units, in seconds.
US = 1e-6
MS = 1e-3


def format_bytes(n: float) -> str:
    """Render a byte count with a binary suffix (``1536 -> '1.5 KiB'``)."""
    n = float(n)
    for unit, suffix in ((GiB, "GiB"), (MiB, "MiB"), (KiB, "KiB")):
        if abs(n) >= unit:
            return f"{n / unit:.4g} {suffix}"
    return f"{n:.0f} B"


def format_time(seconds: float) -> str:
    """Render a duration with an adaptive unit (``3.2e-5 -> '32 us'``)."""
    s = float(seconds)
    if abs(s) >= 1.0:
        return f"{s:.4g} s"
    if abs(s) >= MS:
        return f"{s / MS:.4g} ms"
    if abs(s) >= US:
        return f"{s / US:.4g} us"
    return f"{s / 1e-9:.4g} ns"
