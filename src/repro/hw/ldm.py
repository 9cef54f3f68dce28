"""Local Directive Memory (LDM) allocator.

Each CPE has 64 KiB of software-managed scratchpad. Kernel plans must
explicitly budget every buffer they stage there; this allocator enforces the
capacity limit (the paper's blocking parameters all derive from it) and
tracks the high-water mark so tests can assert a plan's declared footprint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LDMAllocationError
from repro.hw.spec import SW_PARAMS
from repro.trace.tracer import active as _tracer


@dataclass(frozen=True)
class LDMBuffer:
    """A named reservation inside one CPE's LDM."""

    name: str
    nbytes: int
    offset: int


class LDMAllocator:
    """Bump allocator over a single CPE's LDM.

    Parameters
    ----------
    capacity:
        LDM size in bytes (default: the SW26010's 64 KiB).
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = int(SW_PARAMS.ldm_bytes if capacity is None else capacity)
        if self.capacity <= 0:
            raise ValueError("LDM capacity must be positive")
        self._buffers: dict[str, LDMBuffer] = {}
        self._used = 0
        self._high_water = 0

    @property
    def used(self) -> int:
        """Bytes currently allocated."""
        return self._used

    @property
    def free(self) -> int:
        """Bytes still available."""
        return self.capacity - self._used

    @property
    def high_water(self) -> int:
        """Largest simultaneous allocation seen since construction/reset."""
        return self._high_water

    def alloc(self, name: str, nbytes: int) -> LDMBuffer:
        """Reserve ``nbytes`` under ``name``.

        Raises
        ------
        LDMAllocationError
            If the buffer does not fit or the name is already taken.
        """
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("buffer size must be non-negative")
        if name in self._buffers:
            raise LDMAllocationError(f"LDM buffer {name!r} already allocated")
        if self._used + nbytes > self.capacity:
            raise LDMAllocationError(
                f"LDM overflow allocating {name!r}: need {nbytes} B, "
                f"free {self.free} B of {self.capacity} B"
            )
        buf = LDMBuffer(name=name, nbytes=nbytes, offset=self._used)
        self._buffers[name] = buf
        self._used += nbytes
        self._high_water = max(self._high_water, self._used)
        tr = _tracer()
        if tr.enabled:
            tr.instant_event(
                f"ldm_alloc {name}", "ldm_alloc", track="ldm",
                args={"nbytes": nbytes, "used": self._used, "free": self.free},
            )
        return buf

    def require(self, name: str, nbytes: int) -> LDMBuffer:
        """Like :meth:`alloc`, but idempotent for an identical existing buffer."""
        existing = self._buffers.get(name)
        if existing is not None:
            if existing.nbytes != int(nbytes):
                raise LDMAllocationError(
                    f"LDM buffer {name!r} re-requested with different size "
                    f"({existing.nbytes} B vs {nbytes} B)"
                )
            return existing
        return self.alloc(name, nbytes)

    def free_buffer(self, name: str) -> None:
        """Release a named buffer (space is reclaimed in bulk, bump-style)."""
        buf = self._buffers.pop(name, None)
        if buf is None:
            raise LDMAllocationError(f"LDM buffer {name!r} is not allocated")
        self._used -= buf.nbytes
        # Note: a bump allocator does not compact; `offset` values of live
        # buffers stay valid, which is all the cost model needs.

    def reset(self) -> None:
        """Drop all buffers (high-water mark is preserved)."""
        self._buffers.clear()
        self._used = 0

    def fits(self, nbytes: int) -> bool:
        """Whether an additional buffer of ``nbytes`` would fit right now."""
        return self._used + int(nbytes) <= self.capacity

    def __contains__(self, name: str) -> bool:
        return name in self._buffers

    def __getitem__(self, name: str) -> LDMBuffer:
        return self._buffers[name]
