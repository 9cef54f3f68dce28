"""Package-wide exception types."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class LDMAllocationError(ReproError):
    """Raised when a kernel plan requests more LDM than a CPE provides."""


class PlanError(ReproError):
    """Raised when a kernel plan cannot be constructed for a given shape."""


class ShapeError(ReproError):
    """Raised when layer/blob shapes are inconsistent."""


class FillerError(ReproError, ValueError):
    """Raised when a layer names a weight filler that does not exist.

    Checked when the layer is constructed, before any weight fill is
    queued. Subclasses :class:`ValueError`, which the unchecked filler
    used to raise from deep inside ``reshape``.
    """


class CommunicatorError(ReproError):
    """Raised on invalid simulated-MPI usage (bad rank, mismatched buffers)."""


class SnapshotMismatchError(ReproError):
    """Raised when a snapshot's stored state contradicts the requested path.

    E.g. loading ``model_iter_300.npz`` whose stored iteration counter says
    200: silently resuming from the wrong point corrupts a recovery, so the
    mismatch fails loudly instead.
    """


class TraceError(ReproError):
    """Base class for tracing errors (:mod:`repro.trace`)."""


class SpanValidationError(TraceError, ValueError):
    """Raised when a span's geometry is malformed at record time.

    Negative durations (``end < start``), NaN and infinite durations, and
    non-finite start times are all rejected when the span is emitted —
    silently recording them would export malformed Chrome JSON and poison
    the critical-path graph downstream. Subclasses :class:`ValueError` so
    callers that predate the typed hierarchy keep working.
    """


class CritPathError(TraceError):
    """Raised when a critical-path graph is inconsistent (e.g. a cycle)."""


class FaultError(ReproError):
    """Base class for injected-fault and recovery errors (:mod:`repro.faults`)."""


class CollectiveTimeout(FaultError):
    """A collective step timed out waiting on crashed rank(s).

    Carries the set of logical ranks the communicator declared dead so the
    elastic trainer can shrink around exactly those ranks.
    """

    def __init__(self, message: str, ranks: frozenset[int] = frozenset()) -> None:
        super().__init__(message)
        self.ranks = frozenset(ranks)
