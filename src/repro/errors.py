"""Exception hierarchy for the checkpoint runtime.

All runtime-raised exceptions derive from :class:`ReproError` so callers can
catch library failures without masking programming errors (``TypeError`` etc.
are still raised directly for misuse of the API surface).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` runtime."""


class ConfigError(ReproError):
    """A configuration value is inconsistent or out of range."""


class AllocationError(ReproError):
    """A cache arena or device allocation could not be satisfied."""


class CapacityError(AllocationError):
    """The requested object can never fit the tier, even when empty."""


class FragmentationError(AllocationError):
    """No eviction window can produce a large-enough contiguous gap."""


class LifecycleError(ReproError):
    """An invalid checkpoint state transition was attempted."""


class CheckpointNotFound(ReproError):
    """The requested checkpoint version does not exist on any tier."""


class IntegrityError(ReproError):
    """Restored payload bytes do not match the recorded checksum."""


class EngineClosedError(ReproError):
    """An operation was issued after the engine was shut down."""


class HintError(ReproError):
    """A prefetch hint is invalid (e.g. enqueued after being consumed)."""


class TransferError(ReproError):
    """An asynchronous transfer failed or was cancelled unexpectedly."""


class TransientTransferError(TransferError):
    """A transfer failed mid-flight for a recoverable reason (injected
    link fault, tier brownout); retrying the same transfer may succeed.
    Carries ``bytes_moved`` so callers can account partial progress, and
    ``link``, the link whose fault fired (``None`` when no link raised it)."""

    link = None

    def __init__(self, message: str, bytes_moved: int = 0):
        super().__init__(message)
        self.bytes_moved = bytes_moved


class TierOfflineError(TransientTransferError):
    """The target tier is inside an outage window (or its circuit breaker
    is open); the operation may succeed on another tier or after the
    window ends."""


class FlushTimeoutError(TransferError):
    """``wait_for_flushes`` exceeded its timeout; the message carries the
    queue depths and in-flight transfer state needed to diagnose the stall."""


class UvmError(ReproError):
    """Unified-virtual-memory simulation misuse (bad advice, OOB access)."""


class InjectedCrash(ReproError):
    """A :class:`~repro.config.FaultConfig` crash point fired: the engine
    process is considered dead from this instant.  Every subsequent engine
    operation fails until a new engine is incarnated over the same cluster
    and ``recover_history()`` replays the durable manifest."""
