"""Budgeted retry with exponential backoff and deterministic jitter.

Backoff delays are charged on the **virtual** clock, so retries cost
simulated time (and show up in the chaos harness's overhead numbers)
without slowing the host.  Jitter is derived from
:func:`repro.util.rng.derive_seed` over the (stage, checkpoint, attempt)
label path — two runs with the same seed back off identically, which keeps
fault-injected runs reproducible.
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from repro.errors import TransientTransferError
from repro.util.rng import derive_seed

_DENOM = float(1 << 64)
T = TypeVar("T")

#: retries (beyond the first attempt) per transfer leg for
#: TransientTransferErrors.
MAX_RETRIES = 4
#: backoff before retry k (0-based) is
#: ``min(BACKOFF_BASE_S * BACKOFF_FACTOR**k, BACKOFF_MAX_S)`` nominal
#: seconds, plus up to ``JITTER`` of itself (deterministic draw).
BACKOFF_BASE_S = 0.05
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 2.0
JITTER = 0.25


class RetryPolicy:
    """The deterministic backoff schedule of one run's retries."""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def backoff(self, attempt: int, *labels) -> float:
        """Nominal seconds to sleep before retry ``attempt`` (0-based)."""
        base = min(BACKOFF_BASE_S * (BACKOFF_FACTOR ** attempt), BACKOFF_MAX_S)
        jitter = derive_seed(self.seed, "jitter", *labels, attempt) / _DENOM
        return base * (1.0 + JITTER * jitter)


def run_with_retries(
    fn: Callable[[], T],
    *,
    policy: Optional[RetryPolicy],
    clock,
    labels: tuple,
    on_retry: Optional[Callable[[int, float, Exception], None]] = None,
    should_abort: Optional[Callable[[], bool]] = None,
    on_attempt: Optional[Callable[[bool], None]] = None,
) -> T:
    """Run ``fn`` retrying :class:`TransientTransferError` up to
    ``MAX_RETRIES`` times.

    Non-transient errors (cancellation ``TransferError``, lifecycle errors)
    propagate immediately.  With ``policy=None`` a transient error
    propagates too, to a caller that re-resolves its source instead.
    ``on_attempt(succeeded)`` sees the outcome of every attempt, policy or
    not (a circuit-breaker feed).  ``on_retry(attempt, delay, exc)`` takes
    over the back-off from the default ``clock.sleep(delay)``: it must sleep
    ``delay`` itself (the flusher does so inside a trace stage, after
    counting the retry).
    """
    attempt = 0
    while True:
        try:
            result = fn()
        except TransientTransferError as exc:
            if on_attempt is not None:
                on_attempt(False)
            if (
                policy is None
                or attempt >= MAX_RETRIES
                or (should_abort is not None and should_abort())
            ):
                raise
            delay = policy.backoff(attempt, *labels)
            if on_retry is None:
                clock.sleep(delay)
            else:
                on_retry(attempt, delay, exc)
            attempt += 1
            continue
        if on_attempt is not None:
            on_attempt(True)
        return result
