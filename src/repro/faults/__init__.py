"""Fault injection and self-healing recovery (:class:`FaultConfig` /
:class:`ResilienceConfig`).

The subsystem has two halves that compose but do not require each other:

* **Injection** (:mod:`repro.faults.plan`, :mod:`repro.faults.injector`) —
  a deterministic, seeded :class:`FaultPlan` injecting transient link
  faults (fail mid-transfer, partial bytes charged on the virtual clock),
  tier outage/brownout windows, at-rest blob corruption, and one-shot
  process-crash points between flush stages.

* **Handling** (:mod:`repro.faults.health`, :mod:`repro.faults.retry`,
  :mod:`repro.faults.recipes`) — budgeted exponential-backoff retries with
  deterministic jitter, per-tier circuit breakers that reroute the flush
  cascade around a dark tier (with catch-up backfill), post-flush CRC
  re-verification with re-flush, and the durable chunk-recipe sidecar
  ``recover_history()`` rebuilds reduced checkpoints from after a crash.

Both default off and are bit-identical to the pre-subsystem runtime when
disabled (``tests/test_faults_equivalence.py``).
"""

from repro.faults.health import CircuitBreaker, HealthRegistry
from repro.faults.injector import FaultDomain, LinkFaultInjector
from repro.faults.plan import FaultPlan
from repro.faults.recipes import RecipeStore
from repro.faults.retry import RetryPolicy, run_with_retries

__all__ = [
    "CircuitBreaker",
    "FaultDomain",
    "FaultPlan",
    "HealthRegistry",
    "LinkFaultInjector",
    "RecipeStore",
    "RetryPolicy",
    "run_with_retries",
]
