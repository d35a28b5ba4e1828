"""Fault injection (:class:`FaultConfig`) and the self-healing that always
answers it.

* **Injection** (:mod:`repro.faults.plan`, :mod:`repro.faults.injector`) —
  a deterministic, seeded :class:`FaultPlan` injecting transient link
  faults (fail mid-transfer, partial bytes charged on the virtual clock),
  tier outage/brownout windows, at-rest blob corruption, and one-shot
  process-crash points between flush stages.  A plan that injects nothing
  attaches nothing (``tests/test_faults_equivalence.py``).

* **Handling** (:mod:`repro.faults.health`, :mod:`repro.faults.retry`,
  :mod:`repro.faults.recipes`), armed in every runtime — budgeted
  exponential-backoff retries with deterministic jitter, per-tier circuit
  breakers that reroute the flush cascade around a dark tier (with
  catch-up backfill), post-flush CRC re-verification with re-flush,
  restore-time corruption repair, and the durable chunk-recipe sidecar
  ``recover_history()`` rebuilds reduced checkpoints from after a crash.
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
