"""Online access-pattern prediction (hint-less prefetch & eviction).

When :class:`~repro.config.PredictConfig` is enabled the engine's restore
hint queue becomes a :class:`~repro.predict.queue.SyntheticRestoreQueue`:
explicit hints keep absolute priority and a revocable *predicted overlay*
— produced by a pluggable :class:`~repro.predict.predictors.Predictor`
from the :class:`~repro.predict.history.AccessHistory` ring — feeds the
same prefetcher and Algorithm-1 eviction scoring through the unchanged
``RestoreQueue`` interface.  Predicted entries always travel in the
sched speculative class, and the PhoenixOS-style
:class:`~repro.predict.validation.SpeculationValidator` scores each
speculative staging on consume/abandon and suspends speculation
(demand-only fallback) when the hit rate drops below a floor.
"""

from repro.predict.history import AccessEvent, AccessHistory
from repro.predict.predictors import (
    Candidate,
    HybridPredictor,
    MarkovPredictor,
    Prediction,
    Predictor,
    RecencyPredictor,
    build_predictor,
)
from repro.predict.queue import SyntheticRestoreQueue
from repro.predict.runtime import PredictRuntime
from repro.predict.validation import SpeculationValidator

__all__ = [
    "AccessEvent",
    "AccessHistory",
    "Candidate",
    "HybridPredictor",
    "MarkovPredictor",
    "Prediction",
    "Predictor",
    "RecencyPredictor",
    "SpeculationValidator",
    "SyntheticRestoreQueue",
    "PredictRuntime",
    "build_predictor",
]
