"""Synthetic restore queue: explicit hints + a revocable predicted overlay.

The prefetcher, the Algorithm-1 eviction scoring and the engine all talk
to :class:`~repro.core.restore_queue.RestoreQueue` through ``head`` /
``upcoming`` / ``distance`` / ``is_hinted`` / ``__len__``; this subclass
keeps that interface intact while appending a *predicted overlay* after
every live explicit hint.  Key differences from explicit hints:

* the overlay is **revocable** — every :meth:`refresh` replaces it
  wholesale with the predictor's latest ranking (hints can never be
  revoked);
* explicit hints always outrank predictions: a predicted id that later
  receives a real hint silently migrates to the explicit order, and the
  synthetic distance of every overlay entry starts past the last live
  explicit hint;
* consuming a predicted entry does not count as a hint deviation — the
  validation layer scores speculation instead;
* a non-empty overlay auto-starts the queue, so learned mode needs no
  ``prefetch_start()`` call.

Distance-map compatibility: Algorithm 1's scan reads every distance from
:meth:`hint_index`, which covers overlay ids and is rebuilt after each
``shift_epoch`` bump.  So every change that moves an existing distance bumps
it: a refresh that reorders the overlay, an overlay entry leaving, and an
explicit enqueue while the overlay is non-empty (the new hint ranks ahead of
every overlay entry).  All methods require the engine monitor.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.core.restore_queue import RestoreQueue
from repro.errors import HintError

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry import Telemetry


class SyntheticRestoreQueue(RestoreQueue):
    """Hint queue with a confidence-weighted predicted overlay."""

    def __init__(self, telemetry: Optional["Telemetry"] = None) -> None:
        super().__init__(telemetry=telemetry)
        self._syn_order: List[int] = []
        self._syn_pos: Dict[int, int] = {}
        self._syn_conf: Dict[int, float] = {}
        if telemetry is None:  # pragma: no cover - parent built a real one
            from repro.telemetry import Telemetry

            telemetry = Telemetry.disabled()
        registry = telemetry.registry
        self._m_refreshes = registry.counter("predict.refreshes")
        self._m_overlay_depth = registry.gauge("predict.overlay_depth")

    # -- overlay maintenance ---------------------------------------------------
    def refresh(self, predicted: List[Tuple[int, float]]) -> bool:
        """Replace the overlay with ``[(ckpt_id, confidence), ...]`` (best
        first); ids that are explicitly hinted or already consumed are
        dropped.  Returns True when the visible order changed."""
        new_order: List[int] = []
        new_conf: Dict[int, float] = {}
        for ckpt_id, confidence in predicted:
            if (
                ckpt_id in self._position
                or ckpt_id in self._consumed
                or ckpt_id in new_conf
            ):
                continue
            new_order.append(ckpt_id)
            new_conf[ckpt_id] = confidence
        changed = new_order != self._syn_order
        if changed:
            self._syn_order = new_order
            self._syn_pos = {c: i for i, c in enumerate(new_order)}
            self.version += 1
            self.shift_epoch += 1
            if new_order and not self.started:
                self.started = True
            self._m_refreshes.inc()
            self._m_overlay_depth.set(len(new_order))
        self._syn_conf = new_conf
        return changed

    def _syn_remove(self, ckpt_id: int) -> None:
        self._syn_order.remove(ckpt_id)
        self._syn_pos = {c: i for i, c in enumerate(self._syn_order)}
        self._syn_conf.pop(ckpt_id, None)
        self.version += 1
        self.shift_epoch += 1
        self._m_overlay_depth.set(len(self._syn_order))

    # -- RestoreQueue interface ------------------------------------------------
    def enqueue(self, ckpt_id: int) -> None:
        # A real hint for a predicted id wins: revoke the speculation
        # first so the explicit enqueue does not collide with it.
        if ckpt_id in self._syn_pos:
            self._syn_remove(ckpt_id)
        super().enqueue(ckpt_id)
        if self._syn_order:  # every overlay entry moved back one
            self.shift_epoch += 1

    def __len__(self) -> int:
        return super().__len__() + len(self._syn_order)

    def head(self) -> Optional[int]:
        explicit = super().head()
        if explicit is not None:
            return explicit
        return self._syn_order[0] if self._syn_order else None

    def iter_upcoming(self) -> Iterator[int]:
        yield from super().iter_upcoming()
        yield from self._syn_order

    def distance(self, ckpt_id: int) -> Optional[int]:
        explicit = super().distance(ckpt_id)
        if explicit is not None:
            return explicit
        pos = self._syn_pos.get(ckpt_id)
        if pos is None or ckpt_id in self._consumed:
            return None
        # Overlay entries rank after every live explicit hint.
        return RestoreQueue.__len__(self) + pos

    def is_hinted(self, ckpt_id: int) -> bool:
        return super().is_hinted(ckpt_id) or (
            ckpt_id in self._syn_pos and ckpt_id not in self._consumed
        )

    def is_explicit(self, ckpt_id: int) -> bool:
        return super().is_hinted(ckpt_id)

    def confidence(self, ckpt_id: int) -> Optional[float]:
        return self._syn_conf.get(ckpt_id)

    def consume(self, ckpt_id: int) -> None:
        if ckpt_id in self._position:
            super().consume(ckpt_id)
            return
        if ckpt_id in self._syn_pos:
            if ckpt_id in self._consumed:  # pragma: no cover - refresh filters
                raise HintError(f"checkpoint {ckpt_id} consumed twice")
            # A correctly-speculated restore: consume the overlay entry
            # without charging a hint deviation (the validator scores
            # speculation accuracy separately).
            self._syn_remove(ckpt_id)
            self._consumed.add(ckpt_id)
            self._m_consumed.inc()
            return
        super().consume(ckpt_id)
