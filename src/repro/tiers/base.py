"""Tier levels and the keyed object-store interface for slow tiers."""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from enum import IntEnum
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import CheckpointNotFound


class TierLevel(IntEnum):
    """Position in the hierarchy; lower is faster."""

    GPU = 0
    HOST = 1
    SSD = 2
    PFS = 3

    @property
    def slower(self) -> Optional["TierLevel"]:
        return TierLevel(self.value + 1) if self.value < TierLevel.PFS else None

    @property
    def faster(self) -> Optional["TierLevel"]:
        return TierLevel(self.value - 1) if self.value > TierLevel.GPU else None


#: Object-store key: (process id, checkpoint version).
StoreKey = Tuple[int, int]


class ObjectStore(ABC):
    """A keyed store for whole checkpoints on a slow tier.

    Checkpoints are monolithic and immutable once written (the paper's core
    assumption), so the *visibility* interface is put/get/delete of whole
    objects; cost accounting (bandwidth throttling) happens inside the
    implementations.

    Streaming interface (chunk pipelining): :meth:`open_put` /
    :meth:`open_get` return in-flight handles whose ``write(nbytes)`` /
    ``read(nbytes)`` charge the virtual clock one chunk at a time, so a
    cascade stage can overlap its chunks with the neighbouring hop.  The
    object stays invisible until the put handle's ``commit(payload)`` —
    commit-at-end keeps every crash-consistency property of whole-object
    puts (a torn stream leaves nothing behind; the manifest journal never
    references an uncommitted key).  ``put``/``get`` are exactly
    ``open_* + one full-size chunk + commit/finish``, so whole-object and
    streamed transfers share one implementation.
    """

    level: TierLevel

    @abstractmethod
    def put(self, key: StoreKey, payload: np.ndarray, nominal_size: int, **kw) -> float:
        """Write a whole checkpoint; blocks for the throttled duration.

        Returns the accounted nominal seconds the write took."""

    @abstractmethod
    def get(self, key: StoreKey) -> "Tuple[np.ndarray, float]":
        """Read a whole checkpoint back; blocks for the throttled duration.

        Returns ``(payload, accounted nominal seconds)``."""

    def open_put(self, key: StoreKey, nominal_size: int, payload_size: int, **kw):
        """Chunk-granular write handle: ``write(nbytes)`` per chunk, then
        ``commit(payload, meta=, copy=)`` (or ``abort()``)."""
        raise NotImplementedError(f"{type(self).__name__} does not stream puts")

    def open_get(self, key: StoreKey, **kw):
        """Chunk-granular read handle: ``read(nbytes)`` per chunk, then
        ``finish() -> (payload, seconds)``."""
        raise NotImplementedError(f"{type(self).__name__} does not stream gets")

    @abstractmethod
    def delete(self, key: StoreKey) -> None:
        """Drop a checkpoint (no-op if absent)."""

    @abstractmethod
    def contains(self, key: StoreKey) -> bool: ...

    @abstractmethod
    def stored_bytes(self) -> int:
        """Total nominal bytes currently stored."""


class InMemoryIndex:
    """Shared bookkeeping for store implementations: key → size + metadata.

    The metadata dict (checksum, true size, …) is what a restarted process
    recovers its catalog from — mirroring the metadata files a real
    multi-level checkpointing runtime writes next to each checkpoint.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sizes: Dict[StoreKey, int] = {}
        self._meta: Dict[StoreKey, dict] = {}

    def add(self, key: StoreKey, nominal_size: int, meta: Optional[dict] = None) -> None:
        with self._lock:
            self._sizes[key] = nominal_size
            self._meta[key] = dict(meta or {})

    def remove(self, key: StoreKey) -> bool:
        with self._lock:
            self._meta.pop(key, None)
            return self._sizes.pop(key, None) is not None

    def require(self, key: StoreKey) -> int:
        with self._lock:
            size = self._sizes.get(key)
        if size is None:
            raise CheckpointNotFound(f"checkpoint {key} not present in store")
        return size

    def meta(self, key: StoreKey) -> dict:
        with self._lock:
            if key not in self._sizes:
                raise CheckpointNotFound(f"checkpoint {key} not present in store")
            return dict(self._meta.get(key, {}))

    def contains(self, key: StoreKey) -> bool:
        with self._lock:
            return key in self._sizes

    def keys_for_process(self, process_id: int):
        with self._lock:
            return sorted(k for k in self._sizes if k[0] == process_id)

    def keys(self) -> list:
        """Every key in the index, sorted (node crash/rejoin sweeps)."""
        with self._lock:
            return sorted(self._sizes)

    def size_of(self, key: StoreKey) -> int:
        return self.require(key)

    def total(self) -> int:
        with self._lock:
            return sum(self._sizes.values())

    def count(self) -> int:
        with self._lock:
            return len(self._sizes)
