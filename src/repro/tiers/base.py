"""Tier levels and the one durable object store behind the slow tiers."""

from __future__ import annotations

import threading
from enum import IntEnum
from typing import Dict, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.clock import VirtualClock
from repro.config import ScaleModel
from repro.errors import CheckpointNotFound, TierOfflineError
from repro.simgpu.memory import checksum_payload
from repro.telemetry import Telemetry

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultDomain


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


class ObjectStore:
    """The durable store of whole checkpoints: an index (key → size +
    metadata), the blobs, and a *route* of throttled links every chunk
    crosses.  The metadata dict (checksum, true size, …) is what a restarted
    process recovers its catalog from — mirroring the metadata files a real
    multi-level checkpointing runtime writes next to each checkpoint.

    Checkpoints are monolithic and immutable once written (the paper's core
    assumption), so visibility is put/get/delete of whole objects.  Transfers
    are chunk-granular: :meth:`open_put` / :meth:`open_get` return in-flight
    handles whose ``write(nbytes)`` / ``read(nbytes)`` charge one chunk
    across the route (:meth:`_cross`), so a cascade stage can overlap its
    chunks with the neighbouring hop.  An object stays invisible until the
    put handle's ``commit(payload)`` — commit-at-end keeps every
    crash-consistency property of a whole-object put (a torn stream leaves
    nothing behind, and the recovery metadata commits with the blob).  :meth:`put` and :meth:`get` are ``open_* + one full-size chunk +
    commit/finish``, so whole-object and streamed transfers are one
    implementation.

    A tier supplies ``level``, ``tier`` (its name in fault plans, span names
    and ``tier.<name>.*`` counters) and ``route(node_id, write)``: the legs
    one chunk of that node's transfer crosses, in order, each a
    ``(link, alongside)`` pair — a link, and the link (or ``None``) the same
    bytes cross at the same time (:meth:`Link.transfer`).  ``track`` names the store on the trace and is also its
    circuit-breaker id.
    """

    level: TierLevel
    tier: str
    #: whether reads cross the interconnect (the fabric's view of a peer's SSD).
    across_fabric = False

    def __init__(
        self, track: str, scale: ScaleModel, clock: VirtualClock,
        telemetry: Optional[Telemetry] = None, faults: Optional["FaultDomain"] = None,
    ) -> None:
        self.track = track
        self.scale = scale
        self._clock = clock
        # Fault gates cost one None-check per op when injection is off.
        self.faults = faults if (faults is not None and faults.plan is not None) else None
        self.telemetry = telemetry or Telemetry.disabled()
        registry = self.telemetry.registry
        self._m_write_bytes = registry.counter(f"tier.{self.tier}.write_bytes")
        self._m_read_bytes = registry.counter(f"tier.{self.tier}.read_bytes")
        self._m_write_ops = registry.counter(f"tier.{self.tier}.write_ops")
        self._m_read_ops = registry.counter(f"tier.{self.tier}.read_ops")
        #: one lock for the store's whole state: index and blobs.
        self._blob_lock = threading.Lock()
        self._sizes: Dict[StoreKey, int] = {}
        self._meta: Dict[StoreKey, dict] = {}
        self._blobs: Dict[StoreKey, np.ndarray] = {}
        #: node-crash chaos (:meth:`SsdStore.crash`): while set, routing
        #: sees exactly a dark tier.
        self.offline = False

    def _require_online(self, op: str, key: StoreKey) -> None:
        if self.offline:
            raise TierOfflineError(f"{self.track} is offline (node crash), {op} {key}")

    # -- transfers ----------------------------------------------------------
    def open_put(
        self, key: StoreKey, nominal_size: int, payload_size: int, *,
        node_id: int = 0, cancelled=None, request=None,
    ) -> "PutHandle":
        """Chunk-granular write handle: ``write(nbytes)`` per chunk, then
        ``commit(payload, meta=, copy=)`` (or ``abort()``).

        Draws the fault gates once (a dark tier raises here, at chunk 0)
        and the at-rest corruption of this put attempt; ``write()`` re-gates
        outages so a tier going dark mid-stream raises at the next chunk.
        """
        self._require_online("put", key)
        slow = 1.0
        corrupt_at = None
        if self.faults is not None:
            slow = self.faults.tier_gate(self.tier, self.track, "put", key)
            corrupt_at = self.faults.corruption(self.track, key, payload_size)
        route = self.route(node_id, True)
        return PutHandle(self, key, nominal_size, route, slow, request, cancelled, corrupt_at)

    def open_get(
        self, key: StoreKey, *, node_id: int = 0, request=None,
        nominal_size: Optional[int] = None, via=None,
    ) -> "GetHandle":
        """Chunk-granular read handle: ``read(nbytes)`` per chunk, then
        ``finish() -> (payload, seconds)``.

        ``nominal_size`` bypasses the index lookup for cascade read-backs
        that overlap a not-yet-committed put of the same key (streaming out
        of the drive's write buffer); such callers take the payload from
        their pipeline and ``close()`` the handle instead of finishing it.
        ``via`` is a link the bytes cross on their way to the reader (the
        fabric to another node), crossed alongside the route's first leg.
        """
        self._require_online("get", key)
        if nominal_size is None:
            nominal_size = self.size_of(key)
        slow = 1.0
        if self.faults is not None:
            slow = self.faults.tier_gate(self.tier, self.track, "get", key)
        route = self.route(node_id, False)
        if via is not None:
            route = ((route[0][0], via),) + route[1:]
        return GetHandle(self, key, nominal_size, route, slow, request)

    def put(
        self, key: StoreKey, payload: np.ndarray, nominal_size: int, *,
        node_id: int = 0, cancelled=None, request=None, meta: Optional[dict] = None,
        copy: bool = True,
    ) -> float:
        """Write a whole checkpoint; blocks for the throttled duration and
        returns the accounted nominal seconds.  ``copy=False`` transfers
        ownership of ``payload`` to the store (the caller must not mutate
        it afterwards) instead of copying it."""
        handle = self.open_put(
            key, nominal_size, int(payload.size),
            node_id=node_id, cancelled=cancelled, request=request,
        )
        handle.write(nominal_size)
        return handle.commit(payload, meta=meta, copy=copy)

    def get(self, key: StoreKey, *, node_id: int = 0, cancelled=None, request=None, via=None):
        """Read a whole checkpoint back; blocks for the throttled duration.
        Returns ``(payload, accounted nominal seconds)``."""
        handle = self.open_get(key, node_id=node_id, request=request, via=via)
        handle.read(handle.nominal_size, cancelled=cancelled)
        return handle.finish()

    def _cross(self, route, nbytes: int, slow: float, cancelled=None, request=None) -> float:
        """Move ``nbytes`` over every leg of ``route``, one leg after the
        other (store-and-forward); blocks and returns the accounted seconds.
        A brownout (``slow > 1``) stretches it: same bytes, less throughput."""
        seconds = 0.0
        for link, alongside in route:
            seconds += link.transfer(
                nbytes, cancelled=cancelled, request=request, alongside=alongside
            )
        if slow > 1.0:
            extra = seconds * (slow - 1.0)
            self._clock.sleep(extra)
            seconds += extra
        return seconds

    # -- blobs --------------------------------------------------------------
    def _commit_blob(self, key, payload, nominal_size, meta, copy, corrupt_at) -> None:
        """Make one object visible: stamp the pristine CRC (``verify`` checks
        the stored bytes against it), store the bytes, index."""
        meta = {**(meta or {}), "stored_crc": int(checksum_payload(payload))}
        blob = self._write_blob(key, payload, nominal_size, meta, copy, corrupt_at)
        with self._blob_lock:
            if blob is not None:
                self._blobs[key] = blob
            self._sizes[key] = nominal_size
            self._meta[key] = meta

    def _write_blob(self, key, payload, nominal_size, meta, copy, corrupt_at):
        """The blob to keep in memory (``None`` from a backend that put the
        bytes elsewhere)."""
        # Corruption flips a byte on the *store's* copy only: with
        # copy=False ownership transfers to the store, but the caller's
        # in-hand array must stay pristine so a re-flush can repair.
        blob = payload.copy() if (copy or corrupt_at is not None) else payload
        if corrupt_at is not None:
            blob[corrupt_at] ^= 0xFF
        blob.flags.writeable = False  # get() hands out views of this blob
        return blob

    def _read_payload(self, key: StoreKey) -> np.ndarray:
        with self._blob_lock:
            payload = self._blobs.get(key)
        if payload is None:
            raise CheckpointNotFound(f"checkpoint {key} missing from {self.track} store")
        # Zero-copy: a read-only view (blobs are immutable once stored, and
        # a view keeps its base alive even across a concurrent delete()).
        return payload[:]

    def _drop_blob(self, key: StoreKey) -> None:
        """Backend hook: remove what ``_write_blob`` put outside memory."""

    def _remove(self, key: StoreKey) -> bool:
        with self._blob_lock:
            self._meta.pop(key, None)
            self._blobs.pop(key, None)
            present = self._sizes.pop(key, None) is not None
        if present:
            self._drop_blob(key)
        return present

    def delete(self, key: StoreKey) -> None:
        """Drop a checkpoint (no-op if absent)."""
        # Offline, the node is dead: nothing is reachable to delete.
        if not self.offline:
            self._remove(key)

    def contains(self, key: StoreKey) -> bool:
        with self._blob_lock:
            return not self.offline and key in self._sizes

    def verify(self, key: StoreKey) -> bool:
        """Check the stored blob's bytes against the CRC stamped at commit.

        Uncharged (no link transfer): models a local scrub/DMA checksum.
        Returns ``False`` when the blob is missing or its bytes diverged.
        """
        if not self.contains(key):
            return False
        try:
            stored_crc = self.meta(key)["stored_crc"]
            blob = self._read_payload(key)
        except (CheckpointNotFound, OSError):
            return False
        return int(checksum_payload(blob)) == int(stored_crc)

    def meta(self, key: StoreKey) -> dict:
        """Recovery metadata recorded at commit time."""
        with self._blob_lock:
            if key not in self._sizes:
                raise CheckpointNotFound(f"checkpoint {key} not present in store")
            return dict(self._meta.get(key, {}))

    def size_of(self, key: StoreKey) -> int:
        with self._blob_lock:
            size = self._sizes.get(key)
        if size is None:
            raise CheckpointNotFound(f"checkpoint {key} not present in store")
        return size

    def keys(self) -> list:
        """Every key in the store, sorted (node crash/rejoin sweeps)."""
        with self._blob_lock:
            return sorted(self._sizes)

    def keys_for_process(self, process_id: int):
        """All checkpoint keys this store holds for one process."""
        with self._blob_lock:
            return sorted(key for key in self._sizes if key[0] == process_id)

    def stored_bytes(self) -> int:
        """Total nominal bytes currently stored."""
        with self._blob_lock:
            return sum(self._sizes.values())

    def object_count(self) -> int:
        with self._blob_lock:
            return len(self._sizes)


class _ChunkedTransfer:
    """What the two handles share: one chunk charged across the route,
    outage gates re-drawn from the second chunk on."""

    def __init__(self, store, key, nominal_size, route, slow, request) -> None:
        self.store = store
        self.key = key
        self.nominal_size = nominal_size
        self.seconds = 0.0
        self._span = f"{store.tier}-{self.op}"
        self._route = route
        self._slow = slow
        self._request = request
        self._chunks = 0

    def _charge(self, nbytes: int, cancelled, request) -> float:
        """Charge one chunk; blocks for the throttled duration."""
        store = self.store
        if self._chunks > 0 and store.faults is not None:
            # Re-gate later chunks: a hard outage opening mid-stream raises
            # TierOfflineError at the next chunk boundary; a brownout
            # degrades the remaining chunks.
            self._slow = store.faults.tier_gate(store.tier, store.track, self.op, self.key)
        if request is None:
            request = self._request
        bus = store.telemetry.bus
        started = bus.clock.now() if bus.enabled else None
        try:
            seconds = store._cross(self._route, nbytes, self._slow, cancelled, request)
        finally:
            if started is not None:
                bus.record(
                    self._span, store.track, started, "X", bus.clock.now() - started,
                    {"key": self.key, "bytes": nbytes},
                )
        self._chunks += 1
        self.seconds += seconds
        return seconds


class PutHandle(_ChunkedTransfer):
    """In-flight write: chunk charges on the write route, commit-at-end."""

    op = "put"

    def __init__(
        self, store, key, nominal_size, route, slow, request, cancelled, corrupt_at
    ) -> None:
        super().__init__(store, key, nominal_size, route, slow, request)
        self._cancelled = cancelled
        self._corrupt_at = corrupt_at

    def write(self, nbytes: int, cancelled=None, request=None) -> float:
        seconds = self._charge(
            nbytes, self._cancelled if cancelled is None else cancelled, request
        )
        self.store._m_write_bytes.inc(nbytes)
        return seconds

    def commit(self, payload: np.ndarray, meta=None, copy: bool = True) -> float:
        """Make the object visible; returns total accounted seconds."""
        store = self.store
        store._m_write_ops.inc()
        store._commit_blob(self.key, payload, self.nominal_size, meta, copy, self._corrupt_at)
        return self.seconds

    def abort(self) -> None:
        """Nothing to roll back: an uncommitted stream left no state."""


class GetHandle(_ChunkedTransfer):
    """In-flight read: chunk charges on the read route, payload at finish."""

    op = "get"

    def read(self, nbytes: int, cancelled=None, request=None) -> float:
        seconds = self._charge(nbytes, cancelled, request)
        self.store._m_read_bytes.inc(nbytes)
        return seconds

    def close(self) -> None:
        """The whole object was read: count the op.  For a caller that
        already holds the payload (the cascade read-back, which may finish
        ahead of the put's commit); everyone else calls :meth:`finish`."""
        self.store._m_read_ops.inc()

    def finish(self):
        """``(payload, accounted seconds)`` — the whole object, post-charges."""
        self.close()
        return self.store._read_payload(self.key), self.seconds
