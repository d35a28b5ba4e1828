"""Node-local SSD tier.

One :class:`SsdStore` per compute node, shared by all co-located processes
(the paper's setup: checkpoints of a node fit on its NVMe drives).  Reads
and writes are throttled through per-direction :class:`~repro.simgpu.bandwidth.Link`
objects so concurrent flushes from many processes contend exactly like they
do on the shared drives.

Two backends:

* in-memory (default) — payloads in a dict; the throttling links still model
  the full transfer cost.  Used by tests and benchmarks.
* file-backed — payloads written to real files under a directory, giving an
  end-to-end path through the OS page cache for integration tests.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Optional, TYPE_CHECKING

import numpy as np

from repro.clock import VirtualClock
from repro.config import HardwareSpec, ScaleModel
from repro.errors import CheckpointNotFound, TierOfflineError
from repro.simgpu.bandwidth import Link
from repro.simgpu.memory import checksum_payload
from repro.telemetry import Telemetry
from repro.tiers.base import InMemoryIndex, ObjectStore, StoreKey, TierLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultDomain
    from repro.sched.scheduler import SchedContext


class SsdStore(ObjectStore):
    """Throttled node-local checkpoint store."""

    level = TierLevel.SSD

    def __init__(
        self,
        node_id: int,
        spec: HardwareSpec,
        scale: ScaleModel,
        clock: VirtualClock,
        directory: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
        sched: Optional["SchedContext"] = None,
        faults: Optional["FaultDomain"] = None,
    ) -> None:
        self.node_id = node_id
        self.scale = scale
        self._clock = clock
        # Fault gates cost one None-check per op when injection is off;
        # the pristine-CRC stamp is recorded whenever either injection or
        # resilience is active (detection needs it written, recovery needs
        # it verifiable).
        self.faults = faults if (faults is not None and faults.enabled) else None
        self._crc_meta = faults is not None and faults.meta_crc
        self.telemetry = telemetry or Telemetry.disabled()
        self._track = f"node{node_id}-ssd"
        registry = self.telemetry.registry
        self._m_write_bytes = registry.counter("tier.ssd.write_bytes")
        self._m_read_bytes = registry.counter("tier.ssd.read_bytes")
        self._m_write_ops = registry.counter("tier.ssd.write_ops")
        self._m_read_ops = registry.counter("tier.ssd.read_ops")
        # Whole-object transfers (no chunk interleaving): an NVMe queue
        # *streams* completions, so the first submitted write finishes after
        # its own duration instead of all concurrent writers completing in
        # lockstep — which matters for the eviction pipeline's latency.
        self.write_link = Link(
            f"node{node_id}-ssd-write",
            spec.ssd_write_bandwidth,
            clock,
            latency=spec.ssd_latency,
            chunk_size=1 << 62,
        )
        self.read_link = Link(
            f"node{node_id}-ssd-read",
            spec.ssd_read_bandwidth,
            clock,
            latency=spec.ssd_latency,
            chunk_size=1 << 62,
        )
        if sched is not None:
            sched.attach(self.write_link)
            sched.attach(self.read_link)
        if faults is not None:
            faults.attach(self.write_link)
            faults.attach(self.read_link)
        self._index = InMemoryIndex()
        self._directory = directory
        # Cluster replica directory (attach_directory); commits publish the
        # key so neighbor nodes can route peer-SSD reads here.
        self._replica_dir = None
        self._blobs: Dict[StoreKey, np.ndarray] = {}
        self._blob_lock = threading.Lock()
        #: node-crash chaos (repro.cluster.membership): while offline every
        #: data-path op raises TierOfflineError and ``contains`` answers
        #: False, so routing treats the drive exactly like a dark tier.
        self._offline = False
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._rebuild_index()

    def _meta_path(self, key: StoreKey) -> str:
        return self._path(key) + ".meta.json"

    def _rebuild_index(self) -> None:
        """Re-index checkpoints left on disk by a previous run (restart)."""
        assert self._directory is not None
        for name in os.listdir(self._directory):
            if not name.endswith(".meta.json"):
                continue
            try:
                with open(os.path.join(self._directory, name)) as fh:
                    entry = json.load(fh)
                key = (int(entry["process_id"]), int(entry["ckpt_id"]))
                self._index.add(key, int(entry["nominal_size"]), entry.get("meta"))
            except (ValueError, KeyError, OSError, json.JSONDecodeError):
                continue  # ignore torn/foreign files

    # -- helpers -----------------------------------------------------------
    def _path(self, key: StoreKey) -> str:
        assert self._directory is not None
        return os.path.join(self._directory, f"ckpt-p{key[0]}-v{key[1]}.bin")

    # -- ObjectStore --------------------------------------------------------
    def open_put(self, key: StoreKey, nominal_size: int, payload_size: int, **kw):
        """Chunk-granular write handle (see :class:`~repro.tiers.base.StreamingPut`).

        Draws the fault gates once (same order as a whole-object ``put``);
        ``write()`` charges the write link per chunk and re-gates outages so
        a tier going dark mid-stream raises at the next chunk boundary.
        Nothing is visible in the store until ``commit()`` — a torn stream
        leaves no partial object behind.
        """
        self._require_online("put", key)
        slow = 1.0
        corrupt_at = None
        if self.faults is not None:
            slow = self.faults.tier_gate("ssd", self._track, "put", key)
            corrupt_at = self.faults.corruption(self._track, key, payload_size)
        return _SsdPut(self, key, nominal_size, slow, corrupt_at, **kw)

    def put(self, key: StoreKey, payload: np.ndarray, nominal_size: int, **kw) -> float:
        """``copy=False`` transfers ownership of ``payload`` to the store
        (the caller must not mutate it afterwards) instead of copying it."""
        handle = self.open_put(
            key,
            nominal_size,
            int(payload.size),
            cancelled=kw.get("cancelled"),
            request=kw.get("request"),
        )
        handle.write(nominal_size)
        return handle.commit(payload, meta=kw.get("meta"), copy=kw.get("copy", True))

    def _commit_blob(self, key, payload, nominal_size, meta, copy, corrupt_at) -> None:
        if self._crc_meta:
            meta = dict(meta or {})
            meta["stored_crc"] = int(checksum_payload(payload))
        if self._directory is not None:
            data = bytearray(np.ascontiguousarray(payload).tobytes())
            if corrupt_at is not None:
                data[corrupt_at] ^= 0xFF
            with open(self._path(key), "wb") as fh:
                fh.write(bytes(data))
            with open(self._meta_path(key), "w") as fh:
                json.dump(
                    {
                        "process_id": key[0],
                        "ckpt_id": key[1],
                        "nominal_size": nominal_size,
                        "meta": meta or {},
                    },
                    fh,
                )
        else:
            # Corruption flips a byte on the *store's* copy only: with
            # copy=False ownership transfers to the store, but the caller's
            # in-hand array must stay pristine so a re-flush can repair.
            blob = payload.copy() if (copy or corrupt_at is not None) else payload
            if corrupt_at is not None:
                blob[corrupt_at] ^= 0xFF
            blob.flags.writeable = False  # get() hands out views of this blob
            with self._blob_lock:
                self._blobs[key] = blob
        self._index.add(key, nominal_size, meta)
        if self._replica_dir is not None:
            self._replica_dir.publish(key, self.node_id)

    def attach_directory(self, directory) -> None:
        """Publish commits/deletes to a cluster-wide replica directory
        (:class:`repro.cluster.directory.ReplicaDirectory`)."""
        self._replica_dir = directory

    # -- node-crash chaos ---------------------------------------------------
    def _require_online(self, op: str, key: StoreKey) -> None:
        if self._offline:
            raise TierOfflineError(
                f"{self._track} is offline (node crash), {op} {key}"
            )

    def crash(self, preserve_contents: bool) -> None:
        """Take the drive down with its node.

        ``preserve_contents=False`` models a fail-stop crash that loses the
        media: blobs and index are wiped (files removed when file-backed).
        ``preserve_contents=True`` is a power loss — the media survives and
        :meth:`power_on` brings the copies back.  Either way, while offline
        every data-path op raises :class:`~repro.errors.TierOfflineError`
        and ``contains`` answers False.  Directory withdrawal is the
        membership registry's job (it owns the cluster-wide sweep).
        """
        self._offline = True
        if preserve_contents:
            return
        keys = self._index.keys()
        if self._directory is not None:
            for key in keys:
                for path in (self._path(key), self._meta_path(key)):
                    try:
                        os.remove(path)
                    except FileNotFoundError:
                        pass
        with self._blob_lock:
            self._blobs.clear()
        for key in keys:
            self._index.remove(key)

    def power_on(self):
        """Bring a crashed drive back; returns the surviving keys.

        A power-loss crash preserved the media, so every surviving key is
        republished to the replica directory (a fail-stop crash wiped the
        index, so the sweep republishes nothing).
        """
        self._offline = False
        keys = self._index.keys()
        if self._replica_dir is not None:
            for key in keys:
                self._replica_dir.publish(key, self.node_id)
        return keys

    @property
    def offline(self) -> bool:
        return self._offline

    def open_get(self, key: StoreKey, request=None, nominal_size=None):
        """Chunk-granular read handle; ``finish()`` yields the payload.

        ``nominal_size`` bypasses the index lookup for streamed cascade
        read-backs that overlap a not-yet-committed put of the same key
        (streaming out of the drive's write buffer); such callers take the
        payload from their pipeline and ``close()`` the handle instead of
        ``finish()``-ing it.
        """
        self._require_online("get", key)
        if nominal_size is None:
            nominal_size = self._index.require(key)
        slow = 1.0
        if self.faults is not None:
            slow = self.faults.tier_gate("ssd", self._track, "get", key)
        return _SsdGet(self, key, nominal_size, slow, request)

    def get(self, key: StoreKey, request=None):
        handle = self.open_get(key, request=request)
        handle.read(handle.nominal_size)
        return handle.finish()

    def _read_payload(self, key: StoreKey) -> np.ndarray:
        if self._directory is not None:
            path = self._path(key)
            try:
                with open(path, "rb") as fh:
                    # frombuffer over bytes is already zero-copy + read-only.
                    return np.frombuffer(fh.read(), dtype=np.uint8)
            except FileNotFoundError:
                raise CheckpointNotFound(f"checkpoint {key} missing from {path}")
        with self._blob_lock:
            payload = self._blobs.get(key)
        if payload is None:
            raise CheckpointNotFound(f"checkpoint {key} missing from SSD store")
        # Zero-copy: a read-only view (blobs are immutable once stored, and
        # a view keeps its base alive even across a concurrent delete()).
        return payload[:]

    def delete(self, key: StoreKey) -> None:
        if self._offline:
            return  # the node is dead; nothing is reachable to delete
        if not self._index.remove(key):
            return
        if self._replica_dir is not None:
            self._replica_dir.withdraw(key, self.node_id)
        if self._directory is not None:
            for path in (self._path(key), self._meta_path(key)):
                try:
                    os.remove(path)
                except FileNotFoundError:
                    pass
        else:
            with self._blob_lock:
                self._blobs.pop(key, None)

    def contains(self, key: StoreKey) -> bool:
        if self._offline:
            return False
        return self._index.contains(key)

    def verify(self, key: StoreKey) -> bool:
        """Check the stored blob's bytes against the CRC stamped at put().

        Uncharged (no link transfer): models a local scrub/DMA checksum.
        Returns ``True`` when no CRC was stamped (nothing to verify) and
        ``False`` when the blob is missing or its bytes diverged.
        """
        if self._offline or not self._index.contains(key):
            return False
        stored_crc = (self._index.meta(key) or {}).get("stored_crc")
        if stored_crc is None:
            return True
        if self._directory is not None:
            try:
                with open(self._path(key), "rb") as fh:
                    blob = np.frombuffer(fh.read(), dtype=np.uint8)
            except OSError:
                return False
        else:
            with self._blob_lock:
                blob = self._blobs.get(key)
            if blob is None:
                return False
        return int(checksum_payload(blob)) == int(stored_crc)

    def meta(self, key: StoreKey) -> dict:
        """Recovery metadata recorded at put() time."""
        return self._index.meta(key)

    def size_of(self, key: StoreKey) -> int:
        return self._index.size_of(key)

    def keys_for_process(self, process_id: int):
        """All checkpoint keys this store holds for one process."""
        return self._index.keys_for_process(process_id)

    def stored_bytes(self) -> int:
        return self._index.total()

    def object_count(self) -> int:
        return self._index.count()


class _SsdPut:
    """In-flight write: chunk charges on the write link, commit-at-end."""

    def __init__(
        self,
        store: SsdStore,
        key: StoreKey,
        nominal_size: int,
        slow: float,
        corrupt_at: Optional[int],
        cancelled=None,
        request=None,
    ) -> None:
        self.store = store
        self.key = key
        self.nominal_size = nominal_size
        self.seconds = 0.0
        self._slow = slow
        self._corrupt_at = corrupt_at
        self._cancelled = cancelled
        self._request = request
        self._chunks = 0

    def write(self, nbytes: int, cancelled=None, request=None) -> float:
        """Charge one chunk; blocks for the throttled duration."""
        store = self.store
        if self._chunks > 0 and store.faults is not None:
            # Re-gate later chunks: a hard outage opening mid-stream raises
            # TierOfflineError at the next chunk boundary; a brownout
            # degrades the remaining chunks.
            self._slow = store.faults.tier_gate("ssd", store._track, "put", self.key)
        with store.telemetry.bus.span(
            "ssd-put", store._track, key=self.key, bytes=nbytes
        ):
            seconds = store.write_link.transfer(
                nbytes,
                cancelled=self._cancelled if cancelled is None else cancelled,
                request=self._request if request is None else request,
            )
            if self._slow > 1.0:  # brownout: degraded throughput, same bytes
                extra = seconds * (self._slow - 1.0)
                store._clock.sleep(extra)
                seconds += extra
        store._m_write_bytes.inc(nbytes)
        self._chunks += 1
        self.seconds += seconds
        return seconds

    def commit(self, payload: np.ndarray, meta=None, copy: bool = True) -> float:
        """Make the object visible; returns total accounted seconds."""
        store = self.store
        store._m_write_ops.inc()
        store._commit_blob(
            self.key, payload, self.nominal_size, meta, copy, self._corrupt_at
        )
        return self.seconds

    def abort(self) -> None:
        """Nothing to roll back: an uncommitted stream left no state."""


class _SsdGet:
    """In-flight read: chunk charges on the read link, payload at finish."""

    def __init__(
        self, store: SsdStore, key: StoreKey, nominal_size: int, slow: float, request
    ) -> None:
        self.store = store
        self.key = key
        self.nominal_size = nominal_size
        self.seconds = 0.0
        self._slow = slow
        self._request = request
        self._chunks = 0

    def read(self, nbytes: int, request=None) -> float:
        store = self.store
        if self._chunks > 0 and store.faults is not None:
            self._slow = store.faults.tier_gate("ssd", store._track, "get", self.key)
        with store.telemetry.bus.span(
            "ssd-get", store._track, key=self.key, bytes=nbytes
        ):
            seconds = store.read_link.transfer(
                nbytes, request=self._request if request is None else request
            )
            if self._slow > 1.0:
                extra = seconds * (self._slow - 1.0)
                store._clock.sleep(extra)
                seconds += extra
        store._m_read_bytes.inc(nbytes)
        self._chunks += 1
        self.seconds += seconds
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
