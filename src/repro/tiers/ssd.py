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
from typing import Optional, TYPE_CHECKING

import numpy as np

from repro.clock import VirtualClock
from repro.config import HardwareSpec, ScaleModel
from repro.errors import CheckpointNotFound
from repro.simgpu.bandwidth import Link
from repro.telemetry import Telemetry
from repro.tiers.base import ObjectStore, StoreKey, TierLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultDomain
    from repro.sched.scheduler import SchedContext


class SsdStore(ObjectStore):
    """Throttled node-local checkpoint store: the one durable store
    (:class:`~repro.tiers.base.ObjectStore`) over a route of one link per
    direction, plus what only a node-local drive has — the file backend,
    the node-crash offline switch, and publishing its commits to the
    cluster's replica directory."""

    level = TierLevel.SSD
    tier = "ssd"

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
        super().__init__(f"node{node_id}-ssd", scale, clock, telemetry, faults)
        self.node_id = node_id
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
        for link in (self.write_link, self.read_link):
            if sched is not None:
                sched.attach(link)
            if faults is not None:
                faults.attach(link)
        self._directory = directory
        # Cluster replica directory (attach_directory); commits publish the
        # key so neighbor nodes can route peer-SSD reads here.
        self._replica_dir = None
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._rebuild_index()

    def route(self, node_id: int, write: bool):
        """One drive, one link per direction, whichever process asks."""
        return ((self.write_link if write else self.read_link, None),)

    # -- file backend --------------------------------------------------------
    def _path(self, key: StoreKey) -> str:
        assert self._directory is not None
        return os.path.join(self._directory, f"ckpt-p{key[0]}-v{key[1]}.bin")

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
                self._sizes[key] = int(entry["nominal_size"])
                self._meta[key] = dict(entry.get("meta") or {})
            except (ValueError, KeyError, OSError, json.JSONDecodeError):
                continue  # ignore torn/foreign files

    def _write_blob(self, key, payload, nominal_size, meta, copy, corrupt_at):
        if self._directory is None:
            return super()._write_blob(key, payload, nominal_size, meta, copy, corrupt_at)
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

    def _read_payload(self, key: StoreKey) -> np.ndarray:
        if self._directory is None:
            return super()._read_payload(key)
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                # frombuffer over bytes is already zero-copy + read-only.
                return np.frombuffer(fh.read(), dtype=np.uint8)
        except FileNotFoundError:
            raise CheckpointNotFound(f"checkpoint {key} missing from {path}")

    def _drop_blob(self, key: StoreKey) -> None:
        if self._directory is None:
            return
        for path in (self._path(key), self._meta_path(key)):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass

    # -- replica directory ---------------------------------------------------
    def attach_directory(self, directory) -> None:
        """Publish commits/deletes to a cluster-wide replica directory
        (:class:`repro.cluster.directory.ReplicaDirectory`)."""
        self._replica_dir = directory

    def _commit_blob(self, key, payload, nominal_size, meta, copy, corrupt_at) -> None:
        super()._commit_blob(key, payload, nominal_size, meta, copy, corrupt_at)
        if self._replica_dir is not None:
            self._replica_dir.publish(key, self.node_id)

    def delete(self, key: StoreKey) -> None:
        if self._replica_dir is not None and self.contains(key):
            self._replica_dir.withdraw(key, self.node_id)
        super().delete(key)

    # -- node-crash chaos ---------------------------------------------------
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
        self.offline = True
        if preserve_contents:
            return
        for key in self.keys():
            self._remove(key)

    def power_on(self):
        """Bring a crashed drive back; returns the surviving keys.

        A power-loss crash preserved the media, so every surviving key is
        republished to the replica directory (a fail-stop crash wiped the
        index, so the sweep republishes nothing).
        """
        self.offline = False
        keys = self.keys()
        if self._replica_dir is not None:
            for key in keys:
                self._replica_dir.publish(key, self.node_id)
        return keys
