"""ADIOS2-BP5-like deferred I/O runtime (Section 5.2.1 comparator).

Models the two properties the paper measures for ADIOS2:

* **no dedicated device cache** — every checkpoint pays an on-demand,
  *synchronous* device-to-host copy into a pageable host staging buffer
  (BP5's deferred mode buffers in main memory first), at the unpinned
  staging bandwidth;
* **deferred (asynchronous) drain** — the staging buffer flushes to the
  node-local SSD in the background; when staging is full, checkpoints block
  until the drain frees space.

Restores are fully on demand and read from *storage*: a BP step is readable
once it has drained (readers open the file, not the writer's buffer), so a
restore first waits for the checkpoint's deferred drain, then reads the SSD
and stages back through pageable host memory.  Every operation additionally
pays the engine's (de)serialization of the data into transport buffers
(``HardwareSpec.host_serialize_bandwidth``) — the marshaling work that, in
the paper's measurements, keeps ADIOS2 an order of magnitude below raw PCIe
throughput.  Prefetch hints are accepted but ignored (Table 1 lists ADIOS2
only in the "no hints" row).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.clock import Stopwatch
from repro.core.sync import Monitor
from repro.errors import (
    CheckpointNotFound,
    EngineClosedError,
    IntegrityError,
    LifecycleError,
)
from repro.metrics.recorder import OpEvent, OpKind, Recorder
from repro.simgpu.memory import DeviceBuffer, checksum_payload
from repro.simgpu.stream import Stream
from repro.tiers.topology import ProcessContext


class _StagedCheckpoint:
    __slots__ = ("ckpt_id", "nominal_size", "true_size", "checksum", "payload", "drained")

    def __init__(self, ckpt_id, nominal_size, true_size, checksum, payload) -> None:
        self.ckpt_id = ckpt_id
        self.nominal_size = nominal_size
        self.true_size = true_size
        self.checksum = checksum
        self.payload: Optional[np.ndarray] = payload
        self.drained = False


class Adios2Engine:
    """Deferred-I/O checkpoint engine without a GPU cache tier."""

    name = "adios2"

    def __init__(
        self,
        context: ProcessContext,
        recorder: Optional[Recorder] = None,
        verify_restores: bool = True,
        **_ignored,
    ) -> None:
        self.context = context
        self.clock = context.clock
        self.scale = context.scale
        self.spec = context.spec
        self.device = context.device
        self.ssd = context.ssd
        self.process_id = context.process_id
        self.verify_restores = verify_restores
        self.recorder = recorder or Recorder(process_id=self.process_id)
        self.monitor = Monitor(self.clock)
        self.staging_capacity = context.config.cache.host_cache_size
        self._staged_bytes = 0
        self._checkpoints: Dict[int, _StagedCheckpoint] = {}
        self._drain_stream = Stream(f"p{self.process_id}-adios2-drain", self.clock)
        self._closed = False
        # The pageable staging buffer is allocated lazily by ADIOS2; charge
        # nothing up front (it has no pinning cost — that is also why its
        # transfers run at the slower pageable rate).

    def _require_open(self) -> None:
        if self._closed:
            raise EngineClosedError(f"ADIOS2 engine p{self.process_id} is closed")

    # -- write ------------------------------------------------------------------
    def checkpoint(self, ckpt_id: int, buffer: DeviceBuffer) -> float:
        self._require_open()
        nominal = self.scale.align(buffer.nominal_size)
        started = self.clock.now()
        with self.monitor:
            if ckpt_id in self._checkpoints:
                raise LifecycleError(f"checkpoint {ckpt_id} already exists")
            # Block until the deferred drain frees staging space.
            wait_started = self.clock.now()
            self.monitor.wait_for(
                lambda: self._staged_bytes + nominal <= self.staging_capacity
            )
            blocked = self.clock.now() - wait_started
            self._staged_bytes += nominal
        # Serialize into the BP transport buffer, then the synchronous
        # on-demand D2H at the pageable staging rate: the cost of having no
        # device cache tier.
        serialize = nominal / self.spec.host_serialize_bandwidth
        self.clock.sleep(serialize)
        blocked += serialize
        blocked += self.device.d2h_link.transfer(
            nominal + self._pageable_penalty_bytes(nominal)
        )
        entry = _StagedCheckpoint(
            ckpt_id, nominal, buffer.nominal_size, buffer.checksum(), buffer.payload.copy()
        )
        with self.monitor:
            self._checkpoints[ckpt_id] = entry
        self._drain_stream.submit(lambda: self._drain(entry), label=f"drain-{ckpt_id}")
        self.recorder.record(
            OpEvent(
                kind=OpKind.CHECKPOINT,
                ckpt_id=ckpt_id,
                started_at=started,
                blocked=blocked,
                nominal_bytes=nominal,
            )
        )
        return blocked

    def _pageable_penalty_bytes(self, nominal: int) -> int:
        """Extra bytes-equivalent so the pageable path runs at the unpinned
        rate while still contending on the shared PCIe link."""
        ratio = self.spec.d2h_bandwidth / self.spec.d2h_unpinned_bandwidth
        return int(nominal * (ratio - 1.0)) if ratio > 1.0 else 0

    def _drain(self, entry: _StagedCheckpoint) -> None:
        self.ssd.put((self.process_id, entry.ckpt_id), entry.payload, entry.nominal_size)
        with self.monitor:
            entry.drained = True
            entry.payload = None  # staging space released
            self._staged_bytes -= entry.nominal_size
            self.monitor.notify_all()

    # -- hints (accepted, unused) ----------------------------------------------------
    def prefetch_enqueue(self, ckpt_id: int) -> None:
        self._require_open()

    def prefetch_start(self) -> None:
        self._require_open()

    # -- read ----------------------------------------------------------------------------
    def recover_size(self, ckpt_id: int) -> int:
        with self.monitor:
            entry = self._checkpoints.get(ckpt_id)
        if entry is None:
            raise CheckpointNotFound(f"unknown checkpoint id {ckpt_id}")
        return entry.true_size

    def restore(self, ckpt_id: int, buffer: DeviceBuffer) -> float:
        self._require_open()
        started = self.clock.now()
        with self.monitor:
            entry = self._checkpoints.get(ckpt_id)
            if entry is None:
                raise CheckpointNotFound(f"unknown checkpoint id {ckpt_id}")
            # A BP step is readable only once it reached storage: wait for
            # the deferred drain to land this checkpoint.
            wait_started = self.clock.now()
            self.monitor.wait_for(lambda: entry.drained)
            blocked = self.clock.now() - wait_started
        source = "SSD"
        payload, read_seconds = self.ssd.get((self.process_id, ckpt_id))
        blocked += read_seconds
        # Deserialize, then stage through pageable host memory to the GPU.
        deserialize = entry.nominal_size / self.spec.host_serialize_bandwidth
        self.clock.sleep(deserialize)
        blocked += deserialize
        blocked += self.device.h2d_link.transfer(
            entry.nominal_size + self._pageable_penalty_bytes(entry.nominal_size)
        )
        buffer.copy_from(payload)
        if self.verify_restores:
            actual = checksum_payload(payload[: buffer.payload.size])
            if actual != entry.checksum:
                raise IntegrityError(
                    f"checkpoint {ckpt_id} corrupt: {actual:#010x} != {entry.checksum:#010x}"
                )
        self.recorder.record(
            OpEvent(
                kind=OpKind.RESTORE,
                ckpt_id=ckpt_id,
                started_at=started,
                blocked=blocked,
                nominal_bytes=entry.nominal_size,
                prefetch_distance=0,
                source_level=source,
            )
        )
        return blocked

    # -- maintenance ---------------------------------------------------------------------
    def wait_for_flushes(self) -> float:
        self._require_open()
        with Stopwatch(self.clock) as sw:
            self._drain_stream.synchronize()
        return sw.elapsed

    def stats(self) -> dict:
        with self.monitor:
            return {
                "process_id": self.process_id,
                "checkpoints": len(self._checkpoints),
                "staged_bytes": self._staged_bytes,
                "ssd_objects": self.ssd.object_count(),
            }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._drain_stream.close(drain=True)

    def __enter__(self) -> "Adios2Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
