"""The "optimized UVM" comparator runtime (Section 5.2.2).

Checkpoints live in page-granular unified memory
(:class:`~repro.simgpu.uvm.UvmSpace`); the runtime layers exactly the
optimizations the paper grants UVM:

* after a checkpoint is written, ``cudaMemAdviseSetPreferredLocation(host)``
  lets the driver migrate it off the device in the background (the flush);
* a drain thread persists checkpoints to the node-local SSD; under host
  budget pressure the oldest drained checkpoints are dropped from UVM;
* with hints, a prefetch thread issues ``cudaMemPrefetchAsync`` toward the
  device in restore order, throttled so prefetched-but-unconsumed data
  never exceeds the device cache (the paper's explicit consumption
  tracking);
* after a restore, the consumed region is advised back to the host so the
  driver can evict it promptly instead of keeping it under LRU.

What UVM *cannot* avoid — and what the Score runtime's life cycle exists to
fix — is exclusive page residency: evicting device pages always migrates
them (there is no "already flushed, just drop" state), and advising a
checkpoint away from the device means a later restore faults it back in at
fault-replay cost.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional

from repro.clock import Stopwatch
from repro.core.restore_queue import RestoreQueue
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
from repro.simgpu.uvm import UvmAllocation, UvmSpace
from repro.tiers.topology import ProcessContext


class _UvmCheckpoint:
    __slots__ = (
        "ckpt_id",
        "nominal_size",
        "true_size",
        "checksum",
        "alloc",
        "on_ssd",
        "consumed",
        "busy",
        "prefetch_counted",
    )

    def __init__(self, ckpt_id, nominal_size, true_size, checksum) -> None:
        self.ckpt_id = ckpt_id
        self.nominal_size = nominal_size
        self.true_size = true_size
        self.checksum = checksum
        self.alloc: Optional[UvmAllocation] = None
        self.on_ssd = False
        self.consumed = False
        self.busy = 0  # prefetch/restore currently touching the allocation
        self.prefetch_counted = False  # charged against the prefetch throttle


class UvmEngine:
    """UVM-managed checkpoint engine with the paper's hint optimizations."""

    name = "uvm"

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
        self.queue = RestoreQueue()
        self.uvm = UvmSpace(
            device_id=self.device.device_id,
            device_capacity=context.config.cache.gpu_cache_size,
            spec=self.spec,
            scale=self.scale,
            clock=self.clock,
            d2h_link=self.device.d2h_link,
            h2d_link=self.device.h2d_link,
            on_residency=self._residency_changed,
        )
        self.host_budget = context.config.cache.host_cache_size
        self._live_bytes = 0
        self._checkpoints: Dict[int, _UvmCheckpoint] = {}
        #: drained-to-SSD checkpoints still live in UVM, oldest first.
        self._reclaimable: "OrderedDict[int, _UvmCheckpoint]" = OrderedDict()
        self._drain_stream = Stream(f"p{self.process_id}-uvm-drain", self.clock)
        #: device bytes prefetched per the hints but not yet consumed.
        self._prefetched_unconsumed = 0
        self._closed = False
        self._prefetch_thread = threading.Thread(
            target=self.clock.runner(self._prefetch_loop),
            name=f"uvm-prefetch-p{self.process_id}",
            daemon=True,
        )
        self._prefetch_thread.start()
        # The paper charges UVM the same slow pinned host-cache warm-up:
        # the usable budget grows at the pinning rate.
        self._pin_started_at = self.clock.now()
        self._lazy_pinning = context.config.charge_allocation_cost

    def _require_open(self) -> None:
        if self._closed:
            raise EngineClosedError(f"UVM engine p{self.process_id} is closed")

    # -- write -------------------------------------------------------------------
    def checkpoint(self, ckpt_id: int, buffer: DeviceBuffer) -> float:
        self._require_open()
        nominal = self.scale.align(buffer.nominal_size)
        started = self.clock.now()
        with self.monitor:
            if ckpt_id in self._checkpoints:
                raise LifecycleError(f"checkpoint {ckpt_id} already exists")
            entry = _UvmCheckpoint(ckpt_id, nominal, buffer.nominal_size, buffer.checksum())
            self._checkpoints[ckpt_id] = entry
            budget_wait_started = self.clock.now()
            self._wait_for_host_budget(nominal)
            blocked = self.clock.now() - budget_wait_started
            self._live_bytes += nominal
            entry.alloc = self.uvm.allocate(f"ckpt-{ckpt_id}", nominal)
        # Populate on device: may inline-evict (migrate!) older pages.
        blocked += self.uvm.write_from_device(entry.alloc, buffer.payload)
        blocked += self.device.d2d_link.transfer(nominal)
        # Flush: advise the region toward the host; the driver migrates it
        # out in the background, then the drain persists it to the SSD.
        self.uvm.advise_preferred_location(entry.alloc, "host")
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

    def _usable_host_budget(self) -> int:
        if not self._lazy_pinning:
            return self.host_budget
        pinned = int((self.clock.now() - self._pin_started_at) * self.spec.host_pin_bandwidth)
        return min(self.host_budget, pinned)

    def _pin_eta(self, need: int) -> Optional[float]:
        """Nominal seconds until pinning alone makes the budget cover
        ``need`` — growth is clock-driven and notifies nobody, so a wait on
        it is a deadline — or ``None`` when growth cannot help."""
        if not self._lazy_pinning or need > self.host_budget:
            return None
        bandwidth = self.spec.host_pin_bandwidth
        return self._pin_started_at + (need + 1) / bandwidth - self.clock.now()

    def _wait_for_host_budget(self, nominal: int) -> None:
        """Monitor held.  Frees drained checkpoints oldest-first, then waits."""
        while self._live_bytes + nominal > self._usable_host_budget():
            freed = False
            for key, entry in list(self._reclaimable.items()):
                if entry.busy or entry.alloc is None:
                    continue
                if not entry.on_ssd and not entry.consumed:
                    continue  # still the only copy of live data
                self._free_entry(entry)
                del self._reclaimable[key]
                freed = True
                if self._live_bytes + nominal <= self._usable_host_budget():
                    break
            if self._live_bytes + nominal <= self._usable_host_budget():
                return
            if not freed:
                # Woken by a free, a drain or a consume; or by the pinned prefix's deadline.
                self.monitor.wait(self._pin_eta(self._live_bytes + nominal))

    def _free_entry(self, entry: _UvmCheckpoint) -> None:
        assert entry.alloc is not None
        self.uvm.free(entry.alloc)
        entry.alloc = None
        self._live_bytes -= entry.nominal_size
        self.monitor.notify_all()

    def _drain(self, entry: _UvmCheckpoint) -> None:
        with self.monitor:
            alloc = entry.alloc
            if alloc is None or entry.consumed:
                return
            entry.busy += 1
        try:
            payload = alloc.payload.copy()
            self.ssd.put((self.process_id, entry.ckpt_id), payload, entry.nominal_size)
        finally:
            with self.monitor:
                entry.busy -= 1
                entry.on_ssd = True
                if not entry.consumed:
                    self._reclaimable[entry.ckpt_id] = entry
                self.monitor.notify_all()

    # -- hints ------------------------------------------------------------------------
    def prefetch_enqueue(self, ckpt_id: int) -> None:
        self._require_open()
        with self.monitor:
            self.queue.enqueue(ckpt_id)
            self.monitor.notify_all()
            if self.queue.started:
                self.monitor.hints.notify_all()

    def prefetch_start(self) -> None:
        self._require_open()
        with self.monitor:
            self.queue.start()
            self.monitor.notify_all()
            self.monitor.hints.notify_all()

    def _prefetch_loop(self) -> None:
        device_cap = self.uvm.device_capacity
        while True:
            target: Optional[_UvmCheckpoint] = None
            needs_ssd_read = False
            with self.monitor:
                while not self._closed:
                    target, needs_ssd_read = self._pick_prefetch(device_cap)
                    if target is not None:
                        break
                    if not self.queue.started or len(self.queue) == 0:
                        # Nothing to walk: only a start, an enqueue or close helps.
                        self.monitor.hints.wait()
                    else:
                        self.monitor.wait()  # every change _pick_prefetch reads notifies
                if self._closed:
                    return
                target.busy += 1
                if not target.prefetch_counted:
                    target.prefetch_counted = True
                    self._prefetched_unconsumed += target.nominal_size
            try:
                if target.alloc is not None:
                    self.uvm.prefetch_async(target.alloc, "device").wait()
            finally:
                with self.monitor:
                    target.busy -= 1
                    if target.consumed and target.prefetch_counted:
                        # consumed while prefetching: _consume skipped the
                        # release because we were still busy
                        target.prefetch_counted = False
                        self._prefetched_unconsumed -= target.nominal_size
                    self.monitor.notify_all()

    def _residency_changed(self) -> None:
        """The UVM driver moved pages on or off the device (a background
        migration included): ``_pick_prefetch`` reads residency."""
        with self.monitor:
            self.monitor.notify_all()

    def _pick_prefetch(self, device_cap: int):
        """Monitor held: the next hinted checkpoint to stage, if within the
        consumption-tracking throttle."""
        if not self.queue.started:
            return None, False
        for ckpt_id in self.queue.upcoming(16):
            entry = self._checkpoints.get(ckpt_id)
            if entry is None or entry.consumed or entry.busy:
                continue
            if entry.alloc is None:
                # cudaMemPrefetchAsync only reaches managed memory: an
                # SSD-resident checkpoint is invisible to UVM and will be
                # demand-read at restore time — the multi-tier blindness
                # the paper's runtime exists to fix.
                continue
            if entry.alloc.device_pages == entry.alloc.num_pages:
                continue  # already resident
            if self._prefetched_unconsumed + entry.nominal_size > device_cap:
                return None, False  # throttle: wait for consumption
            return entry, False
        return None, False

    # -- read --------------------------------------------------------------------------
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
            if entry.consumed:
                raise LifecycleError(f"checkpoint {ckpt_id} was already consumed")
            # Wait out a prefetch touching this allocation.
            busy_wait_started = self.clock.now()
            self.monitor.wait_for(lambda: entry.busy == 0)
            blocked = self.clock.now() - busy_wait_started
            entry.busy += 1
            resident = (
                entry.alloc is not None
                and entry.alloc.device_pages == entry.alloc.num_pages
            )
            source = "GPU" if resident else ("HOST" if entry.alloc is not None else "SSD")
            distance = self._sample_prefetch_distance(ckpt_id)
        try:
            if entry.alloc is None:
                payload, read_seconds = self.ssd.get((self.process_id, ckpt_id))
                blocked += read_seconds
                with self.monitor:
                    budget_wait = self.clock.now()
                    self._wait_for_host_budget(entry.nominal_size)
                    blocked += self.clock.now() - budget_wait
                    self._live_bytes += entry.nominal_size
                    entry.alloc = self.uvm.allocate(f"ckpt-{ckpt_id}", entry.nominal_size)
                    entry.alloc.payload[: payload.size] = payload
            # Touch on device: faults in whatever is not resident.
            payload, fault_seconds = self.uvm.read_to_device(entry.alloc)
            blocked += fault_seconds
            blocked += self.device.d2d_link.transfer(entry.nominal_size)
            buffer.copy_from(payload)
            if self.verify_restores:
                actual = checksum_payload(payload[: buffer.payload.size])
                if actual != entry.checksum:
                    raise IntegrityError(
                        f"checkpoint {ckpt_id} corrupt: "
                        f"{actual:#010x} != {entry.checksum:#010x}"
                    )
        finally:
            with self.monitor:
                entry.busy -= 1
        self._consume(entry, resident)
        self.recorder.record(
            OpEvent(
                kind=OpKind.RESTORE,
                ckpt_id=ckpt_id,
                started_at=started,
                blocked=blocked,
                nominal_bytes=entry.nominal_size,
                prefetch_distance=distance,
                source_level=source,
            )
        )
        return blocked

    def _sample_prefetch_distance(self, ckpt_id: int) -> int:
        count = 0
        for upcoming in self.queue.upcoming(16):
            if upcoming == ckpt_id:
                continue
            entry = self._checkpoints.get(upcoming)
            if (
                entry is not None
                and entry.alloc is not None
                and entry.alloc.device_pages == entry.alloc.num_pages
            ):
                count += 1
            else:
                break
        return count

    def _consume(self, entry: _UvmCheckpoint, was_resident: bool) -> None:
        with self.monitor:
            entry.consumed = True
            self.queue.consume(entry.ckpt_id)
            if entry.prefetch_counted and entry.busy == 0:
                entry.prefetch_counted = False
                self._prefetched_unconsumed -= entry.nominal_size
            alloc = entry.alloc
            self.monitor.notify_all()
        if alloc is not None:
            # The paper's post-consumption advice: preferred location back
            # to the host, so the driver migrates the pages out promptly
            # instead of leaving them to LRU.  Exclusive residency means
            # this *is* a migration — it occupies the driver's copy queue
            # and the D2H link (there is no "just drop" in UVM).
            self.uvm.advise_preferred_location(alloc, "host")
            with self.monitor:
                # Consumed and (if needed) drained: reclaimable for budget.
                self._reclaimable[entry.ckpt_id] = entry
                self.monitor.notify_all()

    # -- maintenance --------------------------------------------------------------------
    def wait_for_flushes(self) -> float:
        self._require_open()
        with Stopwatch(self.clock) as sw:
            self.uvm.synchronize()
            self._drain_stream.synchronize()
        return sw.elapsed

    def stats(self) -> dict:
        with self.monitor:
            return {
                "process_id": self.process_id,
                "checkpoints": len(self._checkpoints),
                "live_uvm_bytes": self._live_bytes,
                "device_resident_bytes": self.uvm.device_resident_bytes,
                "faults": self.uvm.fault_count,
                "evicted_bytes": self.uvm.evicted_bytes,
                "ssd_objects": self.ssd.object_count(),
            }

    def close(self) -> None:
        if self._closed:
            return
        with self.monitor:
            self._closed = True
            self.monitor.notify_all()
            self.monitor.hints.notify_all()
        self.clock.join(self._prefetch_thread)
        self._drain_stream.close(drain=True)
        self.uvm.close()

    def __enter__(self) -> "UvmEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
