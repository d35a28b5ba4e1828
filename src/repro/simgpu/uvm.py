"""Page-granular unified-virtual-memory simulation.

This models the behaviour the paper attributes to Nvidia UVM
(Section 5.2.2) closely enough to reproduce its cost structure:

* Managed allocations are carved into pages (``HardwareSpec.uvm_page_size``).
  A page is resident either on the device or on the host — migration is
  exclusive (the source copy is invalidated), which is why **every eviction
  of device-resident pages pays a device-to-host migration**, the paper's
  central criticism ("migrating the checkpoints before eviction").
* Device residency is capped (the experiment's GPU cache size).  Capacity
  pressure evicts least-recently-used allocations' pages with writeback.
* On-demand access to non-resident pages *faults*: pages migrate in
  fault-replay groups, each paying ``uvm_fault_latency``, at the (slower)
  ``uvm_migration_bandwidth``.
* ``prefetch_async`` (cudaMemPrefetchAsync) migrates without fault penalty
  at full link bandwidth, in the background.
* ``advise_preferred_location`` (cudaMemAdviseSetPreferredLocation) marks an
  allocation so the next background sweep migrates it toward its preferred
  home — the paper's trick for evicting consumed checkpoints promptly.

Residency is tracked per allocation as a contiguous page count: the
checkpoint workloads always touch whole checkpoints, so partial-residency
patterns within an allocation do not arise.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional

import numpy as np

from repro.clock import VirtualClock
from repro.config import HardwareSpec, ScaleModel
from repro.errors import UvmError
from repro.simgpu.bandwidth import Link
from repro.simgpu.stream import Event, Stream


class UvmAllocation:
    """One managed region: nominal size, payload bytes, residency state."""

    def __init__(self, name: str, nominal_size: int, scale: ScaleModel, page_size: int) -> None:
        self.name = name
        self.nominal_size = int(nominal_size)
        self.scale = scale
        self.page_size = int(page_size)
        self.num_pages = -(-self.nominal_size // self.page_size)  # ceil
        self.payload = np.zeros(scale.payload_bytes(scale.align(nominal_size)), dtype=np.uint8)
        #: pages currently resident on the device (0..num_pages)
        self.device_pages = 0
        #: "device" | "host" | None — cudaMemAdviseSetPreferredLocation
        self.preferred_location: Optional[str] = None
        self.freed = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UvmAllocation({self.name!r}, {self.nominal_size}B, "
            f"{self.device_pages}/{self.num_pages} pages on device)"
        )


class UvmSpace:
    """Unified memory manager for one device."""

    def __init__(
        self,
        device_id: int,
        device_capacity: int,
        spec: HardwareSpec,
        scale: ScaleModel,
        clock: VirtualClock,
        d2h_link: Link,
        h2d_link: Link,
        on_residency: Optional[Callable[[], None]] = None,
    ) -> None:
        self.device_id = device_id
        self.device_capacity = int(device_capacity)
        self.spec = spec
        self.scale = scale
        self.clock = clock
        self.d2h_link = d2h_link
        self.h2d_link = h2d_link
        self._lock = threading.RLock()
        #: LRU order: oldest first.  Only allocations with device pages.
        self._lru: "OrderedDict[str, UvmAllocation]" = OrderedDict()
        self._allocations: Dict[str, UvmAllocation] = {}
        self._prefetch_stream = Stream(f"gpu{device_id}-uvm-prefetch", clock)
        #: called, no lock held, once a migration moved pages on or off the device.
        self._on_residency = on_residency or (lambda: None)
        # counters
        self.fault_count = 0
        self.faulted_bytes = 0
        self.evicted_bytes = 0
        self.prefetched_bytes = 0

    # -- allocation lifecycle ---------------------------------------------
    def allocate(self, name: str, nominal_size: int) -> UvmAllocation:
        with self._lock:
            if name in self._allocations:
                raise UvmError(f"managed allocation {name!r} already exists")
            alloc = UvmAllocation(
                name, self.scale.align(nominal_size), self.scale, self.spec.uvm_page_size
            )
            self._allocations[name] = alloc
            return alloc

    def free(self, alloc: UvmAllocation) -> None:
        """Release a managed region; device pages are dropped without
        migration (the data is gone, as with ``cudaFree``)."""
        with self._lock:
            if alloc.freed:
                raise UvmError(f"double free of {alloc.name!r}")
            alloc.freed = True
            alloc.device_pages = 0
            self._lru.pop(alloc.name, None)
            self._allocations.pop(alloc.name, None)

    # -- advice / hints -----------------------------------------------------
    def advise_preferred_location(self, alloc: UvmAllocation, location: Optional[str]) -> None:
        if location not in (None, "host", "device"):
            raise UvmError(f"bad preferred location: {location!r}")
        with self._lock:
            self._check_live(alloc)
            alloc.preferred_location = location
        if location == "host" and alloc.device_pages:
            # The driver migrates advised-away pages out in the background.
            self._prefetch_stream.submit(
                lambda: self._migrate_to_host(alloc), label=f"advise-out-{alloc.name}"
            )

    def prefetch_async(self, alloc: UvmAllocation, destination: str = "device") -> Event:
        """cudaMemPrefetchAsync: background migration without fault cost."""
        if destination not in ("host", "device"):
            raise UvmError(f"bad prefetch destination: {destination!r}")
        with self._lock:
            self._check_live(alloc)
        if destination == "device":
            work = lambda: self._migrate_to_device(alloc, faulted=False)  # noqa: E731
        else:
            work = lambda: self._migrate_to_host(alloc)  # noqa: E731
        return self._prefetch_stream.submit(work, label=f"prefetch-{alloc.name}")

    # -- access paths --------------------------------------------------------
    def write_from_device(self, alloc: UvmAllocation, payload: np.ndarray) -> float:
        """Device kernel writes the whole region.

        Non-resident pages fault in (first-touch population is cheap, but a
        region that previously migrated to host must come back).  Returns
        the accounted nominal seconds the access blocked.
        """
        seconds = self._migrate_to_device(alloc, faulted=True)
        alloc.payload[: payload.size] = payload
        return seconds

    def read_to_device(self, alloc: UvmAllocation):
        """Device kernel reads the whole region; faults pull pages back.

        Returns ``(payload copy, accounted nominal seconds blocked)``.
        """
        seconds = self._migrate_to_device(alloc, faulted=True)
        return alloc.payload.copy(), seconds

    # -- internals ------------------------------------------------------------
    def _check_live(self, alloc: UvmAllocation) -> None:
        if alloc.freed:
            raise UvmError(f"use of freed allocation {alloc.name!r}")

    def _touch_lru(self, alloc: UvmAllocation) -> None:
        self._lru.pop(alloc.name, None)
        if alloc.device_pages:
            self._lru[alloc.name] = alloc

    def _migrate_to_device(self, alloc: UvmAllocation, faulted: bool) -> float:
        """Returns the accounted nominal seconds the migration blocked."""
        with self._lock:
            self._check_live(alloc)
            missing = alloc.num_pages - alloc.device_pages
            if missing <= 0:
                self._touch_lru(alloc)
                return 0.0
            need_bytes = missing * alloc.page_size
            seconds = self._make_room(need_bytes, exclude=alloc)
            alloc.device_pages = alloc.num_pages
            self._touch_lru(alloc)
        self._on_residency()
        # Pay migration cost outside the lock so other allocations progress.
        if faulted:
            groups = -(-missing // self.spec.uvm_fault_pages_per_group)
            fault_cost = groups * self.spec.uvm_fault_latency
            self.clock.sleep(fault_cost)
            seconds += fault_cost
            duration_bw = self.spec.uvm_migration_bandwidth
            with self._lock:
                self.fault_count += groups
                self.faulted_bytes += need_bytes
        else:
            duration_bw = self.h2d_link.bandwidth
            with self._lock:
                self.prefetched_bytes += need_bytes
        # Move the bytes through the shared H2D link, derated to the
        # migration bandwidth for the faulted path.
        if duration_bw < self.h2d_link.bandwidth:
            extra = need_bytes / duration_bw - need_bytes / self.h2d_link.bandwidth
            self.clock.sleep(extra)
            seconds += extra
        seconds += self.h2d_link.transfer(need_bytes)
        return seconds

    def _migrate_to_host(self, alloc: UvmAllocation) -> float:
        with self._lock:
            if alloc.freed:
                return 0.0
            pages = alloc.device_pages
            if pages == 0:
                return 0.0
            alloc.device_pages = 0
            self._lru.pop(alloc.name, None)
            moved = pages * alloc.page_size
            self.evicted_bytes += moved
        self._on_residency()
        return self.d2h_link.transfer(moved)

    def _make_room(self, need_bytes: int, exclude: UvmAllocation) -> float:
        """Evict LRU allocations until ``need_bytes`` fit.  Lock held.

        Returns the accounted nominal seconds spent on inline writebacks."""
        if need_bytes > self.device_capacity:
            raise UvmError(
                f"allocation needs {need_bytes} device bytes but the UVM "
                f"device cache holds only {self.device_capacity}"
            )
        seconds = 0.0
        while self._device_resident_bytes() + need_bytes > self.device_capacity:
            victim = self._pick_victim(exclude)
            if victim is None:
                raise UvmError(
                    "UVM device cache exhausted with no evictable allocation"
                )
            pages = victim.device_pages
            victim.device_pages = 0
            self._lru.pop(victim.name, None)
            moved = pages * victim.page_size
            self.evicted_bytes += moved
            # Writeback migration happens inline: the faulting/allocating
            # access stalls behind it, exactly the UVM behaviour the paper
            # measures.  Release the lock while the bytes move.
            self._lock.release()
            try:
                seconds += self.d2h_link.transfer(moved)
            finally:
                self._lock.acquire()
        return seconds

    def _pick_victim(self, exclude: UvmAllocation) -> Optional[UvmAllocation]:
        # Prefer allocations advised toward the host, then LRU order.
        for alloc in self._lru.values():
            if alloc is not exclude and alloc.preferred_location == "host":
                return alloc
        for alloc in self._lru.values():
            if alloc is not exclude:
                return alloc
        return None

    def _device_resident_bytes(self) -> int:
        return sum(a.device_pages * a.page_size for a in self._lru.values())

    @property
    def device_resident_bytes(self) -> int:
        with self._lock:
            return self._device_resident_bytes()

    def synchronize(self) -> None:
        """Wait for background advice/prefetch migrations to finish."""
        self._prefetch_stream.synchronize()

    def close(self) -> None:
        self._prefetch_stream.close(drain=True)
