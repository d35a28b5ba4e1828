"""One simulated GPU: HBM arena plus interconnect endpoints.

A :class:`Device` owns a private intra-device link (HBM fabric, used by
device-to-device cache copies) and references the node-shared PCIe links for
the two host directions (two GPUs share one physical link on a DGX-A100,
which is where the paper's device↔host contention comes from).

Streams are created per client so the checkpoint runtime can dedicate
separate engines to flushing and prefetching (Section 4.3.1).
"""

from __future__ import annotations

from typing import Optional

from repro.clock import VirtualClock
from repro.config import HardwareSpec, ScaleModel
from repro.simgpu.bandwidth import Link
from repro.simgpu.memory import Arena, DeviceBuffer
from repro.simgpu.stream import Stream


class Device:
    """A single GPU with its HBM and interconnect endpoints."""

    def __init__(
        self,
        device_id: int,
        spec: HardwareSpec,
        scale: ScaleModel,
        clock: VirtualClock,
        d2h_link: Optional[Link] = None,
        h2d_link: Optional[Link] = None,
    ) -> None:
        self.device_id = device_id
        self.spec = spec
        self.scale = scale
        self.clock = clock
        self.d2d_link = Link(
            f"gpu{device_id}-hbm", spec.d2d_bandwidth, clock, latency=spec.transfer_latency
        )
        # Stand-alone devices (unit tests) get private PCIe links; inside a
        # Node the links are shared between gpus_per_pcie_link devices.
        self.d2h_link = d2h_link or Link(
            f"gpu{device_id}-pcie-d2h",
            spec.d2h_bandwidth,
            clock,
            latency=spec.transfer_latency,
        )
        self.h2d_link = h2d_link or Link(
            f"gpu{device_id}-pcie-h2d",
            spec.h2d_bandwidth,
            clock,
            latency=spec.transfer_latency,
        )
        self._streams = []

    def alloc_arena(self, nominal_capacity: int, charge_cost: bool = True) -> Arena:
        """Pre-allocate a contiguous HBM cache arena (Section 4.1.4).

        ``charge_cost`` sleeps for the one-off allocation time at the HBM
        allocation rate; the arena is then reused for the whole run.
        """
        if charge_cost:
            self.clock.sleep(nominal_capacity / self.spec.gpu_alloc_bandwidth)
        return Arena(f"gpu{self.device_id}-cache", nominal_capacity, self.scale)

    def alloc_buffer(self, nominal_size: int) -> DeviceBuffer:
        """An application-owned HBM buffer (a ``VELOC_Mem_protect`` region)."""
        return DeviceBuffer(self.scale.align(nominal_size), self.scale, self.device_id)

    def create_stream(self, name: str) -> Stream:
        """A dedicated asynchronous work queue (CUDA-stream analogue)."""
        stream = Stream(f"gpu{self.device_id}-{name}", self.clock)
        self._streams.append(stream)
        return stream

    def close(self) -> None:
        """Drain and stop every stream created on this device."""
        for stream in self._streams:
            stream.close(drain=True)
        self._streams.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device({self.device_id})"
