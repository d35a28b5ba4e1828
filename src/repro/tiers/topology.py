"""Cluster / node / process wiring.

Reproduces the DGX-A100 sharing structure the evaluation depends on:

* eight GPUs per node, **two GPUs per PCIe Gen 4 link** — so device↔host
  bandwidth is contended pairwise;
* one node-local SSD store shared by all co-located processes;
* one cluster-wide PFS store;
* per-process GPU and pinned-host cache arenas (the paper reserves 4 GB HBM
  and 32 GB host memory per process; host-cache *sharing* across processes
  is explicitly future work in the paper).

A :class:`ProcessContext` bundles everything one checkpointing engine needs.
"""

from __future__ import annotations

import os
import threading
from typing import List, Optional

from repro.clock import VirtualClock
from repro.config import RuntimeConfig
from repro.errors import ConfigError
from repro.faults.health import HealthRegistry
from repro.faults.injector import FaultDomain
from repro.faults.journal import ManifestJournal, RecipeStore
from repro.sched.scheduler import SchedContext
from repro.simgpu.bandwidth import Link
from repro.simgpu.device import Device
from repro.simgpu.memory import Arena
from repro.telemetry import Telemetry
from repro.tiers.gpu import make_gpu_cache_arena
from repro.tiers.host import make_host_cache_arena
from repro.tiers.pfs import PfsStore
from repro.tiers.ssd import SsdStore


class ProcessContext:
    """Everything one process (engine) needs: device, arenas, stores."""

    def __init__(
        self,
        process_id: int,
        node: "Node",
        device: Device,
    ) -> None:
        self.process_id = process_id
        self.node = node
        self.device = device
        self.clock = node.clock
        self.scale = node.config.scale
        self.spec = node.config.hardware
        self.config = node.config
        self._gpu_arena: Optional[Arena] = None
        self._host_arena: Optional[Arena] = None
        self._host_pin_started_at: Optional[float] = None

    @property
    def ssd(self) -> SsdStore:
        return self.node.ssd

    @property
    def pfs(self) -> Optional[PfsStore]:
        return self.node.cluster.pfs

    @property
    def telemetry(self) -> Telemetry:
        return self.node.cluster.telemetry

    def gpu_cache_arena(self, nominal_capacity: Optional[int] = None) -> Arena:
        """This process's device cache arena (allocated once, then cached)."""
        if self._gpu_arena is None:
            capacity = nominal_capacity or self.config.cache.gpu_cache_size
            self._gpu_arena = make_gpu_cache_arena(
                self.device, capacity, charge_cost=self.config.charge_allocation_cost
            )
        return self._gpu_arena

    def host_cache_arena(self, nominal_capacity: Optional[int] = None) -> Arena:
        """This process's pinned host cache arena (allocated once).

        With ``lazy_host_pinning`` the pinning cost is not paid up front;
        instead :meth:`host_usable_capacity` reports a usable prefix that
        grows at the pinning rate (Section 4.1.4 / [18]).
        """
        if self._host_arena is None:
            capacity = nominal_capacity or self.config.cache.host_cache_size
            lazy = self.config.lazy_host_pinning
            self._host_pin_started_at = self.clock.now()
            self._host_arena = make_host_cache_arena(
                self.process_id,
                capacity,
                self.spec,
                self.scale,
                self.clock,
                charge_cost=self.config.charge_allocation_cost and not lazy,
            )
        return self._host_arena

    def host_usable_capacity(self) -> int:
        """Currently-pinned prefix of the host cache arena (nominal bytes)."""
        arena = self.host_cache_arena()
        if not (self.config.charge_allocation_cost and self.config.lazy_host_pinning):
            return arena.nominal_capacity
        elapsed = self.clock.now() - (self._host_pin_started_at or 0.0)
        pinned = int(elapsed * self.spec.host_pin_bandwidth)
        return min(arena.nominal_capacity, pinned)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessContext(p{self.process_id}, node {self.node.node_id})"


class Node:
    """One compute node: devices, shared PCIe links, SSD store."""

    def __init__(self, node_id: int, cluster: "Cluster") -> None:
        self.node_id = node_id
        self.cluster = cluster
        self.config = cluster.config
        self.clock = cluster.clock
        spec = self.config.hardware
        ssd_dir = None
        if self.config.ssd_directory is not None:
            ssd_dir = os.path.join(self.config.ssd_directory, f"node{node_id}")
        self.ssd = SsdStore(
            node_id,
            spec,
            self.config.scale,
            self.clock,
            directory=ssd_dir,
            telemetry=cluster.telemetry,
            sched=cluster.sched,
            faults=cluster.faults,
        )
        # Shared PCIe links: gpus_per_pcie_link GPUs share one per direction.
        self._d2h_links: List[Link] = []
        self._h2d_links: List[Link] = []
        for li in range(spec.pcie_links_per_node):
            self._d2h_links.append(
                Link(
                    f"node{node_id}-pcie{li}-d2h",
                    spec.d2h_bandwidth,
                    self.clock,
                    latency=spec.transfer_latency,
                )
            )
            self._h2d_links.append(
                Link(
                    f"node{node_id}-pcie{li}-h2d",
                    spec.h2d_bandwidth,
                    self.clock,
                    latency=spec.transfer_latency,
                )
            )
            cluster.sched.attach(self._d2h_links[-1])
            cluster.sched.attach(self._h2d_links[-1])
            cluster.faults.attach(self._d2h_links[-1])
            cluster.faults.attach(self._h2d_links[-1])
        self.devices: List[Device] = []
        for gi in range(spec.gpus_per_node):
            link_idx = gi // spec.gpus_per_pcie_link
            self.devices.append(
                Device(
                    device_id=node_id * spec.gpus_per_node + gi,
                    spec=spec,
                    scale=self.config.scale,
                    clock=self.clock,
                    d2h_link=self._d2h_links[link_idx],
                    h2d_link=self._h2d_links[link_idx],
                )
            )

    def process_context(self, local_rank: int) -> ProcessContext:
        if not 0 <= local_rank < len(self.devices):
            raise ConfigError(
                f"local rank {local_rank} out of range for node with "
                f"{len(self.devices)} GPUs"
            )
        process_id = self.node_id * self.config.hardware.gpus_per_node + local_rank
        return ProcessContext(process_id, self, self.devices[local_rank])

    def close(self) -> None:
        for device in self.devices:
            device.close()


class Cluster:
    """The whole job: nodes plus the shared parallel file system."""

    def __init__(self, config: RuntimeConfig, clock: Optional[VirtualClock] = None) -> None:
        self.config = config
        self.clock = clock or VirtualClock(config.scale.time_scale)
        #: one telemetry bundle per simulation: every engine, cache, flush
        #: stream and store of this cluster traces and counts into it.
        self.telemetry = Telemetry(
            clock=self.clock,
            enabled=config.telemetry,
            capacity=config.telemetry_buffer,
        )
        #: QoS transfer scheduling across the shared links (no-op arbiter
        #: fleet unless ``config.sched.enabled``); every Link this cluster
        #: grants slots on — PCIe pairs, SSD, PFS, fabric — is offered to it
        #: (not the PFS write aggregate: it is booked, never granted).
        self.sched = SchedContext(config.sched, self.clock, self.telemetry)
        #: deterministic fault injection (inactive unless ``config.faults``
        #: enables it); offered every Link and tier store like the scheduler.
        self.faults = FaultDomain(
            config.faults, config.resilience, self.clock, self.telemetry
        )
        #: per-tier circuit breakers (always constructed; no-op registry
        #: unless ``config.resilience.enabled``).
        self.health = HealthRegistry(config.resilience, self.clock, self.telemetry)
        #: crash-consistent durable-commit log + reduced-checkpoint recipe
        #: sidecar; file-backed next to the SSD tier when it has a directory
        #: so both survive full process re-incarnation.
        journal_path = None
        recipe_dir = None
        if config.ssd_directory is not None:
            os.makedirs(config.ssd_directory, exist_ok=True)
            journal_path = os.path.join(config.ssd_directory, "journal.jsonl")
            recipe_dir = os.path.join(config.ssd_directory, "recipes")
        self.journal = ManifestJournal(path=journal_path)
        self.recipes = RecipeStore(directory=recipe_dir)
        self.pfs = PfsStore(
            config.hardware,
            config.scale,
            self.clock,
            telemetry=self.telemetry,
            sched=self.sched,
            faults=self.faults,
        )
        self.nodes = [Node(node_id, self) for node_id in range(config.num_nodes)]
        self._closed = False
        self._lock = threading.Lock()
        self._internode_links = {}
        #: distributed checkpoint fabric (None unless ``config.cluster``
        #: enables it): replica directory, peer-read routing, per-node PFS
        #: write aggregators (:mod:`repro.cluster.fabric`).
        self.fabric = None
        if config.cluster.enabled:
            from repro.cluster.fabric import ClusterFabric  # lazy: import cycle

            self.fabric = ClusterFabric(self)
            for node in self.nodes:
                node.ssd.attach_directory(self.fabric.directory)

    def internode_link(self, node_a: int, node_b: int) -> Link:
        """The shared fabric link between two nodes (created lazily)."""
        if node_a == node_b:
            raise ConfigError("no interconnect link from a node to itself")
        key = (min(node_a, node_b), max(node_a, node_b))
        with self._lock:
            link = self._internode_links.get(key)
            if link is None:
                link = Link(
                    f"fabric-{key[0]}-{key[1]}",
                    self.config.hardware.internode_bandwidth,
                    self.clock,
                    latency=self.config.hardware.transfer_latency,
                )
                self.sched.attach(link)
                self.faults.attach(link)
                self._internode_links[key] = link
            return link

    def process_contexts(self) -> List[ProcessContext]:
        """One context per process, ``processes_per_node`` per node."""
        contexts = []
        ppn = self.config.effective_processes_per_node
        for node in self.nodes:
            for local_rank in range(ppn):
                contexts.append(node.process_context(local_rank))
        return contexts

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for node in self.nodes:
            node.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
