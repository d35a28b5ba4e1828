"""Configuration dataclasses: hardware model, scaling model, runtime knobs.

The hardware numbers default to the paper's ThetaGPU DGX-A100 node
(Section 5.1): 1 TB/s HBM device-to-device, 25 GB/s pinned PCIe Gen 4 per
link (shared by two GPUs), 4 GB/s NVMe per drive, pinned-host allocation at
4 GB/s, eight GPUs per node.

Because no real GPU is present, a :class:`ScaleModel` shrinks the experiment
along two independent axes:

* ``data_scale`` — nominal bytes per actually-stored payload byte.  The
  allocation tables, capacities and bandwidth arithmetic run on *nominal*
  sizes; only the backing numpy buffers shrink.
* ``time_scale`` — wall-clock seconds per nominal second (see
  :mod:`repro.clock`).

Both default to 1 (full fidelity); experiment presets pick aggressive values
so a full shot runs in under a second of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError
from repro.util.units import GiB, KiB, MiB, TiB, parse_size


@dataclass(frozen=True)
class HardwareSpec:
    """Nominal performance characteristics of one compute node.

    Bandwidths are bytes per nominal second; latencies are nominal seconds
    added per transfer (command submission + interconnect setup).
    """

    gpus_per_node: int = 8
    gpus_per_pcie_link: int = 2

    d2d_bandwidth: float = 1.0 * TiB  # HBM copies within one GPU
    d2h_bandwidth: float = 25.0 * GiB  # pinned, per PCIe link
    h2d_bandwidth: float = 25.0 * GiB  # pinned, per PCIe link
    d2h_unpinned_bandwidth: float = 6.0 * GiB  # pageable staging (ADIOS2 path)
    #: engine-level (de)serialization of checkpoints into transport buffers
    #: (what makes the paper's measured ADIOS2 throughput an order of
    #: magnitude below raw PCIe speed).
    host_serialize_bandwidth: float = 0.5 * GiB
    #: effective node-aggregate NVMe bandwidth.  The node has four Gen 4
    #: drives at 4 GB/s each; the paper's measured effective flush rate is
    #: 685 MB/s per rank × 8 ranks ≈ 5.5 GB/s of sustained aggregate, which
    #: is what the flush pipeline actually obtains.
    ssd_write_bandwidth: float = 5.5 * GiB
    ssd_read_bandwidth: float = 5.5 * GiB
    pfs_write_bandwidth: float = 2.0 * GiB  # per node share of Lustre
    pfs_read_bandwidth: float = 2.0 * GiB
    #: node-to-node fabric (HDR InfiniBand class), used by ring
    #: replication (a VELOC resilience strategy, Section 3.1).
    internode_bandwidth: float = 20.0 * GiB

    # Allocation costs (Section 4.1.4): pinned host allocation ~4 GB/s,
    # device allocation ~1 TB/s.  Paid once per arena at initialization.
    host_pin_bandwidth: float = 4.0 * GiB
    gpu_alloc_bandwidth: float = 1.0 * TiB

    transfer_latency: float = 20e-6  # per asynchronous copy
    ssd_latency: float = 80e-6  # per file op
    pfs_latency: float = 500e-6

    # UVM model (Section 5.2.2 comparator)
    uvm_page_size: int = 2 * MiB
    uvm_fault_latency: float = 25e-6  # per faulted page group
    uvm_fault_pages_per_group: int = 16  # fault-replay batches
    uvm_migration_bandwidth: float = 8.0 * GiB  # fault-driven paging is
    # substantially slower than explicit pinned copies (fault replay +
    # driver bookkeeping; cf. Allen & Ge, IPDPS'21)

    def __post_init__(self) -> None:
        if self.gpus_per_node <= 0:
            raise ConfigError(f"gpus_per_node must be positive: {self.gpus_per_node}")
        if self.gpus_per_pcie_link <= 0:
            raise ConfigError(
                f"gpus_per_pcie_link must be positive: {self.gpus_per_pcie_link}"
            )
        if self.gpus_per_node % self.gpus_per_pcie_link != 0:
            raise ConfigError(
                "gpus_per_node must be a multiple of gpus_per_pcie_link: "
                f"{self.gpus_per_node} % {self.gpus_per_pcie_link} != 0"
            )
        for name in (
            "d2d_bandwidth",
            "d2h_bandwidth",
            "h2d_bandwidth",
            "d2h_unpinned_bandwidth",
            "ssd_write_bandwidth",
            "ssd_read_bandwidth",
            "pfs_write_bandwidth",
            "pfs_read_bandwidth",
            "host_pin_bandwidth",
            "gpu_alloc_bandwidth",
            "uvm_migration_bandwidth",
            "host_serialize_bandwidth",
            "internode_bandwidth",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("transfer_latency", "ssd_latency", "pfs_latency", "uvm_fault_latency"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.uvm_page_size <= 0 or self.uvm_fault_pages_per_group <= 0:
            raise ConfigError("UVM page parameters must be positive")

    @property
    def pcie_links_per_node(self) -> int:
        return self.gpus_per_node // self.gpus_per_pcie_link


@dataclass(frozen=True)
class ScaleModel:
    """Mapping between nominal (paper-unit) and executed quantities."""

    data_scale: int = 1
    time_scale: float = 1.0
    #: nominal allocation granularity; all checkpoint sizes and cache
    #: capacities are rounded up to a multiple of this, which guarantees the
    #: scaled payload offsets stay integral.
    alignment: int = 64 * KiB

    def __post_init__(self) -> None:
        if self.data_scale < 1:
            raise ConfigError(f"data_scale must be >= 1: {self.data_scale}")
        if not (0.0 < self.time_scale <= 1000.0):
            raise ConfigError(f"time_scale out of range: {self.time_scale}")
        if self.alignment < 1 or self.alignment % self.data_scale != 0:
            raise ConfigError(
                f"alignment ({self.alignment}) must be a positive multiple of "
                f"data_scale ({self.data_scale})"
            )

    def align(self, nominal_size: int) -> int:
        """Round a nominal size up to the allocation granularity."""
        if nominal_size < 0:
            raise ConfigError(f"negative size: {nominal_size}")
        if nominal_size == 0:
            return self.alignment
        return ((nominal_size + self.alignment - 1) // self.alignment) * self.alignment

    def payload_bytes(self, nominal_size: int) -> int:
        """Actually-stored bytes for a nominal size (must be aligned)."""
        if nominal_size % self.data_scale != 0:
            raise ConfigError(
                f"nominal size {nominal_size} not a multiple of data_scale "
                f"{self.data_scale}; call align() first"
            )
        return nominal_size // self.data_scale


#: ScaleModel used by the test-suite and the shipped benchmarks: 128 MiB
#: nominal checkpoints store 256 payload bytes, and one nominal second lasts
#: 20 ms of wall time.  All *nominal* quantities (sizes, bandwidths, cache
#: capacities, compute intervals) stay exactly at the paper's values — only
#: the stored bytes and the wall clock shrink.  Transfer durations are
#: *accounted* analytically (see Link.transfer), so the time scale mainly
#: bounds how much condition-variable wake-up latency (~0.1 ms real)
#: pollutes measured waits: at 0.1 it maps to ~1 ms nominal, small against
#: the flush/eviction waits it rides on.
BENCH_SCALE = ScaleModel(data_scale=512 * KiB, time_scale=0.1, alignment=512 * KiB)


@dataclass(frozen=True)
class CacheConfig:
    """Per-process cache reservations (Section 5.3.4 defaults)."""

    gpu_cache_size: int = 4 * GiB
    host_cache_size: int = 32 * GiB

    def __post_init__(self) -> None:
        if self.gpu_cache_size <= 0:
            raise ConfigError(f"gpu_cache_size must be positive: {self.gpu_cache_size}")
        if self.host_cache_size <= 0:
            raise ConfigError(f"host_cache_size must be positive: {self.host_cache_size}")

    @staticmethod
    def of(gpu: object, host: object) -> "CacheConfig":
        """Build from sizes in any form ``parse_size`` accepts."""
        return CacheConfig(gpu_cache_size=parse_size(gpu), host_cache_size=parse_size(host))


@dataclass(frozen=True)
class SchedConfig:
    """Knobs of the QoS transfer scheduler (:mod:`repro.sched`).

    With ``enabled=False`` (the default) every shared link keeps its
    unarbitrated FIFO chunk interleave — bit-for-bit the pre-scheduler
    behaviour, and the baseline mode of ``benchmarks/bench_contention.py``.
    """

    #: master switch: attach a :class:`~repro.sched.LinkScheduler` to every
    #: shared tier link (PCIe, SSD, PFS, inter-node fabric).
    enabled: bool = False
    #: largest span one grant moves before the link is re-arbitrated.
    #: Bounds how long a newly-arrived demand read waits behind an already
    #: in-flight lower-class transfer (``quantum_bytes / bandwidth``).
    quantum_bytes: int = 64 * MiB
    #: WFQ weight for engines without an explicit entry in
    #: ``engine_weights`` (service within a class is proportional to weight).
    default_weight: float = 1.0
    #: optional per-engine WFQ weight overrides: ((engine_id, weight), ...).
    engine_weights: tuple = ()
    #: per-engine token-bucket refill, bytes per nominal second, applied to
    #: background classes (prefetch + flush) on every scheduled link.
    #: ``None`` = unlimited.
    engine_rate_limit: Optional[float] = None
    #: token-bucket capacity (burst allowance) when rate limiting is on.
    burst_bytes: int = 64 * MiB
    #: bounded-queue limit for SPECULATIVE_PREFETCH requests per link;
    #: arrivals beyond it are shed with :class:`~repro.errors.AdmissionError`
    #: (the prefetcher backs off and retries).
    max_speculative_queue: int = 4
    #: bounded-queue limit for CASCADE_FLUSH requests per link; arrivals
    #: beyond it *block* in admission until the backlog drains (flushes
    #: must eventually happen — shedding them would lose durability).
    max_flush_queue: int = 16
    #: engine-level admission control: when the D2H flush backlog reaches
    #: this many pending flushes, ``checkpoint()`` applies ``admission``.
    max_flush_backlog: int = 32
    #: overload behaviour of ``checkpoint()``: "block" waits for the flush
    #: backlog to drop below ``max_flush_backlog``, "shed" raises
    #: :class:`~repro.errors.BackpressureError`, "off" never intervenes.
    admission: str = "block"
    #: hints at restore-queue distance ≤ this prefetch as HINTED_PREFETCH;
    #: farther hints are SPECULATIVE_PREFETCH (preemptible, sheddable).
    hint_near_distance: int = 4
    #: nominal seconds per hint-queue position used to derive prefetch
    #: deadlines (deadline = now + distance * hint_spacing_s); EDF within
    #: the prefetch classes paces far-future prefetches behind near ones.
    hint_spacing_s: float = 0.010
    #: cancel in-flight speculative prefetches on a link the moment a
    #: demand read arrives there (the freed slot and bandwidth go to the
    #: demand read; the prefetcher re-issues later).
    preempt_speculative: bool = True

    def __post_init__(self) -> None:
        if self.quantum_bytes <= 0:
            raise ConfigError(f"quantum_bytes must be positive: {self.quantum_bytes}")
        if self.default_weight <= 0:
            raise ConfigError(f"default_weight must be positive: {self.default_weight}")
        for entry in self.engine_weights:
            if len(entry) != 2 or entry[1] <= 0:
                raise ConfigError(f"bad engine_weights entry: {entry!r}")
        if self.engine_rate_limit is not None and self.engine_rate_limit <= 0:
            raise ConfigError(
                f"engine_rate_limit must be positive or None: {self.engine_rate_limit}"
            )
        if self.burst_bytes <= 0:
            raise ConfigError(f"burst_bytes must be positive: {self.burst_bytes}")
        if self.max_speculative_queue < 0 or self.max_flush_queue < 1:
            raise ConfigError("scheduler queue bounds out of range")
        if self.max_flush_backlog < 1:
            raise ConfigError(f"max_flush_backlog must be >= 1: {self.max_flush_backlog}")
        if self.admission not in ("block", "shed", "off"):
            raise ConfigError(f"unknown admission policy: {self.admission!r}")
        if self.hint_near_distance < 0:
            raise ConfigError(f"hint_near_distance must be >= 0: {self.hint_near_distance}")
        if self.hint_spacing_s < 0:
            raise ConfigError(f"hint_spacing_s must be >= 0: {self.hint_spacing_s}")

    def weight_of(self, engine_id: int) -> float:
        for eid, weight in self.engine_weights:
            if eid == engine_id:
                return float(weight)
        return self.default_weight


@dataclass(frozen=True)
class ReduceConfig:
    """Knobs of the data-reduction pipeline (:mod:`repro.reduce`).

    With ``enabled=False`` (the default) no reducer is constructed and every
    checkpoint travels the tier hierarchy at its full logical size —
    bit-for-bit the pre-reduction behaviour (same discipline as
    :class:`SchedConfig`).  When enabled, checkpoints are chunked, deduped
    against a per-tier content-addressed chunk store, delta-encoded against
    the previous checkpoint of the same variable, and run through a
    *modeled* compression codec; the reduced **physical** size is what
    occupies cache arenas and travels the tier links, while restores
    reconstruct the full logical payload before ``READ_COMPLETE``.
    """

    #: master switch: attach a :class:`~repro.reduce.Reducer` to every engine.
    enabled: bool = False
    #: where the reduction boundary sits: ``"gpu"`` encodes on the device at
    #: checkpoint time (every tier, including the GPU cache, holds the
    #: physical form and every link moves physical bytes); ``"host"`` keeps
    #: the GPU cache logical and encodes on the host during the D2H flush
    #: (host/SSD/PFS hold physical bytes — the codec runs off the
    #: application's critical path, but PCIe still moves logical bytes).
    site: str = "gpu"
    #: chunking strategy: ``"fixed"`` (fixed-size boundaries) or ``"cdc"``
    #: (content-defined boundaries via a gear rolling hash, so insertions
    #: do not shift every downstream chunk identity).
    chunking: str = "fixed"
    #: nominal bytes per chunk (fixed) / target average chunk (cdc).
    chunk_size: int = 8 * MiB
    #: cdc minimum/maximum chunk bounds (nominal bytes).
    min_chunk_size: int = 2 * MiB
    max_chunk_size: int = 32 * MiB
    #: delta-encode chunks against the previous checkpoint of the same
    #: variable when the byte diff is small enough to pay off.
    delta: bool = True
    #: a chunk is delta-encoded only when its diff is below this fraction
    #: of the chunk size (otherwise the full chunk is cheaper to store).
    delta_threshold: float = 0.6
    #: longest allowed chain of delta-encoded checkpoints; the next encode
    #: past the bound *rebases* (stores a self-contained version) so
    #: restore latency stays predictable.
    max_delta_chain: int = 4
    #: modeled decode-time penalty per chain level: reconstructing a
    #: depth-``d`` checkpoint is charged ``1 + d * chain_penalty`` times
    #: the flat decode cost.
    chain_penalty: float = 0.25
    #: modeled compression codec: ``"none"``, ``"lz"`` (fast, modest
    #: ratio) or ``"zstd"`` (slower, denser); see :mod:`repro.reduce.codec`.
    codec: str = "lz"
    #: nominal metadata bytes charged per chunk reference in the recipe.
    recipe_overhead: int = 48

    def __post_init__(self) -> None:
        if self.site not in ("gpu", "host"):
            raise ConfigError(f"unknown reduction site: {self.site!r}")
        if self.chunking not in ("fixed", "cdc"):
            raise ConfigError(f"unknown chunking strategy: {self.chunking!r}")
        if self.chunk_size <= 0:
            raise ConfigError(f"chunk_size must be positive: {self.chunk_size}")
        if not (0 < self.min_chunk_size <= self.chunk_size <= self.max_chunk_size):
            raise ConfigError(
                "chunk bounds must satisfy 0 < min <= avg <= max: "
                f"{self.min_chunk_size} / {self.chunk_size} / {self.max_chunk_size}"
            )
        if not (0.0 < self.delta_threshold <= 1.0):
            raise ConfigError(f"delta_threshold out of (0, 1]: {self.delta_threshold}")
        if self.max_delta_chain < 0:
            raise ConfigError(f"max_delta_chain must be >= 0: {self.max_delta_chain}")
        if self.chain_penalty < 0:
            raise ConfigError(f"chain_penalty must be >= 0: {self.chain_penalty}")
        if self.recipe_overhead < 0:
            raise ConfigError(f"recipe_overhead must be >= 0: {self.recipe_overhead}")
        from repro.reduce.codec import known_codecs  # cycle-free (lazy)

        if self.codec not in known_codecs():
            raise ConfigError(
                f"unknown codec {self.codec!r}; known: {sorted(known_codecs())}"
            )


@dataclass(frozen=True)
class StreamConfig:
    """The chunk plan of the flush cascade (and streamed promotions).

    Every flush walks the same pipelined cascade
    (:mod:`repro.core.flusher`); this config only picks how it is cut into
    chunks.  With ``enabled=False`` (the default) every object plans as one
    chunk, so a checkpoint fully lands on one tier before the next hop
    starts — store-and-forward, bit-for-bit the historical behaviour (same
    discipline as :class:`SchedConfig` / :class:`ReduceConfig` /
    :class:`FaultConfig`).  When enabled, each transfer of two or more
    ``stream_chunk_bytes`` chunks is streamed through a per-checkpoint
    pipeline: the D2H, host→SSD and SSD→PFS hops overlap chunk-by-chunk (and
    promotions from SSD/PFS overlap the storage read with the H2D
    crossing), so end-to-end durability latency approaches ``max(stage)``
    instead of ``sum(stages)``.  Smaller transfers still plan one chunk
    (per-chunk latency would dominate).  Each stage buffers in the tier it
    writes; the one bounded buffer is the SSD→PFS bounce ring.
    """

    #: plan multi-chunk pipelines for the flush cascade and the promote path.
    enabled: bool = False
    #: nominal bytes per streamed chunk.  Sized so 2–3 chunks fit a
    #: double-buffered 32–48 MiB staging window.
    stream_chunk_bytes: int = 16 * MiB
    #: depth in chunks of the SSD→PFS bounce ring: the cascade's SSD
    #: read-back may run at most this many chunks ahead of the PFS writer
    #: before backpressure parks it (double buffer + 1 in-flight chunk).
    #: No other edge has a ring — its bytes live in the destination tier.
    ring_chunks: int = 3

    def __post_init__(self) -> None:
        if self.stream_chunk_bytes <= 0:
            raise ConfigError(
                f"stream_chunk_bytes must be positive: {self.stream_chunk_bytes}"
            )
        if self.ring_chunks < 2:
            raise ConfigError(
                f"ring_chunks must be >= 2 (double buffer): {self.ring_chunks}"
            )


#: flush-stage names a :class:`FaultConfig` crash point may name, each
#: optionally prefixed ``before-`` / ``after-`` (bare name == ``before-``).
CRASH_STAGES = ("d2h", "d2s", "h2f", "f2p", "repl")

#: node-crash modes a :class:`FaultConfig` ``node_crashes`` entry may name.
#: ``"fail-stop"`` loses the node's SSD contents (media gone with the node);
#: ``"power-loss"`` kills the node but preserves the SSD media, so a later
#: rejoin republishes the surviving local copies.
NODE_CRASH_MODES = ("fail-stop", "power-loss")


@dataclass(frozen=True)
class FaultConfig:
    """Deterministic, seeded fault injection (:mod:`repro.faults`).

    With ``enabled=False`` (the default) nothing is attached anywhere and
    the runtime is bit-identical to a build without the subsystem (same
    discipline as :class:`SchedConfig` / :class:`ReduceConfig`).  When
    enabled, a :class:`~repro.faults.FaultPlan` derived from ``seed`` makes
    every injection decision reproducibly: the same config + seed yields
    the same faults at the same virtual times regardless of thread
    interleaving.
    """

    #: master switch: attach a fault injector to every Link and tier store.
    enabled: bool = False
    #: root seed of the plan; every decision derives from it via
    #: :func:`repro.util.rng.derive_seed` (independent of RuntimeConfig.seed
    #: so workload payloads stay identical across fault sweeps).
    seed: int = 93
    #: probability that any one Link.transfer() call fails in flight with a
    #: :class:`~repro.errors.TransientTransferError` after moving a drawn
    #: fraction of its bytes (charged on the virtual clock).
    transfer_fault_rate: float = 0.0
    #: restrict transfer faults to links whose name contains one of these
    #: substrings (e.g. ``("ssd", "pfs")``); empty = all links.
    fault_links: tuple = ()
    #: the failing transfer moves a fraction of its bytes drawn uniformly
    #: from [min_fault_fraction, max_fault_fraction] before the error.
    min_fault_fraction: float = 0.05
    max_fault_fraction: float = 0.95
    #: tier outage / degradation windows: ``(tier, start_s, end_s, factor)``
    #: tuples on the virtual clock.  ``tier`` is ``"ssd"`` or ``"pfs"``;
    #: ``factor == 0.0`` is a hard outage (ops raise
    #: :class:`~repro.errors.TierOfflineError`), ``0 < factor < 1`` is a
    #: brownout (ops succeed at ``factor`` of nominal throughput).
    tier_outages: tuple = ()
    #: probability that a blob put at a durable tier lands corrupted
    #: (one byte flipped at rest); decided per (key, attempt) so a re-put
    #: after detection draws independently.
    corruption_rate: float = 0.0
    #: kill the engine at a flush-stage boundary: ``"before-h2f"``,
    #: ``"after-d2h"``, … (see :data:`CRASH_STAGES`); None = never.
    crash_point: Optional[str] = None
    #: fire the crash point only for this checkpoint id (None = first hit).
    crash_ckpt: Optional[int] = None
    #: scheduled whole-node crashes: ``(node_id, time_s, mode)`` tuples on
    #: the virtual clock, ``mode`` one of :data:`NODE_CRASH_MODES`.  At
    #: ``time_s`` the node's engines stop accepting work, its SSD goes
    #: offline (``"fail-stop"`` also wipes the media), and the replica
    #: directory withdraws every copy it held.
    node_crashes: tuple = ()
    #: scheduled node rejoins: ``(node_id, time_s)`` tuples.  A rejoining
    #: node powers its SSD back on (power-loss crashes keep their blobs),
    #: republishes surviving copies, and — when the repairer is enabled —
    #: stays out of the replication ring until catch-up backfill finishes.
    node_rejoins: tuple = ()
    #: pairwise network-partition windows: ``(node_a, node_b, start_s,
    #: end_s)`` tuples on the virtual clock; while ``start <= now < end``
    #: the two nodes cannot exchange fabric traffic (peer reads and
    #: replication route around the cut, or drop to the PFS).
    partitions: tuple = ()

    def __post_init__(self) -> None:
        if not (0.0 <= self.transfer_fault_rate <= 1.0):
            raise ConfigError(
                f"transfer_fault_rate out of [0, 1]: {self.transfer_fault_rate}"
            )
        if not (0.0 <= self.corruption_rate <= 1.0):
            raise ConfigError(f"corruption_rate out of [0, 1]: {self.corruption_rate}")
        if not (0.0 < self.min_fault_fraction <= self.max_fault_fraction < 1.0):
            raise ConfigError(
                "fault fractions must satisfy 0 < min <= max < 1: "
                f"{self.min_fault_fraction} / {self.max_fault_fraction}"
            )
        for entry in self.tier_outages:
            if len(entry) != 4:
                raise ConfigError(f"bad tier_outages entry: {entry!r}")
            tier, start, end, factor = entry
            if tier not in ("ssd", "pfs"):
                raise ConfigError(f"unknown outage tier: {tier!r}")
            if not (0.0 <= start < end):
                raise ConfigError(f"bad outage window [{start}, {end})")
            if not (0.0 <= factor < 1.0):
                raise ConfigError(f"outage factor out of [0, 1): {factor}")
        if self.crash_point is not None:
            stage = self.crash_point
            for prefix in ("before-", "after-"):
                if stage.startswith(prefix):
                    stage = stage[len(prefix):]
                    break
            if stage not in CRASH_STAGES:
                raise ConfigError(
                    f"unknown crash_point {self.crash_point!r}; stages: {CRASH_STAGES}"
                )
        for entry in self.node_crashes:
            if len(entry) != 3:
                raise ConfigError(f"bad node_crashes entry: {entry!r}")
            node_id, time_s, mode = entry
            if not isinstance(node_id, int) or node_id < 0:
                raise ConfigError(f"bad node_crashes node id: {node_id!r}")
            if time_s < 0:
                raise ConfigError(f"node_crashes time must be >= 0: {time_s}")
            if mode not in NODE_CRASH_MODES:
                raise ConfigError(
                    f"unknown node-crash mode {mode!r}; modes: {NODE_CRASH_MODES}"
                )
        for entry in self.node_rejoins:
            if len(entry) != 2:
                raise ConfigError(f"bad node_rejoins entry: {entry!r}")
            node_id, time_s = entry
            if not isinstance(node_id, int) or node_id < 0:
                raise ConfigError(f"bad node_rejoins node id: {node_id!r}")
            if time_s < 0:
                raise ConfigError(f"node_rejoins time must be >= 0: {time_s}")
        for entry in self.partitions:
            if len(entry) != 4:
                raise ConfigError(f"bad partitions entry: {entry!r}")
            node_a, node_b, start, end = entry
            for node_id in (node_a, node_b):
                if not isinstance(node_id, int) or node_id < 0:
                    raise ConfigError(f"bad partitions node id: {node_id!r}")
            if node_a == node_b:
                raise ConfigError(
                    f"partition endpoints must differ: {entry!r}"
                )
            if not (0.0 <= start < end):
                raise ConfigError(f"bad partition window [{start}, {end})")


@dataclass(frozen=True)
class ResilienceConfig:
    """Self-healing behaviour of the runtime (:mod:`repro.faults`).

    With ``enabled=False`` (the default) failures behave exactly as before
    this subsystem existed: a failed flush leg abandons the flush, a CRC
    mismatch on restore raises :class:`~repro.errors.IntegrityError`, and
    ``recover_history()`` scans the stores directly.  When enabled:
    transient transfer errors are retried with exponential backoff +
    deterministic jitter under per-class budgets, per-tier circuit breakers
    blacklist degraded tiers and reroute the flush cascade around them
    (with catch-up backfill on recovery), durable puts are CRC re-verified
    and re-flushed from an upper-tier copy on corruption, and a
    crash-consistent manifest journal makes ``recover_history()``
    independent of store scans.
    """

    #: master switch for every recovery mechanism below.
    enabled: bool = False
    #: retry budget per transfer leg for TransientTransferErrors.
    max_retries: int = 4
    #: backoff before retry k (0-based) is
    #: ``min(backoff_base_s * backoff_factor**k, backoff_max_s)`` nominal
    #: seconds, plus up to ``jitter`` of itself (deterministic draw).
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    jitter: float = 0.25
    #: per-transfer-class retry-budget overrides, e.g.
    #: ``(("DEMAND_READ", 6), ("SPECULATIVE_PREFETCH", 1))``; classes
    #: mirror :class:`repro.sched.TransferClass` names.
    retry_classes: tuple = ()
    #: consecutive failures that trip a tier's circuit breaker open.
    breaker_threshold: int = 3
    #: nominal seconds an open breaker waits before admitting one
    #: half-open probe.
    breaker_reset_s: float = 5.0
    #: when the SSD breaker is open, flush host copies directly to the PFS
    #: (GPU→host→PFS) instead of abandoning durability.
    reroute: bool = True
    #: when a rerouted tier recovers, backfill the skipped SSD copies from
    #: the PFS/host so reads regain the fast path.
    backfill: bool = True
    #: CRC-verify durable blobs right after the flush write and re-flush
    #: from the in-hand payload on mismatch.
    reverify: bool = True
    #: append every durable commit to the manifest journal and replay it in
    #: ``recover_history()`` (store scans remain the fallback).
    journal: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0: {self.max_retries}")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigError("backoff times must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError(f"backoff_factor must be >= 1: {self.backoff_factor}")
        if not (0.0 <= self.jitter <= 1.0):
            raise ConfigError(f"jitter out of [0, 1]: {self.jitter}")
        for entry in self.retry_classes:
            if len(entry) != 2 or entry[1] < 0:
                raise ConfigError(f"bad retry_classes entry: {entry!r}")
        if self.breaker_threshold < 1:
            raise ConfigError(f"breaker_threshold must be >= 1: {self.breaker_threshold}")
        if self.breaker_reset_s < 0:
            raise ConfigError(f"breaker_reset_s must be >= 0: {self.breaker_reset_s}")

    def retries_for(self, class_name: str) -> int:
        for name, budget in self.retry_classes:
            if name == class_name:
                return int(budget)
        return self.max_retries


@dataclass(frozen=True)
class SloConfig:
    """Service-level objectives for the checkpoint cascade.

    Two latency objectives, each stated as "a fraction ``objective`` of
    operations completes within the target": *durability latency* (from
    ``checkpoint()`` entry to the first durable copy on SSD/PFS) and
    *demand-restore latency* (the blocked portion of ``restore()``).
    Violations are tracked over a rolling window of ``window_s`` nominal
    seconds; when the windowed violation rate exceeds the error budget by
    ``burn_rate_threshold``×, the SLO monitor raises a burn-rate alert
    (a ``slo-burn`` trace instant plus a summary line).
    """

    #: target durability latency per checkpoint, nominal seconds.
    durability_target_s: float = 2.0
    #: target blocked time per demand restore, nominal seconds.
    restore_target_s: float = 0.5
    #: fraction of operations that must meet their target.
    objective: float = 0.95
    #: rolling-window length for violation accounting, nominal seconds.
    window_s: float = 30.0
    #: alert when windowed violation rate > threshold × (1 - objective).
    burn_rate_threshold: float = 2.0
    #: observations required in the window before burn alerts can fire
    #: (suppresses alerts off a single early violation).
    min_samples: int = 8

    def __post_init__(self) -> None:
        if self.durability_target_s <= 0 or self.restore_target_s <= 0:
            raise ConfigError("SLO latency targets must be positive")
        if self.min_samples < 1:
            raise ConfigError(f"min_samples must be >= 1: {self.min_samples}")
        if not (0.0 < self.objective < 1.0):
            raise ConfigError(f"objective out of (0, 1): {self.objective}")
        if self.window_s <= 0:
            raise ConfigError(f"window_s must be positive: {self.window_s}")
        if self.burn_rate_threshold <= 0:
            raise ConfigError(
                f"burn_rate_threshold must be positive: {self.burn_rate_threshold}"
            )


@dataclass(frozen=True)
class AnalysisConfig:
    """Causal tracing + SLO monitoring (:mod:`repro.analysis`).

    With ``enabled=False`` (the default) nothing changes: no causal ids are
    attached to trace events, no extra events are emitted, and runs are
    bit-identical to a build without this subsystem.  When enabled (and
    ``RuntimeConfig.telemetry`` is on), every ``checkpoint()``/``restore()``
    and each prefetch chain is issued a stable operation id that rides on
    every span the operation touches — flush FSM stages, retries, reroutes,
    reserve waits, journal commits — so :mod:`repro.analysis` can rebuild
    per-op span DAGs, compute critical paths, and attribute wall time to
    categories.  The SLO monitor watches op completions live.
    """

    #: master switch for causal ids, fill events, and the SLO monitor.
    enabled: bool = False
    #: service-level objectives evaluated live and in ``repro analyze``.
    slo: SloConfig = field(default_factory=SloConfig)


@dataclass(frozen=True)
class ClusterConfig:
    """Distributed checkpoint fabric (:mod:`repro.cluster`).

    With ``enabled=False`` (the default) no fabric is constructed and the
    runtime is bit-identical to a build without the subsystem (same
    discipline as :class:`SchedConfig` / :class:`FaultConfig`).  When
    enabled: every durable SSD commit is published to a cluster-wide
    replica directory so demand restores and prefetches can pull a blob
    from a healthy peer's SSD over the inter-node fabric instead of
    dropping to the PFS; flushes are replicated to ``replica_factor - 1``
    successor nodes; a per-node aggregator coalesces concurrent small
    SSD→PFS flush streams into batched PFS writes (one per-op latency
    charge per batch, commit-at-end); and a :class:`~repro.cluster.service.
    CheckpointService` front-end exposes ``submit/restore/query`` over an
    in-process RPC layer with per-client sessions and bounded admission.
    """

    #: master switch: build the ClusterFabric (replica directory, peer
    #: routing, PFS write aggregation) on the Cluster.
    enabled: bool = False
    #: total SSD copies per checkpoint including the home node; copies
    #: beyond the first go to successor nodes over the fabric.  Must not
    #: exceed ``RuntimeConfig.num_nodes`` when the fabric is enabled.
    replica_factor: int = 2
    #: route demand restores / prefetches through a healthy peer's SSD
    #: when the local copy is gone (instead of dropping to the PFS).
    peer_reads: bool = True
    #: fabric bandwidth override in bytes per nominal second (None = use
    #: ``HardwareSpec.internode_bandwidth``).
    peer_bandwidth: Optional[float] = None
    #: coalesce concurrent SSD→PFS flush legs into batched PFS writes.
    aggregation: bool = True
    #: nominal seconds the batch leader waits for followers to join
    #: before sealing the batch.
    aggregation_window_s: float = 0.002
    #: seal the batch early once this many members joined.
    aggregation_max_ops: int = 8
    #: seal the batch early once the combined payload reaches this many
    #: nominal bytes.
    aggregation_max_bytes: int = 256 * MiB
    #: maximum concurrently-connected service sessions.
    service_max_sessions: int = 64
    #: per-session bound on in-flight service requests; arrivals beyond
    #: it raise :class:`~repro.errors.BackpressureError`.
    service_queue_depth: int = 16
    #: modeled one-way RPC latency per service call, nominal seconds.
    service_rpc_latency_s: float = 200e-6
    #: anti-entropy replica repair: after a node crash (or rejoin) the
    #: :class:`~repro.cluster.repair.ReplicaRepairer` re-replicates every
    #: under-replicated checkpoint from a surviving SSD holder (or the
    #: PFS) until ``replica_factor`` live copies exist again.
    repair: bool = False
    #: nominal seconds between repairer scans of the replica directory.
    repair_interval_s: float = 0.05
    #: sched class repair copies admit under (``repro.sched.TransferClass``
    #: name); the default rides the cascade-flush class so repair traffic
    #: never preempts demand restores.
    repair_class: str = "CASCADE_FLUSH"
    #: cap on repair copies in flight per scan (bounds the burst a mass
    #: withdrawal can inject into the fabric).
    repair_max_inflight: int = 4
    #: service session failover: when a pinned engine's node dies, re-pin
    #: the session to a surviving engine and idempotently replay the
    #: in-flight op instead of surfacing the node death to the client.
    failover: bool = False

    def __post_init__(self) -> None:
        if self.replica_factor < 1:
            raise ConfigError(f"replica_factor must be >= 1: {self.replica_factor}")
        if self.peer_bandwidth is not None and self.peer_bandwidth <= 0:
            raise ConfigError(
                f"peer_bandwidth must be positive or None: {self.peer_bandwidth}"
            )
        if self.aggregation_window_s < 0:
            raise ConfigError(
                f"aggregation_window_s must be >= 0: {self.aggregation_window_s}"
            )
        if self.aggregation_max_ops < 1:
            raise ConfigError(
                f"aggregation_max_ops must be >= 1: {self.aggregation_max_ops}"
            )
        if self.aggregation_max_bytes <= 0:
            raise ConfigError(
                f"aggregation_max_bytes must be positive: {self.aggregation_max_bytes}"
            )
        if self.service_max_sessions < 1:
            raise ConfigError(
                f"service_max_sessions must be >= 1: {self.service_max_sessions}"
            )
        if self.service_queue_depth < 1:
            raise ConfigError(
                f"service_queue_depth must be >= 1: {self.service_queue_depth}"
            )
        if self.service_rpc_latency_s < 0:
            raise ConfigError(
                f"service_rpc_latency_s must be >= 0: {self.service_rpc_latency_s}"
            )
        if self.repair_interval_s <= 0:
            raise ConfigError(
                f"repair_interval_s must be positive: {self.repair_interval_s}"
            )
        if self.repair_class not in (
            "DEMAND_READ", "CASCADE_FLUSH", "SPECULATIVE_PREFETCH"
        ):
            raise ConfigError(f"unknown repair_class: {self.repair_class!r}")
        if self.repair_max_inflight < 1:
            raise ConfigError(
                f"repair_max_inflight must be >= 1: {self.repair_max_inflight}"
            )


@dataclass(frozen=True)
class PredictConfig:
    """Online access-pattern prediction (:mod:`repro.predict`).

    With ``enabled=False`` (the default) nothing is built and the runtime
    is bit-identical to a build without the subsystem (same discipline as
    :class:`SchedConfig` / :class:`ClusterConfig`).  When enabled, the
    engine's hint queue becomes a :class:`~repro.predict.queue.
    SyntheticRestoreQueue`: explicit hints keep absolute priority, and a
    revocable predicted overlay — refreshed by a pluggable
    :class:`~repro.predict.predictors.Predictor` from the
    :class:`~repro.predict.history.AccessHistory` ring — feeds the same
    prefetcher and Algorithm-1 eviction scoring when hints are missing.
    Predicted entries always admit through the sched *speculative* class
    (sheddable, preemptible), and a PhoenixOS-style validation layer
    scores each speculative staging on consume/abandon, decays the
    hit-rate estimate, and suspends speculation (demand-only fallback)
    when it drops below :attr:`hit_floor`.
    """

    #: master switch for the synthetic queue, predictors and validator.
    enabled: bool = False
    #: prediction model: ``"recency"`` (per-producer reuse-distance /
    #: inter-access EWMA), ``"markov"`` (first-order next-restore chain
    #: over producer transitions), or ``"hybrid"`` (markov chain first,
    #: recency ordering for the rest).
    predictor: str = "hybrid"
    #: capacity of the per-engine access-history ring (events).
    history_capacity: int = 4096
    #: maximum length of the predicted overlay handed to the queue.
    max_queue: int = 32
    #: predictions below this confidence are dropped from the overlay.
    min_confidence: float = 0.02
    #: minimum nominal seconds between overlay refreshes (0 = refresh on
    #: every observed access event).
    refresh_interval_s: float = 0.0
    #: build the validation layer; without it speculation is never
    #: scored or suspended.
    validation: bool = True
    #: suspend speculation when the EWMA hit rate drops below this floor.
    hit_floor: float = 0.4
    #: speculative outcomes (hits + abandons) required before the floor
    #: can trigger a suspension.
    min_samples: int = 8
    #: nominal seconds of demand-only fallback per suspension; after the
    #: window the validator re-arms with a fresh estimate (probation).
    suspend_s: float = 2.0
    #: EWMA weight of the newest speculative outcome.
    ewma_alpha: float = 0.25

    def __post_init__(self) -> None:
        if self.predictor not in ("recency", "markov", "hybrid"):
            raise ConfigError(
                f"predictor must be 'recency', 'markov' or 'hybrid': "
                f"{self.predictor!r}"
            )
        if self.history_capacity < 1:
            raise ConfigError(
                f"history_capacity must be >= 1: {self.history_capacity}"
            )
        if self.max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1: {self.max_queue}")
        if not (0.0 <= self.min_confidence <= 1.0):
            raise ConfigError(
                f"min_confidence out of [0, 1]: {self.min_confidence}"
            )
        if self.refresh_interval_s < 0:
            raise ConfigError(
                f"refresh_interval_s must be >= 0: {self.refresh_interval_s}"
            )
        if not (0.0 < self.hit_floor < 1.0):
            raise ConfigError(f"hit_floor out of (0, 1): {self.hit_floor}")
        if self.min_samples < 1:
            raise ConfigError(f"min_samples must be >= 1: {self.min_samples}")
        if self.suspend_s <= 0:
            raise ConfigError(f"suspend_s must be positive: {self.suspend_s}")
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise ConfigError(f"ewma_alpha out of (0, 1]: {self.ewma_alpha}")


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything one simulation run needs."""

    hardware: HardwareSpec = field(default_factory=HardwareSpec)
    scale: ScaleModel = field(default_factory=ScaleModel)
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: QoS transfer scheduling on shared tier links (:mod:`repro.sched`).
    sched: SchedConfig = field(default_factory=SchedConfig)
    #: data reduction between the engines and the tier links (:mod:`repro.reduce`).
    reduce: ReduceConfig = field(default_factory=ReduceConfig)
    #: pipelined chunk streaming through the flush/prefetch cascades
    #: (:mod:`repro.core.streaming`).
    stream: StreamConfig = field(default_factory=StreamConfig)
    #: deterministic fault injection (:mod:`repro.faults`).
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: self-healing transfer/tier recovery (:mod:`repro.faults`).
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    #: causal tracing, critical-path attribution and SLO monitoring
    #: (:mod:`repro.analysis`); needs ``telemetry=True`` to record anything.
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    #: distributed checkpoint fabric — peer SSD reads, flush replication,
    #: PFS write aggregation, checkpoint service (:mod:`repro.cluster`).
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: online access-pattern prediction feeding the prefetch/eviction
    #: machinery when hints are missing (:mod:`repro.predict`).
    predict: PredictConfig = field(default_factory=PredictConfig)
    #: default ``wait_for_flushes`` timeout in nominal seconds (None = no
    #: timeout unless the call site passes one).
    flush_wait_timeout: Optional[float] = None
    num_nodes: int = 1
    processes_per_node: Optional[int] = None  # default: one per GPU
    seed: int = 20230616  # HPDC'23 opening day
    #: eviction policy for the Score runtime: "score" (Algorithm 1),
    #: "lru", or "fifo" (ablations).
    eviction_policy: str = "score"
    #: Section 4.1.2 ablation: when False, each tier's cache is split into
    #: static flush/prefetch halves instead of being shared.
    shared_cache: bool = True
    #: when True, simulate the one-off arena allocation/pinning cost at
    #: engine start (Section 4.1.4).
    charge_allocation_cost: bool = True
    #: when True (and allocation cost is charged), the pinned host cache
    #: becomes usable *progressively* at the pinning rate instead of
    #: blocking initialization — the paper's "slow host cache
    #: initialization" that depresses checkpoint throughput early in the
    #: shot for both the Score and UVM runtimes.
    lazy_host_pinning: bool = True
    #: directory for the SSD tier's backing files (None → in-memory SSD).
    ssd_directory: Optional[str] = None
    #: record fine-grained trace events (FSM transitions, eviction decisions
    #: with Algorithm-1 scores, flush/prefetch spans) on the cluster's
    #: telemetry bus.  Off by default: a disabled bus costs one attribute
    #: check per instrumented call site.  Metrics counters are always live.
    telemetry: bool = False
    #: trace-bus ring capacity in events; overflow drops the oldest events.
    telemetry_buffer: int = 1 << 17

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigError(f"num_nodes must be positive: {self.num_nodes}")
        if self.telemetry_buffer <= 0:
            raise ConfigError(
                f"telemetry_buffer must be positive: {self.telemetry_buffer}"
            )
        ppn = self.processes_per_node
        if ppn is not None and not (0 < ppn <= self.hardware.gpus_per_node):
            raise ConfigError(
                f"processes_per_node must be in [1, {self.hardware.gpus_per_node}]: {ppn}"
            )
        if self.eviction_policy not in ("score", "lru", "fifo"):
            raise ConfigError(f"unknown eviction_policy: {self.eviction_policy!r}")
        if self.flush_wait_timeout is not None and self.flush_wait_timeout <= 0:
            raise ConfigError(
                f"flush_wait_timeout must be positive or None: {self.flush_wait_timeout}"
            )
        if self.cluster.enabled and self.cluster.replica_factor > self.num_nodes:
            raise ConfigError(
                f"cluster.replica_factor ({self.cluster.replica_factor}) exceeds "
                f"num_nodes ({self.num_nodes})"
            )
        if self.faults.enabled:
            chaos_nodes = (
                [entry[0] for entry in self.faults.node_crashes]
                + [entry[0] for entry in self.faults.node_rejoins]
                + [n for entry in self.faults.partitions for n in entry[:2]]
            )
            for node_id in chaos_nodes:
                if node_id >= self.num_nodes:
                    raise ConfigError(
                        f"fault node id {node_id} out of range for "
                        f"num_nodes={self.num_nodes}"
                    )

    @property
    def effective_processes_per_node(self) -> int:
        return self.processes_per_node or self.hardware.gpus_per_node

    @property
    def total_processes(self) -> int:
        return self.num_nodes * self.effective_processes_per_node

    def with_(self, **changes) -> "RuntimeConfig":
        """A copy with the given fields replaced (``dataclasses.replace``)."""
        return replace(self, **changes)


def bench_config(**changes) -> RuntimeConfig:
    """The configuration used by tests/benchmarks: paper hardware, scaled."""
    cfg = RuntimeConfig(scale=BENCH_SCALE)
    if changes:
        cfg = cfg.with_(**changes)
    return cfg
