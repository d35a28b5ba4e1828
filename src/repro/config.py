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

Each knob declares its constraint once, on its field (:func:`knob`), and
:func:`validate` checks them all; a ``__post_init__`` adds only the rules
that relate two fields.  A knob's ``flag`` makes it a flag of ``repro
trace``/``analyze`` (:mod:`repro.telemetry.cli`), worded by its ``help``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.util.units import GiB, KiB, MiB, TiB, parse_size

#: a check returns ``None`` for a value that passes, else what it must be.
Check = Callable[[object], Optional[str]]


def _check(text: str, ok: Callable[[object], bool]) -> Check:
    return lambda value: None if ok(value) else text


positive = _check("positive", lambda v: v > 0)
non_negative = _check(">= 0", lambda v: v >= 0)
node_id = _check("an int >= 0", lambda v: isinstance(v, int) and v >= 0)


def at_least(n) -> Check:
    return _check(f">= {n}", lambda v: v >= n)


def within(interval: str) -> Check:
    """In ``interval``, written as in maths: ``"(0, 1]"`` is ``0 < v <= 1``."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return _check(f"in {interval}", lambda v: (lo < v if interval[0] == "(" else lo <= v)
                  and (v < hi if interval[-1] == ")" else v <= hi))


def one_of(*choices) -> Check:
    """One of ``choices``; a lone callable returns them when a value is
    checked (a lazy import, cycle-free)."""

    def check(value):
        allowed = choices[0]() if callable(choices[0]) else choices
        return None if value in allowed else f"one of {sorted(allowed)}"

    return check


def optional(check: Check) -> Check:
    """``None``, or a value ``check`` passes."""
    return lambda v: None if v is None or not check(v) else f"{check(v)} or None"


def tuple_of(**columns: Optional[Check]) -> Check:
    """A tuple, never a bare string (its characters would pass for entries).
    With ``columns``, each entry is a tuple of one item per column, each
    passing its column's check (``None``: any)."""

    def check(value):
        if not isinstance(value, tuple):
            return "a tuple"
        for index, entry in enumerate(value if columns else ()):
            if not isinstance(entry, tuple) or len(entry) != len(columns):
                return f"a tuple of ({', '.join(columns)}) tuples, unlike entry {index}"
            for (name, item_check), item in zip(columns.items(), entry):
                text = item_check and item_check(item)
                if text:
                    return f"a tuple whose entry {index} has {name} {text}"
        return None

    return check


def knob(default, check: Optional[Check] = None, *, help: str = "", flag: str = ""):
    """A field with its constraint and, for a command-line knob, its flag
    (option string, then any metavar) and help text."""
    return field(default=default, metadata={"check": check, "help": help, "flag": flag})


def validate(config) -> None:
    """Raise :class:`ConfigError` naming the first field its check rejects."""
    for spec in fields(config):
        value = getattr(config, spec.name)
        text = spec.metadata.get("check") and spec.metadata["check"](value)
        if text:
            raise ConfigError(f"{spec.name} must be {text}: {value!r}")


class _Validated:
    """Construction runs :func:`validate`; a subclass's ``__post_init__``
    calls it first, then checks the rules that relate two fields."""

    def __post_init__(self) -> None:
        validate(self)


@dataclass(frozen=True)
class HardwareSpec(_Validated):
    """Nominal performance characteristics of one compute node.

    Bandwidths are bytes per nominal second; latencies are nominal seconds
    added per transfer (command submission + interconnect setup).
    """

    gpus_per_node: int = knob(8, positive)
    gpus_per_pcie_link: int = knob(2, positive)

    d2d_bandwidth: float = knob(1.0 * TiB, positive)  # HBM copies within one GPU
    d2h_bandwidth: float = knob(25.0 * GiB, positive)  # pinned, per PCIe link
    h2d_bandwidth: float = knob(25.0 * GiB, positive)  # pinned, per PCIe link
    d2h_unpinned_bandwidth: float = knob(6.0 * GiB, positive)  # pageable staging (ADIOS2 path)
    #: engine-level (de)serialization of checkpoints into transport buffers
    #: (what makes the paper's measured ADIOS2 throughput an order of
    #: magnitude below raw PCIe speed).
    host_serialize_bandwidth: float = knob(0.5 * GiB, positive)
    #: effective node-aggregate NVMe bandwidth.  The node has four Gen 4
    #: drives at 4 GB/s each; the paper's measured effective flush rate is
    #: 685 MB/s per rank × 8 ranks ≈ 5.5 GB/s of sustained aggregate, which
    #: is what the flush pipeline actually obtains.
    ssd_write_bandwidth: float = knob(5.5 * GiB, positive)
    ssd_read_bandwidth: float = knob(5.5 * GiB, positive)
    pfs_write_bandwidth: float = knob(2.0 * GiB, positive)  # per node share of Lustre
    pfs_read_bandwidth: float = knob(2.0 * GiB, positive)
    #: node-to-node fabric (HDR InfiniBand class), used by ring
    #: replication (a VELOC resilience strategy, Section 3.1).
    internode_bandwidth: float = knob(20.0 * GiB, positive)

    # Allocation costs (Section 4.1.4): pinned host allocation ~4 GB/s,
    # device allocation ~1 TB/s.  Paid once per arena at initialization.
    host_pin_bandwidth: float = knob(4.0 * GiB, positive)
    gpu_alloc_bandwidth: float = knob(1.0 * TiB, positive)

    transfer_latency: float = knob(20e-6, non_negative)  # per asynchronous copy
    ssd_latency: float = knob(80e-6, non_negative)  # per file op
    pfs_latency: float = knob(500e-6, non_negative)

    # UVM model (Section 5.2.2 comparator)
    uvm_page_size: int = knob(2 * MiB, positive)
    uvm_fault_latency: float = knob(25e-6, non_negative)  # per faulted page group
    uvm_fault_pages_per_group: int = knob(16, positive)  # fault-replay batches
    uvm_migration_bandwidth: float = knob(8.0 * GiB, positive)  # fault-driven paging is
    # substantially slower than explicit pinned copies (fault replay +
    # driver bookkeeping; cf. Allen & Ge, IPDPS'21)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gpus_per_node % self.gpus_per_pcie_link != 0:
            raise ConfigError(
                "gpus_per_node must be a multiple of gpus_per_pcie_link: "
                f"{self.gpus_per_node} % {self.gpus_per_pcie_link} != 0"
            )

    @property
    def pcie_links_per_node(self) -> int:
        return self.gpus_per_node // self.gpus_per_pcie_link


@dataclass(frozen=True)
class ScaleModel(_Validated):
    """Mapping between nominal (paper-unit) and executed quantities."""

    data_scale: int = knob(1, at_least(1))
    time_scale: float = knob(1.0, within("(0, 1000]"))
    #: nominal allocation granularity; all checkpoint sizes and cache
    #: capacities are rounded up to a multiple of this, which guarantees the
    #: scaled payload offsets stay integral.
    alignment: int = knob(64 * KiB, at_least(1))

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.alignment % self.data_scale != 0:
            raise ConfigError(
                f"alignment must be a multiple of data_scale ({self.data_scale}): "
                f"{self.alignment}"
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
#: 100 ms of wall time.  All *nominal* quantities (sizes, bandwidths, cache
#: capacities, compute intervals) stay exactly at the paper's values — only
#: the stored bytes and the wall clock shrink.  Transfer durations are
#: *accounted* analytically (see Link.transfer), so the time scale mainly
#: bounds how much condition-variable wake-up latency (~0.1 ms real)
#: pollutes measured waits: at 0.1 it maps to ~1 ms nominal, small against
#: the flush/eviction waits it rides on.
BENCH_SCALE = ScaleModel(data_scale=512 * KiB, time_scale=0.1, alignment=512 * KiB)


@dataclass(frozen=True)
class CacheConfig(_Validated):
    """Per-process cache reservations (Section 5.3.4 defaults)."""

    gpu_cache_size: int = knob(4 * GiB, positive)
    host_cache_size: int = knob(32 * GiB, positive)

    @staticmethod
    def of(gpu: object, host: object) -> "CacheConfig":
        """Build from sizes in any form ``parse_size`` accepts."""
        return CacheConfig(gpu_cache_size=parse_size(gpu), host_cache_size=parse_size(host))


@dataclass(frozen=True)
class SchedConfig(_Validated):
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
    quantum_bytes: int = knob(64 * MiB, positive)
    #: WFQ weight for engines without an explicit entry in
    #: ``engine_weights`` (service within a class is proportional to weight).
    default_weight: float = knob(1.0, positive)
    #: optional per-engine WFQ weight overrides: ((engine_id, weight), ...).
    engine_weights: tuple = knob((), tuple_of(engine_id=None, weight=positive))
    #: per-engine token-bucket refill, bytes per nominal second, applied to
    #: background classes (prefetch + flush) on every scheduled link.
    #: ``None`` = unlimited.
    engine_rate_limit: Optional[float] = knob(None, optional(positive))
    #: token-bucket capacity (burst allowance) when rate limiting is on.
    burst_bytes: int = knob(64 * MiB, positive)
    #: bounded-queue limit for SPECULATIVE_PREFETCH requests per link;
    #: arrivals beyond it are shed with :class:`~repro.errors.AdmissionError`
    #: (the prefetcher backs off and retries).
    max_speculative_queue: int = knob(4, non_negative)
    #: bounded-queue limit for CASCADE_FLUSH requests per link; arrivals
    #: beyond it *block* in admission until the backlog drains (flushes
    #: must eventually happen — shedding them would lose durability).
    max_flush_queue: int = knob(16, at_least(1))
    #: engine-level admission control: when the D2H flush backlog reaches
    #: this many pending flushes, ``checkpoint()`` applies ``admission``.
    max_flush_backlog: int = knob(32, at_least(1))
    #: overload behaviour of ``checkpoint()``: "block" waits for the flush
    #: backlog to drop below ``max_flush_backlog``, "shed" raises
    #: :class:`~repro.errors.BackpressureError`, "off" never intervenes.
    admission: str = knob("block", one_of("block", "shed", "off"))
    #: hints at restore-queue distance ≤ this prefetch as HINTED_PREFETCH;
    #: farther hints are SPECULATIVE_PREFETCH (preemptible, sheddable).
    hint_near_distance: int = knob(4, non_negative)
    #: nominal seconds per hint-queue position used to derive prefetch
    #: deadlines (deadline = now + distance * hint_spacing_s); EDF within
    #: the prefetch classes paces far-future prefetches behind near ones.
    hint_spacing_s: float = knob(0.010, non_negative)
    #: cancel in-flight speculative prefetches on a link the moment a
    #: demand read arrives there (the freed slot and bandwidth go to the
    #: demand read; the prefetcher re-issues later).
    preempt_speculative: bool = True

    def weight_of(self, engine_id: int) -> float:
        for eid, weight in self.engine_weights:
            if eid == engine_id:
                return float(weight)
        return self.default_weight


def _codecs():
    from repro.reduce.codec import known_codecs  # cycle-free (lazy)

    return known_codecs()


@dataclass(frozen=True)
class ReduceConfig(_Validated):
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
    site: str = knob("gpu", one_of("gpu", "host"))
    #: chunking strategy: ``"fixed"`` (fixed-size boundaries) or ``"cdc"``
    #: (content-defined boundaries via a gear rolling hash, so insertions
    #: do not shift every downstream chunk identity).
    chunking: str = knob("fixed", one_of("fixed", "cdc"))
    #: nominal bytes per chunk (fixed) / target average chunk (cdc).
    chunk_size: int = knob(8 * MiB, positive)
    #: cdc minimum/maximum chunk bounds (nominal bytes).
    min_chunk_size: int = knob(2 * MiB, positive)
    max_chunk_size: int = knob(32 * MiB, positive)
    #: delta-encode chunks against the previous checkpoint of the same
    #: variable when the byte diff is small enough to pay off.
    delta: bool = True
    #: a chunk is delta-encoded only when its diff is below this fraction
    #: of the chunk size (otherwise the full chunk is cheaper to store).
    delta_threshold: float = knob(0.6, within("(0, 1]"))
    #: longest allowed chain of delta-encoded checkpoints; the next encode
    #: past the bound *rebases* (stores a self-contained version) so
    #: restore latency stays predictable.
    max_delta_chain: int = knob(4, non_negative)
    #: modeled decode-time penalty per chain level: reconstructing a
    #: depth-``d`` checkpoint is charged ``1 + d * chain_penalty`` times
    #: the flat decode cost.
    chain_penalty: float = knob(0.25, non_negative)
    #: modeled compression codec: ``"none"``, ``"lz"`` (fast, modest
    #: ratio) or ``"zstd"`` (slower, denser); see :mod:`repro.reduce.codec`.
    codec: str = knob("lz", one_of(_codecs))
    #: nominal metadata bytes charged per chunk reference in the recipe.
    recipe_overhead: int = knob(48, non_negative)

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.min_chunk_size <= self.chunk_size <= self.max_chunk_size):
            raise ConfigError(
                "chunk bounds must satisfy min_chunk_size <= chunk_size <= max_chunk_size: "
                f"{self.min_chunk_size} / {self.chunk_size} / {self.max_chunk_size}"
            )


@dataclass(frozen=True)
class StreamConfig(_Validated):
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
    stream_chunk_bytes: int = knob(16 * MiB, positive)
    #: depth in chunks of the SSD→PFS bounce ring: the cascade's SSD
    #: read-back may run at most this many chunks ahead of the PFS writer
    #: before backpressure parks it (double buffer + 1 in-flight chunk).
    #: No other edge has a ring — its bytes live in the destination tier.
    ring_chunks: int = knob(3, at_least(2))


#: flush-stage names a :class:`FaultConfig` crash point may name, each
#: optionally prefixed ``before-`` / ``after-`` (bare name == ``before-``).
CRASH_STAGES = ("d2h", "d2s", "h2f", "f2p", "repl")
CRASH_POINTS = CRASH_STAGES + tuple(f"{when}-{stage}" for when in ("before", "after")
                                    for stage in CRASH_STAGES)

#: node-crash modes a :class:`FaultConfig` ``node_crashes`` entry may name.
#: ``"fail-stop"`` loses the node's SSD contents (media gone with the node);
#: ``"power-loss"`` kills the node but preserves the SSD media, so a later
#: rejoin republishes the surviving local copies.
NODE_CRASH_MODES = ("fail-stop", "power-loss")


@dataclass(frozen=True)
class FaultConfig(_Validated):
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
    seed: int = knob(93, flag="--fault-seed", help=(
        "root seed of the plan; every decision derives from it via repro.util.rng.derive_seed "
        "(independent of RuntimeConfig.seed so workload payloads stay identical across fault "
        "sweeps)."))
    transfer_fault_rate: float = knob(0.0, within("[0, 1]"), flag="--fault-rate", help=(
        "probability that any one Link.transfer() call fails in flight with a "
        "TransientTransferError after moving a drawn fraction of its bytes (charged on the "
        "virtual clock)."))
    #: restrict transfer faults to links whose name contains one of these
    #: substrings (e.g. ``("ssd", "pfs")``); empty = all links.
    fault_links: tuple = knob((), tuple_of())
    #: the failing transfer moves a fraction of its bytes drawn uniformly
    #: from [min_fault_fraction, max_fault_fraction] before the error.
    min_fault_fraction: float = knob(0.05, within("(0, 1)"))
    max_fault_fraction: float = knob(0.95, within("(0, 1)"))
    tier_outages: tuple = knob((), tuple_of(
        tier=one_of("ssd", "pfs"), start_s=non_negative, end_s=None, factor=within("[0, 1)"),
    ), flag="--outage TIER:START:END[:FACTOR]", help=(
        'tier outage / degradation windows: (tier, start_s, end_s, factor) tuples on the '
        'virtual clock.  tier is "ssd" or "pfs"; factor == 0.0 is a hard outage (ops raise '
        'TierOfflineError), 0 < factor < 1 is a brownout (ops succeed at factor of nominal '
        'throughput).'))
    corruption_rate: float = knob(0.0, within("[0, 1]"), flag="--corruption-rate", help=(
        "probability that a blob put at a durable tier lands corrupted (one byte flipped at "
        "rest); decided per (key, attempt) so a re-put after detection draws independently."))
    crash_point: Optional[str] = knob(None, optional(one_of(*CRASH_POINTS)), help=(
        'kill the engine at a flush-stage boundary: "before-h2f", "after-d2h", … (see '
        'CRASH_STAGES); None = never.'), flag="--crash-point")
    #: fire the crash point only for this checkpoint id (None = first hit).
    crash_ckpt: Optional[int] = None
    node_crashes: tuple = knob((), tuple_of(
        node_id=node_id, time_s=non_negative, mode=one_of(*NODE_CRASH_MODES),
    ), flag="--node-crash NODE@TIME[:MODE]", help=(
        "scheduled whole-node crashes: (node_id, time_s, mode) tuples on the virtual clock, "
        "mode one of NODE_CRASH_MODES.  At time_s the node's engines stop accepting work, its "
        'SSD goes offline ("fail-stop" also wipes the media), and the replica directory '
        "withdraws every copy it held."))
    node_rejoins: tuple = knob((), tuple_of(
        node_id=node_id, time_s=non_negative,
    ), flag="--node-rejoin NODE@TIME", help=(
        "scheduled node rejoins: (node_id, time_s) tuples.  A rejoining node powers its SSD "
        "back on (power-loss crashes keep their blobs), republishes surviving copies, and — "
        "when the repairer is enabled — stays out of the replication ring until catch-up "
        "backfill finishes."))
    partitions: tuple = knob((), tuple_of(
        node_a=node_id, node_b=node_id, start_s=non_negative, end_s=None,
    ), flag="--partition A-B@START:END", help=(
        "pairwise network-partition windows: (node_a, node_b, start_s, end_s) tuples on the "
        "virtual clock; while start <= now < end the two nodes cannot exchange fabric traffic "
        "(peer reads and replication route around the cut, or drop to the PFS)."))

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.min_fault_fraction > self.max_fault_fraction:
            raise ConfigError(
                "fault fractions must satisfy min_fault_fraction <= max_fault_fraction: "
                f"{self.min_fault_fraction} / {self.max_fault_fraction}"
            )
        windows = [(f"tier_outages[{i}]", e[1], e[2]) for i, e in enumerate(self.tier_outages)]
        windows += [(f"partitions[{i}]", e[2], e[3]) for i, e in enumerate(self.partitions)]
        for where, start, end in windows:
            if not start < end:
                raise ConfigError(f"{where} must be a window start_s < end_s: [{start}, {end})")
        for index, (node_a, node_b, _, _) in enumerate(self.partitions):
            if node_a == node_b:
                raise ConfigError(f"partitions[{index}] must have distinct endpoints: {node_a}")


def _transfer_classes():
    from repro.sched.request import TransferClass  # cycle-free (lazy)

    return [member.name for member in TransferClass]


@dataclass(frozen=True)
class ResilienceConfig(_Validated):
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
    max_retries: int = knob(4, non_negative)
    #: backoff before retry k (0-based) is
    #: ``min(backoff_base_s * backoff_factor**k, backoff_max_s)`` nominal
    #: seconds, plus up to ``jitter`` of itself (deterministic draw).
    backoff_base_s: float = knob(0.05, non_negative)
    backoff_factor: float = knob(2.0, at_least(1.0))
    backoff_max_s: float = knob(2.0, non_negative)
    jitter: float = knob(0.25, within("[0, 1]"))
    #: per-transfer-class retry-budget overrides, e.g.
    #: ``(("DEMAND_READ", 6), ("SPECULATIVE_PREFETCH", 1))``; classes
    #: mirror :class:`repro.sched.TransferClass` names.
    retry_classes: tuple = knob((), tuple_of(name=one_of(_transfer_classes), budget=non_negative))
    #: consecutive failures that trip a tier's circuit breaker open.
    breaker_threshold: int = knob(3, at_least(1))
    #: nominal seconds an open breaker waits before admitting one
    #: half-open probe.
    breaker_reset_s: float = knob(5.0, non_negative)
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

    def retries_for(self, class_name: str) -> int:
        for name, budget in self.retry_classes:
            if name == class_name:
                return int(budget)
        return self.max_retries


@dataclass(frozen=True)
class SloConfig(_Validated):
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

    durability_target_s: float = knob(2.0, positive, flag="--slo-durability S", help=(
        "target durability latency per checkpoint, nominal seconds."))
    restore_target_s: float = knob(0.5, positive, flag="--slo-restore S", help=(
        "target blocked time per demand restore, nominal seconds."))
    objective: float = knob(0.95, within("(0, 1)"), flag="--slo-objective", help=(
        "fraction of operations that must meet their target."))
    window_s: float = knob(30.0, positive, flag="--slo-window S", help=(
        "rolling-window length for violation accounting, nominal seconds."))
    burn_rate_threshold: float = knob(2.0, positive, flag="--slo-burn", help=(
        "alert when windowed violation rate > threshold × (1 - objective)."))
    #: observations required in the window before burn alerts can fire
    #: (suppresses alerts off a single early violation).
    min_samples: int = knob(8, at_least(1))


@dataclass(frozen=True)
class AnalysisConfig(_Validated):
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
class ClusterConfig(_Validated):
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
    replica_factor: int = knob(2, at_least(1))
    #: route demand restores / prefetches through a healthy peer's SSD
    #: when the local copy is gone (instead of dropping to the PFS).
    peer_reads: bool = True
    #: fabric bandwidth override in bytes per nominal second (None = use
    #: ``HardwareSpec.internode_bandwidth``).
    peer_bandwidth: Optional[float] = knob(None, optional(positive))
    #: coalesce concurrent SSD→PFS flush legs into batched PFS writes.
    aggregation: bool = True
    #: nominal seconds the batch leader waits for followers to join
    #: before sealing the batch.
    aggregation_window_s: float = knob(0.002, non_negative)
    #: seal the batch early once this many members joined.
    aggregation_max_ops: int = knob(8, at_least(1))
    #: seal the batch early once the combined payload reaches this many
    #: nominal bytes.
    aggregation_max_bytes: int = knob(256 * MiB, positive)
    #: maximum concurrently-connected service sessions.
    service_max_sessions: int = knob(64, at_least(1))
    #: per-session bound on in-flight service requests; arrivals beyond
    #: it raise :class:`~repro.errors.BackpressureError`.
    service_queue_depth: int = knob(16, at_least(1))
    #: modeled one-way RPC latency per service call, nominal seconds.
    service_rpc_latency_s: float = knob(200e-6, non_negative)
    #: anti-entropy replica repair: after a node crash (or rejoin) the
    #: :class:`~repro.cluster.repair.ReplicaRepairer` re-replicates every
    #: under-replicated checkpoint from a surviving SSD holder (or the
    #: PFS) until ``replica_factor`` live copies exist again.
    repair: bool = False
    #: nominal seconds between repairer scans of the replica directory.
    repair_interval_s: float = knob(0.05, positive)
    #: sched class repair copies admit under (``repro.sched.TransferClass``
    #: name); the default rides the cascade-flush class so repair traffic
    #: never preempts demand restores.
    repair_class: str = knob(
        "CASCADE_FLUSH", one_of("DEMAND_READ", "CASCADE_FLUSH", "SPECULATIVE_PREFETCH")
    )
    #: cap on repair copies in flight per scan (bounds the burst a mass
    #: withdrawal can inject into the fabric).
    repair_max_inflight: int = knob(4, at_least(1))
    #: service session failover: when a pinned engine's node dies, re-pin
    #: the session to a surviving engine and idempotently replay the
    #: in-flight op instead of surfacing the node death to the client.
    failover: bool = False


@dataclass(frozen=True)
class PredictConfig(_Validated):
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
    predictor: str = knob("hybrid", one_of("recency", "markov", "hybrid"))
    #: capacity of the per-engine access-history ring (events).
    history_capacity: int = knob(4096, at_least(1))
    #: maximum length of the predicted overlay handed to the queue.
    max_queue: int = knob(32, at_least(1))
    #: predictions below this confidence are dropped from the overlay.
    min_confidence: float = knob(0.02, within("[0, 1]"))
    #: minimum nominal seconds between overlay refreshes (0 = refresh on
    #: every observed access event).
    refresh_interval_s: float = knob(0.0, non_negative)
    #: build the validation layer; without it speculation is never
    #: scored or suspended.
    validation: bool = True
    #: suspend speculation when the EWMA hit rate drops below this floor.
    hit_floor: float = knob(0.4, within("(0, 1)"))
    #: speculative outcomes (hits + abandons) required before the floor
    #: can trigger a suspension.
    min_samples: int = knob(8, at_least(1))
    #: nominal seconds of demand-only fallback per suspension; after the
    #: window the validator re-arms with a fresh estimate (probation).
    suspend_s: float = knob(2.0, positive)
    #: EWMA weight of the newest speculative outcome.
    ewma_alpha: float = knob(0.25, within("(0, 1]"))


@dataclass(frozen=True)
class RuntimeConfig(_Validated):
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
    flush_wait_timeout: Optional[float] = knob(None, optional(positive))
    num_nodes: int = knob(1, positive)
    processes_per_node: Optional[int] = None  # default: one per GPU
    seed: int = 20230616  # HPDC'23 opening day
    #: eviction policy for the Score runtime: "score" (Algorithm 1),
    #: "lru", or "fifo" (ablations).
    eviction_policy: str = knob("score", one_of("score", "lru", "fifo"))
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
    telemetry_buffer: int = knob(1 << 17, positive)

    def __post_init__(self) -> None:
        super().__post_init__()
        ppn = self.processes_per_node
        if ppn is not None and not (0 < ppn <= self.hardware.gpus_per_node):
            raise ConfigError(
                f"processes_per_node must be in [1, {self.hardware.gpus_per_node}]: {ppn}"
            )
        if self.cluster.enabled and self.cluster.replica_factor > self.num_nodes:
            raise ConfigError(
                f"cluster.replica_factor ({self.cluster.replica_factor}) exceeds "
                f"num_nodes ({self.num_nodes})"
            )
        faults = self.faults
        named = [entry[0] for entry in faults.node_crashes + faults.node_rejoins]
        named += [node for entry in faults.partitions for node in entry[:2]]
        if faults.enabled and max(named, default=-1) >= self.num_nodes:
            raise ConfigError(
                f"fault node id {max(named)} out of range for num_nodes={self.num_nodes}"
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
