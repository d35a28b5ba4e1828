"""The per-engine reduction pipeline (chunk → dedup → delta → compress).

One :class:`Reducer` per engine encodes a checkpoint on the device before
it is placed in the GPU cache.  ``encode`` turns the logical payload into a
:class:`ReducedImage`: the chunk recipe, each chunk classified as *new*
(first sighting), *dup* (content-addressed hit against any live image) or
*delta* (small byte diff against the previous checkpoint's same-position
chunk), plus the resulting **physical** size after the modeled codec.
``reconstruct`` rebuilds the full logical payload (chunk reassembly,
modeled delta apply + decode charge) once, at a restore's copy-out.

One representation: every tier holds the physical form, so
``record.physical_size`` is what cache placement, eviction scoring and
every link transfer use (extents and store blobs are zero-filled
placeholders of that size; the real bytes live in the image's chunks).
Delta encoding is *modeled* — each image keeps its own chunk bytes, so
reconstruction never chases a base image — but the chain bookkeeping is
real: depth is bounded by :data:`MAX_DELTA_CHAIN` via automatic rebasing,
and the decode charge grows with depth.

Locking: the reducer has its own lock, always acquired *after* the engine
monitor (the eviction hook runs monitor-held) and never the other way
around; virtual-clock sleeps happen outside it.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

import numpy as np

from repro.clock import VirtualClock
from repro.config import ScaleModel
from repro.errors import IntegrityError
from repro.reduce.chunkstore import ChunkRegistry, ChunkStore
from repro.telemetry import Telemetry
from repro.tiers.base import TierLevel
from repro.util.units import GiB, MiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.catalog import CheckpointRecord

#: nominal bytes per chunk, fixed-size boundaries (the RTM shot workloads
#: correlate their payloads in blocks of the same size).
CHUNK_SIZE = 8 * MiB
#: longest allowed chain of delta-encoded checkpoints; the next encode past
#: the bound *rebases* (stores a self-contained version) so restore latency
#: stays predictable.
MAX_DELTA_CHAIN = 4
#: a chunk is delta-encoded only when its diff is below this fraction of
#: the chunk size (otherwise the full chunk is cheaper to store).
DELTA_THRESHOLD = 0.6
#: modeled decode-time penalty per chain level: reconstructing a depth-``d``
#: checkpoint costs ``1 + d * CHAIN_PENALTY`` times the flat decode.
CHAIN_PENALTY = 0.25
#: nominal metadata bytes charged per chunk reference in the recipe.
RECIPE_OVERHEAD = 48
#: the modeled codec, an LZ4-class compressor on the GPU (nvCOMP-class
#: rates, calibrated to published numbers on HPC floating-point
#: checkpoints): no real compressor runs, the ratio (compressed/original)
#: applies to the bytes that survive dedup and delta, and the rates are
#: charged on the virtual clock in nominal bytes per second.
CODEC_RATIO = 0.62
ENCODE_BANDWIDTH = 60.0 * GiB
DECODE_BANDWIDTH = 90.0 * GiB


@dataclass(frozen=True)
class ImageChunk:
    """One chunk of a reduced checkpoint."""

    digest: bytes
    nominal_size: int
    #: this image's own read-only copy of the chunk's logical bytes.
    payload: np.ndarray
    #: "new" (stored in full), "dup" (content-addressed hit, ~0 new bytes),
    #: or "delta" (stored as a diff against the base image's chunk).
    kind: str
    #: nominal bytes the stored representation charges (0 for dups).
    stored_nominal: int


@dataclass
class ReducedImage:
    """A checkpoint's chunk recipe + delta lineage."""

    ckpt_id: int
    chunks: Tuple[ImageChunk, ...]
    logical_size: int
    physical_size: int
    #: delta-chain depth: 0 = self-contained, k = k delta hops to a base.
    depth: int
    base_ckpt: Optional[int]
    #: tiers currently holding this image's physical form (refcounted in
    #: the per-tier chunk stores); mutated only under the reducer lock.
    attached: Set[TierLevel] = field(default_factory=set)

    @property
    def new_chunks(self) -> int:
        return sum(1 for c in self.chunks if c.kind == "new")

    @property
    def dup_chunks(self) -> int:
        return sum(1 for c in self.chunks if c.kind == "dup")

    @property
    def delta_chunks(self) -> int:
        return sum(1 for c in self.chunks if c.kind == "delta")


class Reducer:
    """Data-reduction pipeline of one engine."""

    def __init__(
        self,
        scale: ScaleModel,
        clock: VirtualClock,
        telemetry: Optional[Telemetry] = None,
        process_id: int = 0,
        recipes=None,
    ) -> None:
        self.scale = scale
        self.clock = clock
        self.process_id = process_id
        self.registry = ChunkRegistry()
        self.stores: Dict[TierLevel, ChunkStore] = {
            level: ChunkStore(level) for level in TierLevel
        }
        self._lock = threading.RLock()
        self._last_image: Optional[ReducedImage] = None
        #: chain head before the most recent encode (for ``on_forgotten``).
        self._prev_image: Optional[ReducedImage] = None
        #: durable chunk-recipe sidecar (``repro.faults.recipes.RecipeStore``)
        #: or None; when set, every encoded recipe is persisted so reduced
        #: checkpoints survive a crash and ``recover_history()`` can rebuild
        #: them.
        self.recipes = recipes
        # Per-reducer tallies (the registry counters below are shared across
        # the cluster's engines; ``stats`` must stay per-engine).
        self.rebases = 0
        self.encodes = 0
        self.logical_bytes = 0
        self.physical_bytes = 0
        self.chunk_counts = {"new": 0, "dup": 0, "delta": 0}
        self.telemetry = telemetry or Telemetry.disabled()
        self._track = f"p{process_id}-reduce"
        registry = self.telemetry.registry
        self._m_logical = registry.counter("reduce.logical_bytes")
        self._m_physical = registry.counter("reduce.physical_bytes")
        self._m_new = registry.counter("reduce.chunks.new")
        self._m_dup = registry.counter("reduce.chunks.dup")
        self._m_delta = registry.counter("reduce.chunks.delta")
        self._m_rebases = registry.counter("reduce.rebases")
        self._m_encode_s = registry.histogram("reduce.encode_s")
        self._m_decode_s = registry.histogram("reduce.decode_s")
        #: observability satellites: the headline reduction ratios as live
        #: gauges (recomputed after every encode from the shared counters)
        #: plus the delta-chain depth distribution.
        self._m_dedup_rate = registry.gauge("reduce.dedup_hit_rate")
        self._m_ratio = registry.gauge("reduce.compression_ratio")
        self._m_chain_depth = registry.histogram("reduce.delta_chain_depth")

    # -- encode ------------------------------------------------------------
    def encode(self, record: "CheckpointRecord", payload: np.ndarray) -> float:
        """Reduce a checkpoint's logical payload; monitor NOT held.

        Sets ``record.physical_size`` / ``record.reduction`` and charges the
        modeled encode cost on the virtual clock (returned in nominal
        seconds).  Must run before the GPU reservation, so the physical size
        is what gets placed.
        """
        scale = self.scale
        step = max(1, CHUNK_SIZE // scale.data_scale)  # payload bytes per chunk
        pieces = []
        for offset in range(0, int(payload.size), step):
            data = np.ascontiguousarray(payload[offset : offset + step])
            digest = hashlib.blake2b(data, digest_size=16).digest()
            pieces.append((data.size * scale.data_scale, digest, data))
        with self._lock:
            base = self._last_image
            delta_allowed = base is not None
            rebased = False
            if delta_allowed and base.depth + 1 > MAX_DELTA_CHAIN:
                # Chain at the bound: store self-contained, reset depth.
                delta_allowed = False
                rebased = True
            chunks: List[ImageChunk] = []
            seen_here: Set[bytes] = set()
            used_delta = False
            fresh_nominal = 0
            for index, (nominal, digest, data) in enumerate(pieces):
                frozen = data.copy()
                frozen.flags.writeable = False
                if digest in seen_here or self.registry.is_live(digest):
                    chunks.append(ImageChunk(digest, nominal, frozen, "dup", 0))
                    continue
                seen_here.add(digest)
                kind, stored = "new", nominal
                if delta_allowed and index < len(base.chunks):
                    base_chunk = base.chunks[index]
                    if base_chunk.payload.size == frozen.size:
                        diff = int(np.count_nonzero(base_chunk.payload != frozen))
                        diff_nominal = diff * scale.data_scale
                        if diff_nominal < DELTA_THRESHOLD * nominal:
                            # Offset/value pairs: ~2 nominal bytes per
                            # differing byte, never worse than the full chunk.
                            kind = "delta"
                            stored = min(2 * diff_nominal, nominal)
                            used_delta = True
                chunks.append(ImageChunk(digest, nominal, frozen, kind, stored))
                fresh_nominal += stored
            depth = base.depth + 1 if (used_delta and base is not None) else 0
            compressed = math.ceil(fresh_nominal * CODEC_RATIO)
            physical = min(
                record.nominal_size,
                scale.align(compressed + RECIPE_OVERHEAD * len(chunks)),
            )
            image = ReducedImage(
                ckpt_id=record.ckpt_id,
                chunks=tuple(chunks),
                logical_size=record.nominal_size,
                physical_size=physical,
                depth=depth,
                base_ckpt=base.ckpt_id if used_delta else None,
            )
            self._prev_image = self._last_image
            self._last_image = image
            self.encodes += 1
            self.logical_bytes += record.nominal_size
            self.physical_bytes += physical
            self.chunk_counts["new"] += image.new_chunks
            self.chunk_counts["dup"] += image.dup_chunks
            self.chunk_counts["delta"] += image.delta_chunks
            if rebased:
                self.rebases += 1
                self._m_rebases.inc()
        # Publish order matters: readers gate on ``reduction``; the size
        # must already be physical when they first see it.
        record.physical_size = physical
        record.reduction = image
        if self.recipes is not None:
            # Durable sidecar write (metadata, uncharged): the recipe must
            # be on disk before any blob of this checkpoint becomes durable,
            # so a crash never leaves a recoverable blob without its recipe.
            self.recipes.save(self.process_id, image)
        self._m_logical.inc(record.nominal_size)
        self._m_physical.inc(physical)
        self._m_new.inc(image.new_chunks)
        self._m_dup.inc(image.dup_chunks)
        self._m_delta.inc(image.delta_chunks)
        total_chunks = self._m_new.value + self._m_dup.value + self._m_delta.value
        if total_chunks:
            self._m_dedup_rate.set(self._m_dup.value / total_chunks)
        if self._m_logical.value:
            self._m_ratio.set(self._m_physical.value / self._m_logical.value)
        self._m_chain_depth.observe(float(depth))
        seconds = record.nominal_size / ENCODE_BANDWIDTH
        self._m_encode_s.observe(seconds)
        self.telemetry.bus.instant(
            "reduce-encode",
            self._track,
            ckpt=record.ckpt_id,
            logical=record.nominal_size,
            physical=physical,
            new=image.new_chunks,
            dup=image.dup_chunks,
            delta=image.delta_chunks,
            depth=depth,
            rebased=rebased,
        )
        self.clock.sleep(seconds)
        return seconds

    def on_forgotten(self, record: "CheckpointRecord") -> None:
        """Lifecycle observer (engine monitor held): roll back a
        just-encoded checkpoint whose ``checkpoint()`` failed.

        Rewinds the delta-chain head when this record's image is still the
        base, drops its persisted recipe, and clears the record's reduction
        so the catalog rollback leaves no dangling chunk references (the
        validator's chain-head invariant).
        """
        image = record.reduction
        if image is None:
            return
        with self._lock:
            if self._last_image is image:
                self._last_image = self._prev_image
        if self.recipes is not None:
            self.recipes.discard(self.process_id, record.ckpt_id)
        record.reduction = None
        record.physical_size = record.nominal_size

    # -- reconstruction ----------------------------------------------------
    def reconstruct(self, record: "CheckpointRecord") -> Tuple[np.ndarray, float]:
        """Rebuild the full logical payload from the GPU copy, at a restore's
        copy-out.

        Returns ``(payload, nominal_seconds)``; the decode charge (chunk
        reassembly + delta apply + decompression, scaled by the chain-depth
        penalty) has already been slept on the virtual clock.
        """
        image: Optional[ReducedImage] = record.reduction
        if image is None:
            raise IntegrityError(
                f"checkpoint {record.ckpt_id} has no reduction image"
            )
        with self._lock:
            store = self.stores[TierLevel.GPU]
            if TierLevel.GPU in image.attached:
                for chunk in image.chunks:
                    if not store.contains(chunk.digest):
                        raise IntegrityError(
                            f"checkpoint {record.ckpt_id}: chunk "
                            f"{chunk.digest.hex()} unreferenced on "
                            "GPU during reconstruction"
                        )
            parts = [chunk.payload for chunk in image.chunks]
        payload = parts[0] if len(parts) == 1 else np.concatenate(parts)
        seconds = image.logical_size / DECODE_BANDWIDTH * (1.0 + image.depth * CHAIN_PENALTY)
        self._m_decode_s.observe(seconds)
        self.clock.sleep(seconds)
        return payload, seconds

    def physical_payload(self, record: "CheckpointRecord") -> np.ndarray:
        """The zero-filled placeholder stored wherever the physical form
        lives (extents/blobs model capacity; the bytes live in the image)."""
        return np.zeros(
            self.scale.payload_bytes(record.physical_size), dtype=np.uint8
        )

    # -- residency accounting ---------------------------------------------
    def attach(self, record: "CheckpointRecord", level: TierLevel) -> None:
        """Record that ``level`` now holds this checkpoint's physical form.

        Idempotent; called after the copy has fully landed (so failure
        paths that release a reservation never need a matching detach).
        """
        image: Optional[ReducedImage] = record.reduction
        if image is None:
            return
        with self._lock:
            if level in image.attached:
                return
            image.attached.add(level)
            store = self.stores[level]
            for chunk in image.chunks:
                store.add(chunk.digest, chunk.nominal_size)
                self.registry.add(chunk.digest, chunk.nominal_size)

    def detach(self, record: "CheckpointRecord", level: TierLevel) -> None:
        """Inverse of :meth:`attach`; no-op when the tier was never attached
        (eviction and release paths call this unconditionally)."""
        image: Optional[ReducedImage] = record.reduction
        if image is None:
            return
        with self._lock:
            if level not in image.attached:
                return
            image.attached.discard(level)
            store = self.stores[level]
            for chunk in image.chunks:
                store.release(chunk.digest)
                self.registry.release(chunk.digest)

    # -- lifecycle observer (DESIGN.md §5 "Engine shell") ------------------
    # The engine calls these with its monitor held; the reducer lock nests
    # inside it (module docstring).
    def on_landed(self, record: "CheckpointRecord", where) -> None:
        """A complete copy landed on one of the engine's own tiers: count
        its chunks there."""
        self.attach(record, where.level)

    def on_dropped(self, record: "CheckpointRecord", where) -> None:
        """An extent was evicted or released, or a durable blob deleted."""
        self.detach(record, where.level)

    def load_recipe(self, ckpt_id: int) -> Optional[ReducedImage]:
        """The image of a checkpoint encoded by an earlier incarnation, from
        the durable recipe sidecar; ``None`` without a sidecar or a recipe."""
        if self.recipes is None:
            return None
        return self.recipes.load(self.process_id, ckpt_id)

    # -- stats -------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            held = {
                level.name.lower(): store.held_bytes
                for level, store in self.stores.items()
                if store.refs
            }
            return {
                "encodes": self.encodes,
                "rebases": self.rebases,
                "logical_bytes": self.logical_bytes,
                "physical_bytes": self.physical_bytes,
                "dup_chunks": self.chunk_counts["dup"],
                "new_chunks": self.chunk_counts["new"],
                "delta_chunks": self.chunk_counts["delta"],
                "held_bytes": held,
            }
