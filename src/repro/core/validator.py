"""Engine-wide invariant checking (debugging / test support).

``validate_engine`` takes one engine's monitor and asserts the global
consistency properties the design relies on:

* every cache table tiles its arena with no overlaps or adjacent gaps;
* every table entry has a catalog record with a live instance on that tier,
  and vice versa;
* every memoised Algorithm-1 cost still agrees with a fresh one: barrier,
  zero p, penalty constant and hinted distance (a flush estimate is frozen
  between transitions, so its value is not compared);
* instance states are plausible for where the data is (a ``FLUSHED`` GPU
  extent implies a copy below; a ``READ_COMPLETE`` extent holds a copy);
* no unconsumed checkpoint exists whose *only* copy is mid-flight;
* the restore queue's unconsumed hints reference known or future ids;
* every cached prefetch-chain op belongs to a known, unconsumed checkpoint;
* no extent is pinned forever: with the flush cascade idle nothing is
  ``flush_pending``, and nothing is ``read_pinned`` outside a promotion;
* with reduction enabled: per-tier chunk refcounts match the live images
  attached to each tier exactly, the engine-wide registry holds no orphaned
  chunks, and no delta chain exceeds the configured depth bound.

Raises :class:`InvariantViolation` with a description on failure.  Cheap
enough to call from tests after every scenario.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.predict import (
    FORCE_EVICT_PENALTY,
    NEVER,
    SPECULATIVE_EVICT_PENALTY,
    instance_state_ts,
)
from repro.core.scoring import BARRIER, ULPS
from repro.errors import ReproError
from repro.tiers.base import TierLevel

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ScoreEngine


class InvariantViolation(ReproError):
    """An engine-wide consistency invariant does not hold."""


def validate_engine(engine: "ScoreEngine") -> None:
    """Check all invariants; must be called while the engine is quiescent
    (no application operation in flight)."""
    with engine.monitor:
        _check_tables(engine)
        _check_instances(engine)
        _check_costs(engine)
        _check_copies(engine)
        _check_prefetch_chains(engine)
        _check_pins(engine)
        if engine.reducer is not None:
            _check_reduction(engine)


def _check_tables(engine: "ScoreEngine") -> None:
    for cache in (engine.gpu_cache, engine.host_cache):
        try:
            cache.table.check_invariants()
        except AssertionError as exc:
            raise InvariantViolation(f"{cache.name}: {exc}")
        counted = cache.pinned_bytes()
        scanned = cache.scan_pinned_bytes()
        if counted != scanned:
            raise InvariantViolation(
                f"{cache.name}: pinned-bytes counter {counted} != "
                f"table scan {scanned}"
            )


def _check_instances(engine: "ScoreEngine") -> None:
    for cache in (engine.gpu_cache, engine.host_cache):
        for frag in cache.table.fragments():
            if frag.is_gap:
                continue
            record = engine.catalog.maybe_get(frag.record.ckpt_id)
            if record is None:
                raise InvariantViolation(
                    f"{cache.name}: fragment for unknown checkpoint "
                    f"{frag.record.ckpt_id}"
                )
            inst = record.peek(cache.level)
            if inst is None:
                raise InvariantViolation(
                    f"{cache.name}: checkpoint {record.ckpt_id} cached "
                    "without an instance"
                )
            expected = record.stored_size(cache.level)
            if frag.size != expected:
                raise InvariantViolation(
                    f"{cache.name}: checkpoint {record.ckpt_id} fragment "
                    f"size {frag.size} != stored size {expected}"
                )
    # Reverse direction: an instance implies a fragment (or, for stores,
    # a durable copy).
    for record in engine.catalog.all_records():
        for level, inst in record.instances.items():
            if level == TierLevel.GPU and not engine.gpu_cache.table.contains(record.ckpt_id):
                raise InvariantViolation(
                    f"checkpoint {record.ckpt_id}: GPU instance without a "
                    f"GPU cache fragment (state {inst.state.value})"
                )
            if level == TierLevel.HOST and not engine.host_cache.table.contains(record.ckpt_id):
                raise InvariantViolation(
                    f"checkpoint {record.ckpt_id}: host instance without a "
                    f"host cache fragment (state {inst.state.value})"
                )


#: the p values compared exactly; any other p is a frozen flush estimate.
_EXACT_P = (NEVER, 0.0, SPECULATIVE_EVICT_PENALTY, FORCE_EVICT_PENALTY)


def _exact_part(p: float):
    return p if p in _EXACT_P else "estimate"


def _check_costs(engine: "ScoreEngine") -> None:
    for cache in (engine.gpu_cache, engine.host_cache):
        distances = cache.queue.hint_index()
        for allow_pinned, costs in enumerate(cache.costs):
            for ckpt_id, memoised in costs.p.items():
                if not cache.table.contains(ckpt_id):
                    raise InvariantViolation(
                        f"{cache.name}: cost memoised for uncached checkpoint {ckpt_id}"
                    )
                record = cache.table.lookup(ckpt_id).record
                fresh = instance_state_ts(
                    record, cache.level, cache.flush_estimate, allow_pinned=bool(allow_pinned)
                )
                memoised = NEVER if memoised == BARRIER else memoised / ULPS
                if _exact_part(memoised) != _exact_part(fresh):
                    raise InvariantViolation(
                        f"{cache.name}: checkpoint {ckpt_id} memoised p {memoised} "
                        f"(allow_pinned={bool(allow_pinned)}), its state prices {fresh}"
                    )
        for frag in cache.table.fragments():
            if frag.is_gap:
                continue
            ckpt_id = frag.record.ckpt_id
            if distances.get(ckpt_id) != cache.queue.distance(ckpt_id):
                raise InvariantViolation(
                    f"{cache.name}: checkpoint {ckpt_id} scores distance "
                    f"{distances.get(ckpt_id)}, the queue says {cache.queue.distance(ckpt_id)}"
                )


def _check_copies(engine: "ScoreEngine") -> None:
    for record in engine.catalog.all_records():
        if record.consumed or record.discarded:
            continue
        has_cached = record.fastest_cached_level() is not None
        key = engine.store_key(record)
        # An adopted record names no store: every read re-resolves its holder.
        adopted = record.home_pid is not None
        store = engine.read_source(key) if adopted else engine.durable_store_of(record)
        has_durable = record.durable_level is not None and store.contains(key)
        if not (has_cached or has_durable or record.in_transfer()):
            raise InvariantViolation(
                f"unconsumed checkpoint {record.ckpt_id} has no copy anywhere"
            )
        if record.durable_level is not None and not has_durable:
            raise InvariantViolation(
                f"checkpoint {record.ckpt_id} marked durable on "
                f"{record.durable_level.name} but absent from its store"
            )


def _check_prefetch_chains(engine: "ScoreEngine") -> None:
    """A chain op outliving its checkpoint's restore is a leak: one entry
    per checkpoint for the life of the engine."""
    for ckpt_id in engine.prefetcher.open_chains():
        record = engine.catalog.maybe_get(ckpt_id)
        if record is None or record.consumed:
            raise InvariantViolation(
                f"prefetch chain op cached for checkpoint {ckpt_id}, which is "
                f"{'unknown' if record is None else 'already consumed'}"
            )


def _check_pins(engine: "ScoreEngine") -> None:
    """A hop that ends — landed, abandoned or failed — unpins its source; a
    pin with no hop in flight holds its extent against eviction forever."""
    flushing = any(stream.depth for stream in engine.flusher.streams.values())
    for record in engine.catalog.all_records():
        for level, inst in record.instances.items():
            if inst.flush_pending and not flushing:
                raise InvariantViolation(
                    f"checkpoint {record.ckpt_id}: {level.name} copy pinned for a "
                    "flush (flush_pending) with the cascade idle"
                )
            if inst.read_pinned and not record.prefetch_inflight:
                raise InvariantViolation(
                    f"checkpoint {record.ckpt_id}: {level.name} copy read-pinned "
                    f"({inst.read_pinned}) with no promotion in flight"
                )


def _check_reduction(engine: "ScoreEngine") -> None:
    """Reduce invariants: attachments mirror residency, refcounts match the
    live images exactly, no orphans, chain depths within the bound."""
    reducer = engine.reducer
    assert reducer is not None
    # Chain-head integrity: the delta base for the next encode must be a
    # live catalog record — a failed checkpoint() that was rolled back may
    # never linger as the base of future deltas.
    head = reducer._last_image
    if head is not None and not engine.catalog.contains(head.ckpt_id):
        raise InvariantViolation(
            f"reducer delta-chain head is checkpoint {head.ckpt_id}, which "
            "is not in the catalog (leaked by a rolled-back write?)"
        )
    caches = {TierLevel.GPU: engine.gpu_cache, TierLevel.HOST: engine.host_cache}
    expected: dict = {level: {} for level in TierLevel}
    for record in engine.catalog.all_records():
        image = record.reduction
        if image is None:
            continue
        if image.depth > engine.config.reduce.max_delta_chain:
            raise InvariantViolation(
                f"checkpoint {record.ckpt_id}: delta-chain depth {image.depth} "
                f"exceeds bound {engine.config.reduce.max_delta_chain}"
            )
        for level, cache in caches.items():
            if not reducer.covers(level):
                continue
            inst = record.peek(level)
            if inst is not None and inst.has_copy and level not in image.attached:
                raise InvariantViolation(
                    f"checkpoint {record.ckpt_id}: reduced copy on "
                    f"{level.name} but the tier is not attached to its image"
                )
            if level in image.attached and not cache.table.contains(record.ckpt_id):
                raise InvariantViolation(
                    f"checkpoint {record.ckpt_id}: image attached to "
                    f"{level.name} without a cache fragment"
                )
        key = engine.store_key(record)
        in_ssd = engine.ssd.contains(key)
        if in_ssd != (TierLevel.SSD in image.attached):
            raise InvariantViolation(
                f"checkpoint {record.ckpt_id}: SSD blob presence ({in_ssd}) "
                "disagrees with its image's SSD attachment"
            )
        if engine.pfs is not None:
            in_pfs = engine.pfs.contains(key)
            if in_pfs != (TierLevel.PFS in image.attached):
                raise InvariantViolation(
                    f"checkpoint {record.ckpt_id}: PFS blob presence "
                    f"({in_pfs}) disagrees with its image's PFS attachment"
                )
        for level in image.attached:
            per_tier = expected[level]
            for chunk in image.chunks:
                per_tier[chunk.digest] = per_tier.get(chunk.digest, 0) + 1
    for level in TierLevel:
        store = reducer.stores[level]
        try:
            store.check()
        except ReproError as exc:
            raise InvariantViolation(f"chunk store {level.name}: {exc}")
        if store.refs != expected[level]:
            raise InvariantViolation(
                f"chunk store {level.name}: refcounts diverge from the live "
                f"images ({len(store.refs)} digests held, "
                f"{len(expected[level])} expected)"
            )
    combined: dict = {}
    for per_tier in expected.values():
        for digest, count in per_tier.items():
            combined[digest] = combined.get(digest, 0) + count
    if reducer.registry.total_refs != combined:
        raise InvariantViolation(
            "chunk registry refcounts diverge from the per-tier stores"
        )
    orphans = reducer.registry.orphans()
    if orphans:
        raise InvariantViolation(
            f"chunk registry holds {len(orphans)} orphaned chunk(s)"
        )
