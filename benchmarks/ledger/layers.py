"""Per-layer metrics of one traced run.

Times come from the tracer's spans (``.host_s`` = host seconds inside the
call summed over threads, ``.self_s`` = that minus child spans on the same
thread); byte and op counts come from the always-on ``MetricsRegistry``
snapshot and ``Link`` attributes, and repeat far better than times.  A
layer the workload does not exercise reports 0.
"""

from __future__ import annotations

from typing import Dict, Optional

#: ``Link.name`` suffix (prefix for the fabric) -> link kind.  ``pfs_*``
#: sums a node's PFS link and the file system's global link, so its bytes
#: count every PFS byte twice.
LINK_KINDS = (
    "hbm",
    "d2h",
    "h2d",
    "ssd_write",
    "ssd_read",
    "pfs_write",
    "pfs_read",
    "internode",
)


def link_kind(name: str) -> Optional[str]:
    if name.startswith(("fabric-", "peer-")):
        return "internode"
    for kind in LINK_KINDS:
        if name.endswith(kind.replace("_", "-")):
            return kind
    return None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, snapshot: dict, region) -> Dict[str, float]:
    from repro.util.stats import percentile

    registry = snapshot["registry"]
    totals = tracer.totals()

    def counter(name: str) -> float:
        return float(registry.get(name, 0.0))

    def hist_sum(name: str) -> float:
        return float((registry.get(name) or {}).get("sum", 0.0))

    def matching(prefix: str, suffix: str):
        return [n for n in registry if n.startswith(prefix) and n.endswith(suffix)]

    def span(field: int, *names: str) -> float:
        """Sum one field (0 calls, 1 host_s, 2 self_s) over span names."""
        return float(sum(totals.get(name, (0, 0.0, 0.0))[field] for name in names))

    out: Dict[str, float] = {}

    # -- clock -------------------------------------------------------------
    out["clock.sleep.calls"] = span(0, "clock.sleep")
    out["clock.sleep.host_s"] = span(1, "clock.sleep")
    requested = actual = 0.0
    fragments = selects = 0
    link_wait = {kind: 0.0 for kind in LINK_KINDS}
    for _id, _parent, name, _thread, start, end, _self, value in tracer.spans:
        if value is None:
            continue
        if name == "clock.sleep":
            requested += value
            actual += end - start
        elif name == "core.scoring.select":
            fragments += value
            selects += 1
        elif name == "simgpu.bandwidth.transfer":
            link_name, nbytes, accounted = value
            link = tracer.links[link_name]
            kind = link_kind(link_name)
            if kind is not None:
                link_wait[kind] += max(
                    0.0, accounted - link.latency - nbytes / link.bandwidth
                )
    out["clock.sleep.overshoot_ratio"] = _ratio(actual - requested, requested)

    # -- simgpu ------------------------------------------------------------
    for field, suffix in ((0, "calls"), (1, "host_s"), (2, "self_s")):
        out[f"simgpu.bandwidth.transfer.{suffix}"] = span(field, "simgpu.bandwidth.transfer")
    for kind in LINK_KINDS:
        links = [l for l in tracer.links.values() if link_kind(l.name) == kind]
        out[f"simgpu.link.{kind}.bytes"] = float(sum(l.bytes_moved for l in links))
        out[f"simgpu.link.{kind}.busy_s"] = float(sum(l.busy_time for l in links))
        out[f"simgpu.link.{kind}.wait_s"] = link_wait[kind]
    out["simgpu.stream.submit.calls"] = span(0, "simgpu.stream.submit")

    # -- tiers -------------------------------------------------------------
    for tier in ("ssd", "pfs"):
        for what in ("write_ops", "write_bytes", "read_ops", "read_bytes"):
            out[f"tiers.{tier}.{what}"] = counter(f"tier.{tier}.{what}")
    out["tiers.write_amplification"] = _ratio(
        counter("tier.ssd.write_bytes") + counter("tier.pfs.write_bytes"),
        counter("engine.checkpoint.bytes"),
    )

    # -- core --------------------------------------------------------------
    for op in ("checkpoint", "restore"):
        for field, suffix in ((0, "calls"), (1, "host_s"), (2, "self_s")):
            out[f"core.engine.{op}.{suffix}"] = span(field, f"core.engine.{op}")
    out["core.engine.wait_for_flushes.host_s"] = span(1, "core.engine.wait_for_flushes")
    blocked = snapshot["checkpoint_blocked"]
    out["core.engine.checkpoint.block_p90_ms"] = percentile(blocked, 90) * 1e3 if blocked else 0.0
    out["core.engine.backpressure_s"] = hist_sum("engine.checkpoint.backpressure_s")

    for field, suffix in ((0, "calls"), (1, "host_s"), (2, "self_s")):
        out[f"core.cache.reserve.{suffix}"] = span(field, "core.cache.reserve")
    for level in ("gpu", "host"):
        out[f"core.cache.{level}.evictions"] = sum(
            counter(n) for n in matching("cache.", f"-{level}.evictions")
        )
        out[f"core.cache.{level}.eviction_wait_s"] = sum(
            hist_sum(n) for n in matching("cache.", f"-{level}.eviction_wait_s")
        )
    out["core.cache.forced_evictions"] = sum(
        counter(n) for n in matching("cache.", ".forced_evictions")
    )

    out["core.scoring.select.calls"] = span(0, "core.scoring.select")
    out["core.scoring.select.self_s"] = span(2, "core.scoring.select")
    out["core.scoring.select.fragments_per_call"] = _ratio(fragments, selects)

    alloctable = [f"core.alloctable.{m}" for m in ("find_gap", "insert", "remove")]
    out["core.alloctable.calls"] = span(0, *alloctable)
    out["core.alloctable.self_s"] = span(2, *alloctable)
    restore_queue = [f"core.restore_queue.{m}" for m in ("enqueue", "consume", "distance")]
    out["core.restore_queue.calls"] = span(0, *restore_queue)
    out["core.restore_queue.self_s"] = span(2, *restore_queue)

    for stage in ("d2h", "h2f", "f2p", "repl"):
        out[f"core.flusher.{stage}_bytes"] = counter(f"flush.{stage}.bytes")
    out["core.flusher.abandoned"] = counter("flush.abandoned")
    out["core.flusher.drain.host_s"] = span(1, "core.flusher.drain")
    out["core.flusher.stream.pipelines"] = counter("flush.stream.pipelines")
    out["core.flusher.stream.overlap_ratio"] = counter("flush.stream.overlap_ratio")

    restores = counter("engine.restore.ops")
    out["core.prefetcher.promotions"] = counter("prefetch.promotions")
    out["core.prefetcher.bytes"] = counter("prefetch.bytes")
    out["core.prefetcher.retries"] = counter("prefetch.retries")
    out["core.prefetcher.gpu_hit_ratio"] = _ratio(counter("restore.source.gpu"), restores)
    out["core.prefetcher.host_hit_ratio"] = _ratio(counter("restore.source.host"), restores)
    out["core.prefetcher.ssd_read_ratio"] = _ratio(counter("restore.source.ssd"), restores)

    # -- feature layers ----------------------------------------------------
    out["sched.acquire.calls"] = span(0, "sched.acquire")
    out["sched.acquire.host_s"] = span(1, "sched.acquire")
    out["sched.self_s"] = span(2, "sched.open", "sched.release", "sched.finish")
    out["sched.grants"] = float(snapshot["sched_grants"])
    out["sched.preemptions"] = counter("sched.preemptions")
    out["sched.sheds"] = counter("sched.sheds")

    out["reduce.encode.calls"] = span(0, "reduce.encode")
    out["reduce.encode.self_s"] = span(2, "reduce.encode")
    out["reduce.reconstruct.self_s"] = span(2, "reduce.reconstruct")
    out["reduce.physical_ratio"] = _ratio(
        counter("reduce.physical_bytes"), counter("reduce.logical_bytes")
    )
    chunks = {k: counter(f"reduce.chunks.{k}") for k in ("new", "dup", "delta")}
    out["reduce.dup_chunk_ratio"] = _ratio(chunks["dup"], sum(chunks.values()))

    health = [f"faults.health.{m}" for m in ("allow", "success", "failure")]
    out["faults.health.calls"] = span(0, *health)
    out["faults.health.self_s"] = span(2, *health)
    out["faults.flush_retries"] = counter("resilience.flush_retries")

    service = ("cluster.service.submit", "cluster.service.restore")
    out["cluster.service.submit.host_s"] = span(1, service[0])
    out["cluster.service.restore.host_s"] = span(1, service[1])
    out["cluster.service.self_s"] = span(2, *service)
    out["cluster.fabric.peer_source.calls"] = span(0, "cluster.fabric.peer_source")
    out["cluster.fabric.self_s"] = span(2, "cluster.fabric.peer_source", "cluster.fabric.pfs_put")
    out["cluster.directory.calls"] = span(
        0, "cluster.directory.publish", "cluster.directory.holders"
    )
    for what in ("reads", "read_bytes", "fallbacks"):
        out[f"cluster.peer.{what}"] = counter(f"cluster.peer.{what}")

    bus = ("telemetry.bus.instant", "telemetry.bus.complete")
    out["telemetry.bus.calls"] = span(0, *bus)
    out["telemetry.bus.self_s"] = span(2, *bus)
    out["telemetry.bus.emitted"] = float(snapshot["bus_emitted"])
    out["telemetry.bus.dropped"] = float(snapshot["bus_dropped"])

    # -- load generator and harness ----------------------------------------
    out["workloads.fill_random.self_s"] = span(2, "workloads.fill_random")
    out["harness.host_cpu_s"] = region.cpu_s
    out["harness.trace.spans"] = float(len(tracer.spans))
    # traced wall / untraced median - 1: only the parent has both walls
    out["harness.trace.overhead_ratio"] = 0.0
    return out
