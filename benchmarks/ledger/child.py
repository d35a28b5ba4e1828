"""One run of one workload in a fresh interpreter.

Started by ``run.py``; prints one JSON record as the last line of stdout.
The process pins itself to one CPU before importing anything heavy:
unpinned, cross-vCPU GIL hand-off made the same host-bound run take 1.9 s
after idle and 3.4 s under sustained load; pinned it is 1.90-2.02 s.
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.monotonic()  # before the heavy imports: they are set-up cost

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import threading
import traceback
from typing import Callable, Dict, List, Optional

from clocks import CLOCKS, NOMINAL_METRICS
from layers import per_layer

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SPANS_DIR = os.path.join(REPO_ROOT, "benchmarks", "results", "ledger")


#: The host's speed drifts by a quarter for minutes at a time (shared
#: hardware), and host-bound seconds drift with it.  A fixed pure-Python loop
#: timed beside every measurement says how fast the host is right now;
#: host-bound seconds are reported as if it took ``REFERENCE_CALIBRATION_S``
#: (what it takes on this box when quiet).
CALIBRATION_LOOPS = 1_000_000
REFERENCE_CALIBRATION_S = 0.050


def calibrate() -> float:
    """Seconds the calibration loop takes right now."""
    started = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i
    return time.perf_counter() - started


def at_reference_speed(wall_s: float, cpu_s: float, calibration_s: float) -> float:
    """``wall_s`` with its on-CPU share rescaled to the reference host speed.

    Time spent asleep does not depend on how fast the host is, so only the
    share the process was on a CPU is rescaled.
    """
    busy = min(cpu_s, wall_s)
    return wall_s - busy + busy * REFERENCE_CALIBRATION_S / calibration_s


def pin_to_one_cpu() -> Optional[int]:
    """Pin to the highest allowed CPU; ``None`` where that is unavailable."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


class OpLedger:
    """What the driver itself saw of every operation, across client threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.expected: Dict[object, int] = {}
        #: ``(kind, logical bytes, blocked nominal seconds)`` per completed op.
        self.ops: List[tuple] = []
        self.attempted = 0
        self.failed = 0

    def begin(self) -> None:
        with self._lock:
            self.attempted += 1

    def complete(self, kind: str, nbytes: int, blocked: float) -> None:
        with self._lock:
            self.ops.append((kind, nbytes, blocked))

    def fail(self, what: str) -> None:
        with self._lock:
            self.failed += 1
            first = self.failed == 1
        if first:  # one traceback is enough to debug; the count says how many
            print(f"ledger: FAILED {what}", file=sys.stderr)
            if sys.exc_info()[0] is not None:
                traceback.print_exc()


class CheckedEngine:
    """Thin proxy that checks restores against the driver's own checksums.

    Records ``buffer.checksum()`` before every ``checkpoint`` and compares
    after every ``restore``; the engine's own CRC verify does not count.
    A raised operation or a mismatch is a failed op, and the loop goes on.
    ``write``/``read`` let a ``ClientSession`` stand in for an engine.
    """

    def __init__(
        self,
        engine,
        ledger: OpLedger,
        label: str,
        write: Optional[Callable] = None,
        read: Optional[Callable] = None,
        span: Optional[Callable] = None,
        after_flush: Optional[Callable[[], None]] = None,
    ) -> None:
        self._engine = engine
        self._ledger = ledger
        self._label = label
        self._write = write or engine.checkpoint
        self._read = read or engine.restore
        self._span = span
        self._after_flush = after_flush

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def _run(self, kind: str, ckpt_id: int, call: Callable, buffer) -> Optional[float]:
        self._ledger.begin()
        op_id = f"{self._label}:{kind}:{ckpt_id}"
        try:
            if self._span is None:
                return call(ckpt_id, buffer)
            return self._span(f"op.{kind}", op_id, call, ckpt_id, buffer)
        except Exception:  # boundary: count it, report it, keep the loop alive
            self._ledger.fail(f"{op_id} raised")
            return None

    def checkpoint(self, ckpt_id: int, buffer) -> float:
        self._ledger.expected[(self._label, ckpt_id)] = buffer.checksum()
        blocked = self._run("checkpoint", ckpt_id, self._write, buffer)
        if blocked is not None:
            self._ledger.complete("checkpoint", buffer.nominal_size, blocked)
        return blocked or 0.0

    def restore(self, ckpt_id: int, buffer) -> float:
        blocked = self._run("restore", ckpt_id, self._read, buffer)
        if blocked is None:
            return 0.0
        if buffer.checksum() != self._ledger.expected.get((self._label, ckpt_id)):
            self._ledger.fail(f"{self._label}:restore:{ckpt_id} checksum mismatch")
            return blocked
        self._ledger.complete("restore", buffer.nominal_size, blocked)
        return blocked

    def wait_for_flushes(self, *args, **kwargs) -> float:
        waited = self._engine.wait_for_flushes(*args, **kwargs)
        if self._after_flush is not None:
            self._after_flush()
        return waited


def _run_threads(targets: List[Callable[[], None]], barriers: List[threading.Barrier]) -> None:
    """Run one client thread per target; re-raise the first harness error."""
    errors: List[BaseException] = []

    def guarded(target: Callable[[], None]) -> None:
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)
            for barrier in barriers:  # do not leave the sibling parked
                barrier.abort()

    threads = [
        threading.Thread(target=guarded, args=(t,), name=f"ledger-client-{i}")
        for i, t in enumerate(targets)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class Region:
    """Wall, CPU and virtual-clock bounds of the measured region."""

    def __init__(self, clock) -> None:
        self.clock = clock
        #: ``time.monotonic()`` and process CPU seconds when set-up ended
        self.ready_at = self.cpu_at_ready = 0.0
        self._t0 = (0.0, 0.0, 0.0)
        self.wall_s = self.cpu_s = self.virtual_s = 0.0
        #: virtual seconds from the first op to the flush barrier's return.
        self.durable_window_s = 0.0
        self.durable_bytes = 0

    def start(self) -> None:
        self.ready_at = time.monotonic()
        self.cpu_at_ready = time.process_time()
        self._t0 = (time.perf_counter(), self.cpu_at_ready, self.clock.now())

    def mark_durable(self, durable_bytes: int) -> None:
        self.durable_window_s = self.clock.now() - self._t0[2]
        self.durable_bytes = durable_bytes

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._t0[0]
        self.cpu_s = time.process_time() - self._t0[1]
        self.virtual_s = self.clock.now() - self._t0[2]


def _durable_logical_bytes(engines) -> int:
    """Logical bytes of this run's checkpoints that hold a durable copy."""
    total = 0
    for engine in engines:
        with engine.monitor:
            total += sum(
                record.nominal_size
                for record in engine.catalog.all_records()
                if record.home_pid is None and record.durable_level is not None
            )
    return total


def run_shots(plan, ledger: OpLedger, span=None, setup_only: bool = False) -> tuple:
    """Two ranks, one thread each, driving ``run_shot`` through the proxy."""
    from repro.core.engine import ScoreEngine
    from repro.tiers.topology import Cluster
    from repro.workloads.shot import run_shot

    cluster = Cluster(plan.config)
    region = Region(cluster.clock)
    engines: List[Optional[ScoreEngine]] = [None] * len(plan.specs)
    ready = threading.Barrier(len(plan.specs), action=region.start)
    flushed = threading.Barrier(len(plan.specs))
    waits_for_flush = plan.specs[0].wait_for_flush
    contexts = cluster.process_contexts()

    def after_flush() -> None:
        # The WAIT variant's flush barrier sits between the passes, inside
        # run_shot; one rank stamps the durable window once both are through.
        if flushed.wait() == 0:
            region.mark_durable(_durable_logical_bytes(engines))

    def client(rank: int) -> None:
        engine = ScoreEngine(contexts[rank], **plan.engine_kwargs)
        engines[rank] = engine
        proxy = CheckedEngine(engine, ledger, f"r{rank}", span=span, after_flush=after_flush)
        ready.wait()
        if not setup_only:
            run_shot(proxy, plan.specs[rank])

    try:
        _run_threads(
            [lambda rank=rank: client(rank) for rank in range(len(plan.specs))],
            [ready, flushed],
        )
        region.stop()
        if not waits_for_flush:
            # No barrier in the workload: settle the cascade after the last
            # op (outside the makespan) to close the durable window.
            for engine in engines:
                engine.wait_for_flushes()
            region.mark_durable(_durable_logical_bytes(engines))
        snapshot = observe(cluster, engines)
    finally:
        for engine in engines:
            if engine is not None:
                engine.close()
        cluster.close()
    return region, snapshot


def run_cluster(plan, ledger: OpLedger, span=None, setup_only: bool = False) -> tuple:
    """Two client threads x two sessions through the checkpoint service."""
    from inputs import CLIENT_THREADS, CLUSTER_NODE_SHIFT, COMPUTE_INTERVAL
    from repro.cluster.topology import ClusterTopology
    from repro.simgpu.memory import DeviceBuffer
    from repro.util.rng import make_rng

    topo = ClusterTopology(plan.config, engine_kwargs=plan.engine_kwargs)
    clock = topo.cluster.clock
    scale = plan.config.scale
    region = Region(clock)
    orders = plan.session_orders
    per_session = len(orders[0])
    threads = CLIENT_THREADS
    ready = threading.Barrier(threads, action=region.start)
    submitted = threading.Barrier(threads)
    flushed = threading.Barrier(threads)
    engines = topo.engines

    def client(thread_index: int) -> None:
        mine = range(thread_index, len(orders), threads)
        proxies = {}
        for index in mine:
            session = topo.service.connect(f"client-{index}")
            home = engines.index(session.engine)
            target = engines[(home + CLUSTER_NODE_SHIFT) % len(engines)]
            proxies[index] = CheckedEngine(
                session,
                ledger,
                f"s{index}",
                write=session.submit,
                read=lambda c, b, s=session, t=target: s.restore(c, b, engine=t),
                span=span,
            )
        rngs = {i: make_rng(plan.seed, "ledger-session-payload", i) for i in mine}
        ready.wait()
        if setup_only:
            return
        for j in range(per_session):
            for index in mine:
                clock.sleep(COMPUTE_INTERVAL)
                buffer = DeviceBuffer(plan.session_bytes, scale)
                buffer.fill_random(rngs[index])
                # ids are unique across sessions: the service rejects reuse
                proxies[index].checkpoint(index * per_session + j, buffer)
        submitted.wait()
        for engine in engines[thread_index::threads]:
            engine.wait_for_flushes()
        if flushed.wait() == 0:
            region.mark_durable(_durable_logical_bytes(engines))
        for j in range(per_session):
            for index in mine:
                clock.sleep(COMPUTE_INTERVAL)
                buffer = DeviceBuffer(plan.session_bytes, scale)
                proxies[index].restore(index * per_session + orders[index][j], buffer)

    try:
        _run_threads(
            [lambda t=t: client(t) for t in range(threads)], [ready, submitted, flushed]
        )
        region.stop()
        snapshot = observe(topo.cluster, engines)
    finally:
        topo.close()
    return region, snapshot


def observe(cluster, engines) -> dict:
    """What the layers publish about themselves, read from outside."""
    bus = cluster.telemetry.bus
    return {
        "registry": cluster.telemetry.registry.snapshot(),
        "bus_emitted": bus.emitted,
        "bus_dropped": bus.dropped,
        "sched_grants": sum(s.get("grants", 0) for s in cluster.sched.snapshot()),
        "checkpoint_blocked": [
            event.blocked for engine in engines for event in engine.recorder.checkpoints()
        ],
    }


def run_probes(plan, ledger: OpLedger) -> List[float]:
    """Durability latency: ``checkpoint()`` call to ``wait_for_flushes()``
    return, one quiesced 128 MiB probe at a time, PFS as the durable tier."""
    from inputs import PROBE_BYTES, probe_config
    from repro.core.engine import ScoreEngine
    from repro.simgpu.memory import DeviceBuffer
    from repro.tiers.topology import Cluster
    from repro.util.rng import make_rng

    config = probe_config(plan.config)
    rng = make_rng(plan.seed, "ledger-probe")
    latencies = []
    with Cluster(config) as cluster:
        engine = ScoreEngine(cluster.process_contexts()[0], flush_to_pfs=True)
        try:
            for probe in range(plan.probes):
                buffer = DeviceBuffer(PROBE_BYTES, config.scale)
                buffer.fill_random(rng)
                ledger.begin()
                try:
                    started = cluster.clock.now()
                    engine.checkpoint(probe, buffer)
                    engine.wait_for_flushes()
                    latencies.append(cluster.clock.now() - started)
                except Exception:  # boundary: a failed probe is a failed op
                    ledger.fail(f"probe:{probe} raised")
        finally:
            engine.close()
    return latencies


def end_to_end(ledger: OpLedger, region: Region) -> dict:
    """The virtual-clock metrics one pass of the closed loop yields."""
    from repro.util.stats import percentile

    gib = float(1 << 30)

    def pooled(kind: str) -> Optional[float]:
        ops = [op for op in ledger.ops if op[0] == kind]
        blocked = sum(op[2] for op in ops)
        return sum(op[1] for op in ops) / blocked / gib if blocked > 0 else None

    restores = [op[2] for op in ledger.ops if op[0] == "restore"]
    return {
        "ckpt_gibs": pooled("checkpoint"),
        "restore_gibs": pooled("restore"),
        "restore_p90_ms": percentile(restores, 90) * 1e3 if restores else None,
        "makespan_s": region.virtual_s,
        "durable_gibs": (
            region.durable_bytes / region.durable_window_s / gib
            if region.durable_window_s > 0
            else None
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--setup-only", action="store_true", help="measure setup_s and stop before the first op"
    )
    parser.add_argument(
        "--all-metrics",
        action="store_true",
        help="measure every end-to-end metric, not only the workload's headline ones",
    )
    parser.add_argument(
        "--spawned-at",
        type=float,
        default=_PROCESS_STARTED,
        help="parent's time.monotonic() at spawn, so set-up includes interpreter start",
    )
    args = parser.parse_args(argv)

    cpu = pin_to_one_cpu()
    sys.setswitchinterval(0.001)
    calibrations = [calibrate()]  # inside the set-up window, subtracted below
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

    from inputs import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        wanted = {"setup_s"}
    elif args.trace:
        wanted = set()  # a traced run is read for its layers only
    else:
        wanted = set(CLOCKS if args.all_metrics else workload.headline)
    plan = workload.build(args.seed, args.quick)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ledgers = [OpLedger()]
    runner = run_shots if plan.specs else run_cluster
    try:
        region, snapshot = runner(
            plan, ledgers[0], tracer.root if tracer else None, args.setup_only
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    calibrations.append(calibrate())
    metrics = end_to_end(ledgers[0], region)
    metrics["setup_s"] = at_reference_speed(
        region.ready_at - args.spawned_at - calibrations[0],
        region.cpu_at_ready - calibrations[0],
        calibrations[0],
    )
    if region.wall_s > 0:
        metrics["host_ops_per_s"] = len(ledgers[0].ops) / at_reference_speed(
            region.wall_s, region.cpu_s, statistics.mean(calibrations)
        )
    if workload.nominal_echo is not None and wanted & set(NOMINAL_METRICS):
        # The pass above ran on a magnified wall clock: its virtual-clock
        # readings are simulator cost in disguise, never paper numbers.
        ledgers.append(OpLedger())
        echo = workload.nominal_echo(args.seed, args.quick)
        echoed = end_to_end(ledgers[1], run_shots(echo, ledgers[1])[0])
        metrics.update({name: echoed.get(name) for name in NOMINAL_METRICS})
    if "durable_latency_p50_ms" in wanted:
        probes = run_probes(plan, ledgers[0])
        metrics["durable_latency_p50_ms"] = statistics.median(probes) * 1e3 if probes else None
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "traced": args.trace,
        "pinned": cpu is not None,
        "cpu": cpu,
        "config_hash": hashlib.sha256(repr(plan.config).encode()).hexdigest()[:16],
        "host_speed": REFERENCE_CALIBRATION_S / statistics.mean(calibrations),
        "attempted": sum(ledger.attempted for ledger in ledgers),
        "failed": sum(ledger.failed for ledger in ledgers),
        "wall_s": region.wall_s,
        "end_to_end": {name: metrics.get(name) if name in wanted else None for name in CLOCKS},
    }
    if tracer is not None:
        record["per_layer"] = per_layer(tracer, snapshot, region)
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.write(os.path.join(SPANS_DIR, f"{args.workload}.spans.jsonl"))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
