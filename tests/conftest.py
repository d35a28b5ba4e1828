"""Shared fixtures: tiny, fast configurations for unit/integration tests.

Tests run with an aggressive time scale (correctness does not depend on
timing fidelity) and small caches so eviction paths are exercised with a
handful of checkpoints.
"""

from __future__ import annotations

import signal
import threading

import pytest

from repro.clock import VirtualClock
from repro.config import CacheConfig, RuntimeConfig, ScaleModel, StreamConfig
from repro.core.engine import ScoreEngine
from repro.tiers.topology import Cluster
from repro.util.rng import make_rng
from repro.util.units import GiB, KiB, MiB

#: One nominal second lasts 2 ms; payloads are 1/512Ki of nominal.
TEST_SCALE = ScaleModel(data_scale=512 * KiB, time_scale=0.002, alignment=512 * KiB)


#: both chunk plans of the flush cascade: one chunk per object, and many.
both_chunk_plans = pytest.mark.parametrize(
    "stream", [StreamConfig(), StreamConfig(enabled=True)], ids=["one-chunk", "streamed"]
)


def tiny_config(**changes) -> RuntimeConfig:
    """1 node, paper hardware, small caches (4-slot GPU, 16-slot host for
    128 MiB checkpoints), no allocation-cost simulation."""
    cfg = RuntimeConfig(
        scale=TEST_SCALE,
        cache=CacheConfig(gpu_cache_size=512 * MiB, host_cache_size=2 * GiB),
        charge_allocation_cost=False,
        processes_per_node=1,
    )
    if changes:
        cfg = cfg.with_(**changes)
    return cfg


@pytest.fixture
def config():
    return tiny_config()


@pytest.fixture
def cluster(config):
    with Cluster(config) as c:
        yield c


@pytest.fixture
def context(cluster):
    return cluster.process_contexts()[0]


@pytest.fixture
def engine(context):
    eng = ScoreEngine(context)
    yield eng
    eng.close()


@pytest.fixture
def clock():
    return VirtualClock(time_scale=0.002)
#: wall seconds one test (set-up and tear-down included) may take before
#: the guard fails it; ``faulthandler_timeout`` dumps every thread's stack
#: at the same mark.  The whole suite runs in ~25 s.
TEST_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def no_silent_hang(request):
    """Fail a hung test by node id instead of sitting in a futex wait: a
    wall-clock alarm on the main thread, which interrupts the lock acquire
    or join the test is parked in.  It keeps firing (every 10 s) so a
    tear-down that hangs on the same threads is broken out of too."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def on_alarm(signum, frame):
        pytest.fail(f"{request.node.nodeid} exceeded {TEST_TIMEOUT_S} s wall", pytrace=False)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIMEOUT_S, 10)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


#: name prefixes of the runtime's worker threads: flush/promote streams,
#: prefetch workers, the service's restore calls, shot ranks.
WORKER_THREAD_PREFIXES = ("stream-", "prefetcher-", "svc-restore-", "shot-")


@pytest.fixture(autouse=True)
def no_leaked_threads(request):
    """Fail the test — by node id — that ends with a worker thread it
    started still alive (a missing ``close()``/context manager): daemon
    threads die unnoticed at exit, but until then they run beside the next
    test's timing assertions.  Threads alive before the test (a wider-scoped
    fixture's) are not its leak."""
    before = set(threading.enumerate())
    yield
    leaked = [
        thread
        for thread in threading.enumerate()
        if thread not in before and thread.name.startswith(WORKER_THREAD_PREFIXES)
    ]
    for thread in leaked:
        thread.join(timeout=2.0)  # a closed worker may still be on its way out
    alive = sorted(thread.name for thread in leaked if thread.is_alive())
    if alive:
        pytest.fail(f"{request.node.nodeid} ended with live threads: {alive}", pytrace=False)


@pytest.fixture
def rng():
    return make_rng(1234, "tests")


class FaultClock:
    """The ``now()`` a FaultDomain reads for its outage windows, set by the
    test (``cluster.faults.clock = FaultClock(t)``): a window opens when the
    test says so, not when the host got round to it."""

    def __init__(self, t=0.0):
        self.t = t

    def now(self):
        return self.t


def tamper_blob(store, key):
    """Flip one byte of an in-memory blob (the CRC sidecar keeps the
    pristine checksum, so ``verify()`` detects the rot)."""
    bad = store._blobs[key].copy()
    bad[0] ^= 0xFF
    bad.flags.writeable = False
    with store._blob_lock:
        store._blobs[key] = bad


def quiesce(engine):
    """Block until the prefetcher has nothing left it may do."""
    with engine.monitor:
        assert engine.monitor.wait_for(engine.prefetcher.idle, virtual_timeout=600.0)


def make_buffer(context, nominal_size=128 * MiB, seed=0):
    """An application device buffer filled with seeded random bytes."""
    buf = context.device.alloc_buffer(nominal_size)
    buf.fill_random(make_rng(seed, "buffer"))
    return buf
