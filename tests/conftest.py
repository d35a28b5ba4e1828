"""Shared fixtures: tiny, fast configurations for unit/integration tests.

Tests run with an aggressive time scale (correctness does not depend on
timing fidelity) and small caches so eviction paths are exercised with a
handful of checkpoints.
"""

from __future__ import annotations

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


def quiesce(engine):
    """Block until the prefetcher has nothing left it may do."""
    with engine.monitor:
        assert engine.monitor.wait_for(engine.prefetcher.idle, virtual_timeout=600.0)


def make_buffer(context, nominal_size=128 * MiB, seed=0):
    """An application device buffer filled with seeded random bytes."""
    buf = context.device.alloc_buffer(nominal_size)
    buf.fill_random(make_rng(seed, "buffer"))
    return buf
