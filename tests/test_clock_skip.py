"""Time skipping: when every registered thread is parked, the virtual clock
jumps to the next deadline, so simulated idle time costs no wall time.

Each case runs under a wall-time watchdog (``watchdog``): a case that paces
the time it should skip, or deadlocks, fails on wall time instead of hanging
until the suite's hang guard.
"""

import threading
import time
from contextlib import contextmanager

import pytest

from repro.clock import Event, VirtualClock
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, RuntimeConfig, ScaleModel
from repro.core.engine import ScoreEngine
from repro.errors import TransferError
from repro.harness.experiment import scaled_caches
from repro.simgpu.bandwidth import Link
from repro.tiers.topology import Cluster
from repro.util.units import KiB, MiB
from repro.workloads.multiproc import run_multiprocess_shot
from repro.workloads.patterns import RestoreOrder, restore_order
from repro.workloads.rtm import uniform_trace
from repro.workloads.shot import HintMode, ShotSpec
from tests.conftest import make_buffer, start_runners as start, tiny_config


@contextmanager
def watchdog(wall_s):
    """Fail the case when its body took more than ``wall_s`` wall seconds."""
    started = time.monotonic()
    yield
    took = time.monotonic() - started
    assert took < wall_s, f"took {took:.3f} s wall (limit {wall_s} s)"


def test_a_lone_sleep_costs_no_wall_time():
    clock = VirtualClock(time_scale=1.0)
    before = clock.now()
    with watchdog(0.05):
        clock.sleep(10.0)
    assert clock.now() - before >= 10.0
    assert clock.skips >= 1 and clock.skipped_s >= 9.9


def test_sleepers_wake_in_order_at_their_own_stamps():
    clock = VirtualClock(time_scale=1.0)
    woke = []
    lock = threading.Lock()

    def sleeper(seconds):
        clock.sleep(seconds)
        with lock:
            woke.append((seconds, clock.now()))

    with watchdog(1.0):
        threads = start(clock, (sleeper, 2.0), (sleeper, 1.0))
        for thread in threads:
            clock.join(thread)
    assert [s for s, _ in woke] == [1.0, 2.0]
    for seconds, stamp in woke:
        assert seconds <= stamp < seconds + 0.1


def test_a_notified_waiter_runs_before_time_can_skip():
    """The notifier parks on a long sleep right after its notify; the waiter
    it woke must see the clock where the notify left it, not 5 s later."""
    clock = VirtualClock(time_scale=1.0)
    cond = clock.condition()
    ready, seen = [], []

    def waiter():
        with cond:
            ready.append(True)
            cond.notify_all()
            cond.wait()
            seen.append(clock.now())

    with watchdog(1.0):
        (thread,) = start(clock, (waiter,))
        with cond:
            cond.wait_for(lambda: ready, 1.0)
            notified_at = clock.now()
            cond.notify_all()
        clock.sleep(5.0)
        clock.join(thread)
    assert seen and seen[0] - notified_at < 0.1


def test_a_cancellation_wakes_a_parked_span_without_skipping_past_it():
    clock = VirtualClock(time_scale=1.0)
    link = Link("t", bandwidth=1 * MiB, clock=clock)  # 100 MiB: a 100 s span
    cancelled = clock.event()
    errors = []

    def transfer():
        try:
            link.transfer(100 * MiB, cancelled=cancelled)
        except TransferError as exc:
            errors.append(clock.now())

    with watchdog(1.0):
        (thread,) = start(clock, (transfer,))
        clock.sleep(1.0)  # the transfer parks on its span: time skips to 1 s
        cancelled.set()
        clock.join(thread)
    assert not thread.is_alive()
    assert errors and 1.0 <= errors[0] < 1.1
    assert link.bytes_moved == 0 and link.pending_bytes == 0


def test_a_thread_blocked_outside_the_clock_keeps_wall_pace():
    """A registered thread in a plain ``threading.Barrier`` is not parked:
    time cannot skip, a sleep beside it takes its wall time, and the barrier
    still opens (no deadlock)."""
    clock = VirtualClock(time_scale=1.0)
    barrier = threading.Barrier(2)
    with watchdog(2.0):
        (thread,) = start(clock, (barrier.wait,))
        started = time.monotonic()
        clock.sleep(0.05)
        wall = time.monotonic() - started
        barrier.wait(timeout=5)
        clock.join(thread)
    assert wall >= 0.045
    assert clock.skips == 0


def test_a_clock_barrier_parks_its_parties_so_time_skips():
    """Where a raw barrier holds time at wall pace, the clock's parks: one
    party sleeps 1 nominal second first, and nobody waits for it in wall
    time."""
    clock = VirtualClock(time_scale=1.0)
    barrier = clock.barrier(2)
    arrivals = []

    def late():
        clock.sleep(1.0)
        arrivals.append(barrier.wait())

    with watchdog(0.05):
        (thread,) = start(clock, (late,))
        arrivals.append(barrier.wait())
        clock.join(thread)
    assert clock.now() >= 1.0
    assert sorted(arrivals) == [0, 1]  # the arrival index, as threading.Barrier


def test_a_clock_barrier_runs_its_action_and_breaks_like_threading_barrier():
    clock = VirtualClock(time_scale=1.0)
    actions = []
    barrier = clock.barrier(2, action=lambda: actions.append(clock.now()))
    (thread,) = start(clock, (barrier.wait,))
    assert barrier.wait() in (0, 1)
    clock.join(thread)
    assert len(actions) == 1  # run once, by the last arrival
    broken = []

    def party():
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            broken.append(clock.now())

    with watchdog(1.0):
        (thread,) = start(clock, (party,))
        clock.sleep(1.0)  # the party parks: time skips
        barrier.abort()
        clock.join(thread)
    assert broken and barrier.broken
    with pytest.raises(threading.BrokenBarrierError):
        barrier.wait()
    # A timeout is nominal seconds, and it breaks the barrier.
    lonely = clock.barrier(2)
    before = clock.now()
    with watchdog(0.05), pytest.raises(threading.BrokenBarrierError):
        lonely.wait(timeout=30.0)
    assert clock.now() - before >= 30.0 and lonely.broken


def test_a_thread_that_exits_leaves_the_runner_set():
    clock = VirtualClock(time_scale=1.0)
    (thread,) = start(clock, (lambda: None,))
    clock.join(thread)
    with watchdog(0.05):
        clock.sleep(10.0)  # paced, it would take 10 s
    assert clock.skips >= 1


def test_joining_a_thread_the_clock_did_not_start_is_a_plain_join():
    """Only a runner's exit wakes a parked joiner; any other thread is
    joined raw, the joiner staying a runner (wall pace), not parked forever."""
    clock = VirtualClock(time_scale=1.0)
    clock.now()  # the joiner uses the clock
    thread = threading.Thread(target=time.sleep, args=(0.02,))
    with watchdog(1.0):
        thread.start()
        clock.join(thread)
    assert not thread.is_alive()


def test_an_event_without_a_clock_cancels_but_cannot_be_waited_on():
    clock = VirtualClock(time_scale=1.0)
    cancel = Event()
    cancel.set()
    assert clock.sleep(10.0, cancelled=cancel) is True
    with pytest.raises(RuntimeError, match="without a clock"):
        Event().wait(1.0)


def test_a_durable_demand_shot_skips_its_idle_time_and_never_deadlocks():
    """Two ranks writing beside demand restores through the whole cascade
    to the PFS, like the ledger's ``durable_demand``: every wait is woken by
    the change it waits for, so none raises :class:`DeadlockError` — and
    most of the run's virtual time is skipped."""
    snapshots, size = 16, 128 * MiB  # the ledger's quick form
    config = RuntimeConfig(
        scale=ScaleModel(data_scale=512 * KiB, time_scale=0.5, alignment=512 * KiB),
        cache=scaled_caches(snapshots * size),
        processes_per_node=2,
    )
    specs = [
        ShotSpec(
            trace=uniform_trace(config.scale, num_snapshots=snapshots, size=size, rank=rank),
            restore_order=restore_order(RestoreOrder.IRREGULAR, snapshots, seed=7, rank=rank),
            hint_mode=HintMode.NONE,
            wait_for_flush=True,
            seed=7,
        )
        for rank in range(2)
    ]
    with Cluster(config) as cluster:
        with watchdog(30.0):
            # (a rank's DeadlockError would be re-raised here)
            run_multiprocess_shot(
                cluster, lambda ctx: ScoreEngine(ctx, flush_to_pfs=True), specs
            )
        registry = cluster.telemetry.registry
        # … nor swallowed by a flush stage or a prefetch worker.
        assert registry.counter("engine.swallowed_errors").value == 0
        clock = cluster.clock
        assert clock.skips > 0
        assert clock.skipped_s > clock.paced_s
        # The run reports its own skipping (the `repro trace` summary renders it).
        snap = registry.snapshot()
        assert snap["clock.skips"] == clock.skips and snap["clock.skipped_s"] == clock.skipped_s
        assert snap["clock.paced_s"] > 0


@pytest.mark.parametrize("wait", ["condition", "event"])
def test_a_timed_wait_alone_times_out_by_skipping(wait):
    clock = VirtualClock(time_scale=1.0)
    before = clock.now()
    with watchdog(0.05):
        if wait == "condition":
            cond = clock.condition()
            with cond:
                assert cond.wait(30.0) is False
        else:
            assert clock.event().wait(30.0) is False
    assert clock.now() - before >= 30.0


def test_engine_stats_report_the_clock():
    with Cluster(tiny_config()) as cluster:
        with ScoreEngine(cluster.process_contexts()[0]) as engine:
            engine.checkpoint(0, make_buffer(cluster.process_contexts()[0]))
            engine.wait_for_flushes()
            cluster.clock.sleep(1.0)  # the engine is idle: a skip
            stats = engine.stats()["clock"]
    clock = cluster.clock
    assert stats["skips"] >= 1 and 0 < stats["skipped_s"] <= clock.skipped_s
    assert 0 < stats["paced_s"] <= clock.paced_s


# -- set-up leaves its thread as it found it ----------------------------------


def member(clock):
    """Whether the calling thread is registered with ``clock``."""
    return threading.get_ident() in clock._members


def test_a_cluster_built_on_main_lets_its_raw_client_threads_skip():
    """The ledger's ``cluster_peer`` shape: main builds the topology (the
    arena allocations charged on its thread), two raw client threads submit
    and restore through sessions, and main raw-joins them.  Building did not
    enrol main, so once both clients park, time skips."""
    config = tiny_config(
        num_nodes=2,
        charge_allocation_cost=True,
        cluster=ClusterConfig(enabled=True, peer_reads=True, replica_factor=2),
    )
    with ClusterTopology(config, engine_kwargs={"flush_to_pfs": True}) as topo:
        clock = topo.cluster.clock
        assert not member(clock)
        skips = clock.skips
        parked = clock.barrier(2)
        errors = []

        def client(index):
            try:
                session = topo.service.connect(f"client-{index}")
                context = topo.cluster.process_contexts()[index]
                sums = {}
                for ckpt_id in range(10 * index, 10 * index + 2):
                    buf = make_buffer(context, 64 * MiB, seed=ckpt_id)
                    sums[ckpt_id] = buf.checksum()
                    session.submit(ckpt_id, buf)
                session.engine.wait_for_flushes()
                out = context.device.alloc_buffer(64 * MiB)
                for ckpt_id, checksum in sums.items():
                    session.restore(ckpt_id, out)
                    assert out.checksum() == checksum
                parked.wait()
                clock.sleep(100.0)  # paced: 0.2 wall seconds
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
                parked.abort()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert not member(clock)
        assert clock.skips > skips


def test_a_runner_that_builds_an_engine_stays_registered():
    with Cluster(tiny_config(charge_allocation_cost=True)) as cluster:
        clock = cluster.clock
        seen = []

        def build():
            with ScoreEngine(cluster.process_contexts()[0]):
                seen.append(member(clock))
            seen.append(member(clock))

        (thread,) = start(clock, (build,))
        clock.join(thread)
    assert seen == [True, True]


def test_a_thread_registered_before_set_up_keeps_its_registration():
    with Cluster(tiny_config()) as cluster:
        clock = cluster.clock
        clock.now()
        with ScoreEngine(cluster.process_contexts()[0]):
            assert member(clock)
        assert member(clock)


def test_a_nested_scope_does_nothing_and_an_exception_still_retires():
    clock = VirtualClock(time_scale=1.0)
    with clock.setup():
        assert member(clock)
        with clock.setup():
            clock.now()
        assert member(clock)  # the inner scope left it registered
        pending = threading.Thread(target=clock.runner(lambda: None))
    assert not member(clock)
    assert clock._running == 1  # the runner not started yet still counts
    pending.start()
    pending.join(timeout=60)
    assert not pending.is_alive()
    with pytest.raises(RuntimeError, match="boom"):
        with clock.setup():
            clock.now()
            raise RuntimeError("boom")
    assert not member(clock)
    assert clock._running == 0


def test_leaving_set_up_is_a_retirement_time_may_skip_at():
    """A runner started in the scope parks on a long sleep; the building
    thread's exit from the scope (or the runner's park after it) is the
    last runner leaving, and time skips: main raw-joins without holding it
    back."""
    clock = VirtualClock(time_scale=0.01)
    with clock.setup():
        thread = threading.Thread(target=clock.runner(clock.sleep), args=(100.0,))
        thread.start()
    thread.join(timeout=60)  # paced: 1 wall second
    assert not thread.is_alive()
    assert clock.skips >= 1


def test_a_non_main_thread_that_built_holds_skips_back_until_its_next_clock_use():
    """After the scope a thread that built and is not the main thread is one
    the clock does not know: while it computes, a sleep beside it keeps wall
    pace; its next use of the clock registers it, and time skips again."""
    scale = ScaleModel(data_scale=512 * KiB, time_scale=0.01, alignment=512 * KiB)
    with Cluster(tiny_config(scale=scale)) as cluster:
        clock = cluster.clock
        built, go = threading.Event(), threading.Event()
        seen = []

        def build():
            with ScoreEngine(cluster.process_contexts()[0]):
                seen.append(member(clock))
                built.set()
                go.wait(timeout=60)  # computing: no use of the clock
                clock.sleep(100.0)

        def sleeper():
            skips = clock.skips
            clock.sleep(0.5)  # paced: 5 wall milliseconds
            seen.append(clock.skips - skips)
            go.set()
            clock.sleep(100.0)  # paced: 1 wall second
            seen.append(clock.skips - skips)

        thread = threading.Thread(target=build)
        thread.start()
        assert built.wait(timeout=60)
        (runner,) = start(clock, (sleeper,))
        clock.join(runner)
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert seen[0] is False  # not a member once built
    assert seen[1] == 0  # held back while the building thread computed
    assert seen[2] >= 1  # skipped once it used the clock again
