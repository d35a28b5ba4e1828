"""Virtual clock behaviour."""

import threading
import time
from contextlib import contextmanager

import pytest

from repro.clock import Stopwatch, VirtualClock
from repro.errors import ConfigError


@contextmanager
def busy_runner(clock):
    """A registered thread blocked where the clock cannot see it (a plain
    ``threading.Event``): while it lives, time passes at wall pace."""
    gate = threading.Event()
    thread = threading.Thread(target=clock.runner(gate.wait))
    thread.start()
    try:
        yield
    finally:
        gate.set()
        thread.join(timeout=5)


class TestConversions:
    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigError):
            VirtualClock(0.0)
        with pytest.raises(ConfigError):
            VirtualClock(-1.0)


class TestNowAndSleep:
    def test_now_monotonic(self):
        c = VirtualClock(0.001)
        a = c.now()
        b = c.now()
        assert b >= a

    def test_sleep_advances_virtual_time(self):
        c = VirtualClock(0.001)
        before = c.now()
        c.sleep(5.0)  # 5 virtual seconds = 5 ms wall
        elapsed = c.now() - before
        assert elapsed >= 5.0
        assert elapsed < 20.0  # not wildly overshooting

    def test_sleep_beside_a_runner_keeps_wall_pace(self):
        c = VirtualClock(0.01)
        with busy_runner(c):
            t0 = time.monotonic()
            c.sleep(1.0)  # 10 ms wall
            wall = time.monotonic() - t0
        assert 0.009 <= wall < 0.1

    def test_short_sleep_beside_a_runner_spins_accurately(self):
        c = VirtualClock(0.001)
        with busy_runner(c):
            t0 = time.monotonic()
            c.sleep(0.05)  # 50 µs wall: below OS sleep granularity
            wall = time.monotonic() - t0
        assert wall >= 50e-6
        assert wall < 2e-3

    def test_zero_sleep(self):
        assert VirtualClock(0.01).sleep(0.0) is False

    def test_cancellable_sleep_wakes_when_the_event_fires(self):
        c = VirtualClock(0.01)
        ev = c.event()
        threading.Timer(0.01, ev.set).start()  # fires 1 s into a 100 s sleep
        before = c.now()
        assert c.sleep(100.0, cancelled=ev) is True
        assert c.now() - before < 50.0

    def test_cancellable_sleep_runs_to_the_deadline(self):
        c = VirtualClock(0.001)
        before = c.now()
        assert c.sleep(5.0, cancelled=c.event()) is False
        assert c.now() - before >= 5.0

    def test_cancellable_sleep_already_cancelled(self):
        c = VirtualClock(0.01)
        ev = c.event()
        ev.set()
        assert c.sleep(100.0, cancelled=ev) is True

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(0.01).sleep(-1.0)


class TestWaitFor:
    def test_wait_times_out_in_nominal_seconds(self):
        c = VirtualClock(0.001)
        cond = c.condition()
        before = c.now()
        with cond:
            assert cond.wait(10.0) is False
        assert c.now() - before >= 10.0

    def test_wait_for_predicate(self):
        c = VirtualClock(0.001)
        cond = c.condition()
        flag = []

        def setter():
            time.sleep(0.005)
            with cond:
                flag.append(1)
                cond.notify_all()

        threading.Thread(target=setter, daemon=True).start()
        with cond:
            ok = cond.wait_for(lambda: bool(flag), 60.0)
        assert ok

    def test_wait_for_timeout(self):
        c = VirtualClock(0.001)
        cond = c.condition()
        with cond:
            ok = cond.wait_for(lambda: False, 1.0)
        assert not ok


class TestStopwatch:
    def test_measures_virtual_elapsed(self):
        c = VirtualClock(0.001)
        with Stopwatch(c) as sw:
            c.sleep(3.0)
        assert sw.elapsed >= 3.0
        assert sw.started_at is not None
