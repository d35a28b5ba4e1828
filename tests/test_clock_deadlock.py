"""No wait without a waker: a wait nothing can end raises.

When every live thread is registered with the clock (a registered main
thread included), all of them are parked and no park has a deadline, no
wait can ever end: each raises a :class:`DeadlockError` whose park table
names every parked thread, its wait site and when it parked.
"""

import threading
import time

import pytest

from repro.clock import DeadlockError, VirtualClock


def _run(clock, name, target):
    thread = threading.Thread(target=clock.runner(target), name=name)
    thread.start()
    return thread


def test_a_planted_cycle_raises_within_a_fixed_budget():
    """Two threads each wait for what only the other's wait would set: the
    cycle raises at the nominal time the last of them parked, in well under
    a second of wall time, naming both threads and both wait sites."""
    clock = VirtualClock(time_scale=1.0)
    cond = clock.condition()
    done = {"a": False, "b": False}
    caught = {}

    def wait_for_b():
        clock.sleep(1.0)
        try:
            with cond:
                while not done["b"]:
                    cond.wait()
                done["a"] = True
                cond.notify_all()
        except DeadlockError as exc:
            caught["cycle-a"] = exc

    def wait_for_a():
        clock.sleep(2.0)
        try:
            with cond:
                while not done["a"]:
                    cond.wait()
                done["b"] = True
                cond.notify_all()
        except DeadlockError as exc:
            caught["cycle-b"] = exc

    clock.now()  # the main thread takes part: nothing outside the clock acts
    started = time.monotonic()
    threads = [_run(clock, "cycle-a", wait_for_b), _run(clock, "cycle-b", wait_for_a)]
    with pytest.raises(DeadlockError) as raised:
        clock.join(threads[0])
    wall = time.monotonic() - started
    for thread in threads:
        thread.join(5.0)
        assert not thread.is_alive()
    assert wall < 1.0
    assert 2.0 <= clock.now() < 2.1  # the budget: the last park, not a guard step
    message = str(raised.value)
    assert "cycle-a at tests/test_clock_deadlock.py" in message and "wait_for_b" in message
    assert "cycle-b at tests/test_clock_deadlock.py" in message and "wait_for_a" in message
    assert "MainThread at tests/test_clock_deadlock.py" in message
    rows = {thread: (site, since) for thread, site, since in raised.value.parks}
    assert rows["cycle-a"][1] == pytest.approx(1.0, abs=0.05)
    assert rows["cycle-b"][1] == pytest.approx(2.0, abs=0.05)
    assert set(caught) == {"cycle-a", "cycle-b"}  # every park raised, not only the main's


def test_idle_workers_beside_an_unregistered_main_thread_do_not_raise():
    """A main thread that never used the clock may still set what the
    workers wait for: their untimed parks are idle, not stuck."""
    clock = VirtualClock(time_scale=1.0)
    go = clock.event()
    caught = []

    def idle():
        try:
            go.wait()
        except DeadlockError as exc:
            caught.append(exc)

    with clock.setup():  # the main thread leaves unregistered
        threads = [_run(clock, f"idle-{i}", idle) for i in range(2)]
    time.sleep(0.05)  # both park untimed meanwhile
    assert not caught
    go.set()
    for thread in threads:
        thread.join(5.0)
        assert not thread.is_alive()
    assert not caught


def test_a_wait_on_an_event_already_set_never_counts_as_parked():
    """The events a wait wakes on are attached before the park counts: a
    wait one of them already ended returns without letting time skip past
    a runner's sleep."""
    clock = VirtualClock(time_scale=1.0)
    ready = clock.event()
    ready.set()
    cond = clock.condition()
    slept = []
    clock.now()
    sleeper = _run(clock, "sleeper", lambda: slept.append(clock.sleep(10.0)))
    time.sleep(0.02)  # the sleeper parks on its deadline
    before = clock.now()
    with cond:
        assert cond.wait(None, wake_on=(ready,)) is True
    assert clock.now() - before < 1.0
    clock.join(sleeper)
    assert slept == [False]
