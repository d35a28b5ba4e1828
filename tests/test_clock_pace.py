"""A paced sleep parks until its deadline: while another registered thread
runs, a sleeper costs no CPU; the first clock reading past its deadline, or
the OS timer, wakes it.  Only a wait too short for the OS to time
(:data:`~repro.clock.SPIN_THRESHOLD`) spins, so it still lands on time beside
a runner that never reads the clock.
"""

import statistics
import threading
import time

from repro.clock import SPIN_THRESHOLD, VirtualClock
from tests.conftest import start_runners


def test_a_paced_sleeper_polls_no_clock_beside_a_running_thread():
    """50 sleeps of 1 ms beside a runner that loops in Python: the sleeper
    parks through each, reading the clock a few times a sleep, instead of
    spinning on ``now()`` until the deadline (a 200 µs spin tail reads it
    200–300 times a sleep, ~8 ms of the sleeper's CPU over the 50).
    Counted in readings, not CPU time: the park and wake-up path alone
    costs the sleeper 15–80 µs of CPU a sleep, depending on the process
    around it."""
    clock = VirtualClock(time_scale=1.0)
    done = threading.Event()
    sleepers, reads = [], []
    now = clock.now

    def counted_now():
        if threading.get_ident() in sleepers:
            reads.append(None)
        return now()

    clock.now = counted_now

    def runner():
        while not done.is_set():
            time.sleep(0)  # drops the interpreter lock, as lock calls do

    def sleeper():
        sleepers.append(threading.get_ident())
        for _ in range(50):
            clock.sleep(1e-3)
        done.set()

    for thread in start_runners(clock, (runner,), (sleeper,)):
        clock.join(thread)
    assert len(reads) <= 4 * 50


def test_a_sleep_too_short_to_time_spins_onto_its_deadline():
    """Beside a runner that never reads the clock (blocked where the clock
    cannot see it), only the sleeper can notice its deadline: a sleep shorter
    than the threshold lands within one threshold of it, where a timed OS
    wait would overshoot by tens of microseconds."""
    clock = VirtualClock(time_scale=0.001)
    gate = threading.Event()
    thread = threading.Thread(target=clock.runner(gate.wait))
    thread.start()
    nominal = SPIN_THRESHOLD / 2 / clock.time_scale
    late = []
    try:
        for _ in range(20):
            before = clock.now()
            clock.sleep(nominal)
            late.append((clock.now() - before - nominal) * clock.time_scale)
    finally:
        gate.set()
        thread.join(timeout=5)
    assert min(late) >= 0
    assert statistics.median(late) < SPIN_THRESHOLD


def test_a_parked_sleeper_wakes_at_the_first_reading_past_its_deadline():
    """A sleeper parked far longer than the threshold, beside a runner that
    reads the clock: the runner's first reading past the deadline wakes it
    (the sleeper counts as running again right after that reading), not the
    OS timer some tens of microseconds later."""
    clock = VirtualClock(time_scale=1.0)
    deadlines, seen = [], []
    park = clock._park

    def recorded_park(deadline, events=()):
        if deadline is not None:  # (not the main thread's join)
            deadlines.append(deadline)
        return park(deadline, events)

    clock._park = recorded_park

    def sleeper():
        clock.sleep(20e-3)

    def reader():
        while not deadlines:
            time.sleep(0)
        while True:
            if clock.now() >= deadlines[0]:
                seen.append(clock._running)  # the sleeper and this reader
                return

    for thread in start_runners(clock, (sleeper,), (reader,)):
        clock.join(thread)
    assert seen == [2]
