"""Stream / Event (asynchronous work queues)."""

import threading
import time

import pytest

from repro.clock import VirtualClock
from repro.errors import TransferError
from repro.simgpu.stream import Event, Stream


@pytest.fixture
def stream():
    s = Stream("test", VirtualClock())
    yield s
    s.close(drain=False)


def test_work_executes(stream):
    done = []
    stream.submit(lambda: done.append(1)).wait(timeout=5)
    assert done == [1]


def test_fifo_ordering(stream):
    order = []
    events = [stream.submit(lambda i=i: order.append(i)) for i in range(20)]
    for e in events:
        e.wait(timeout=5)
    assert order == list(range(20))


def test_event_query(stream):
    gate = threading.Event()
    e = stream.submit(gate.wait)
    assert not e.query()
    gate.set()
    e.wait(timeout=5)
    assert e.query()


def test_exception_propagates_to_waiter(stream):
    def boom():
        raise RuntimeError("kapow")

    e = stream.submit(boom)
    with pytest.raises(RuntimeError, match="kapow"):
        e.wait(timeout=5)
    assert e.error is not None


def test_exception_does_not_kill_stream(stream):
    def boom():
        raise RuntimeError("x")

    stream.submit(boom)
    done = []
    stream.submit(lambda: done.append(1)).wait(timeout=5)
    assert done == [1]


def test_synchronize_waits_for_all(stream):
    results = []
    for i in range(5):
        stream.submit(lambda i=i: (time.sleep(0.002), results.append(i)))
    stream.synchronize()
    assert len(results) == 5


def test_depth(stream):
    gate = threading.Event()
    stream.submit(gate.wait)
    stream.submit(lambda: None)
    assert stream.depth >= 1
    gate.set()
    stream.synchronize()
    assert stream.depth == 0


def test_close_drain_executes_pending():
    s = Stream("drain", VirtualClock())
    done = []
    for i in range(5):
        s.submit(lambda i=i: done.append(i))
    s.close(drain=True)
    assert done == list(range(5))


def test_close_without_drain_cancels_pending():
    s = Stream("nodrain", VirtualClock())
    gate = threading.Event()
    s.submit(gate.wait)
    e2 = s.submit(lambda: None)
    gate.set()
    s.close(drain=False)
    if e2.cancelled:
        with pytest.raises(TransferError):
            e2.wait(timeout=1)


def test_submit_after_close_rejected():
    s = Stream("closed", VirtualClock())
    s.close(drain=True)
    with pytest.raises(TransferError):
        s.submit(lambda: None)


def test_close_idempotent():
    s = Stream("idem", VirtualClock())
    s.close(drain=True)
    s.close(drain=True)


def test_event_wait_timeout():
    e = Event("never", VirtualClock())
    with pytest.raises(TransferError):
        e.wait(timeout=0.01)
