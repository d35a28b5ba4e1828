"""Unit tests for the fault-injection subsystem (:mod:`repro.faults`).

Covers the deterministic :class:`FaultPlan`, the per-link injector, the
budgeted retry policy, the circuit-breaker state machine, the cluster-wide
:class:`FaultDomain` gates, and the fault config's validation.  Integration behaviour (self-healing flushes, recovery)
lives in ``tests/test_faults_recovery.py``.
"""

import pytest

from repro.config import CRASH_STAGES, ConfigError, FaultConfig
from repro.errors import TierOfflineError, TransferError, TransientTransferError
from repro.faults import (
    CircuitBreaker,
    FaultDomain,
    FaultPlan,
    HealthRegistry,
    LinkFaultInjector,
    RetryPolicy,
    run_with_retries,
)
from repro.faults.health import BREAKER_RESET_S, BREAKER_THRESHOLD
from repro.faults.plan import MAX_FAULT_FRACTION, MIN_FAULT_FRACTION
from repro.faults.retry import (
    BACKOFF_BASE_S,
    BACKOFF_FACTOR,
    BACKOFF_MAX_S,
    JITTER,
    MAX_RETRIES,
)
from repro.util.units import MiB

NBYTES = 128 * MiB


class ManualClock:
    """Hand-advanced clock: unit tests step virtual time explicitly so
    outage windows and breaker cool-downs are exact (the real
    :class:`~repro.clock.VirtualClock` is wall-driven)."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def sleep(self, virtual_seconds: float) -> None:
        assert virtual_seconds >= 0
        self._now += virtual_seconds


def fast_clock():
    return ManualClock()


class TestFaultPlan:
    def test_decisions_are_deterministic(self):
        cfg = FaultConfig(transfer_fault_rate=0.3, seed=7)
        a = FaultPlan(cfg)
        b = FaultPlan(cfg)
        stream_a = [a.transfer_fault("h2f-link", seq, NBYTES) for seq in range(200)]
        stream_b = [b.transfer_fault("h2f-link", seq, NBYTES) for seq in range(200)]
        assert stream_a == stream_b
        assert any(cut is not None for cut in stream_a)

    def test_seed_changes_the_stream(self):
        base = FaultConfig(transfer_fault_rate=0.3, seed=7)
        other = FaultConfig(transfer_fault_rate=0.3, seed=8)
        stream_a = [FaultPlan(base).transfer_fault("x", s, NBYTES) for s in range(200)]
        stream_b = [FaultPlan(other).transfer_fault("x", s, NBYTES) for s in range(200)]
        assert stream_a != stream_b

    def test_rate_bounds(self):
        never = FaultPlan(FaultConfig(transfer_fault_rate=0.0))
        assert all(never.transfer_fault("x", s, NBYTES) is None for s in range(50))
        always = FaultPlan(FaultConfig(transfer_fault_rate=1.0))
        cuts = [always.transfer_fault("x", seq, NBYTES) for seq in range(200)]
        for cut in cuts:
            assert cut is not None
            assert 1 <= cut <= NBYTES - 1
            assert MIN_FAULT_FRACTION * NBYTES <= cut <= MAX_FAULT_FRACTION * NBYTES
        # The draws spread over the range, not only its middle.
        assert min(cuts) < 0.25 * NBYTES and max(cuts) > 0.75 * NBYTES

    def test_every_link_is_eligible(self):
        plan = FaultPlan(FaultConfig(transfer_fault_rate=1.0))
        for link in ("node0-ssd-write", "d2h", "pfs-node0-read", "node1-peer"):
            assert plan.transfer_fault(link, 0, NBYTES) is not None
        dom = FaultDomain(FaultConfig(transfer_fault_rate=1.0), fast_clock())

        class FakeLink:
            name = "p0-d2h"
            fault_injector = None

        link = FakeLink()
        dom.attach(link)
        assert link.fault_injector is not None

    def test_outage_windows(self):
        cfg = FaultConfig(
            tier_outages=(("ssd", 10.0, 20.0, 0.0), ("pfs", 5.0, 8.0, 0.25)),
        )
        plan = FaultPlan(cfg)
        assert plan.outage("ssd", 9.9) is None
        assert plan.outage("ssd", 10.0) == 0.0
        assert plan.outage("ssd", 19.9) == 0.0
        assert plan.outage("ssd", 20.0) is None  # end-exclusive
        assert plan.outage("pfs", 6.0) == 0.25
        assert plan.outage("pfs", 12.0) is None

    def test_corruption_is_attempt_indexed(self):
        cfg = FaultConfig(corruption_rate=1.0)
        plan = FaultPlan(cfg)
        first = plan.corrupt("node0-ssd", (0, 3), 0, 4096)
        again = plan.corrupt("node0-ssd", (0, 3), 0, 4096)
        assert first == again  # same attempt -> same decision
        assert first is not None and 0 <= first < 4096

    def test_crash_point_normalization(self):
        bare = FaultPlan(FaultConfig(crash_point="h2f"))
        assert bare.crash_matches("before-h2f", 0)
        assert not bare.crash_matches("after-h2f", 0)
        after = FaultPlan(FaultConfig(crash_point="after-f2p"))
        assert after.crash_matches("after-f2p", 5)
        assert not after.crash_matches("before-f2p", 5)

    def test_crash_point_ckpt_filter(self):
        plan = FaultPlan(FaultConfig(crash_point="d2h", crash_ckpt=3))
        assert not plan.crash_matches("before-d2h", 2)
        assert plan.crash_matches("before-d2h", 3)


class TestLinkFaultInjector:
    def test_draw_and_fault(self):
        plan = FaultPlan(FaultConfig(transfer_fault_rate=1.0))
        inj = LinkFaultInjector("h2f", plan)
        cut = inj.draw(NBYTES)
        assert cut is not None
        err = inj.fault(NBYTES, cut)
        assert isinstance(err, TransientTransferError)
        assert err.bytes_moved == cut
        assert inj.faults_injected == 1

    def test_sequence_advances(self):
        plan = FaultPlan(FaultConfig(transfer_fault_rate=0.5))
        inj = LinkFaultInjector("x", plan)
        draws = [inj.draw(NBYTES) for _ in range(100)]
        # The per-link counter walks the plan's sequence: both outcomes occur.
        assert any(d is None for d in draws)
        assert any(d is not None for d in draws)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(seed=1)
        bases = [min(BACKOFF_BASE_S * BACKOFF_FACTOR ** k, BACKOFF_MAX_S) for k in range(8)]
        assert bases[0] < bases[1] and bases[-1] == BACKOFF_MAX_S  # grows, then caps
        for attempt, base in enumerate(bases):
            delay = policy.backoff(attempt, "h2f", 3)
            assert base <= delay <= base * (1.0 + JITTER)

    def test_backoff_deterministic(self):
        assert RetryPolicy(5).backoff(2, "d2s", 1) == RetryPolicy(5).backoff(2, "d2s", 1)
        assert RetryPolicy(5).backoff(2, "d2s", 1) != RetryPolicy(6).backoff(2, "d2s", 1)


class TestRunWithRetries:
    def _flaky(self, failures):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise TransientTransferError("injected", bytes_moved=0)
            return "ok"

        return fn, calls

    def test_retries_until_success(self):
        clock = fast_clock()
        fn, calls = self._flaky(MAX_RETRIES - 1)
        started = clock.now()
        assert run_with_retries(fn, policy=RetryPolicy(seed=0), clock=clock, labels=("t",)) == "ok"
        assert calls["n"] == MAX_RETRIES
        assert clock.now() > started  # backoff charged on the virtual clock

    def test_budget_exhaustion_raises(self):
        fn, calls = self._flaky(MAX_RETRIES + 5)
        with pytest.raises(TransientTransferError):
            run_with_retries(fn, policy=RetryPolicy(seed=0), clock=fast_clock(), labels=("t",))
        assert calls["n"] == MAX_RETRIES + 1  # first attempt + every retry

    def test_none_policy_is_a_plain_call(self):
        fn, calls = self._flaky(1)
        with pytest.raises(TransientTransferError):
            run_with_retries(fn, policy=None, clock=fast_clock(), labels=())
        assert calls["n"] == 1

    def test_should_abort_short_circuits(self):
        fn, calls = self._flaky(10)
        with pytest.raises(TransientTransferError):
            run_with_retries(
                fn, policy=RetryPolicy(seed=0), clock=fast_clock(),
                labels=(), should_abort=lambda: True,
            )
        assert calls["n"] == 1

    def test_non_transient_errors_propagate(self):
        def fn():
            raise TransferError("cancelled")

        with pytest.raises(TransferError):
            run_with_retries(fn, policy=RetryPolicy(seed=0), clock=fast_clock(), labels=())


    def test_hooks_feed_a_breaker_and_own_the_backoff(self):
        """What the flusher plugs in: ``on_attempt`` sees every outcome (even
        with no policy), ``on_retry`` sleeps the back-off itself."""
        clock = fast_clock()
        policy = RetryPolicy(seed=0)
        fn, _ = self._flaky(2)
        outcomes, slept = [], []
        run_with_retries(
            fn, policy=policy, clock=clock, labels=("t",),
            on_attempt=outcomes.append, on_retry=lambda attempt, delay, exc: slept.append(delay),
        )
        assert outcomes == [False, False, True]
        assert slept == [policy.backoff(0, "t"), policy.backoff(1, "t")]
        assert clock.now() == 0.0  # the default sleep did not run as well
        fn, _ = self._flaky(1)
        with pytest.raises(TransientTransferError):
            run_with_retries(fn, policy=None, clock=clock, labels=(), on_attempt=outcomes.append)
        assert outcomes[-1] is False


class TestCircuitBreaker:
    def make(self, clock):
        return CircuitBreaker("node0-ssd", clock)

    def trip(self, brk):
        for _ in range(BREAKER_THRESHOLD):
            brk.record_failure()

    def test_opens_after_consecutive_failures(self):
        brk = self.make(fast_clock())
        assert brk.allow()
        for _ in range(BREAKER_THRESHOLD - 1):
            brk.record_failure()
        assert brk.state == "closed"
        brk.record_failure()
        assert brk.state == "open"
        assert not brk.allow()
        assert brk.opens == 1

    def test_success_resets_the_count(self):
        brk = self.make(fast_clock())
        for _ in range(BREAKER_THRESHOLD - 1):
            brk.record_failure()
        brk.record_success()
        for _ in range(BREAKER_THRESHOLD - 1):
            brk.record_failure()
        assert brk.state == "closed"  # never BREAKER_THRESHOLD consecutive

    def test_half_open_probe_cycle(self):
        clock = fast_clock()
        brk = self.make(clock)
        self.trip(brk)
        assert not brk.allow()
        clock.sleep(BREAKER_RESET_S - 0.1)
        assert not brk.allow()  # still cooling down
        clock.sleep(0.1)
        assert brk.allow()  # the single half-open probe
        assert not brk.allow()  # second caller must wait for the probe
        brk.record_success()
        assert brk.state == "closed"
        assert brk.allow()

    def test_half_open_failure_reopens(self):
        clock = fast_clock()
        brk = self.make(clock)
        self.trip(brk)
        clock.sleep(BREAKER_RESET_S)
        assert brk.allow()
        brk.record_failure()
        assert brk.state == "open"
        assert not brk.allow()  # cool-down restarted
        assert brk.opens == 2

    def test_snapshot(self):
        brk = self.make(fast_clock())
        self.trip(brk)
        snap = brk.snapshot()
        assert snap == {"state": "open", "failures": BREAKER_THRESHOLD, "opens": 1}


class TestHealthRegistry:
    def test_enabled_tracks_per_tier(self):
        reg = HealthRegistry(fast_clock())
        for _ in range(BREAKER_THRESHOLD):
            reg.failure("node0-ssd")
        assert not reg.allow("node0-ssd")
        assert not reg.healthy("node0-ssd")
        assert reg.allow("pfs")  # independent breakers
        snap = reg.snapshot()
        assert snap["node0-ssd"]["state"] == "open"

    def test_healthy_never_consumes_the_probe(self):
        clock = fast_clock()
        reg = HealthRegistry(clock)
        for _ in range(BREAKER_THRESHOLD):
            reg.failure("pfs")
        clock.sleep(BREAKER_RESET_S)
        # Read-side routing checks must not eat the write-side probe slot.
        assert not reg.healthy("pfs")  # still OPEN until a probe runs
        assert reg.allow("pfs")  # write side takes the probe
        assert not reg.allow("pfs")


class TestFaultDomain:
    def make(self, fault_cfg, clock=None):
        return FaultDomain(fault_cfg, clock or fast_clock())

    def test_disabled_domain_is_inert(self):
        dom = self.make(FaultConfig())
        assert dom.plan is None
        assert dom.tier_gate("ssd", "node0-ssd", "put", (0, 0)) == 1.0
        assert not dom.hard_outage("ssd")
        assert dom.corruption("node0-ssd", (0, 0), 4096) is None
        assert not dom.crash_point("before-h2f", 0)

        class FakeLink:
            name = "node0-ssd-write"
            fault_injector = None

        link = FakeLink()
        dom.attach(link)
        assert link.fault_injector is None

    def test_disabled_domain_never_fires_an_armed_plan(self):
        """The engine's crash points and the fabric's peer-read gate ask the
        domain with injection off too: a plan aimed at a checkpoint, but
        with nothing to inject, is inert."""
        dom = self.make(FaultConfig(crash_ckpt=0))
        assert dom.plan is None
        for stage in CRASH_STAGES:
            for point in (stage, f"before-{stage}", f"after-{stage}"):
                assert not dom.crash_point(point, 0)
        assert not dom.hard_outage("ssd")
        assert dom.snapshot() == {"outage_hits": 0, "corruptions": 0, "crashes": 0}

    def test_hard_outage_gate_raises(self):
        clock = fast_clock()
        dom = self.make(
            FaultConfig(tier_outages=(("ssd", 1.0, 2.0, 0.0),)),
            clock=clock,
        )
        assert dom.tier_gate("ssd", "node0-ssd", "put", (0, 0)) == 1.0
        clock.sleep(1.5)
        assert dom.hard_outage("ssd")
        with pytest.raises(TierOfflineError):
            dom.tier_gate("ssd", "node0-ssd", "put", (0, 0))
        assert dom.snapshot()["outage_hits"] == 1
        clock.sleep(1.0)  # window over
        assert dom.tier_gate("ssd", "node0-ssd", "put", (0, 0)) == 1.0
        assert not dom.hard_outage("ssd")

    def test_brownout_returns_slowdown(self):
        clock = fast_clock()
        dom = self.make(
            FaultConfig(tier_outages=(("pfs", 0.0, 10.0, 0.25),)),
            clock=clock,
        )
        assert dom.tier_gate("pfs", "pfs", "get", (0, 1)) == pytest.approx(4.0)
        assert not dom.hard_outage("pfs")  # brownout, not an outage

    def test_crash_point_is_one_shot(self):
        dom = self.make(FaultConfig(crash_point="h2f"))
        assert not dom.crash_point("before-d2h", 0)
        assert dom.crash_point("before-h2f", 0)
        assert not dom.crash_point("before-h2f", 1)  # fired already
        assert dom.snapshot()["crashes"] == 1

    def test_corruption_attempt_counter_advances(self):
        dom = self.make(FaultConfig(corruption_rate=1.0))
        first = dom.corruption("node0-ssd", (0, 0), 4096)
        second = dom.corruption("node0-ssd", (0, 0), 4096)
        assert first is not None and second is not None
        assert dom.snapshot()["corruptions"] == 2


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transfer_fault_rate": 1.5},
            {"transfer_fault_rate": -0.1},
            {"corruption_rate": 2.0},
            {"tier_outages": (("ssd", 1.0, 2.0),)},
        ],
        # explicit ids keep each case's name stable when rows are dropped
        ids=["kwargs0", "kwargs1", "kwargs2", "kwargs6"],
    )
    def test_bad_fault_config(self, kwargs):
        with pytest.raises(ConfigError):
            FaultConfig(**kwargs)

    def test_defaults_are_off(self):
        assert not FaultConfig().injects

    def test_the_switch_is_derived_from_what_the_plan_injects(self):
        assert not FaultConfig(seed=5, crash_ckpt=2).injects
        for knobs in (
            {"transfer_fault_rate": 0.1},
            {"corruption_rate": 0.1},
            {"crash_point": "h2f"},
            {"tier_outages": (("ssd", 1.0, 2.0, 0.0),)},
            {"node_crashes": ((0, 1.0, "fail-stop"),)},
            {"node_rejoins": ((0, 1.0),)},
            {"partitions": ((0, 1, 1.0, 2.0),)},
        ):
            assert FaultConfig(**knobs).injects, knobs
