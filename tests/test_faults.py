"""Unit tests for the fault-injection subsystem (:mod:`repro.faults`).

Covers the deterministic :class:`FaultPlan`, the per-link injector, the
budgeted retry policy, the circuit-breaker state machine, the cluster-wide
:class:`FaultDomain` gates, and the config validation for the two new
config blocks.  Integration behaviour (self-healing flushes, recovery)
lives in ``tests/test_faults_recovery.py``.
"""

import pytest

from repro.config import CRASH_STAGES, ConfigError, FaultConfig, ResilienceConfig
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
from repro.faults.retry import backoff_for
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
        cfg = FaultConfig(enabled=True, transfer_fault_rate=0.3, seed=7)
        a = FaultPlan(cfg)
        b = FaultPlan(cfg)
        stream_a = [a.transfer_fault("h2f-link", seq, NBYTES) for seq in range(200)]
        stream_b = [b.transfer_fault("h2f-link", seq, NBYTES) for seq in range(200)]
        assert stream_a == stream_b
        assert any(cut is not None for cut in stream_a)

    def test_seed_changes_the_stream(self):
        base = FaultConfig(enabled=True, transfer_fault_rate=0.3, seed=7)
        other = FaultConfig(enabled=True, transfer_fault_rate=0.3, seed=8)
        stream_a = [FaultPlan(base).transfer_fault("x", s, NBYTES) for s in range(200)]
        stream_b = [FaultPlan(other).transfer_fault("x", s, NBYTES) for s in range(200)]
        assert stream_a != stream_b

    def test_rate_bounds(self):
        never = FaultPlan(FaultConfig(enabled=True, transfer_fault_rate=0.0))
        assert all(never.transfer_fault("x", s, NBYTES) is None for s in range(50))
        cfg = FaultConfig(
            enabled=True,
            transfer_fault_rate=1.0,
            min_fault_fraction=0.25,
            max_fault_fraction=0.75,
        )
        always = FaultPlan(cfg)
        for seq in range(50):
            cut = always.transfer_fault("x", seq, NBYTES)
            assert cut is not None
            assert 1 <= cut <= NBYTES - 1
            assert 0.25 * NBYTES <= cut <= 0.75 * NBYTES

    def test_link_filter(self):
        cfg = FaultConfig(enabled=True, transfer_fault_rate=1.0, fault_links=("ssd",))
        plan = FaultPlan(cfg)
        assert plan.transfer_fault("node0-ssd-write", 0, NBYTES) is not None
        assert plan.transfer_fault("d2h", 0, NBYTES) is None

    def test_outage_windows(self):
        cfg = FaultConfig(
            enabled=True,
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
        cfg = FaultConfig(enabled=True, corruption_rate=1.0)
        plan = FaultPlan(cfg)
        first = plan.corrupt("node0-ssd", (0, 3), 0, 4096)
        again = plan.corrupt("node0-ssd", (0, 3), 0, 4096)
        assert first == again  # same attempt -> same decision
        assert first is not None and 0 <= first < 4096

    def test_crash_point_normalization(self):
        bare = FaultPlan(FaultConfig(enabled=True, crash_point="h2f"))
        assert bare.crash_matches("before-h2f", 0)
        assert not bare.crash_matches("after-h2f", 0)
        after = FaultPlan(FaultConfig(enabled=True, crash_point="after-f2p"))
        assert after.crash_matches("after-f2p", 5)
        assert not after.crash_matches("before-f2p", 5)

    def test_crash_point_ckpt_filter(self):
        plan = FaultPlan(FaultConfig(enabled=True, crash_point="d2h", crash_ckpt=3))
        assert not plan.crash_matches("before-d2h", 2)
        assert plan.crash_matches("before-d2h", 3)


class TestLinkFaultInjector:
    def test_draw_and_fault(self):
        plan = FaultPlan(FaultConfig(enabled=True, transfer_fault_rate=1.0))
        inj = LinkFaultInjector("h2f", plan)
        cut = inj.draw(NBYTES)
        assert cut is not None
        err = inj.fault(NBYTES, cut)
        assert isinstance(err, TransientTransferError)
        assert err.bytes_moved == cut
        assert inj.faults_injected == 1

    def test_sequence_advances(self):
        plan = FaultPlan(FaultConfig(enabled=True, transfer_fault_rate=0.5))
        inj = LinkFaultInjector("x", plan)
        draws = [inj.draw(NBYTES) for _ in range(100)]
        # The per-link counter walks the plan's sequence: both outcomes occur.
        assert any(d is None for d in draws)
        assert any(d is not None for d in draws)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        cfg = ResilienceConfig(
            enabled=True,
            backoff_base_s=0.1,
            backoff_factor=2.0,
            backoff_max_s=0.5,
            jitter=0.25,
        )
        policy = RetryPolicy(cfg, seed=1)
        for attempt in range(6):
            base = min(0.1 * 2.0 ** attempt, 0.5)
            delay = policy.backoff(attempt, "h2f", 3)
            assert base <= delay <= base * 1.25

    def test_backoff_deterministic(self):
        cfg = ResilienceConfig(enabled=True)
        assert RetryPolicy(cfg, 5).backoff(2, "d2s", 1) == RetryPolicy(cfg, 5).backoff(
            2, "d2s", 1
        )
        assert RetryPolicy(cfg, 5).backoff(2, "d2s", 1) != RetryPolicy(cfg, 6).backoff(
            2, "d2s", 1
        )

    def test_class_budget_overrides(self):
        cfg = ResilienceConfig(
            enabled=True,
            max_retries=4,
            retry_classes=(("SPECULATIVE_PREFETCH", 0), ("DEMAND_READ", 7)),
        )
        policy = RetryPolicy(cfg, seed=0)
        assert policy.budget("SPECULATIVE_PREFETCH") == 0
        assert policy.budget("DEMAND_READ") == 7
        assert policy.budget("CASCADE_FLUSH") == 4


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
        policy = RetryPolicy(ResilienceConfig(enabled=True, max_retries=4), seed=0)
        fn, calls = self._flaky(3)
        started = clock.now()
        assert (
            run_with_retries(
                fn, policy=policy, clock=clock, class_name="CASCADE_FLUSH",
                labels=("t",),
            )
            == "ok"
        )
        assert calls["n"] == 4
        assert clock.now() > started  # backoff charged on the virtual clock

    def test_budget_exhaustion_raises(self):
        policy = RetryPolicy(ResilienceConfig(enabled=True, max_retries=2), seed=0)
        fn, calls = self._flaky(10)
        with pytest.raises(TransientTransferError):
            run_with_retries(
                fn, policy=policy, clock=fast_clock(), class_name="CASCADE_FLUSH",
                labels=("t",),
            )
        assert calls["n"] == 3  # first attempt + 2 retries

    def test_none_policy_is_a_plain_call(self):
        fn, calls = self._flaky(1)
        with pytest.raises(TransientTransferError):
            run_with_retries(
                fn, policy=None, clock=fast_clock(), class_name="X", labels=()
            )
        assert calls["n"] == 1

    def test_should_abort_short_circuits(self):
        policy = RetryPolicy(ResilienceConfig(enabled=True, max_retries=5), seed=0)
        fn, calls = self._flaky(10)
        with pytest.raises(TransientTransferError):
            run_with_retries(
                fn, policy=policy, clock=fast_clock(), class_name="X",
                labels=(), should_abort=lambda: True,
            )
        assert calls["n"] == 1

    def test_non_transient_errors_propagate(self):
        policy = RetryPolicy(ResilienceConfig(enabled=True, max_retries=5), seed=0)

        def fn():
            raise TransferError("cancelled")

        with pytest.raises(TransferError):
            run_with_retries(
                fn, policy=policy, clock=fast_clock(), class_name="X", labels=()
            )


    def test_hooks_feed_a_breaker_and_own_the_backoff(self):
        """What the flusher plugs in: ``on_attempt`` sees every outcome (even
        with no policy), ``on_retry`` sleeps the back-off itself."""
        clock = fast_clock()
        policy = RetryPolicy(ResilienceConfig(enabled=True, max_retries=4), seed=0)
        fn, _ = self._flaky(2)
        outcomes, slept = [], []
        run_with_retries(
            fn, policy=policy, clock=clock, class_name="CASCADE_FLUSH", labels=("t",),
            on_attempt=outcomes.append, on_retry=lambda attempt, delay, exc: slept.append(delay),
        )
        assert outcomes == [False, False, True]
        assert slept == [policy.backoff(0, "t"), policy.backoff(1, "t")]
        assert clock.now() == 0.0  # the default sleep did not run as well
        fn, _ = self._flaky(1)
        with pytest.raises(TransientTransferError):
            run_with_retries(
                fn, policy=None, clock=clock, class_name="X", labels=(),
                on_attempt=outcomes.append,
            )
        assert outcomes[-1] is False

    def test_backoff_for_answers_with_resilience_on_or_off(self):
        policy = RetryPolicy(ResilienceConfig(enabled=True), seed=3)
        assert backoff_for(None, "demand", 7) == 0.05
        assert backoff_for(policy, "demand", 7) == policy.backoff(0, "demand", 7)


class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset_s=5.0):
        return CircuitBreaker("node0-ssd", threshold, reset_s, clock)

    def test_opens_after_consecutive_failures(self):
        brk = self.make(fast_clock())
        assert brk.allow()
        brk.record_failure()
        brk.record_failure()
        assert brk.state == "closed"
        brk.record_failure()
        assert brk.state == "open"
        assert not brk.allow()
        assert brk.opens == 1

    def test_success_resets_the_count(self):
        brk = self.make(fast_clock())
        brk.record_failure()
        brk.record_failure()
        brk.record_success()
        brk.record_failure()
        brk.record_failure()
        assert brk.state == "closed"  # never 3 consecutive

    def test_half_open_probe_cycle(self):
        clock = fast_clock()
        brk = self.make(clock, threshold=1, reset_s=5.0)
        brk.record_failure()
        assert not brk.allow()
        clock.sleep(5.0)
        assert brk.allow()  # the single half-open probe
        assert not brk.allow()  # second caller must wait for the probe
        brk.record_success()
        assert brk.state == "closed"
        assert brk.allow()

    def test_half_open_failure_reopens(self):
        clock = fast_clock()
        brk = self.make(clock, threshold=1, reset_s=5.0)
        brk.record_failure()
        clock.sleep(5.0)
        assert brk.allow()
        brk.record_failure()
        assert brk.state == "open"
        assert not brk.allow()  # cool-down restarted
        assert brk.opens == 2

    def test_snapshot(self):
        brk = self.make(fast_clock(), threshold=1)
        brk.record_failure()
        snap = brk.snapshot()
        assert snap == {"state": "open", "failures": 1, "opens": 1}


class TestHealthRegistry:
    def test_disabled_is_inert(self):
        reg = HealthRegistry(ResilienceConfig(enabled=False), fast_clock())
        for _ in range(10):
            reg.failure("node0-ssd")
        assert reg.allow("node0-ssd")
        assert reg.healthy("node0-ssd")
        assert reg.snapshot() == {}

    def test_disabled_gates_stay_open_past_any_threshold(self):
        """The flusher calls ``allow`` with resilience off too: a disabled
        registry is what keeps that the historical, ungated write."""
        reg = HealthRegistry(ResilienceConfig(enabled=False, breaker_threshold=1), fast_clock())
        for name in ("node0-ssd", "pfs"):
            reg.failure(name)
            reg.failure(name)
            assert reg.allow(name) and reg.healthy(name) and reg.allow(name)
        assert reg.snapshot() == {}

    def test_enabled_tracks_per_tier(self):
        reg = HealthRegistry(
            ResilienceConfig(enabled=True, breaker_threshold=2), fast_clock()
        )
        reg.failure("node0-ssd")
        reg.failure("node0-ssd")
        assert not reg.allow("node0-ssd")
        assert not reg.healthy("node0-ssd")
        assert reg.allow("pfs")  # independent breakers
        snap = reg.snapshot()
        assert snap["node0-ssd"]["state"] == "open"

    def test_healthy_never_consumes_the_probe(self):
        clock = fast_clock()
        reg = HealthRegistry(
            ResilienceConfig(enabled=True, breaker_threshold=1, breaker_reset_s=1.0),
            clock,
        )
        reg.failure("pfs")
        clock.sleep(1.0)
        # Read-side routing checks must not eat the write-side probe slot.
        assert not reg.healthy("pfs")  # still OPEN until a probe runs
        assert reg.allow("pfs")  # write side takes the probe
        assert not reg.allow("pfs")


class TestFaultDomain:
    def make(self, fault_cfg, resilience=None, clock=None):
        return FaultDomain(
            fault_cfg, resilience or ResilienceConfig(), clock or fast_clock()
        )

    def test_disabled_domain_is_inert(self):
        dom = self.make(FaultConfig(enabled=False, transfer_fault_rate=1.0))
        assert dom.plan is None
        assert not dom.meta_crc
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
        domain with injection off too: an armed but disabled plan is inert."""
        dom = self.make(
            FaultConfig(
                enabled=False, crash_point="h2f", tier_outages=(("ssd", 0.0, 10.0, 0.0),)
            )
        )
        for stage in CRASH_STAGES:
            for point in (stage, f"before-{stage}", f"after-{stage}"):
                assert not dom.crash_point(point, 0)
        assert not dom.hard_outage("ssd")
        assert dom.snapshot() == {"outage_hits": 0, "corruptions": 0, "crashes": 0}

    def test_meta_crc_follows_either_switch(self):
        assert self.make(FaultConfig(enabled=True)).meta_crc
        assert FaultDomain(
            FaultConfig(), ResilienceConfig(enabled=True), fast_clock()
        ).meta_crc
        assert not self.make(FaultConfig()).meta_crc

    def test_hard_outage_gate_raises(self):
        clock = fast_clock()
        dom = self.make(
            FaultConfig(enabled=True, tier_outages=(("ssd", 1.0, 2.0, 0.0),)),
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
            FaultConfig(enabled=True, tier_outages=(("pfs", 0.0, 10.0, 0.25),)),
            clock=clock,
        )
        assert dom.tier_gate("pfs", "pfs", "get", (0, 1)) == pytest.approx(4.0)
        assert not dom.hard_outage("pfs")  # brownout, not an outage

    def test_crash_point_is_one_shot(self):
        dom = self.make(FaultConfig(enabled=True, crash_point="h2f"))
        assert not dom.crash_point("before-d2h", 0)
        assert dom.crash_point("before-h2f", 0)
        assert not dom.crash_point("before-h2f", 1)  # fired already
        assert dom.snapshot()["crashes"] == 1

    def test_corruption_attempt_counter_advances(self):
        dom = self.make(FaultConfig(enabled=True, corruption_rate=1.0))
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
            {"min_fault_fraction": 0.0},
            {"min_fault_fraction": 0.9, "max_fault_fraction": 0.5},
            {"max_fault_fraction": 1.0},
            {"tier_outages": (("ssd", 1.0, 2.0),)},
        ],
    )
    def test_bad_fault_config(self, kwargs):
        with pytest.raises(ConfigError):
            FaultConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_s": -0.5},
            {"backoff_factor": 0.5},
            {"jitter": 1.5},
            {"retry_classes": (("DEMAND_READ",),)},
            {"retry_classes": (("DEMAND_READ", -2),)},
        ],
    )
    def test_bad_resilience_config(self, kwargs):
        with pytest.raises(ConfigError):
            ResilienceConfig(**kwargs)

    def test_defaults_are_off(self):
        assert not FaultConfig().enabled
        assert not ResilienceConfig().enabled
