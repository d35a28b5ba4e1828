"""RPC-style checkpoint service front-end over the in-process cluster.

:class:`CheckpointService` is the "millions of users" story from the
roadmap scaled down to the virtual clock: many concurrent clients drive
``submit`` / ``restore`` / ``query`` against a cluster of engines through
per-client sessions. The message layer is in-process — an RPC is a
method call that charges ``RPC_LATENCY_S`` on the virtual clock — but the
*control* structure is the real one:

* **sessions** — ``connect`` pins each client to a home engine
  (round-robin across the cluster).  ``disconnect`` drains the session's
  in-flight RPCs and poisons the handle: any later call raises a clean
  :class:`~repro.errors.LifecycleError`.
* **admission** — every request on an open session is admitted and
  counted in flight (the count ``disconnect`` drains); backpressure comes
  from the engines' caches, as on the links (:mod:`repro.sched`).
* **placement** — the service owns a global ``ckpt_id → home process``
  map, so any session can restore any checkpoint: a restore landing on a
  foreign engine adopts the record (:meth:`ScoreEngine.adopt_foreign`)
  and promotes it over the fabric — peer SSD when a healthy holder
  exists, PFS otherwise.
* **failover** — a session whose pinned engine dies (node crash) is
  transparently re-pinned to a surviving engine and the in-flight op is
  replayed idempotently: a submit whose checkpoint already reached a
  durable tier is *not* re-executed, and a restore simply re-routes
  through the fabric (peer SSD or PFS).
* **restore fan-in** — :meth:`restore_many` runs a batch of restores
  concurrently (one thread per RPC, like a real server's handler pool)
  and returns a structured :class:`RestoreResult` per item, so one failed
  worker never masks the rest of the batch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import CheckpointNotFound, InjectedCrash, LifecycleError

if TYPE_CHECKING:
    from repro.core.engine import ScoreEngine

#: modeled one-way RPC latency per service call, nominal seconds.
RPC_LATENCY_S = 200e-6


@dataclass
class RestoreResult:
    """Per-item outcome of a :meth:`CheckpointService.restore_many` batch."""

    ckpt_id: int
    ok: bool
    latency_s: Optional[float] = None
    error: Optional[BaseException] = None


class ClientSession:
    """One client's handle: a home engine plus its count of RPCs in flight."""

    def __init__(self, service: "CheckpointService", client_id: str, engine) -> None:
        self.service = service
        self.client_id = client_id
        self.engine = engine
        self._cond = service.clock.condition()
        self._inflight = 0
        self._closed = False

    # -- admission -------------------------------------------------------------
    def _admit(self) -> None:
        with self._cond:
            if self._closed:
                raise LifecycleError(
                    f"session {self.client_id} is disconnected"
                )
            self._inflight += 1

    def _release(self) -> None:
        with self._cond:
            self._inflight -= 1
            if self._inflight == 0:
                self._cond.notify_all()

    def _poison_and_drain(self) -> None:
        """Close the admission door, then wait out the in-flight RPCs."""
        with self._cond:
            self._closed = True
            while self._inflight > 0:
                self._cond.wait()

    # -- RPCs ------------------------------------------------------------------
    def submit(self, ckpt_id: int, buffer) -> float:
        """Checkpoint ``buffer`` on the session's home engine."""
        self._admit()
        try:
            self.service._rpc_hop()
            engine = self.service._session_engine(self)
            self.service._place(ckpt_id, engine.process_id)
            try:
                return engine.checkpoint(ckpt_id, buffer)
            except InjectedCrash:
                if not engine.crashed.is_set():
                    self.service._unplace(ckpt_id, engine.process_id)
                    raise
                return self.service._failover_submit(self, ckpt_id, buffer, engine)
            except BaseException:
                self.service._unplace(ckpt_id, engine.process_id)
                raise
        finally:
            self._release()

    def restore(self, ckpt_id: int, buffer, engine=None) -> float:
        """Restore ``ckpt_id`` into ``buffer`` on ``engine`` (default: home).

        A target that never created the checkpoint adopts the home
        engine's durable copy first, then promotes it through the fabric.
        """
        self._admit()
        try:
            self.service._rpc_hop()
            target = self.service._resolve_engine(engine) or self.service._session_engine(self)
            home_pid = self.service._home_of(ckpt_id)
            if home_pid is None:
                raise CheckpointNotFound(
                    f"checkpoint {ckpt_id} was never submitted to the service"
                )
            try:
                return self.service._restore_on(target, home_pid, ckpt_id, buffer)
            except InjectedCrash:
                if not target.crashed.is_set():
                    raise
                # Explicit engine targets fail over too: any surviving
                # engine can adopt the durable copy through the fabric.
                fallback = self.service._repin(self, target)
                return self.service._restore_on(fallback, home_pid, ckpt_id, buffer)
        finally:
            self._release()

    def query(self, ckpt_id: int) -> dict:
        """Placement and durability metadata for ``ckpt_id``."""
        self._admit()
        try:
            self.service._rpc_hop()
            return self.service._query(ckpt_id)
        finally:
            self._release()


class CheckpointService:
    """Submit/restore/query front-end shared by every client session."""

    def __init__(self, engines: Sequence["ScoreEngine"], clock) -> None:
        if not engines:
            raise LifecycleError("checkpoint service needs at least one engine")
        self.engines = list(engines)
        self.clock = clock
        self._lock = threading.Lock()
        self._sessions: Dict[str, ClientSession] = {}
        self._next_engine = 0
        self._placement: Dict[int, int] = {}
        self._by_pid = {engine.process_id: engine for engine in self.engines}
        self._fabric = self.engines[0].fabric
        self.failovers = 0
        self.replays_skipped = 0
        registry = self.engines[0].telemetry.registry
        self._m_failovers = registry.counter("cluster.service.failovers")
        self._m_replays_skipped = registry.counter(
            "cluster.service.replays_skipped"
        )

    # -- sessions --------------------------------------------------------------
    def connect(self, client_id: str) -> ClientSession:
        """Open (or return) a session, round-robin pinned to a home engine."""
        with self._lock:
            session = self._sessions.get(client_id)
            if session is not None:
                return session
            engine = self.engines[self._next_engine % len(self.engines)]
            self._next_engine += 1
            session = ClientSession(self, client_id, engine)
            self._sessions[client_id] = session
            return session

    def disconnect(self, client_id: str) -> None:
        """Tear a session down cleanly.

        The session is unregistered first (no new connects resolve it),
        then poisoned — later RPCs on a stale handle raise
        :class:`~repro.errors.LifecycleError` — and finally drained: this
        call blocks until every in-flight admission has released, so the
        caller knows no RPC of the departed client is still running.
        """
        with self._lock:
            session = self._sessions.pop(client_id, None)
        if session is not None:
            session._poison_and_drain()

    # -- failover --------------------------------------------------------------
    def _membership(self):
        return None if self._fabric is None else self._fabric.membership

    def _live_engines(self) -> List["ScoreEngine"]:
        membership = self._membership()
        live = []
        for engine in self.engines:
            if engine.crashed.is_set():
                continue
            if membership is not None and membership.active:
                if not membership.can_serve_reads(engine.node_id):
                    continue
            live.append(engine)
        return live

    def _session_engine(self, session: ClientSession):
        """The session's engine, re-pinned away from a dead node first."""
        engine = session.engine
        if engine.crashed.is_set():
            return self._repin(session, engine)
        return engine

    def _repin(self, session: ClientSession, dead_engine):
        """Move a session off a dead engine onto the next surviving one."""
        live = self._live_engines()
        if not live:
            raise LifecycleError(
                "no surviving engine to fail the session over to"
            )
        with self._lock:
            target = live[self._next_engine % len(live)]
            self._next_engine += 1
        if session.engine is dead_engine:
            session.engine = target
        self.failovers += 1
        self._m_failovers.inc()
        target.telemetry.bus.instant(
            "session-failover",
            f"p{target.process_id}-app",
            client=session.client_id,
            from_pid=dead_engine.process_id,
            to_pid=target.process_id,
        )
        return target

    def _durable_somewhere(self, pid: int, ckpt_id: int) -> bool:
        """Whether ``(pid, ckpt_id)`` already reached any durable tier."""
        key = (pid, ckpt_id)
        if self._fabric is not None and self._fabric.directory.holders(key):
            return True
        pfs = self.engines[0].pfs
        return pfs is not None and pfs.contains(key)

    def _failover_submit(self, session, ckpt_id, buffer, dead_engine) -> float:
        """Replay an in-flight submit on a survivor, idempotently.

        If the op already reached a durable tier before the node died, the
        placement stands (restores adopt the foreign durable copy) and the
        replay is skipped — exactly-once effect from at-least-once
        delivery.  Otherwise the checkpoint re-runs on the new engine.
        """
        target = self._repin(session, dead_engine)
        self._rpc_hop()
        if self._durable_somewhere(dead_engine.process_id, ckpt_id):
            self.replays_skipped += 1
            self._m_replays_skipped.inc()
            return 0.0
        self._unplace(ckpt_id, dead_engine.process_id)
        self._place(ckpt_id, target.process_id)
        try:
            return target.checkpoint(ckpt_id, buffer)
        except BaseException:
            self._unplace(ckpt_id, target.process_id)
            raise

    def _restore_on(self, target, home_pid: int, ckpt_id: int, buffer) -> float:
        if home_pid != target.process_id and not target.catalog.contains(ckpt_id):
            target.adopt_foreign(home_pid, ckpt_id)
        return target.restore(ckpt_id, buffer)

    # -- placement -------------------------------------------------------------
    def _place(self, ckpt_id: int, pid: int) -> None:
        with self._lock:
            if ckpt_id in self._placement:
                raise LifecycleError(
                    f"checkpoint {ckpt_id} already submitted "
                    f"(home process {self._placement[ckpt_id]})"
                )
            self._placement[ckpt_id] = pid

    def _unplace(self, ckpt_id: int, pid: int) -> None:
        with self._lock:
            if self._placement.get(ckpt_id) == pid:
                del self._placement[ckpt_id]

    def _home_of(self, ckpt_id: int) -> Optional[int]:
        with self._lock:
            return self._placement.get(ckpt_id)

    def _resolve_engine(self, engine):
        if engine is None:
            return None
        if isinstance(engine, int):
            try:
                return self._by_pid[engine]
            except KeyError:
                raise LifecycleError(f"no engine with process id {engine}") from None
        return engine

    def _rpc_hop(self) -> None:
        """Charge one client→service message hop on the virtual clock."""
        membership = self._membership()
        if membership is not None and membership.active:
            membership.tick()
        self.clock.sleep(RPC_LATENCY_S)

    def _query(self, ckpt_id: int) -> dict:
        home_pid = self._home_of(ckpt_id)
        if home_pid is None:
            raise CheckpointNotFound(
                f"checkpoint {ckpt_id} was never submitted to the service"
            )
        home = self._by_pid[home_pid]
        record = home.catalog.maybe_get(ckpt_id)
        info = {
            "ckpt_id": ckpt_id,
            "home_pid": home_pid,
            "home_node": home.node_id,
            "durable_level": record.durable_level.name if record is not None else None,
        }
        if home.fabric is not None:
            info["ssd_holders"] = home.fabric.directory.holders((home_pid, ckpt_id))
        return info

    # -- fan-in ----------------------------------------------------------------
    def restore_many(
        self, items: Sequence[Tuple[ClientSession, int, object, object]]
    ) -> List[RestoreResult]:
        """Run ``(session, ckpt_id, buffer, engine)`` restores concurrently.

        Returns one :class:`RestoreResult` per item, in item order: each
        carries its own success/error/latency, so a failed worker is
        visible without masking the outcomes of the rest of the batch
        (server handlers run to completion, never cancelled by a sibling).
        """
        results: List[Optional[RestoreResult]] = [None] * len(items)

        def worker(i, session, ckpt_id, buffer, engine):
            try:
                latency = session.restore(ckpt_id, buffer, engine=engine)
                results[i] = RestoreResult(ckpt_id, True, latency_s=latency)
            except BaseException as exc:  # noqa: BLE001 - reported per item
                results[i] = RestoreResult(ckpt_id, False, error=exc)

        threads = [
            threading.Thread(
                target=self.clock.runner(worker),
                args=(i, session, ckpt_id, buffer, engine),
                name=f"svc-restore-{i}",
                daemon=True,
            )
            for i, (session, ckpt_id, buffer, engine) in enumerate(items)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            self.clock.join(thread)
        return [r for r in results if r is not None]

    def stats(self) -> dict:
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "checkpoints": len(self._placement),
                "engines": len(self.engines),
                "failovers": self.failovers,
                "replays_skipped": self.replays_skipped,
            }
