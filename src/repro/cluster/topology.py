"""One-call cluster construction: nodes, engines, and the service.

:class:`ClusterTopology` stacks the pieces the rest of the package
provides: a :class:`~repro.tiers.topology.Cluster` (which builds the
:class:`~repro.cluster.fabric.ClusterFabric` when ``config.cluster`` is
enabled), one :class:`~repro.core.engine.ScoreEngine` per process
context, and a :class:`~repro.cluster.service.CheckpointService` fronting
them all. Intended for workloads, benchmarks, and tests::

    with ClusterTopology(config) as topo:
        session = topo.service.connect("client-0")
        session.submit(0, buf)
        ...
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.service import CheckpointService
from repro.config import RuntimeConfig
from repro.core.engine import ScoreEngine
from repro.tiers.topology import Cluster


class ClusterTopology:
    """A cluster, its engines, and the checkpoint service front-end."""

    def __init__(
        self,
        config: RuntimeConfig,
        clock=None,
        engine_kwargs: Optional[dict] = None,
    ) -> None:
        self.config = config
        self.cluster = Cluster(config, clock=clock)
        self.engines: List[ScoreEngine] = []
        try:
            with self.cluster.clock.setup():  # building is not a use of the clock
                for ctx in self.cluster.process_contexts():
                    self.engines.append(ScoreEngine(ctx, **(engine_kwargs or {})))
                self.service = CheckpointService(
                    self.engines, config.cluster, self.cluster.clock
                )
        except BaseException:
            self.close()
            raise
        self._closed = False

    @property
    def fabric(self):
        return self.cluster.fabric

    @property
    def telemetry(self):
        return self.cluster.telemetry

    def close(self) -> None:
        if getattr(self, "_closed", False):
            return
        self._closed = True
        for engine in self.engines:
            engine.close()
        self.cluster.close()

    def __enter__(self) -> "ClusterTopology":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
