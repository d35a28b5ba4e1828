"""ClusterConfig validation: every knob rejects nonsense with ConfigError."""

import pytest

from repro.config import ClusterConfig, FaultConfig, RuntimeConfig
from repro.errors import ConfigError


@pytest.mark.parametrize(
    "kwargs",
    [
        {"replica_factor": 0},
        {"replica_factor": -1},
        {"aggregation_window_s": -0.001},
    ],
    # explicit ids keep each case's name stable when rows are dropped
    ids=["kwargs0", "kwargs1", "kwargs4"],
)
def test_bad_knobs_raise(kwargs):
    with pytest.raises(ConfigError):
        ClusterConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"node_crashes": ((0, 1.0),)},  # missing mode
        {"node_crashes": ((0, 1.0, "brownout"),)},  # unknown mode
        {"node_crashes": ((-1, 1.0, "fail-stop"),)},
        {"node_crashes": ((0, -1.0, "fail-stop"),)},
        {"node_rejoins": ((0,),)},
        {"node_rejoins": ((-1, 1.0),)},
        {"partitions": ((0, 0, 1.0, 2.0),)},  # same node twice
        {"partitions": ((0, 1, 2.0, 1.0),)},  # end before start
        {"partitions": ((0, 1, -1.0, 2.0),)},
    ],
)
def test_bad_node_chaos_entries_raise(kwargs):
    with pytest.raises(ConfigError):
        FaultConfig(**kwargs)


def test_node_chaos_ids_validated_against_node_count():
    with pytest.raises(ConfigError):
        RuntimeConfig(
            num_nodes=2,
            cluster=ClusterConfig(enabled=True),
            faults=FaultConfig(node_crashes=((5, 1.0, "fail-stop"),)),
        )
    # In range is fine.
    RuntimeConfig(
        num_nodes=2,
        cluster=ClusterConfig(enabled=True),
        faults=FaultConfig(node_crashes=((1, 1.0, "fail-stop"),)),
    )


def test_defaults_validate():
    ClusterConfig()
    ClusterConfig(enabled=True)


def test_replica_factor_cannot_exceed_node_count_when_enabled():
    with pytest.raises(ConfigError, match="replica_factor"):
        RuntimeConfig(
            num_nodes=2, cluster=ClusterConfig(enabled=True, replica_factor=3)
        )


def test_replica_factor_unchecked_when_disabled():
    RuntimeConfig(num_nodes=2, cluster=ClusterConfig(enabled=False, replica_factor=3))
