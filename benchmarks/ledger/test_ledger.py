"""Checks of the ledger itself; run with ``pytest benchmarks/ledger``
(tier-1's ``testpaths`` does not include this directory)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, HERE)

from child import CheckedEngine, OpLedger  # noqa: E402
from inputs import WORKLOADS, scale_model  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_ledger(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )


def test_names_are_well_formed_and_unique(spec):
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in spec[section]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_quick_run_emits_exactly_the_declared_names(spec, tmp_path):
    out = tmp_path / "ledger.json"
    done = run_ledger("--quick", "--json", str(out))
    assert done.returncode == 0, done.stdout[-2000:]
    record = json.loads(out.read_text())
    assert [w["workload"] for w in record["workloads"]] == [w["name"] for w in spec["workloads"]]
    for entry in record["workloads"]:
        assert entry["failed"] == 0 and entry["failed_ops_ratio"] == 0
        assert list(entry["end_to_end"]) == [m["name"] for m in spec["end_to_end"]]
        assert list(entry["per_layer"]) == [m["name"] for m in spec["per_layer"]]
        measured = {name for name, s in entry["end_to_end"].items() if s["median"] is not None}
        assert measured == set(WORKLOADS[entry["workload"]].headline)
        assert {"seed", "git_sha", "config_hash", "python", "nproc", "pinned", "cpu"} <= set(
            entry["provenance"]
        )
    by_name = {e["workload"]: e["per_layer"] for e in record["workloads"]}
    # same bytes through the other implementation of every leg
    for metric in ("sched.grants", "core.flusher.stream.pipelines", "telemetry.bus.emitted"):
        assert by_name["transport_on"][metric] > 0
        assert by_name["durable_demand"][metric] == 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_form_prints_one_result_line(spec, trace, section):
    done = run_ledger(
        "--workload", "reduce_on", "--seed", "3", "--seconds", "1", "--trace", str(trace)
    )
    assert done.returncode == 0, done.stdout[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    for metric in spec[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert isinstance(result["metrics"][metric["name"]]["value"], (int, float))


def test_tracer_restores_every_wrapped_attribute():
    import importlib

    def current():
        return [
            getattr(importlib.import_module(module), cls).__dict__.get(method)
            for module, cls, method, _ in TARGETS
        ]

    before = current()
    tracer = Tracer()
    tracer.install()
    assert tracer.unresolved == []
    assert all(a is not b for a, b in zip(before, current()))
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, current()))


class _Engine:
    """Stores payloads; ``corrupt`` flips one restored byte, ``broken`` raises."""

    def __init__(self, corrupt: bool = False, broken: bool = False) -> None:
        self.corrupt, self.broken, self.saved = corrupt, broken, {}

    def checkpoint(self, ckpt_id, buffer) -> float:
        self.saved[ckpt_id] = buffer.payload.copy()
        return 0.001

    def restore(self, ckpt_id, buffer) -> float:
        if self.broken:
            raise RuntimeError("injected")
        buffer.copy_from(self.saved[ckpt_id])
        if self.corrupt:
            buffer.payload[0] ^= 0xFF
        return 0.001


@pytest.mark.parametrize(
    "engine, failed", [(_Engine(), 0), (_Engine(corrupt=True), 1), (_Engine(broken=True), 1)]
)
def test_corrupted_or_raised_restore_counts_as_failed(engine, failed):
    import numpy as np

    from repro.simgpu.memory import DeviceBuffer

    scale = scale_model(0.5)
    ledger = OpLedger()
    proxy = CheckedEngine(engine, ledger, "r0")
    source = DeviceBuffer(scale.alignment, scale)
    source.fill_random(np.random.default_rng(1))
    proxy.checkpoint(0, source)
    proxy.restore(0, DeviceBuffer(scale.alignment, scale))
    assert (ledger.attempted, ledger.failed) == (2, failed)
    assert len(ledger.ops) == 2 - failed
