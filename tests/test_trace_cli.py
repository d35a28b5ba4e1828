"""CLI error handling: ``repro trace`` / ``repro analyze`` exit cleanly.

A typo'd workload name or a malformed ``--outage`` spec must die as an
argparse usage error (exit code 2, message on stderr) — never as a raw
``ConfigError``/``FileNotFoundError`` traceback.  The happy paths are
exercised too, mostly off a saved event log so no live run is needed.
Both CLIs take one set of live-run flags (``telemetry.cli.live_run_flags``).
"""

import argparse
import json

import pytest

from repro.analysis import cli as analysis_cli
from repro.config import FaultConfig
from repro.telemetry import cli as trace_cli
from repro.telemetry.exporters import read_jsonl, write_jsonl

from tests.test_analysis import scenario_events


# -- repro trace --------------------------------------------------------------
def test_trace_unknown_workload_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        trace_cli.main(["nosuch"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_trace_run_trace_raises_config_error_for_unknown_workload(tmp_path):
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown workload"):
        trace_cli.run_trace("nosuch", out_dir=str(tmp_path))


@pytest.mark.parametrize(
    "spec",
    [
        "bogus",  # not tier:start:end
        "nvme:0:5",  # unknown tier
        "ssd:five:10",  # non-numeric window
        "ssd:10:5",  # start >= end
        "ssd:0:5:1.5",  # factor out of [0, 1)
    ],
)
def test_trace_malformed_outage_exits_2(spec, capsys):
    with pytest.raises(SystemExit) as exc:
        trace_cli.main(["quickstart", "--outage", spec])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage" in err or "error" in err


# -- repro analyze ------------------------------------------------------------
def test_analyze_unknown_workload_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        analysis_cli.main(["nosuch", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unknown workload" in capsys.readouterr().err


def test_analyze_missing_jsonl_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        analysis_cli.main([str(tmp_path / "absent.events.jsonl")])
    assert exc.value.code == 2
    assert "cannot read" in capsys.readouterr().err


def test_analyze_bad_slo_flag_exits_2(tmp_path, capsys):
    jsonl = tmp_path / "run.events.jsonl"
    write_jsonl(str(jsonl), scenario_events())
    with pytest.raises(SystemExit) as exc:
        analysis_cli.main([str(jsonl), "--slo-objective", "1.5"])
    assert exc.value.code == 2
    assert "objective" in capsys.readouterr().err


def test_analyze_saved_log_passes_accounting_gate(tmp_path, capsys):
    jsonl = tmp_path / "run.events.jsonl"
    write_jsonl(str(jsonl), scenario_events())
    out_json = tmp_path / "report.json"
    code = analysis_cli.main(
        [str(jsonl), "--check-accounting", "95", "--json", str(out_json)]
    )
    assert code == 0
    assert "accounting check passed" in capsys.readouterr().out
    payload = json.loads(out_json.read_text())
    assert payload["report"]["accounting"]["orphans"] == 0


def test_analyze_diff_between_saved_logs(tmp_path, capsys):
    base = tmp_path / "base.events.jsonl"
    cand = tmp_path / "cand.events.jsonl"
    write_jsonl(str(base), scenario_events(slow=False))
    write_jsonl(str(cand), scenario_events(slow=True))
    out_json = tmp_path / "diff.json"
    code = analysis_cli.main([str(cand), "--diff", str(base), "--json", str(out_json)])
    assert code == 0
    assert "regression vs" in capsys.readouterr().out
    payload = json.loads(out_json.read_text())
    top = payload["diff"]["top_regressions"][0]
    assert top["delta_s"] > 0


# -- both: one set of live-run flags --------------------------------------------
@pytest.mark.parametrize(
    "flags",
    [
        ["--node-rejoin", "1@5"],  # node chaos without --cluster
        ["--partition", "0-1@5:20"],
        ["--outage", "ssd:10:5"],  # malformed spec
        ["--crash-point", "during-lunch"],  # a plan FaultConfig rejects
        ["--fault-rate", "1.5"],
        # Well-formed specs whose values only FaultConfig checks.
        ["--cluster", "2", "--node-crash", "1@5:meltdown"],
        ["--cluster", "2", "--partition", "1-1@0:5"],
        ["--cluster", "2", "--node-crash=-1@5"],
    ],
)
@pytest.mark.parametrize("main", [trace_cli.main, analysis_cli.main], ids=["trace", "analyze"])
def test_bad_live_run_flags_exit_2(main, flags, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quickstart", "--out-dir", str(tmp_path), *flags])
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("factor", ["0", "-1"])
def test_analyze_non_positive_ssd_bandwidth_factor_exits_2(factor, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        analysis_cli.main(
            ["quickstart", "--out-dir", str(tmp_path), "--ssd-bandwidth-factor", factor]
        )
    assert exc.value.code == 2
    assert "error" in capsys.readouterr().err


def _live_args(*flags):
    return trace_cli.live_run_flags().parse_args(list(flags))


@pytest.mark.parametrize(
    "flags", [[], ["--fault-seed", "5"], ["--fault-rate", "0"]], ids=["none", "seed", "rate-0"]
)
def test_flags_that_inject_nothing_build_no_fault_plan(flags):
    assert trace_cli.faults_from_args(_live_args(*flags)) is None


def test_an_outage_flag_arms_the_fault_plan():
    assert trace_cli.faults_from_args(_live_args("--outage", "ssd:1:2")) == FaultConfig(
        enabled=True, tier_outages=(("ssd", 1.0, 2.0, 0.0),)
    )


def test_every_fault_flag_reaches_its_field():
    plan = trace_cli.faults_from_args(_live_args(*LIVE_ARGV))
    assert plan == FaultConfig(
        enabled=True,
        seed=11,
        transfer_fault_rate=0.25,
        tier_outages=(("ssd", 1.0, 2.0, 0.0), ("pfs", 3.0, 4.0, 0.5)),
        corruption_rate=0.125,
        crash_point="after-h2f",
        node_crashes=((1, 5.0, "fail-stop"), (1, 6.0, "power-loss")),
        node_rejoins=((1, 7.0),),
        partitions=((0, 1, 1.0, 2.0),),
    )


# -- both: the flags themselves, as the parsers declared them ------------------
class _Parsed(Exception):
    """Raised in place of running a CLI once it has parsed its arguments."""


def _parse(main, argv, monkeypatch):
    """The parser ``main`` builds, and what it parses ``argv`` to."""
    seen = {}
    parse_args = argparse.ArgumentParser.parse_args

    def capture(self, args=None, namespace=None):
        seen.update(parser=self, args=parse_args(self, args, namespace))
        raise _Parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", capture)
    with pytest.raises(_Parsed):
        main(argv)
    return seen["parser"], vars(seen["args"])


#: option string -> (metavar, default, choices, nargs, const) of every flag
#: ``repro trace`` and ``repro analyze`` share.
LIVE_FLAGS = {
    "--cluster": ("NODES", None, None, None, None),
    "--corruption-rate": (None, 0.0, None, None, None),
    "--crash-point": (None, None, None, None, None),
    "--fault-rate": (None, 0.0, None, None, None),
    "--fault-seed": (None, 93, None, None, None),
    "--node-crash": ("NODE@TIME[:MODE]", None, None, None, None),
    "--node-rejoin": ("NODE@TIME", None, None, None, None),
    "--order": (None, "reverse", ["sequential", "reverse", "irregular"], None, None),
    "--out-dir": (None, "traces", None, None, None),
    "--outage": ("TIER:START:END[:FACTOR]", None, None, None, None),
    "--partition": ("A-B@START:END", None, None, None, None),
    "--predict": (None, "hints", ["hints", "learned", "none"], None, None),
    "--processes": (None, None, None, None, None),
    "--reduce": (None, False, None, 0, True),
    "--resilient": (None, False, None, 0, True),
    "--sched": (None, False, None, 0, True),
    "--seed": (None, 7, None, None, None),
    "--similarity": (None, 0.9, None, None, None),
    "--snapshots": (None, None, None, None, None),
    "--stream": (None, False, None, 0, True),
    "--verbose": (None, False, None, 0, True),
    "-h/--help": (None, "==SUPPRESS==", None, 0, None),
}
TRACE_FLAGS = {
    **LIVE_FLAGS,
    "workload": (None, None, ["kvcache", "quickstart", "revolve", "uniform", "variable"], None, None),
}
ANALYZE_FLAGS = {
    **LIVE_FLAGS,
    "--check-accounting": ("PCT", None, None, "?", 95.0),
    "--diff": ("BASELINE", None, None, None, None),
    "--json": (None, None, None, None, None),
    "--slo-burn": (None, None, None, None, None),
    "--slo-durability": ("S", None, None, None, None),
    "--slo-objective": (None, None, None, None, None),
    "--slo-restore": ("S", None, None, None, None),
    "--slo-window": ("S", None, None, None, None),
    "--ssd-bandwidth-factor": (None, 1.0, None, None, None),
    "--top": (None, 5, None, None, None),
    "target": (None, None, None, None, None),
}
LIVE_ARGV = [
    "--out-dir", "d", "--snapshots", "3", "--processes", "2", "--order", "irregular",
    "--seed", "5", "--predict", "none", "--sched", "--reduce", "--stream",
    "--similarity", "0.5", "--fault-rate", "0.25", "--fault-seed", "11",
    "--outage", "ssd:1:2", "--outage", "pfs:3:4:0.5", "--corruption-rate", "0.125",
    "--cluster", "2", "--node-crash", "1@5", "--node-crash", "1@6:power-loss",
    "--node-rejoin", "1@7", "--partition", "0-1@1:2", "--crash-point", "after-h2f",
    "--resilient", "--verbose",
]
LIVE_PARSED = {
    "cluster": 2,
    "corruption_rate": 0.125,
    "crash_point": "after-h2f",
    "fault_rate": 0.25,
    "fault_seed": 11,
    "node_crash": [(1, 5.0, "fail-stop"), (1, 6.0, "power-loss")],
    "node_rejoin": [(1, 7.0)],
    "order": "irregular",
    "out_dir": "d",
    "outage": [("ssd", 1.0, 2.0, 0.0), ("pfs", 3.0, 4.0, 0.5)],
    "partition": [(0, 1, 1.0, 2.0)],
    "predict": "none",
    "processes": 2,
    "reduce": True,
    "resilient": True,
    "sched": True,
    "seed": 5,
    "similarity": 0.5,
    "snapshots": 3,
    "stream": True,
    "verbose": True,
}
ANALYZE_ARGV = [
    "--diff", "b", "--json", "j", "--top", "3", "--check-accounting",
    "--ssd-bandwidth-factor", "0.5", "--slo-durability", "1.5", "--slo-restore", "0.25",
    "--slo-objective", "0.9", "--slo-window", "10", "--slo-burn", "3",
]
ANALYZE_PARSED = {
    "check_accounting": 95.0,
    "diff": "b",
    "json": "j",
    "slo_burn": 3.0,
    "slo_durability": 1.5,
    "slo_objective": 0.9,
    "slo_restore": 0.25,
    "slo_window": 10.0,
    "ssd_bandwidth_factor": 0.5,
    "top": 3,
}

SNAPSHOTS = {
    "trace": (trace_cli.main, TRACE_FLAGS, ["uniform", *LIVE_ARGV],
              {**LIVE_PARSED, "workload": "uniform"}),
    "analyze": (analysis_cli.main, ANALYZE_FLAGS, ["uniform", *LIVE_ARGV, *ANALYZE_ARGV],
                {**LIVE_PARSED, **ANALYZE_PARSED, "target": "uniform"}),
}


@pytest.mark.parametrize("cli", sorted(SNAPSHOTS))
def test_flags_match_their_snapshot(cli, monkeypatch):
    main, flags, argv, _ = SNAPSHOTS[cli]
    parser, _ = _parse(main, argv, monkeypatch)
    declared = {
        "/".join(action.option_strings) or action.dest: (
            action.metavar,
            action.default,
            None if action.choices is None else list(action.choices),
            action.nargs,
            action.const,
        )
        for action in parser._actions
    }
    assert declared == flags


@pytest.mark.parametrize("cli", sorted(SNAPSHOTS))
def test_every_flag_parses_as_before(cli, monkeypatch):
    main, _, argv, parsed = SNAPSHOTS[cli]
    _, args = _parse(main, argv, monkeypatch)
    # repr, not ==: 10 and 10.0, or 1 and True, must not pass for each other.
    assert {k: repr(v) for k, v in args.items()} == {k: repr(v) for k, v in parsed.items()}


def test_analyze_streamed_live_run_passes_accounting_gate(tmp_path, capsys):
    code = analysis_cli.main(
        ["quickstart", "--stream", "--check-accounting", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert "accounting check passed" in capsys.readouterr().out
    events = read_jsonl(str(tmp_path / "quickstart.events.jsonl"))
    assert any(ev.name == "d2h-chunk" for ev in events), "--stream did not reach the run"
