"""CLI error handling: ``repro trace`` / ``repro analyze`` exit cleanly.

A typo'd workload name or a malformed ``--outage`` spec must die as an
argparse usage error (exit code 2, message on stderr) — never as a raw
``ConfigError``/``FileNotFoundError`` traceback.  The happy paths are
exercised too, mostly off a saved event log so no live run is needed.
Both CLIs take one set of live-run flags (``telemetry.cli.live_run_flags``).
"""

import json

import pytest

from repro.analysis import cli as analysis_cli
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


def test_analyze_streamed_live_run_passes_accounting_gate(tmp_path, capsys):
    code = analysis_cli.main(
        ["quickstart", "--stream", "--check-accounting", "--out-dir", str(tmp_path)]
    )
    assert code == 0
    assert "accounting check passed" in capsys.readouterr().out
    events = read_jsonl(str(tmp_path / "quickstart.events.jsonl"))
    assert any(ev.name == "d2h-chunk" for ev in events), "--stream did not reach the run"
