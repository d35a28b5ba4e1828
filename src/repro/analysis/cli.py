"""``python -m repro analyze`` — bottleneck reports from causal traces.

Analyzes either a *live run* (give a workload name: the workload runs with
telemetry + causal analysis on, exactly like ``repro trace``) or a *saved
log* (give a path to an ``.events.jsonl`` written by ``repro trace`` /
``repro analyze``).  Renders the per-category / per-tier attribution
report (text to stdout, JSON via ``--json``), and with ``--diff BASELINE``
compares two runs and attributes the regression to tier×category cells,
printing both runs' provenance stamps (config hash, seed, git sha) and
warning when their config hashes differ.

``--check-accounting`` turns the accounting-completeness invariant into an
exit code (categories ≥ threshold of each op's wall time, zero orphan
spans) — that is what CI gates on.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import analyze_events, diff_reports, render_diff, render_report
from repro.config import HardwareSpec, SloConfig
from repro.errors import ConfigError
from repro.log import enable_console_logging
from repro.telemetry.bus import TraceEvent
from repro.telemetry.cli import add_knob_flags, from_flags, live_run, live_run_flags, run_trace
from repro.telemetry.exporters import read_jsonl, read_meta


def _scaled_ssd(hardware: HardwareSpec, factor: float) -> HardwareSpec:
    """The bench hardware with SSD bandwidth scaled by ``factor``."""
    return dataclasses.replace(
        hardware,
        ssd_write_bandwidth=hardware.ssd_write_bandwidth * factor,
        ssd_read_bandwidth=hardware.ssd_read_bandwidth * factor,
    )


def _load_events(
    target: str, args, slo: SloConfig
) -> Tuple[List[TraceEvent], Optional[dict]]:
    """Events and provenance stamp for ``target``: a JSONL path, or a
    workload run live."""
    if target.endswith(".jsonl") or os.path.isfile(target):
        return read_jsonl(target), read_meta(target)
    hardware = None
    if args.ssd_bandwidth_factor != 1.0:
        hardware = _scaled_ssd(HardwareSpec(), args.ssd_bandwidth_factor)
    out = run_trace(target, **live_run(args), analysis=True, slo=slo, hardware=hardware)
    return read_jsonl(out["jsonl"]), out["meta"]


def _stamp(meta: Optional[dict]) -> str:
    if meta is None:
        return "no provenance stamp"
    return (
        f"config {meta['config_hash']} seed {meta['seed']} "
        f"sha {meta.get('git_sha', 'unknown')[:12]}"
    )


def _render_provenance(
    target: str, meta: Optional[dict], baseline: str, base_meta: Optional[dict]
) -> str:
    """Both runs' stamps, and a warning when their config hashes differ (a
    diff across configurations charges a config change to the code)."""
    lines = [
        f"provenance: {target}: {_stamp(meta)}",
        f"            {baseline}: {_stamp(base_meta)}",
    ]
    hashes = {m["config_hash"] for m in (meta, base_meta) if m is not None}
    if len(hashes) > 1:
        lines.append(
            f"warning: config hashes differ ({base_meta['config_hash']} -> "
            f"{meta['config_hash']}): the runs compared ran different configurations"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="reconstruct per-op span DAGs and attribute wall time "
        "to categories (queue/transfer/retry/reroute/reduce/reserve)",
        parents=[live_run_flags()],
    )
    parser.add_argument(
        "target",
        help="workload name (quickstart/uniform/variable/kvcache/revolve; "
        "runs live with causal analysis on) or a saved .events.jsonl path",
    )
    parser.add_argument(
        "--diff",
        metavar="BASELINE",
        default=None,
        help="baseline to compare against (workload name or .events.jsonl); "
        "the report attributes the regression per tier x category",
    )
    parser.add_argument("--json", default=None, help="write the report (and diff) as JSON here")
    parser.add_argument("--top", type=int, default=5, help="slowest ops to detail (default 5)")
    parser.add_argument(
        "--check-accounting",
        nargs="?",
        const=95.0,
        type=float,
        default=None,
        metavar="PCT",
        help="exit 1 unless every op's attributed categories cover >= PCT%% "
        "(default 95) of its wall time and no orphan spans exist",
    )
    parser.add_argument(
        "--ssd-bandwidth-factor",
        type=float,
        default=1.0,
        help="scale SSD read/write bandwidth in live runs (e.g. 0.5 to "
        "inject a half-speed SSD for --diff experiments)",
    )
    add_knob_flags(parser, SloConfig, defaults=False)
    args = parser.parse_args(argv)
    if args.verbose:
        enable_console_logging(logging.DEBUG)

    try:
        slo = from_flags(SloConfig, args)
        events, meta = _load_events(args.target, args, slo)
        report = analyze_events(events, slo=slo, top=args.top)
        diff = None
        if args.diff is not None:
            base_events, base_meta = _load_events(args.diff, args, slo)
            base_report = analyze_events(base_events, slo=slo, top=args.top)
            diff = diff_reports(base_report, report)
    except ConfigError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except FileNotFoundError as exc:
        parser.exit(2, f"{parser.prog}: error: cannot read {exc.filename!r}\n")

    print(render_report(report, title=f"causal analysis: {args.target}"))
    if diff is not None:
        print()
        print(_render_provenance(args.target, meta, args.diff, base_meta))
        print(render_diff(diff, title=f"regression vs {args.diff}"))
    if args.json is not None:
        payload = {"report": report, "meta": meta}
        if diff is not None:
            payload["diff"] = diff
            payload["baseline_meta"] = base_meta
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"\nwrote {args.json}")

    if args.check_accounting is not None:
        threshold = args.check_accounting / 100.0
        acct = report["accounting"]
        bad = [
            op_id
            for op_id, cov in (
                (a["op"], a["coverage"]) for a in report["slowest"]
            )
            if cov < threshold
        ]
        # `slowest` only samples; gate on the full stats.
        failed = acct["min"] < threshold or acct["orphans"] > 0
        if acct["ops"] == 0:
            print("accounting check FAILED: no causally-tagged ops in the trace")
            return 1
        if failed:
            print(
                f"accounting check FAILED: min coverage {acct['min']:.1%} "
                f"(threshold {threshold:.0%}), {acct['orphans']} orphan spans, "
                f"violating ops: {acct['violations'] or bad}"
            )
            return 1
        print(
            f"accounting check passed: {acct['ops']} ops, min coverage "
            f"{acct['min']:.1%} >= {threshold:.0%}, 0 orphan spans"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
