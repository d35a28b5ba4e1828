#!/usr/bin/env python3
"""The repo's one standing performance ledger.

Runs every workload in fresh subprocesses pinned to one CPU and prints
every end-to-end metric (median of the repeats, with min/max and sample
counts) and, from one extra traced run per workload, every per-layer
metric.  Names, units, directions and regression bounds live in the
``BENCHMARK.json`` at the repo root; ``README.md`` beside this file says
what each number means.  Exits non-zero on any failed or corrupted op.

    python benchmarks/ledger/run.py [--workload W ...] [--seed 7]
        [--repeats N] [--no-trace] [--json PATH] [--quick] [--selfcheck]

With ``--seconds S --trace 0|1`` (one ``--workload``) it instead measures
that workload for about S seconds and prints one JSON object as its last
line: the form a regression driver consumes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from clocks import CLOCKS

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
CHILD = os.path.join(HERE, "child.py")
#: a run that hangs (a flush that never drains) is killed and counts as failed
CHILD_TIMEOUT_S = 150

#: untraced repeats per workload in ledger form: 3 agree within 3 % on the
#: sleep-dominated nominal metrics; host-bound ``host_hot`` needs 7.
REPEATS = {"host_hot": 7}
DEFAULT_REPEATS = 3
#: driver form: at least this many set-ups behind every ``setup_s``
MIN_SETUPS = 5


class RunFailed(Exception):
    """A child crashed, hung or printed no record."""


def load_spec() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, *flags: str) -> dict:
    """One run in a fresh interpreter; returns the record it printed."""
    command = [
        sys.executable,
        CHILD,
        "--workload",
        workload,
        "--seed",
        str(seed),
        *flags,
        "--spawned-at",
        repr(time.monotonic()),
    ]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S, cwd=REPO_ROOT
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{workload}: run exceeded {CHILD_TIMEOUT_S}s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"{workload}: run exited with code {done.returncode}")
    return json.loads(lines[-1])


def summarise(records: List[dict], section: str) -> Dict[str, dict]:
    """``metric -> {median, min, max, n}`` over the runs that measured it."""
    out: Dict[str, dict] = {}
    for name in records[0][section]:
        values = [r[section][name] for r in records if r[section][name] is not None]
        out[name] = (
            {
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "n": len(values),
            }
            if values
            else {"median": None, "min": None, "max": None, "n": 0}
        )
    return out


def provenance(seed: int, records: List[dict]) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        ).stdout.strip()
    except OSError:
        sha = ""
    first = records[0]
    return {
        "seed": seed,
        "git_sha": sha or "unknown",
        "config_hash": first["config_hash"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned": all(r["pinned"] for r in records),
        "cpu": first["cpu"],
        "host_speed": statistics.median(r["host_speed"] for r in records),
    }


def measure(workload: str, seed: int, repeats: int, quick: bool, trace: bool) -> dict:
    """Ledger entry of one workload: untraced repeats, then one traced run."""
    flags = ["--quick"] if quick else []
    records = [run_child(workload, seed, *flags) for _ in range(repeats)]
    entry = {
        "workload": workload,
        "provenance": provenance(seed, records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "end_to_end": summarise(records, "end_to_end"),
    }
    if trace:
        traced = run_child(workload, seed, "--trace", *flags)
        entry["attempted"] += traced["attempted"]
        entry["failed"] += traced["failed"]
        entry["per_layer"] = with_overhead(traced, records)
    entry["failed_ops_ratio"] = entry["failed"] / entry["attempted"]
    return entry


def with_overhead(traced: dict, untraced: List[dict]) -> Dict[str, float]:
    """The traced run's per-layer metrics, tracing overhead filled in."""
    layers = dict(traced["per_layer"])
    layers["harness.trace.overhead_ratio"] = (
        traced["wall_s"] / statistics.median(r["wall_s"] for r in untraced) - 1.0
    )
    return layers


# -- printing -----------------------------------------------------------------
def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0 or 0.01 <= abs(value) < 1e6:
        return f"{value:.4f}".rstrip("0").rstrip(".")
    return f"{value:.4g}"


def print_entry(entry: dict, spec: dict) -> None:
    prov = entry["provenance"]
    print(
        f"\n== {entry['workload']}  seed={prov['seed']} sha={prov['git_sha'][:10]} "
        f"config={prov['config_hash']} python={prov['python']} nproc={prov['nproc']} "
        f"pinned={prov['pinned']} cpu={prov['cpu']} host_speed={prov['host_speed']:.2f}"
    )
    print(
        f"{'end-to-end metric':26s} {'clock':8s} {'unit':6s} {'median':>12s} "
        f"{'min':>12s} {'max':>12s} {'n':>6s} {'bound':>6s}"
    )
    for metric in spec["end_to_end"]:
        name = metric["name"]
        stats = entry["end_to_end"][name]
        if not stats["n"]:
            continue  # not one of this workload's headline metrics: not measured
        print(
            f"{name:26s} {CLOCKS[name]:8s} {metric['unit']:6s} {_fmt(stats['median']):>12s} "
            f"{_fmt(stats['min']):>12s} {_fmt(stats['max']):>12s} {stats['n']:6d} "
            f"{100 * metric['bound']:5.0f}%"
        )
    print(
        f"{'failed_ops_ratio':26s} {'-':8s} {'ratio':6s} {_fmt(entry['failed_ops_ratio']):>12s} "
        f"{'':>12s} {'':>12s} {entry['attempted']:6d}    any"
    )
    if "per_layer" in entry:
        print(f"{'per-layer metric (one traced run)':44s} {'unit':6s} {'value':>14s}")
        for metric in spec["per_layer"]:
            print(
                f" {metric['name']:43s} {metric['unit']:6s} "
                f"{_fmt(entry['per_layer'][metric['name']]):>14s}"
            )


# -- modes --------------------------------------------------------------------
def ledger(args, spec: dict) -> int:
    entries = []
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        repeats = args.repeats or (1 if args.quick else REPEATS.get(name, DEFAULT_REPEATS))
        entry = measure(name, args.seed, repeats, args.quick, trace=not args.no_trace)
        print_entry(entry, spec)
        entries.append(entry)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"quick": args.quick, "workloads": entries}, fh, indent=2)
            fh.write("\n")
    failed = sum(e["failed"] for e in entries)
    if failed:
        print(f"\nFAILED: {failed} operations failed or restored a corrupt payload")
    return 1 if failed else 0


def selfcheck(args, spec: dict) -> int:
    """Run the untraced suite twice; the two sets must agree within bounds."""
    names = args.workload or [w["name"] for w in spec["workloads"]]
    sets = []
    for _ in range(2):
        sets.append(
            {
                name: measure(
                    name,
                    args.seed,
                    args.repeats or REPEATS.get(name, DEFAULT_REPEATS),
                    quick=False,
                    trace=False,
                )
                for name in names
            }
        )
    disagreements = failed = 0
    print(
        f"{'workload':16s} {'metric':26s} {'median 1':>12s} {'median 2':>12s} "
        f"{'diff':>8s} {'bound':>6s}"
    )
    for name in names:
        first, second = sets[0][name], sets[1][name]
        failed += first["failed"] + second["failed"]
        for metric in spec["end_to_end"]:
            a = first["end_to_end"][metric["name"]]["median"]
            b = second["end_to_end"][metric["name"]]["median"]
            if a is None or b is None:
                continue
            diff = abs(b - a) / abs(a)
            verdict = "" if diff <= metric["bound"] else "  DISAGREE"
            disagreements += bool(verdict)
            print(
                f"{name:16s} {metric['name']:26s} {_fmt(a):>12s} {_fmt(b):>12s} "
                f"{100 * diff:7.2f}% {100 * metric['bound']:5.0f}%{verdict}"
            )
    print(f"\n{disagreements} disagreements beyond bound, {failed} failed operations")
    return 1 if disagreements or failed else 0


def driver(args, spec: dict) -> int:
    """Measure one workload for about ``--seconds``; print the result line."""
    (workload,) = args.workload
    started = time.monotonic()
    untraced: List[dict] = []
    traced: List[dict] = []
    while True:
        untraced.append(run_child(workload, args.seed, *([] if args.trace else ["--all-metrics"])))
        if args.trace:
            traced.append(run_child(workload, args.seed, "--trace"))
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(untraced) > args.seconds:
            break
    if args.trace:
        section = "per_layer"
        layers = [with_overhead(run, untraced) for run in traced]
        values = {
            m["name"]: statistics.median(layer[m["name"]] for layer in layers)
            for m in spec[section]
        }
    else:
        section = "end_to_end"
        values = {name: s["median"] for name, s in summarise(untraced, section).items()}
        # set-up is short and noisy: set up several times, report the median
        setups = untraced + [
            run_child(workload, args.seed, "--setup-only")
            for _ in range(MIN_SETUPS - len(untraced))
        ]
        values["setup_s"] = statistics.median(r[section]["setup_s"] for r in setups)
    missing = [m["name"] for m in spec[section] if values.get(m["name"]) is None]
    if missing:
        raise RunFailed(f"{workload}: no value for {missing}")
    failed = sum(r["failed"] for r in untraced + traced)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in untraced + traced),
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
        },
    }
    print(json.dumps(result))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=None, help="untraced runs per workload")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--json", default=None, help="write the ledger record here")
    parser.add_argument(
        "--quick", action="store_true", help="shrunk workloads, 1 repeat, bounds not evaluated"
    )
    parser.add_argument(
        "--selfcheck", action="store_true", help="run the untraced suite twice and compare"
    )
    parser.add_argument("--seconds", type=float, default=None, help="driver form: time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="driver form")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print(f"ledger: no src/repro under {REPO_ROOT}: nothing to measure", file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    for name in args.workload or []:
        if name not in known:
            parser.error(f"unknown workload {name!r}; known: {known}")
    try:
        if args.seconds is not None:
            if len(args.workload or []) != 1:
                parser.error("--seconds measures exactly one --workload")
            return driver(args, spec)
        if args.selfcheck:
            return selfcheck(args, spec)
        return ledger(args, spec)
    except RunFailed as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
