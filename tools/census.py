#!/usr/bin/env python3
"""The structural numbers every ROADMAP re-anchor recomputes by hand.

Run from the repository root: ``python3 tools/census.py``.  Prints the size of
``src/`` and its six largest files, and the grep counts the open items track;
exits non-zero when one of the hard ones is off — a wall-clock read outside
``clock.py`` (ROADMAP item 1), a ``to_real(``/``to_virtual(`` conversion
anywhere (a nominal deadline turned into wall seconds means nothing once the
clock skips), a raw ``threading.Condition(``/``threading.Event(`` outside it (a
wait the clock cannot see holds time at wall pace), more than five
thread-creation sites or one whose target is not wrapped in the clock's
``runner(`` (items 1, 2: every thread that exists must be known to the
runtime, and registered with the clock from its creation), a second caller
of ``promote_once`` (item 7: the demand restore and both prefetch workers run
it through one step), any mention of ``cost_cache_enabled`` (the eviction
costs are pushed by the events that change them; there is no unmemoised
second path to switch to), or more than six path-picking reads in ``core/``
(item 7: a feature's path is a row ``ScoreEngine._build_features`` lays out
once, not a test of its flag at each edge; what is left are the reducer's
data-path calls, the validator's reduction checks and ``chunks_for``'s plan).
A path-picking read is a feature's flag or handle tested, however it is
reached (``engine.resilient``, ``config.resilience.enabled``, a local
``scfg.enabled``, ``peer_reads`` …); the body of ``_build_features``, the
one place meant to read them, is not counted.

Three keep the configuration small and declared once (ROADMAP item 10):
more than 73 "config fields" (the fields of ``repro.config``'s dataclasses)
or 10 "raise ConfigError in config.py" (a constraint is declared on its field
and checked by ``validate``; only rules relating two fields are code), or
any "config fields never read outside config.py" (a knob no code reads is a
constant with a check; by name, the two-field rules of ``__post_init__`` not
counting as reads).  A new knob or hand-written check fails unless the same
diff raises the limit.  Two more keep switches derived from what they
switch: any "per-tier size reads in src/" (every tier holds a checkpoint in
one form, ``record.physical_size``) or "hand-set fault switches" (a fault
plan is on when it injects something, ``FaultConfig.injects``) fails.

Two keep time skippable in tests and workloads: a "raw threading.Thread( in
tests/ outside test_clock*.py" (one not started through ``clock.runner``;
only the clock's own tests start unknown threads on purpose) or a "raw
threading.Barrier( in src/" (``VirtualClock.barrier`` parks its parties)
fails.

And a store charges its route in one place: more than one ".transfer( call
sites in tiers/" means a second route loop (``ObjectStore._cross`` moves a
chunk across every leg of the route).  A fabric crossing books the link
alongside a drive's read, never is granted it as a slot: any ".transfer(
call sites in cluster/fabric.py and core/hop.py" fails.

And a wait is woken by the change it waits for: any "fixed-period polls in
src/" (a ``virtual_timeout=`` or ``.wait(`` given a numeric literal) fails.
A deadline is computed from what it waits for (a pinning ramp), and a
missed-wakeup guard is the named ``GUARD_S``, which is not counted.

And backpressure comes from the caches: any "admission gates in src/" (a
shed error, a queue or backlog bound, a stream-depth wait, a per-engine
weight) or "service admission gates in src/" (a refusal of a session or of
a request on an open one) fails.  A ``checkpoint()`` blocks in its GPU-cache
reservation, a prefetch in its budget, a link's arbiter admits every
transfer and the checkpoint service every request.

And a node crash always heals: any "switches a crash decides" (a repair or
failover switch, or a branch on whether the fabric has a repairer) fails.
The fabric always builds its repairer, and a session on a dead engine
always fails over.

And recovery reads the stores: any "manifest journal in src/" (a second
record of durable commits, its observer, the ``after_dropped`` hook it
alone heard, its trace category or its ``journal.jsonl`` file) fails.  Every
blob commits with the metadata ``recover_history()`` rebuilds its record
from.
"""

import ast
import dataclasses
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
FILES = sorted(SRC.rglob("*.py"))
CONFIG = SRC / "repro/config.py"
#: the test files expected to start only clock-registered threads.
TESTS = sorted(
    path for path in (SRC.parent / "tests").glob("*.py") if not path.name.startswith("test_clock")
)
#: every Python file of the program, its tests, benchmarks and examples.
EVERYWHERE = FILES + sorted(
    path for folder in ("tests", "benchmarks", "examples") for path in (SRC.parent / folder).rglob("*.py")
)
#: a read that asks which feature is on: a feature flag or handle tested.
PATH_PICKS = (
    r"\b(self|engine)\.(resilient|streaming)\b(?!\s*=[^=])|\bsched\.enabled\b|\bfaults\.injects\b"
    r"|\b(predict|reducer|slo|retry_policy|fabric) is (not )?None"
    r"|\b(resilience|scfg|cluster)\.enabled\b|\bpeer_reads\b"
)

#: a wait given a fixed period: a timeout that is a numeric literal.
POLL = r"virtual_timeout=\s*\.?\d|\.wait\(\s*\.?\d"

#: a read of a per-tier checkpoint size, or a fault switch set by hand.
PER_TIER_SIZES = r"stored_size\(|wire_size\(|site_level"
FAULT_SWITCHES = r"FaultConfig\(enabled|faults\.enabled"

#: an admission gate stacked on the caches' backpressure.
GATES = (
    r"AdmissionError|wait_depth_below|weight_of|max_flush_backlog|max_flush_queue"
    r"|max_speculative_queue"
)
SERVICE_GATES = r"BackpressureError|service_queue_depth|service_max_sessions"

#: a switch or a branch that picks whether a node crash heals.
CRASH_SWITCHES = r"config\.repair\b|config\.failover\b|repairer is (not )?None"

#: a second record of durable commits beside the stores' own metadata.
JOURNAL = r"ManifestJournal|JournalObserver|after_dropped|CAT_JOURNAL|journal\.jsonl"


def sites(pattern, files=FILES, skip=(), outside=None):
    """``path:line`` of every source line matching ``pattern``, comments and
    the body of the function named ``outside`` left out."""
    regex = re.compile(pattern)
    found = []
    for path in files:
        if path.name in skip:
            continue
        body = None  # the indent of the ``outside`` def being skipped
        for number, line in enumerate(path.read_text().splitlines(), 1):
            indent = len(line) - len(line.lstrip())
            if body is not None and line.strip() and indent <= body:
                body = None
            if outside and re.match(rf"\s*def {outside}\(", line):
                body = indent
            if body is None and regex.search(line) and not line.lstrip().startswith("#"):
                found.append(f"{path.relative_to(SRC.parent)}:{number}")
    return found


def unregistered_thread_sites(files=FILES):
    """``threading.Thread(`` sites whose target is not wrapped in the
    clock's ``runner(`` within the call's first three lines."""
    found = []
    for site in sites(r"threading\.Thread\(", files):
        path, number = site.rsplit(":", 1)
        lines = (SRC.parent / path).read_text().splitlines()
        if ".runner(" not in "\n".join(lines[int(number) - 1 : int(number) + 2]):
            found.append(site)
    return found


def config_fields():
    """``Class.field`` for every field of ``repro.config``'s dataclasses."""
    import repro.config

    return [
        f"{cls.__name__}.{spec.name}"
        for cls in vars(repro.config).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        for spec in dataclasses.fields(cls)
    ]


class _Reads(ast.NodeVisitor):
    """The attribute names a module loads, ``__post_init__`` bodies aside."""

    def __init__(self) -> None:
        self.names = set()

    def visit_FunctionDef(self, node) -> None:
        if node.name != "__post_init__":
            self.generic_visit(node)

    def visit_Attribute(self, node) -> None:
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.attr)
        self.generic_visit(node)


def unread_config_fields():
    """``Class.field`` for every config field whose name no code in ``src/``
    loads as an attribute (``config.py``'s two-field rules aside)."""
    reads = _Reads()
    for path in FILES:
        reads.visit(ast.parse(path.read_text()))
    return [name for name in config_fields() if name.split(".")[1] not in reads.names]


def main() -> int:
    lines = {path: len(path.read_text().splitlines()) for path in FILES}
    print(f"src/ {sum(lines.values())} lines in {len(FILES)} files; largest:")
    for path in sorted(lines, key=lines.get, reverse=True)[:6]:
        print(f"  {lines[path]:5d} {path.relative_to(SRC.parent)}")
    core = [path for path in FILES if path.parent.name == "core"]
    outside_tiers = [path for path in FILES if path.parent.name != "tiers"]
    crossings = [path for path in FILES if path.name in ("fabric.py", "hop.py")]
    tiers = [path for path in FILES if path.parent.name == "tiers"]
    counts = {
        "threading.Thread( sites": sites(r"threading\.Thread\("),
        "broad except sites": sites(r"except (Exception|BaseException)\b|except:"),
        "time.monotonic reads outside clock.py": sites(r"time\.monotonic\(", skip=("clock.py",)),
        "to_real(/to_virtual( sites": sites(r"to_(real|virtual)\(", EVERYWHERE),
        "raw threading.Condition(/Event( outside clock.py": sites(
            r"threading\.(Condition|Event)\(", skip=("clock.py",)
        ),
        "thread sites not registered with the clock": unregistered_thread_sites(),
        "path-picking reads in core/": sites(PATH_PICKS, core, outside="_build_features"),
        "copy_object( callers outside tiers/base.py": sites(r"copy_object\(", skip=("base.py",)),
        "open_put( callers outside tiers/": sites(r"(?<!def )open_put\(", outside_tiers),
        ".release(record) call sites": sites(r"\.release\(record\)"),
        "chunk loops in core/": sites(r"enumerate\((chunk_sizes_for\(|sizes\))", core),
        ".transfer( call sites in cluster/fabric.py and core/hop.py": sites(
            r"\.transfer\(", crossings
        ),
        ".transfer( call sites in tiers/": sites(r"\.transfer\(", tiers),
        "promote_once( call sites": sites(r"(?<!def )promote_once\("),
        "prefetch_inflight = False writes": sites(r"(?<!self)\.prefetch_inflight = False"),
        "backoff_for( callers": sites(r"(?<!def )backoff_for\("),
        "cost_cache_enabled mentions": sites(r"cost_cache_enabled"),
        "instance_state_ts( call sites": sites(r"(?<!def )instance_state_ts\("),
        "config fields": config_fields(),
        "raise ConfigError in config.py": sites(r"raise ConfigError\(", [CONFIG]),
        "config fields never read outside config.py": unread_config_fields(),
        "raw threading.Thread( in tests/ outside test_clock*.py": unregistered_thread_sites(TESTS),
        "raw threading.Barrier( in src/": sites(r"threading\.Barrier\("),
        "fixed-period polls in src/": sites(POLL),
        "admission gates in src/": sites(GATES),
        "service admission gates in src/": sites(SERVICE_GATES),
        "switches a crash decides": sites(CRASH_SWITCHES),
        "manifest journal in src/": sites(JOURNAL),
        "per-tier size reads in src/": sites(PER_TIER_SIZES),
        "hand-set fault switches": sites(FAULT_SWITCHES, EVERYWHERE),
    }
    for what, where in counts.items():
        print(f"{len(where):4d} {what}")
    total = len(counts["threading.Thread( sites"])
    registered = total - len(counts["thread sites not registered with the clock"])
    print(f"{registered}/{total} thread-creation sites registered with the clock")
    hard = {
        "time.monotonic reads outside clock.py": 0,
        "to_real(/to_virtual( sites": 0,
        "raw threading.Condition(/Event( outside clock.py": 0,
        "thread sites not registered with the clock": 0,
        "threading.Thread( sites": 5,
        "promote_once( call sites": 1,
        "cost_cache_enabled mentions": 0,
        "path-picking reads in core/": 6,
        "config fields": 73,
        "raise ConfigError in config.py": 10,
        "config fields never read outside config.py": 0,
        "raw threading.Thread( in tests/ outside test_clock*.py": 0,
        "raw threading.Barrier( in src/": 0,
        ".transfer( call sites in tiers/": 1,
        ".transfer( call sites in cluster/fabric.py and core/hop.py": 0,
        "fixed-period polls in src/": 0,
        "admission gates in src/": 0,
        "service admission gates in src/": 0,
        "switches a crash decides": 0,
        "manifest journal in src/": 0,
        "per-tier size reads in src/": 0,
        "hand-set fault switches": 0,
    }
    failed = [what for what, limit in hard.items() if len(counts[what]) > limit]
    for what in failed:
        print(f"FAIL: {what} > {hard[what]}: {', '.join(counts[what])}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
