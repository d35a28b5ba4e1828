#!/usr/bin/env python3
"""The structural numbers every ROADMAP re-anchor recomputes by hand.

Run from the repository root: ``python3 tools/census.py``.  Prints the size of
``src/`` and its six largest files, and the grep counts the open items track;
exits non-zero when one of the seven hard ones is off — a wall-clock read outside
``clock.py`` (ROADMAP item 1), more than five thread-creation sites (items 1,
2: every thread that exists must be known to the runtime), a second caller
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

The last two keep the configuration declared once (ROADMAP item 10): more
than 137 "config fields" (the fields of ``repro.config``'s dataclasses) or 12
"raise ConfigError in config.py" (a constraint is declared on its field and
checked by ``validate``; only rules relating two fields are code).  A new
knob or hand-written check fails unless the same diff raises the limit.

And a store charges its route in one place: more than one ".transfer( call
sites in tiers/" means a second route loop (``ObjectStore._cross`` moves a
chunk across every leg of the route).
"""

import dataclasses
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
FILES = sorted(SRC.rglob("*.py"))
#: a read that asks which feature is on: a feature flag or handle tested.
PATH_PICKS = (
    r"\b(self|engine)\.(resilient|streaming)\b(?!\s*=[^=])|\bsched\.enabled\b|\bfaults\.enabled\b"
    r"|\b(predict|reducer|slo|retry_policy|fabric|peer_stream) is (not )?None"
    r"|config\.resilience\.(reroute|reverify|backfill|journal)"
    r"|\b(resilience|scfg|cluster)\.enabled\b|\bresilience\.(reroute|reverify|backfill|journal)\b"
    r"|\bpeer_reads\b"
)


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


def config_fields():
    """``Class.field`` for every field of ``repro.config``'s dataclasses."""
    import repro.config

    return [
        f"{cls.__name__}.{spec.name}"
        for cls in vars(repro.config).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls)
        for spec in dataclasses.fields(cls)
    ]


def main() -> int:
    lines = {path: len(path.read_text().splitlines()) for path in FILES}
    print(f"src/ {sum(lines.values())} lines in {len(FILES)} files; largest:")
    for path in sorted(lines, key=lines.get, reverse=True)[:6]:
        print(f"  {lines[path]:5d} {path.relative_to(SRC.parent)}")
    core = [path for path in FILES if path.parent.name == "core"]
    outside_tiers = [path for path in FILES if path.parent.name != "tiers"]
    fabric = [path for path in FILES if path.name == "fabric.py"]
    tiers = [path for path in FILES if path.parent.name == "tiers"]
    counts = {
        "threading.Thread( sites": sites(r"threading\.Thread\("),
        "broad except sites": sites(r"except (Exception|BaseException)\b|except:"),
        "time.monotonic reads outside clock.py": sites(r"time\.monotonic\(", skip=("clock.py",)),
        "path-picking reads in core/": sites(PATH_PICKS, core, outside="_build_features"),
        "copy_object( callers outside tiers/base.py": sites(r"copy_object\(", skip=("base.py",)),
        "open_put( callers outside tiers/": sites(r"(?<!def )open_put\(", outside_tiers),
        ".release(record) call sites": sites(r"\.release\(record\)"),
        "chunk loops in core/": sites(r"enumerate\((chunk_sizes_for\(|sizes\))", core),
        ".transfer( call sites in cluster/fabric.py": sites(r"\.transfer\(", fabric),
        ".transfer( call sites in tiers/": sites(r"\.transfer\(", tiers),
        "promote_once( call sites": sites(r"(?<!def )promote_once\("),
        "prefetch_inflight = False writes": sites(r"(?<!self)\.prefetch_inflight = False"),
        "backoff_for( callers": sites(r"(?<!def )backoff_for\("),
        "cost_cache_enabled mentions": sites(r"cost_cache_enabled"),
        "instance_state_ts( call sites": sites(r"(?<!def )instance_state_ts\("),
        "config fields": config_fields(),
        "raise ConfigError in config.py": sites(r"raise ConfigError\(", [SRC / "repro/config.py"]),
    }
    for what, where in counts.items():
        print(f"{len(where):4d} {what}")
    hard = {
        "time.monotonic reads outside clock.py": 0,
        "threading.Thread( sites": 5,
        "promote_once( call sites": 1,
        "cost_cache_enabled mentions": 0,
        "path-picking reads in core/": 6,
        "config fields": 137,
        "raise ConfigError in config.py": 12,
        ".transfer( call sites in tiers/": 1,
    }
    failed = [what for what, limit in hard.items() if len(counts[what]) > limit]
    for what in failed:
        print(f"FAIL: {what} > {hard[what]}: {', '.join(counts[what])}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
