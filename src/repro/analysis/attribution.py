"""Critical-path extraction and category attribution for one op DAG.

Each operation's categorized spans are swept left to right; at every
instant covered by more than one span (a backoff inside a transfer, an
SSD read-back inside a PFS flush, a sched queue wait inside a promotion)
the interval is charged to exactly one span.  Overlaps only arise from
*refinement* — an inner span detailing part of its container — so the
later-starting (innermost) span wins; ties fall back to the higher
:data:`~repro.telemetry.causal.CATEGORY_PRIORITY`, then to the shorter
(more specific) span.  The surviving
segments, merged where adjacent, *are* the operation's critical path:
a single non-overlapping timeline explaining where its wall time went.

Because the causal layer back-fills inter-stage gaps as ``queue`` spans,
the swept segments tile the op's window almost completely; the
*accounting-completeness invariant* (coverage ≥ 95 % of wall time per op)
is checked here and surfaced in every report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.dag import OpDag, OpNode
from repro.telemetry.causal import CATEGORIES, CATEGORY_PRIORITY

#: Coverage each op must reach for the accounting invariant to hold.
COVERAGE_THRESHOLD = 0.95

#: Tier bucket for spans that carry no ``tier`` arg (pure waits).
UNTIERED = "-"


@dataclass
class Segment:
    """One critical-path segment: a half-open interval owned by one span."""

    t0: float
    t1: float
    name: str
    category: str
    tier: str

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


@dataclass
class OpAttribution:
    """Where one operation's wall time went."""

    op: OpNode
    wall: float
    covered: float
    by_category: Dict[str, float]
    by_tier_category: Dict[Tuple[str, str], float]
    critical_path: List[Segment] = field(default_factory=list)

    @property
    def coverage(self) -> float:
        return self.covered / self.wall if self.wall > 0 else 1.0

    @property
    def complete(self) -> bool:
        return self.coverage >= COVERAGE_THRESHOLD


def attribute_op(op: OpNode) -> OpAttribution:
    """Sweep one op's categorized spans into an :class:`OpAttribution`."""
    spans = [s for s in op.spans() if s.dur > 0]
    by_category: Dict[str, float] = {}
    by_tier_category: Dict[Tuple[str, str], float] = {}
    path: List[Segment] = []
    if not spans:
        return OpAttribution(op, op.wall, 0.0, by_category, by_tier_category, path)

    bounds = sorted({t for s in spans for t in (s.ts, s.ts + s.dur)})
    covered = 0.0
    for t0, t1 in zip(bounds, bounds[1:]):
        if t1 <= t0:
            continue
        owner = None
        owner_key = None
        for s in spans:
            if s.ts <= t0 and s.ts + s.dur >= t1:
                key = (s.ts, CATEGORY_PRIORITY.get(s.category, 0), -s.dur)
                if owner is None or key > owner_key:
                    owner, owner_key = s, key
        if owner is None:
            continue
        dur = t1 - t0
        covered += dur
        tier = str(owner.args.get("tier", UNTIERED))
        by_category[owner.category] = by_category.get(owner.category, 0.0) + dur
        key = (tier, owner.category)
        by_tier_category[key] = by_tier_category.get(key, 0.0) + dur
        last = path[-1] if path else None
        if (
            last is not None
            and last.t1 == t0
            and last.name == owner.name
            and last.category == owner.category
            and last.tier == tier
        ):
            last.t1 = t1
        else:
            path.append(Segment(t0, t1, owner.name, owner.category, tier))
    return OpAttribution(op, op.wall, covered, by_category, by_tier_category, path)


@dataclass
class DagAttribution:
    """Aggregate attribution of every op in a DAG."""

    per_op: Dict[str, OpAttribution]
    orphans: int

    def total_by_category(self) -> Dict[str, float]:
        out = {c: 0.0 for c in CATEGORIES}
        for a in self.per_op.values():
            for cat, dur in a.by_category.items():
                out[cat] = out.get(cat, 0.0) + dur
        return {c: v for c, v in out.items() if v > 0}

    def total_by_tier_category(self) -> Dict[Tuple[str, str], float]:
        out: Dict[Tuple[str, str], float] = {}
        for a in self.per_op.values():
            for key, dur in a.by_tier_category.items():
                out[key] = out.get(key, 0.0) + dur
        return out

    def coverage_stats(self) -> dict:
        coverages = [a.coverage for a in self.per_op.values()]
        violations = [
            a.op.op_id for a in self.per_op.values() if not a.complete
        ]
        return {
            "ops": len(coverages),
            "mean": sum(coverages) / len(coverages) if coverages else 1.0,
            "min": min(coverages) if coverages else 1.0,
            "threshold": COVERAGE_THRESHOLD,
            "violations": sorted(violations),
            "orphans": self.orphans,
        }

    def complete(self) -> bool:
        """The accounting invariant: every op ≥ threshold, zero orphans."""
        stats = self.coverage_stats()
        return not stats["violations"] and stats["orphans"] == 0

    def slowest(self, kind: Optional[str] = None, n: int = 5) -> List[OpAttribution]:
        pool = [
            a
            for a in self.per_op.values()
            if kind is None or a.op.kind == kind
        ]
        return sorted(pool, key=lambda a: a.wall, reverse=True)[:n]


def attribute_dag(dag: OpDag) -> DagAttribution:
    return DagAttribution(
        per_op={op_id: attribute_op(op) for op_id, op in dag.ops.items()},
        orphans=len(dag.orphans),
    )
