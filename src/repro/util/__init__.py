"""Shared small utilities: unit parsing, statistics, RNG."""

from repro.util.units import (
    KiB,
    MiB,
    GiB,
    TiB,
    parse_size,
    format_size,
    parse_bandwidth,
    format_bandwidth,
)
from repro.util.stats import Summary, summarize, percentile
from repro.util.rng import derive_seed, make_rng

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "TiB",
    "parse_size",
    "format_size",
    "parse_bandwidth",
    "format_bandwidth",
    "Summary",
    "summarize",
    "percentile",
    "derive_seed",
    "make_rng",
]
