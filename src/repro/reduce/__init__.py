"""Data reduction of checkpoints before they enter the tier hierarchy.

Adjacent RTM wavefield snapshots are highly similar, yet the baseline
runtime moves every checkpoint through GPU→host→SSD→PFS at full logical
size.  This package adds the reduction layer the VELOC lineage identifies
as the next multiplier on effective flush bandwidth.  A checkpoint is
encoded once, on the device, and every tier holds that one physical form:

* :mod:`~repro.reduce.pipeline` — the :class:`Reducer`: encode (fixed 8 MiB
  chunks → dedup → delta → modeled LZ-class compression, bounded delta
  chains with automatic rebasing) and reconstruct (chunk reassembly +
  delta apply at a restore's copy-out);
* :mod:`~repro.reduce.chunkstore` — per-tier content-addressed chunk
  stores with refcounted sharing across checkpoint versions, plus the
  engine-wide liveness registry that dedup decisions consult;
* :mod:`~repro.reduce.report` — the ``--reduce`` CLI report.

:class:`~repro.config.ReduceConfig` ``enabled=False`` (the default) keeps
the full-size data path bit-for-bit.
"""

from repro.config import ReduceConfig
from repro.reduce.chunkstore import ChunkAccountingError, ChunkRegistry, ChunkStore
from repro.reduce.pipeline import ImageChunk, ReducedImage, Reducer
from repro.reduce.report import reduce_events, render_reduce_report

__all__ = [
    "ReduceConfig",
    "Reducer",
    "ReducedImage",
    "ImageChunk",
    "ChunkStore",
    "ChunkRegistry",
    "ChunkAccountingError",
    "reduce_events",
    "render_reduce_report",
]
