"""The durable chunk-recipe sidecar of reduced checkpoints.

The blobs a reducer-enabled engine flushes are physical-size placeholders;
the real bytes live in the chunk recipe.  Saving the recipe (chunk digests,
kinds and payload bytes) at encode time makes reduced checkpoints
recoverable after a restart: ``recover_history()`` rebuilds a
:class:`~repro.reduce.pipeline.ReducedImage` from the recipe and re-attaches
it at the durable tiers, and the restore path then reconstructs and
CRC-verifies the full logical payload as usual.

In-memory by default and file-backed when the cluster has an
``ssd_directory`` (one JSON recipe file per checkpoint), so recipes survive
full process re-incarnation exactly like the file-backed SSD tier.  Payload
bytes are hex-encoded — at bench data scale a chunk payload is a few dozen
bytes, so the sidecar stays tiny.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.log import get_logger

log = get_logger("faults.recipes")

Key = Tuple[int, int]  # (process_id, ckpt_id)


class RecipeStore:
    """Durable sidecar holding chunk recipes for reduced checkpoints.

    Chunk payloads are content-addressed by digest, so checkpoints sharing
    chunks (dedup/delta) store each payload once.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self._dir = directory
        self._lock = threading.Lock()
        self._recipes: Dict[Key, dict] = {}
        self._payloads: Dict[str, np.ndarray] = {}
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            self._load_dir(directory)

    # -- persistence ------------------------------------------------------
    def _recipe_path(self, key: Key) -> str:
        return os.path.join(self._dir, f"p{key[0]}-v{key[1]}.recipe.json")

    def _load_dir(self, directory: str) -> None:
        for name in sorted(os.listdir(directory)):
            if not name.endswith(".recipe.json"):
                continue
            path = os.path.join(directory, name)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (ValueError, OSError):
                log.warning("recipes: skipping corrupt file %s", path)
                continue
            key = (int(doc["pid"]), int(doc["ckpt"]))
            for digest, payload_hex in doc.pop("payloads", {}).items():
                if digest not in self._payloads:
                    blob = np.frombuffer(
                        bytes.fromhex(payload_hex), dtype=np.uint8
                    ).copy()
                    blob.flags.writeable = False
                    self._payloads[digest] = blob
            self._recipes[key] = doc

    def _persist(self, key: Key, doc: dict, payloads: Dict[str, np.ndarray]) -> None:
        if self._dir is None:
            return
        out = dict(doc)
        out["payloads"] = {
            digest: blob.tobytes().hex() for digest, blob in payloads.items()
        }
        path = self._recipe_path(key)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(out, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)  # atomic: a crash leaves old or new, not torn

    # -- API ---------------------------------------------------------------
    def save(self, process_id: int, image) -> None:
        """Persist the recipe for one ReducedImage (metadata, uncharged)."""
        key = (process_id, image.ckpt_id)
        doc = {
            "pid": process_id,
            "ckpt": image.ckpt_id,
            "logical_size": image.logical_size,
            "physical_size": image.physical_size,
            "depth": image.depth,
            "base_ckpt": image.base_ckpt,
            "chunks": [
                {
                    "digest": chunk.digest.hex(),
                    "nominal_size": chunk.nominal_size,
                    "kind": chunk.kind,
                    "stored_nominal": chunk.stored_nominal,
                }
                for chunk in image.chunks
            ],
        }
        with self._lock:
            for chunk in image.chunks:
                self._payloads.setdefault(chunk.digest.hex(), chunk.payload)
            # File-backed recipes are self-contained: each file carries every
            # payload its chunks reference, so a single recipe file survives
            # the deletion of the checkpoints it shares chunks with.
            payloads = {
                chunk.digest.hex(): self._payloads[chunk.digest.hex()]
                for chunk in image.chunks
            }
            self._recipes[key] = doc
            self._persist(key, doc, payloads)

    def discard(self, process_id: int, ckpt_id: int) -> None:
        key = (process_id, ckpt_id)
        with self._lock:
            self._recipes.pop(key, None)
            if self._dir is not None:
                try:
                    os.remove(self._recipe_path(key))
                except OSError:
                    pass

    def contains(self, process_id: int, ckpt_id: int) -> bool:
        with self._lock:
            return (process_id, ckpt_id) in self._recipes

    def load(self, process_id: int, ckpt_id: int):
        """Rebuild a ReducedImage from the stored recipe, or None."""
        from repro.reduce.pipeline import ImageChunk, ReducedImage

        with self._lock:
            doc = self._recipes.get((process_id, ckpt_id))
            if doc is None:
                return None
            chunks = []
            for spec in doc["chunks"]:
                payload = self._payloads.get(spec["digest"])
                if payload is None:
                    log.warning(
                        "recipes: missing payload %s for p%d ckpt %d",
                        spec["digest"][:12], process_id, ckpt_id,
                    )
                    return None
                chunks.append(
                    ImageChunk(
                        digest=bytes.fromhex(spec["digest"]),
                        nominal_size=int(spec["nominal_size"]),
                        payload=payload,
                        kind=spec["kind"],
                        stored_nominal=int(spec["stored_nominal"]),
                    )
                )
            return ReducedImage(
                ckpt_id=ckpt_id,
                chunks=tuple(chunks),
                logical_size=int(doc["logical_size"]),
                physical_size=int(doc["physical_size"]),
                depth=int(doc["depth"]),
                base_ckpt=doc["base_ckpt"],
            )
