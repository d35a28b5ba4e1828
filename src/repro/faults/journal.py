"""Crash-consistent durable metadata: manifest journal + chunk recipes.

Two small write-ahead stores back ``recover_history()`` after a crash:

* :class:`ManifestJournal` — an append-only log of durable commits.  Every
  time a flush leg lands a checkpoint on a durable tier the engine appends
  a ``commit`` entry (process, checkpoint, store, level, checksum, sizes);
  deleting a corrupt blob appends a ``retract``.  The journal is written
  *after* the blob is durable, so a crash between blob and journal entry
  leaves at worst a blob the store scan still finds — never a journal entry
  pointing at missing data that replay would trust.  Replay is last-wins
  per (process, checkpoint, store).

* :class:`RecipeStore` — the durable sidecar for reduced checkpoints.  The
  blobs a reducer-enabled engine flushes are physical-size placeholders;
  the real bytes live in the chunk recipe.  Saving the recipe (chunk
  digests, kinds and payload bytes) at encode time makes reduced
  checkpoints recoverable after a restart: ``recover_history()`` rebuilds a
  :class:`~repro.reduce.pipeline.ReducedImage` from the recipe and
  re-attaches it at the durable tiers, and the restore path then
  reconstructs and CRC-verifies the full logical payload as usual.

Both are in-memory by default and file-backed when the cluster has an
``ssd_directory`` (JSONL journal, one JSON recipe file per checkpoint), so
they survive full process re-incarnation exactly like the file-backed SSD
tier.  Payload bytes in recipes are hex-encoded — at bench data scale a
chunk payload is a few dozen bytes, so the sidecar stays tiny.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.log import get_logger
from repro.telemetry.causal import CAT_JOURNAL

log = get_logger("faults.journal")

Key = Tuple[int, int]  # (process_id, ckpt_id)


class ManifestJournal:
    """Append-only log of durable checkpoint commits, replayed on recovery."""

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = path
        self._lock = threading.Lock()
        #: (pid, ckpt) -> {store_id -> entry-dict}; retracts remove entries.
        self._entries: Dict[Key, Dict[str, dict]] = {}
        self.commits = 0
        self.retracts = 0
        if path is not None and os.path.exists(path):
            self._replay_file(path)

    def _replay_file(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    log.warning("journal: skipping corrupt line in %s", path)
                    continue  # torn tail write at crash: ignore
                self._apply(entry)

    def _apply(self, entry: dict) -> None:
        key = (int(entry["pid"]), int(entry["ckpt"]))
        store = str(entry["store"])
        if entry.get("op") == "retract":
            stores = self._entries.get(key)
            if stores is not None:
                stores.pop(store, None)
                if not stores:
                    self._entries.pop(key, None)
        else:
            self._entries.setdefault(key, {})[store] = entry

    def _append(self, entry: dict) -> None:
        if self._path is None:
            return
        with open(self._path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def commit(
        self,
        process_id: int,
        ckpt_id: int,
        *,
        store: str,
        level: str,
        nominal_size: int,
        meta: dict,
    ) -> None:
        """Record that ``ckpt_id``'s blob is durable at ``store``."""
        entry = {
            "op": "commit",
            "pid": process_id,
            "ckpt": ckpt_id,
            "store": store,
            "level": level,
            "nominal": int(nominal_size),
            "meta": dict(meta),
        }
        with self._lock:
            self._apply(entry)
            self._append(entry)
            self.commits += 1

    def retract(self, process_id: int, ckpt_id: int, *, store: str) -> None:
        """Record that ``store``'s blob for ``ckpt_id`` was deleted."""
        entry = {"op": "retract", "pid": process_id, "ckpt": ckpt_id, "store": store}
        with self._lock:
            self._apply(entry)
            self._append(entry)
            self.retracts += 1

    def entries_for(self, process_id: int) -> Dict[int, Dict[str, dict]]:
        """ckpt_id -> {store_id -> commit entry} for one process."""
        with self._lock:
            return {
                ckpt: dict(stores)
                for (pid, ckpt), stores in self._entries.items()
                if pid == process_id and stores
            }


class JournalObserver:
    """One engine's lifecycle observer writing the manifest journal
    (DESIGN.md §5 "Engine shell"): a commit entry after a blob landed on a
    durable store, a retract after one was deleted.  Both run with the
    engine monitor released — an append may ``fsync``.

    Written *after* the blob is durable: a crash in between leaves at worst
    an unjournaled blob the recovery scan still finds.
    """

    def __init__(self, journal: ManifestJournal, process_id: int, recovery_meta) -> None:
        self.journal = journal
        self.process_id = process_id
        self.recovery_meta = recovery_meta

    def after_landed(self, record, where, first_durable, track) -> None:
        level = where.level
        with record.op.stage(
            "journal-commit", CAT_JOURNAL, store=where.track, level=level.name
        ):
            self.journal.commit(
                self.process_id,
                record.ckpt_id,
                store=where.track,
                level=level.name,
                nominal_size=record.physical_size,
                meta=self.recovery_meta(record),
            )

    def after_dropped(self, record, where) -> None:
        with record.op.stage("journal-retract", CAT_JOURNAL, store=where.track):
            self.journal.retract(self.process_id, record.ckpt_id, store=where.track)


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
