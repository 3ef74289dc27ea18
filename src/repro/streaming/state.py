"""Atomic, versioned streaming checkpoints.

One checkpoint file per stream name, written with
:func:`repro.durable.atomic_write_json`: a crash at any instant leaves
either the previous or the new checkpoint, never a torn file.  The
payload pins the run identity (app, seeds, batch geometry, fault
schedule, engine) so a resume against a *different* configuration is
rejected instead of silently diverging — the bit-identity guarantee
only holds when the replayed batches recompute the original stream.

The context saves a checkpoint **after** the batch's sink rows are
durable, recording ``next_batch``: a crash between emit and save
replays exactly one batch, whose rows the idempotent sink skips.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

from ..durable import atomic_write_json
from ..errors import StreamError

#: Checkpoint format version; bumping it invalidates old checkpoints.
STREAM_CHECKPOINT_VERSION = 1

#: ``kind`` marker distinguishing a stream checkpoint from other JSON.
STREAM_CHECKPOINT_KIND = "s2fa-stream-checkpoint"


class StreamCheckpointStore:
    """One atomic checkpoint file per stream name in a directory."""

    def __init__(self, directory: os.PathLike | str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        slug = "".join(ch if ch.isalnum() or ch in "-_" else "_"
                       for ch in name)
        return self.directory / f"{slug}.stream.ckpt.json"

    def has(self, name: str) -> bool:
        return self.path(name).exists()

    def save(self, name: str, payload: dict) -> Path:
        """Atomically persist ``payload`` (stamped with kind/version)."""
        stamped = {"kind": STREAM_CHECKPOINT_KIND,
                   "version": STREAM_CHECKPOINT_VERSION, **payload}
        path = self.path(name)
        atomic_write_json(path, stamped)
        return path

    def load(self, name: str, identity: Optional[dict] = None) -> dict:
        """Validated checkpoint payload; pins ``identity`` when given."""
        path = self.path(name)
        try:
            payload = json.loads(path.read_text())
        except OSError as exc:
            raise StreamError(
                f"cannot read stream checkpoint {path}: {exc}") from exc
        except ValueError as exc:
            raise StreamError(
                f"corrupt stream checkpoint {path}: {exc}") from exc
        if not isinstance(payload, dict) \
                or payload.get("kind") != STREAM_CHECKPOINT_KIND:
            raise StreamError(
                f"{path} is not a stream checkpoint")
        if payload.get("version") != STREAM_CHECKPOINT_VERSION:
            raise StreamError(
                f"stream checkpoint {path} has version "
                f"{payload.get('version')!r}, expected "
                f"{STREAM_CHECKPOINT_VERSION} (delete it to start fresh)")
        for field in ("identity", "next_batch", "seq", "operators"):
            if field not in payload:
                raise StreamError(
                    f"stream checkpoint {path} is missing {field!r}")
        if identity is not None and payload["identity"] != identity:
            theirs, ours = payload["identity"], identity
            diff = sorted(k for k in set(theirs) | set(ours)
                          if theirs.get(k) != ours.get(k))
            raise StreamError(
                f"stream checkpoint {path} was written by a different "
                f"run configuration (mismatched: {', '.join(diff)}); "
                f"refusing to resume into a diverging stream")
        return payload

    def discard(self, name: str) -> None:
        try:
            self.path(name).unlink()
        except FileNotFoundError:
            pass
