"""Crash-safe on-disk snapshots for the serving tier.

The serving tier's per-key :class:`~repro.core.online.OnlineDraftsPredictor`
state is what makes steady-state refreshes O(delta); losing it on a restart
means a cold QBETS refit of every key — exactly the blocking failure mode
the paper's 15-minute cron prototype suffered (§3.3). This module defines
the on-disk format those predictors are checkpointed in:

* **framed** — each snapshot file is one header line (format name, kind,
  version, payload length, SHA-256 checksum) followed by a JSON payload, so
  a torn write, a flipped bit or a snapshot from a future code version is
  *detected* at read time and surfaces as :class:`SnapshotError` — the
  caller falls back to a clean refit instead of resurrecting silently
  corrupt predictor state;
* **bit-exact** — float64 arrays are embedded as base64-encoded raw
  little-endian bytes, not decimal strings, so a restored predictor sees
  the exact same floats and stays bit-identical to one that never
  restarted;
* **atomic per file** — writes go to a sibling temp file and ``os.replace``
  into place, so a crash mid-write leaves the previous snapshot readable.

A service checkpoint is a directory: one ``.snap`` file per key plus a
``manifest.json`` (also framed) naming them. The manifest is written last;
files it does not name are ignored at load time.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
from pathlib import Path
from urllib.parse import quote, unquote

import numpy as np

__all__ = [
    "MANIFEST_NAME",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "key_filename",
    "filename_key",
    "dumps_snapshot",
    "loads_snapshot",
    "read_snapshot",
    "write_snapshot",
]

SNAPSHOT_FORMAT = "drafts-snapshot"
SNAPSHOT_VERSION = 1
MANIFEST_NAME = "manifest.json"

_ARRAY_TAG = "__ndarray__"


class SnapshotError(RuntimeError):
    """A snapshot could not be decoded (corrupt, torn, or version-skewed)."""


def _encode(obj):
    """Recursively replace numpy values with JSON-representable forms."""
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        return {
            _ARRAY_TAG: str(arr.dtype),
            "shape": list(arr.shape),
            "data": base64.b64encode(
                arr.astype(arr.dtype.newbyteorder("<")).tobytes()
            ).decode("ascii"),
        }
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _decode(obj):
    """Inverse of :func:`_encode`."""
    if isinstance(obj, dict):
        if _ARRAY_TAG in obj:
            dtype = np.dtype(obj[_ARRAY_TAG]).newbyteorder("<")
            flat = np.frombuffer(
                base64.b64decode(obj["data"]), dtype=dtype
            ).astype(np.dtype(obj[_ARRAY_TAG]))
            return flat.reshape(obj["shape"])
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


def dumps_snapshot(payload: dict, kind: str) -> bytes:
    """Frame ``payload`` as header line + checksummed JSON body."""
    body = json.dumps(_encode(payload), sort_keys=True).encode("utf-8")
    header = {
        "format": SNAPSHOT_FORMAT,
        "kind": kind,
        "version": SNAPSHOT_VERSION,
        "length": len(body),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + body


def loads_snapshot(raw: bytes, kind: str) -> dict:
    """Verify and decode a framed snapshot; raise :class:`SnapshotError`."""
    head, sep, body = raw.partition(b"\n")
    if not sep:
        raise SnapshotError("truncated snapshot: no header/body separator")
    try:
        header = json.loads(head)
    except ValueError as exc:
        raise SnapshotError(f"unreadable snapshot header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"not a {SNAPSHOT_FORMAT} file")
    if header.get("kind") != kind:
        raise SnapshotError(
            f"snapshot kind {header.get('kind')!r} != expected {kind!r}"
        )
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {header.get('version')!r} unsupported "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    if header.get("length") != len(body):
        raise SnapshotError(
            f"torn snapshot: body is {len(body)} bytes, "
            f"header promised {header.get('length')}"
        )
    if header.get("sha256") != hashlib.sha256(body).hexdigest():
        raise SnapshotError("snapshot checksum mismatch")
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise SnapshotError(f"unreadable snapshot body: {exc}") from exc
    return _decode(payload)


def write_snapshot(path: str | Path, payload: dict, kind: str) -> None:
    """Atomically write a framed snapshot file."""
    path = Path(path)
    raw = dumps_snapshot(payload, kind)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(raw)
    os.replace(tmp, path)


def read_snapshot(path: str | Path, kind: str) -> dict:
    """Read and verify a snapshot file; raise :class:`SnapshotError`."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    return loads_snapshot(raw, kind)


def _quote_part(part: str) -> str:
    # Percent-escape underscores too (urllib leaves them bare), so the
    # ``__`` field separator can never occur inside an escaped field.
    return quote(part, safe="").replace("_", "%5F")


def key_filename(key: tuple[str, str, float]) -> str:
    """Filesystem-safe file name for a (type, zone, probability) key."""
    instance_type, zone, probability = key
    return (
        f"{_quote_part(instance_type)}__{_quote_part(zone)}"
        f"__{probability!r}.snap"
    )


def filename_key(name: str) -> tuple[str, str, float]:
    """Inverse of :func:`key_filename`."""
    stem = name[: -len(".snap")] if name.endswith(".snap") else name
    parts = stem.split("__")
    if len(parts) != 3:
        raise ValueError(f"not a snapshot file name: {name!r}")
    return unquote(parts[0]), unquote(parts[1]), float(parts[2])
