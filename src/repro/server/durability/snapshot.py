"""Atomic per-tenant snapshots: relation + rules + counters at a seq.

A snapshot bounds WAL replay time: recovery loads the newest verified
snapshot and replays only the WAL records with a higher ``seq``.  The
write is crash-atomic — serialize to ``snapshot.json.tmp``, fsync,
rename over ``snapshot.json``, fsync the directory — so a crash at any
point leaves either the old snapshot or the new one, never a torn mix.
A CRC32 of the body travels in a one-line header so a corrupt snapshot
is *detected* and skipped (falling back to full-WAL replay) instead of
recovered into.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Iterator
from pathlib import Path
from typing import Any

from ...runtime import faults

SNAPSHOT_NAME = "snapshot.json"

#: First line of the snapshot file: crc of everything after the line.
_HEADER_PREFIX = "repro-snapshot-v1 crc32="


class SnapshotCorruption(ValueError):
    """The snapshot file failed its checksum or shape verification."""


def write_snapshot(directory: Path | str, state: dict[str, Any]) -> Path:
    """Atomically persist ``state`` as the tenant's snapshot.

    The body is written piece by piece (see :func:`_encode`), and an
    iterator anywhere in ``state`` is written as a JSON array one item
    at a time, so a relation state from
    :func:`repro.relation.encoding.iter_relation_state` is never in
    memory whole, as objects or as text.  The header's CRC is
    fixed-width, written as zeros and filled in after the body.

    When the ``snapshot-write`` crash point is armed, the process dies
    after writing the first piece of the temporary file — the rename
    never happens, so recovery must still find the previous snapshot
    intact.
    """
    directory = Path(directory)
    tmp = directory / (SNAPSHOT_NAME + ".tmp")
    final = directory / SNAPSHOT_NAME
    crash = faults.crash_armed("snapshot-write")
    crc = 0
    with open(tmp, "wb") as f:
        f.write(_header(crc))
        for piece in _encode(state):
            data = piece.encode("utf-8")
            crc = zlib.crc32(data, crc)
            f.write(data)
            if crash:
                crash = False
                f.flush()
                faults.crash_point("snapshot-write")
        f.seek(0)
        f.write(_header(crc))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, final)
    _fsync_dir(directory)
    return final


def _header(crc: int) -> bytes:
    return f"{_HEADER_PREFIX}{crc:010d}\n".encode("ascii")


def _encode(value: Any) -> Iterator[str]:
    """The compact JSON text of ``value``, in pieces: a dict key by key,
    an iterator item by item, anything else in one ``json.dumps``."""
    if isinstance(value, dict):
        yield "{"
        sep = ""
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"snapshot keys must be strings, not {key!r}")
            yield sep + json.dumps(key) + ":"
            yield from _encode(item)
            sep = ","
        yield "}"
    elif isinstance(value, Iterator):
        yield "["
        sep = ""
        for item in value:
            if sep:
                yield sep
            yield from _encode(item)
            sep = ","
        yield "]"
    else:
        yield json.dumps(value, separators=(",", ":"), allow_nan=True)


def load_snapshot(directory: Path | str) -> dict[str, Any] | None:
    """The tenant's verified snapshot state, or ``None`` when absent.

    Raises :class:`SnapshotCorruption` when a snapshot file exists but
    fails verification — callers decide whether to fall back to
    full-WAL replay or refuse to start.
    """
    path = Path(directory) / SNAPSHOT_NAME
    if not path.exists():
        return None
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        raise SnapshotCorruption(f"{path}: snapshot is not valid UTF-8")
    header, sep, body = text.partition("\n")
    if not sep or not header.startswith(_HEADER_PREFIX):
        raise SnapshotCorruption(f"{path}: malformed snapshot header")
    try:
        expected = int(header[len(_HEADER_PREFIX):])
    except ValueError:
        raise SnapshotCorruption(f"{path}: malformed snapshot header")
    if zlib.crc32(body.encode("utf-8")) != expected:
        raise SnapshotCorruption(f"{path}: snapshot checksum mismatch")
    state = json.loads(body)
    if not isinstance(state, dict):
        raise SnapshotCorruption(f"{path}: snapshot body is not an object")
    return state


def _fsync_dir(directory: Path) -> None:
    """Persist the rename itself (directory entry durability)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
