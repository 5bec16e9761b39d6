"""Shared record framing and segment files for the durable store.

The write-ahead log (:mod:`repro.storage.wal`), the audit ledger
(:mod:`repro.audit.ledger`) and the snapshot files store records in
numbered segment files with one wire format — each record length-prefixed
and checksummed::

    +----------------+----------------+----------------------+
    | length (4B BE) | crc32 (4B BE)  | payload (JSON, UTF-8) |
    +----------------+----------------+----------------------+

A reader accepts a record only if the full frame is present *and* the CRC
matches; anything else is a **torn tail** — the crash left a partial final
record — and decoding stops exactly there, yielding the committed prefix.
:func:`open_segment` truncates the torn tail before appending, so a log
never contains garbage between valid records.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

from ..core.exceptions import SerializationError

__all__ = [
    "HEADER",
    "MAX_RECORD_BYTES",
    "SEGMENT_PREFIX",
    "SYNC_MODES",
    "check_sync_mode",
    "decode_records",
    "decode_value",
    "encode_record",
    "encode_value",
    "fsync_directory",
    "open_segment",
    "parse_segment_id",
    "read_segment",
    "segment_ids",
    "segment_name",
    "sync_file",
]

HEADER = struct.Struct(">II")

#: Segment files are ``seg-<id>.<suffix>`` inside a log directory; the
#: suffix distinguishes the owning subsystem (``.wal`` for the write-ahead
#: log, ``.audit`` for the provenance ledger).
SEGMENT_PREFIX = "seg-"

#: Durability barriers: survive an OS crash, a process crash, or neither.
SYNC_MODES = ("fsync", "flush", "none")

#: Hard upper bound on one record's payload.  Enforced symmetrically: the
#: *writer* refuses to encode a larger record (:func:`encode_record` raises,
#: so an oversized record fails loudly at log time instead of being
#: acknowledged durable), and the *reader* treats a larger length prefix as
#: corruption.  Snapshot frames are exempt (``max_bytes=None``): they are
#: single trusted frames whose length is already bounded by the file size.
MAX_RECORD_BYTES = 64 * 1024 * 1024

#: Sentinel meaning "use the module's MAX_RECORD_BYTES at call time".
_DEFAULT_LIMIT = object()

#: The one canonical-JSON encoder every frame shares: the bytes of
#: ``json.dumps(record, separators=(",", ":"), sort_keys=True)``.
#: ``JSONEncoder.encode`` builds its C encoder on every call; this one is
#: built once, without the per-call circular-reference table (a cycle
#: raises ``RecursionError`` instead of ``ValueError``), so it holds no
#: state between calls and any thread may use it.  Called as
#: ``_encode_chunks(record, 0)``, it returns the text in chunks.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)
if json.encoder.c_make_encoder is not None:
    _encode_chunks = json.encoder.c_make_encoder(
        None,  # markers: no circular-reference table
        _ENCODER.default,
        json.encoder.encode_basestring_ascii,
        None,  # indent
        _ENCODER.key_separator,
        _ENCODER.item_separator,
        _ENCODER.sort_keys,
        _ENCODER.skipkeys,
        _ENCODER.allow_nan,
    )
else:  # pragma: no cover - interpreters without the C accelerator
    _encode_chunks = _ENCODER.iterencode


def encode_value(value: Any) -> Any:
    """Encode one stored cell/file value to a JSON-able form.

    Table cells and file contents are plain Python data by the time they
    reach the log (policies travel separately, already serialized by
    :mod:`repro.core.serialization` into policy columns and xattrs), so the
    only non-JSON type to handle is ``bytes``.
    """
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise SerializationError(f"cannot log value of type {type(value).__name__}")


def decode_value(value: Any) -> Any:
    if isinstance(value, dict) and "__bytes__" in value:
        return bytes.fromhex(value["__bytes__"])
    return value


def encode_record(record: Dict[str, Any], *, max_bytes=_DEFAULT_LIMIT) -> bytes:
    """One framed record: header (length + crc32) and JSON payload.

    Raises :class:`~repro.core.exceptions.SerializationError` when the
    payload exceeds ``max_bytes`` (default: :data:`MAX_RECORD_BYTES`): a
    frame over the limit would be *written* fine but rejected as a corrupt
    length prefix on replay, silently dropping it and every later record —
    so the writer must fail loudly instead.  ``max_bytes=None`` disables the
    check (snapshot frames, which get no reader-side limit either).
    """
    payload = "".join(_encode_chunks(record, 0)).encode("utf-8")
    limit = MAX_RECORD_BYTES if max_bytes is _DEFAULT_LIMIT else max_bytes
    if limit is not None and len(payload) > limit:
        raise SerializationError(
            f"record payload is {len(payload)} bytes, over the {limit}-byte "
            "frame limit; refusing to write a record replay would reject as "
            "corrupt"
        )
    return HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def decode_records(
    data: bytes, *, max_record_bytes=_DEFAULT_LIMIT
) -> Tuple[List[Dict[str, Any]], int]:
    """Decode every complete, valid record from ``data``.

    Returns ``(records, valid_length)`` where ``valid_length`` is the byte
    offset of the first invalid/torn frame (== ``len(data)`` when the whole
    buffer is clean).  Replay uses the records; segment openers use the
    offset to truncate the torn tail.  ``max_record_bytes`` must match what
    the writer enforced (``None`` for snapshot frames).
    """
    limit = (
        MAX_RECORD_BYTES if max_record_bytes is _DEFAULT_LIMIT else max_record_bytes
    )
    records: List[Dict[str, Any]] = []
    offset = 0
    total = len(data)
    while offset + HEADER.size <= total:
        length, crc = HEADER.unpack_from(data, offset)
        start = offset + HEADER.size
        if (limit is not None and length > limit) or start + length > total:
            break
        payload = data[start : start + length]
        if zlib.crc32(payload) != crc:
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = start + length
    return records, offset


def segment_name(segment_id: int, suffix: str, prefix: str = SEGMENT_PREFIX) -> str:
    return f"{prefix}{segment_id:08d}{suffix}"


def parse_segment_id(
    name: str, suffix: str, prefix: str = SEGMENT_PREFIX
) -> Optional[int]:
    if not (name.startswith(prefix) and name.endswith(suffix)):
        return None
    try:
        return int(name[len(prefix) : -len(suffix)])
    except ValueError:
        return None


def segment_ids(directory: str, suffix: str, prefix: str = SEGMENT_PREFIX) -> List[int]:
    """The ids of the ``<prefix><id><suffix>`` files in ``directory``,
    ascending (empty when the directory does not exist)."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    ids = (parse_segment_id(name, suffix, prefix) for name in names)
    return sorted(segment_id for segment_id in ids if segment_id is not None)


def read_segment(
    path: str, *, max_record_bytes=_DEFAULT_LIMIT
) -> Tuple[List[Dict[str, Any]], bool]:
    """The valid records of the file at ``path``, and whether the whole
    file decoded (``False``: a torn or corrupt frame follows them)."""
    with open(path, "rb") as handle:
        data = handle.read()
    records, valid = decode_records(data, max_record_bytes=max_record_bytes)
    return records, valid == len(data)


def open_segment(path: str):
    """Open the segment at ``path`` for append (creating it), first
    truncating a torn tail so a new frame never follows garbage."""
    with open(path, "a+b") as handle:
        handle.seek(0)
        data = handle.read()
        _, valid = decode_records(data)
        if valid != len(data):
            handle.truncate(valid)
    return open(path, "ab")


def check_sync_mode(sync: str) -> str:
    if sync not in SYNC_MODES:
        raise ValueError(f"unknown sync mode {sync!r}")
    return sync


def sync_file(handle, sync: str) -> None:
    """Push ``handle``'s buffered writes as far as ``sync`` asks: to the OS
    (``"flush"``), to the disk (``"fsync"``) or nowhere (``"none"``)."""
    if sync != "none":
        handle.flush()
        if sync == "fsync":
            os.fsync(handle.fileno())


def fsync_directory(directory: str) -> None:
    """Make file creations, renames and deletions in ``directory`` durable
    (skipped where a directory cannot be opened)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
