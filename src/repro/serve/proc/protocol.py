"""The supervisor <-> worker wire protocol: length-prefixed JSON frames.

Workers are separate processes, so every message between the
:class:`~repro.serve.proc.supervisor.ProcSupervisor` and a worker
crosses a pipe as one *frame*: a fixed six-byte header — two magic
bytes, a protocol version byte, a one-byte frame-kind tag — followed by
a four-byte big-endian payload length and a UTF-8 JSON payload.  The
explicit length prefix is what makes torn writes *detectable*: a frame
whose payload is shorter than its declared length (a worker died
mid-send, the ``proc.pipe_drop`` fault fired) raises
:class:`ProtocolError` instead of silently yielding half a message,
and the supervisor treats that exactly like a worker death.

Payloads are JSON, not pickle, on purpose: results cross the pipe as
the same JSON-able *digest payloads* the replay harness hashes
(:func:`repro.serve.stress.result_payload`), so nothing that crosses
the process boundary can smuggle unpicklable state, and a captured
frame stream is inspectable with ``jq``.

Frame kinds (the ``FRAME_*`` constants):

========== ============ ===================================================
kind       direction    payload
========== ============ ===================================================
request    sup -> wkr   ``{id, sql, session, attempt, proc_attempt,
                        fault_index, budget, replay}``
cancel     sup -> wkr   ``{id, reason}`` — trip the request's CancelToken
drain      sup -> wkr   ``{}`` — finish the current request, then exit 0
ready      wkr -> sup   ``{pid, incarnation}`` — table loaded, journal
                        replayed, accepting requests
heartbeat  wkr -> sup   ``{seq}`` — liveness beacon, every interval
response   wkr -> sup   ``{id, status, outcome-ish fields, degradations,
                        result_payload, error, attempts, elapsed_ms}``
bye        wkr -> sup   ``{}`` — drain acknowledged, exiting 0
telemetry  wkr -> sup   ``{shard, incarnation, pid, seq, dropped,
                        metrics, spans, events}`` — batched span trees,
                        a cumulative metrics snapshot, and lifecycle
                        events; bounded and best-effort (never blocks
                        execution, drops are counted in ``dropped``)
========== ============ ===================================================

Transport is a :class:`multiprocessing.connection.Connection` pair
(they survive the spawn-context pickling of ``Process`` args); frames
travel through ``send_bytes``/``recv_bytes`` so one frame is always one
OS-level message.
"""

from __future__ import annotations

import json
import struct
from typing import Dict

from repro.errors import ServeError

__all__ = [
    "PROTOCOL_VERSION",
    "ProtocolError",
    "FRAME_REQUEST", "FRAME_CANCEL", "FRAME_DRAIN",
    "FRAME_READY", "FRAME_HEARTBEAT", "FRAME_RESPONSE", "FRAME_BYE",
    "FRAME_TELEMETRY",
    "encode_frame", "decode_frame", "send_frame", "recv_frame",
]

PROTOCOL_VERSION = 1

_MAGIC = b"RP"  # "repro proc"
_HEADER = struct.Struct(">2sBBI")  # magic, version, kind, payload length

FRAME_REQUEST = 1
FRAME_CANCEL = 2
FRAME_DRAIN = 3
FRAME_READY = 16
FRAME_HEARTBEAT = 17
FRAME_RESPONSE = 18
FRAME_BYE = 19
FRAME_TELEMETRY = 20

_KNOWN_KINDS = frozenset({
    FRAME_REQUEST, FRAME_CANCEL, FRAME_DRAIN,
    FRAME_READY, FRAME_HEARTBEAT, FRAME_RESPONSE, FRAME_BYE,
    FRAME_TELEMETRY,
})


class ProtocolError(ServeError):
    """A frame that cannot be trusted: bad magic, version, or length."""


def encode_frame(kind: int, payload: Dict[str, object]) -> bytes:
    """One frame as bytes: header + length-prefixed JSON payload."""
    if kind not in _KNOWN_KINDS:
        raise ProtocolError(f"unknown frame kind {kind}")
    body = json.dumps(payload, sort_keys=True, default=str).encode("utf-8")
    return _HEADER.pack(_MAGIC, PROTOCOL_VERSION, kind, len(body)) + body


def decode_frame(data: bytes) -> "tuple[int, Dict[str, object]]":
    """``(kind, payload)`` from one frame, validating every header field.

    A truncated or over-long payload (the frame's length prefix
    disagrees with the bytes that actually arrived) is a
    :class:`ProtocolError` — the supervisor maps it onto the same
    kill-and-restart path as a worker crash.
    """
    if len(data) < _HEADER.size:
        raise ProtocolError(
            f"short frame: {len(data)} byte(s), need {_HEADER.size}+"
        )
    magic, version, kind, length = _HEADER.unpack(data[:_HEADER.size])
    if magic != _MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {version}, this end speaks "
            f"{PROTOCOL_VERSION}"
        )
    if kind not in _KNOWN_KINDS:
        raise ProtocolError(f"unknown frame kind {kind}")
    body = data[_HEADER.size:]
    if len(body) != length:
        raise ProtocolError(
            f"torn frame: header declares {length} payload byte(s), "
            f"got {len(body)}"
        )
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") \
            from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload is not a JSON object")
    return kind, payload


def send_frame(conn, kind: int, payload: Dict[str, object]) -> None:
    """Encode and write one frame to a Connection."""
    conn.send_bytes(encode_frame(kind, payload))


def recv_frame(conn) -> "tuple[int, Dict[str, object]]":
    """Read and decode one frame from a Connection.

    Raises ``EOFError`` when the peer closed the pipe (worker death,
    ``proc.pipe_drop``) and :class:`ProtocolError` on a torn or
    malformed frame; callers treat both as the peer being gone.
    """
    return decode_frame(conn.recv_bytes())
