"""Length-prefixed JSON control frames over a stream socket.

One frame is a small JSON object prefixed with a ``u32`` length::

    +-----------+----------------------+
    | length u32| JSON payload (UTF-8) |
    +-----------+----------------------+

This is the wire format both the replication cursor protocol
(:mod:`repro.replication.transport`) and the sharding dispatch protocol
(:mod:`repro.sharding.cluster`) speak; bulk data never travels in a frame
(replication ships records through the shared log directory, sharding
through shared-memory arenas), so frames stay small and human-debuggable.
No pickle anywhere -- a malicious or corrupt peer can at worst produce a
:class:`FrameError`, never execute code.

Robustness contract (fuzz-tested in ``tests/sharding``):

* the length prefix is bounded *before* any payload byte is read, so a
  garbage prefix (e.g. ``0xFFFFFFFF`` from a non-protocol peer) can never
  trigger an unbounded allocation or read -- the connection fails with
  :class:`FrameError` after at most 4 bytes;
* a zero length is rejected (the smallest legal payload is ``{}``);
* truncated payloads (EOF mid-frame), non-UTF-8 bytes, invalid JSON and
  non-object payloads all raise :class:`FrameError` rather than leaving
  the stream desynchronized silently.
"""

from __future__ import annotations

import json
import socket
import struct

_LENGTH = struct.Struct("<I")

#: Default upper bound on a frame.  Control frames are < 200 bytes, and so
#: is a sharding dispatch frame while its arrays -- the request body, the
#: result arrays -- ride the shared-memory arena as ``{"o", "n"}``
#: descriptors.  An array that overflows the arena, or any array when no
#: arena is attached, travels inline as a JSON list instead; the shared
#: default leaves headroom for that fallback while still refusing garbage
#: lengths outright.
DEFAULT_MAX_FRAME = 1 << 22


class FrameError(ConnectionError):
    """A frame could not be sent, received or decoded."""


def send_frame(
    sock: socket.socket, payload: dict, *, max_frame: int = DEFAULT_MAX_FRAME
) -> None:
    """Send one length-prefixed JSON frame.

    Refuses to send a frame the peer's matching ``max_frame`` would
    reject -- oversized payloads are a caller bug (bulk data belongs in
    the shared log directory / shared-memory arenas, not in frames).
    """
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if not data or len(data) > max_frame:
        raise FrameError(
            f"refusing to send frame of {len(data)} bytes "
            f"(bounds: 1..{max_frame})"
        )
    sock.sendall(_LENGTH.pack(len(data)) + data)


def recv_frame(
    sock: socket.socket, *, max_frame: int = DEFAULT_MAX_FRAME
) -> dict | None:
    """Receive one frame; ``None`` on a clean EOF at a frame boundary.

    The declared length is validated against ``max_frame`` before any
    payload byte is read.
    """
    header = _recv_exact(sock, _LENGTH.size, eof_ok=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length == 0 or length > max_frame:
        raise FrameError(
            f"frame length {length} outside accepted bounds 1..{max_frame}"
        )
    data = _recv_exact(sock, length, eof_ok=False)
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError("frame payload is not an object")
    return payload


def _recv_exact(sock: socket.socket, count: int, *, eof_ok: bool) -> bytes | None:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except OSError as exc:
            raise FrameError(f"socket read failed: {exc}") from exc
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise FrameError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
