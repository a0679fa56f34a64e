"""Length-prefixed JSON wire protocol for the three-node session.

Every message is one frame: a 4-byte big-endian body length followed by
a UTF-8 JSON object with a "type" tag and protocol version "v": 1.
JSON bodies are canonical (sorted keys, no whitespace, ASCII only) so
that a given message always maps to the same bytes.  Only the networked
transport's sockets carry frames; in-process, the message objects,
frozen dataclasses of str, int, float, bool, None and float tuples,
pass as they are.  NaN and infinities are not JSON: neither the
encoder nor the decoder accepts them, nor a literal such as 1e999 that
overflows a float.

A session sends three message types.  Per window each user sends one
compensator state, which stands in for the physical light path in a
simulation, and the measurement node sends each user one misalignment
announcement; the session end closes the stream.  Slot announcements
and reveals never cross the wire: the per-slot backend keeps them as
columns inside the measurement node, and both senders draw their
decisions from the one ``[intensities]`` table of the session config.

A decoder consumes a byte stream incrementally: truncated frames wait
for more bytes, and a frame whose body fails to parse raises but leaves
the stream positioned at the next frame (resynchronization).
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

PROTOCOL_VERSION = 1
HEADER = struct.Struct(">I")
MAX_FRAME_BYTES = 16 * 1024 * 1024


class WireError(ValueError):
    """Raised for malformed frames or unknown/invalid message payloads."""


@dataclass(frozen=True)
class MisalignmentAnnouncement:
    """Measurement node announces one user's estimated misalignment."""

    user: str
    window: int
    theta_z: float | None
    theta_x: float | None

    type_tag = "misalignment"


@dataclass(frozen=True)
class CompensatorState:
    """User reports its squeezer retardances for the coming window.

    Simulation plumbing: stands in for the physical effect the user's
    polarization controller has on the light it sends.
    """

    user: str
    window: int
    retardances: tuple
    triggered: bool = False

    type_tag = "compensator_state"


@dataclass(frozen=True)
class SessionEnd:
    """Terminates the message stream for a session."""

    reason: str = "complete"

    type_tag = "session_end"


MESSAGE_TYPES = {cls.type_tag: cls for cls in (
    MisalignmentAnnouncement, CompensatorState, SessionEnd)}

# Each field's JSON types, compared exactly (bool is an int subclass).
# The measurement node checks the retardance elements and names the user.
_NUMBER_OR_NULL = (int, float, type(None))
_FIELD_TYPES = {"user": (str,), "reason": (str,), "window": (int,),
                "triggered": (bool,), "retardances": (list,),
                "theta_z": _NUMBER_OR_NULL, "theta_x": _NUMBER_OR_NULL}


# One canonical encoder and one decoder for every frame.  NaN and
# infinities are not JSON, so both refuse them.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=True, allow_nan=False)


def _reject_constant(token: str):
    raise WireError(f"non-finite number {token} is not JSON")


def _finite_float(token: str) -> float:
    value = float(token)
    if math.isinf(value):
        _reject_constant(token)
    return value


_DECODER = json.JSONDecoder(parse_constant=_reject_constant,
                            parse_float=_finite_float)


def encode_message(message) -> bytes:
    """Serialize a message dataclass into one self-delimiting frame."""
    tag = getattr(type(message), "type_tag", None)
    if tag not in MESSAGE_TYPES or not isinstance(message, MESSAGE_TYPES[tag]):
        raise WireError(f"cannot encode object of type {type(message).__name__}")
    # Fields hold only JSON scalars and tuples, which json writes as arrays.
    payload = {**vars(message), "type": tag, "v": PROTOCOL_VERSION}
    try:
        body = _ENCODER.encode(payload).encode("utf-8")
    except ValueError as exc:
        raise WireError(f"cannot encode {tag}: {exc}") from exc
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame body too large: {len(body)} bytes")
    return HEADER.pack(len(body)) + body


def decode_payload(payload: dict):
    """Rebuild the message dataclass from a parsed JSON object."""
    if not isinstance(payload, dict):
        raise WireError("frame body must be a JSON object")
    version = payload.pop("v", None)
    if type(version) is not int or version != PROTOCOL_VERSION:
        raise WireError(f"unsupported protocol version {version!r}")
    tag = payload.pop("type", None)
    cls = MESSAGE_TYPES.get(tag)
    if cls is None:
        raise WireError(f"unknown message type {tag!r}")
    for name, value in payload.items():
        if type(value) not in _FIELD_TYPES.get(name, (type(value),)):
            raise WireError(f"bad fields for {tag}: {name} has the wrong "
                            f"JSON type: {value!r}")
    try:
        if "retardances" in payload:
            payload["retardances"] = tuple(payload["retardances"])
        return cls(**payload)
    except TypeError as exc:
        raise WireError(f"bad fields for {tag}: {exc}") from exc


class FrameDecoder:
    """Incremental frame parser with resynchronization.

    feed() buffers bytes and returns every complete, well-formed message
    parsed so far.  A complete frame whose body is invalid raises
    WireError *after* that frame has been consumed and with any earlier
    messages retained, so calling feed(b"") again resumes cleanly at the
    next frame; a truncated frame simply waits for more bytes.
    """

    def __init__(self):
        self._buffer = bytearray()
        self._ready: list = []

    def feed(self, data: bytes = b"") -> list:
        self._buffer.extend(data)
        while len(self._buffer) >= HEADER.size:
            (length,) = HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME_BYTES:
                del self._buffer[:]
                raise WireError(f"frame length {length} exceeds limit")
            if len(self._buffer) < HEADER.size + length:
                break
            body = bytes(self._buffer[HEADER.size:HEADER.size + length])
            del self._buffer[:HEADER.size + length]
            try:
                payload = _DECODER.decode(body.decode("utf-8"))
            except WireError:
                raise
            except ValueError as exc:  # also an int of too many digits
                raise WireError(f"malformed frame body: {exc}") from exc
            self._ready.append(decode_payload(payload))
        ready, self._ready = self._ready, []
        return ready

    def pending_bytes(self) -> int:
        return len(self._buffer)
