"""Wire-protocol codec and frame-decoder behavior."""

import json
import struct

import numpy as np
import pytest

from mdiqkd_polcomp import wire
from mdiqkd_polcomp.wire import (CompensatorState, FrameDecoder,
                                 MisalignmentAnnouncement, SessionEnd,
                                 WireError, decode_payload, encode_message)

EXAMPLES = [
    MisalignmentAnnouncement(user="alice", window=4, theta_z=0.125,
                             theta_x=None),
    MisalignmentAnnouncement(user="bob", window=0, theta_z=None,
                             theta_x=0.01),
    CompensatorState(user="bob", window=3,
                     retardances=(0.1, -0.2, 0.0, 1.5), triggered=True),
    SessionEnd(reason="schedule complete"),
]


@pytest.mark.parametrize("message", EXAMPLES, ids=lambda m: type(m).__name__)
def test_round_trip(message):
    frame = encode_message(message)
    decoder = FrameDecoder()
    assert decoder.feed(frame) == [message]
    assert decoder.pending_bytes() == 0


def test_frame_layout_is_length_prefixed_canonical_json():
    frame = encode_message(SessionEnd(reason="x"))
    (length,) = struct.unpack_from(">I", frame)
    body = frame[4:]
    assert len(body) == length
    payload = json.loads(body.decode("utf-8"))
    assert payload == {"reason": "x", "type": "session_end", "v": 1}
    assert body == json.dumps(payload, sort_keys=True,
                              separators=(",", ":")).encode()


def test_encoding_is_deterministic():
    message = CompensatorState(user="alice", window=2,
                               retardances=(0.5, 0.25, 0.0, -1.0))
    assert encode_message(message) == encode_message(message)


def test_random_round_trip_property():
    rng = np.random.default_rng(2024)
    count = 0
    for _ in range(10_000):
        kind = rng.integers(0, 3)
        if kind == 0:
            msg = SessionEnd(reason=("complete", "schedule complete",
                                     "")[rng.integers(0, 3)])
        elif kind == 1:
            msg = MisalignmentAnnouncement(
                user=("alice", "bob")[rng.integers(0, 2)],
                window=int(rng.integers(0, 10**6)),
                theta_z=None if rng.random() < 0.25 else float(rng.random()),
                theta_x=None if rng.random() < 0.25 else float(rng.random()))
        else:
            msg = CompensatorState(
                user=("alice", "bob")[rng.integers(0, 2)],
                window=int(rng.integers(0, 10**6)),
                retardances=tuple(float(x)
                                  for x in rng.uniform(-1.6, 1.6, size=4)),
                triggered=bool(rng.random() < 0.5))
        decoded = FrameDecoder().feed(encode_message(msg))
        assert decoded == [msg]
        count += 1
    assert count == 10_000


def test_streamed_frames_split_at_every_boundary():
    frames = b"".join(encode_message(m) for m in EXAMPLES)
    for cut in range(1, len(frames), 37):
        decoder = FrameDecoder()
        received = decoder.feed(frames[:cut])
        received += decoder.feed(frames[cut:])
        assert received == EXAMPLES


def test_truncated_frame_waits_for_more_bytes():
    frame = encode_message(SessionEnd())
    decoder = FrameDecoder()
    assert decoder.feed(frame[:3]) == []
    assert decoder.pending_bytes() == 3
    assert decoder.feed(frame[3:-2]) == []
    assert decoder.feed(frame[-2:]) == [SessionEnd()]


def test_malformed_body_raises_then_resyncs_without_loss():
    good_before = encode_message(SessionEnd(reason="before"))
    bad_body = b"{not json"
    bad = struct.pack(">I", len(bad_body)) + bad_body
    good_after = encode_message(SessionEnd())
    decoder = FrameDecoder()
    with pytest.raises(WireError, match="malformed frame body"):
        decoder.feed(good_before + bad + good_after)
    # The parse error consumed the bad frame only; everything parsed
    # before the error and everything after it is still delivered.
    assert decoder.feed(b"") == [SessionEnd(reason="before"), SessionEnd()]


def test_unknown_type_raises_and_resyncs():
    body = json.dumps({"type": "warp_drive", "v": 1}).encode()
    frame = struct.pack(">I", len(body)) + body
    decoder = FrameDecoder()
    with pytest.raises(WireError, match="unknown message type"):
        decoder.feed(frame + encode_message(SessionEnd()))
    assert decoder.feed(b"") == [SessionEnd()]


# Type tags of messages that no node sends; they are not in the protocol.
@pytest.mark.parametrize("payload", [
    {"type": "window_summary", "window": 9, "meas_basis": "X",
     "counts": {"key_candidate": 3}},
    {"type": "bsm_result", "slot": 1, "basis": "Z", "outcome": "psi_plus"},
    {"type": "basis_intensity_reveal", "user": "alice", "slot": 7,
     "basis": "X", "intensity": "omega"},
    {"type": "polarization_bit_reveal", "user": "bob", "slot": 99, "bit": 1},
], ids=lambda payload: payload["type"])
def test_frames_of_unsent_types_are_unknown(payload):
    body = json.dumps({**payload, "v": 1}, sort_keys=True,
                      separators=(",", ":")).encode()
    decoder = FrameDecoder()
    with pytest.raises(WireError, match=f"unknown message type "
                                        f"'{payload['type']}'"):
        decoder.feed(struct.pack(">I", len(body)) + body
                     + encode_message(SessionEnd()))
    assert decoder.feed(b"") == [SessionEnd()]


# One frame of each type, byte for byte as protocol version 1 writes it.
PINNED_FRAMES = {
    "compensator_state": (
        CompensatorState(user="bob", window=3,
                         retardances=(0.1, -0.2, 0.0, 1.5), triggered=True),
        b'\x00\x00\x00l{"retardances":[0.1,-0.2,0.0,1.5],"triggered":true,'
        b'"type":"compensator_state","user":"bob","v":1,"window":3}'),
    "misalignment": (
        MisalignmentAnnouncement(user="alice", window=917, theta_z=None,
                                 theta_x=0.07318290563720176),
        b'\x00\x00\x00f{"theta_x":0.07318290563720176,"theta_z":null,'
        b'"type":"misalignment","user":"alice","v":1,"window":917}'),
    "session_end": (
        SessionEnd(reason="schedule complete"),
        b'\x00\x00\x009{"reason":"schedule complete","type":"session_end",'
        b'"v":1}'),
}


@pytest.mark.parametrize("tag", sorted(PINNED_FRAMES))
def test_frames_keep_their_pinned_bytes(tag):
    message, frame = PINNED_FRAMES[tag]
    assert type(message).type_tag == tag
    assert encode_message(message) == frame
    assert FrameDecoder().feed(frame) == [message]


def test_wrong_version_rejected():
    body = json.dumps({"reason": "x", "type": "session_end", "v": 2}).encode()
    with pytest.raises(WireError, match="unsupported protocol version"):
        decode_payload(json.loads(body.decode()))
    # Equal to 1 in Python, but not the integer 1 in JSON.
    for version in (True, 1.0):
        with pytest.raises(WireError, match=f"unsupported protocol version "
                                            f"{version!r}"):
            decode_payload({"reason": "x", "type": "session_end",
                            "v": version})


def test_missing_version_rejected():
    with pytest.raises(WireError, match="unsupported protocol version"):
        decode_payload({"type": "session_end", "reason": "x"})


def test_bad_fields_rejected():
    with pytest.raises(WireError, match="bad fields for session_end"):
        decode_payload({"type": "session_end", "v": 1, "bogus": 3})
    with pytest.raises(WireError, match="bad fields for compensator_state"):
        decode_payload({"type": "compensator_state", "v": 1, "user": "bob",
                        "window": 0, "retardances": 5})
    announcement = {"type": "misalignment", "v": 1, "user": "alice",
                    "window": 1, "theta_z": 0.1, "theta_x": None}
    compensator = {"type": "compensator_state", "v": 1, "user": "bob",
                   "window": 0, "retardances": [0.0, 0.0, 0.0, 0.0],
                   "triggered": False}
    for payload, field, value in [
            (announcement, "window", True),
            (announcement, "window", 1.0),
            (announcement, "window", "1"),
            (announcement, "theta_z", "oops"),
            (announcement, "theta_x", False),
            (announcement, "theta_z", [0.1]),
            (announcement, "user", 7),
            (announcement, "user", None),
            (compensator, "triggered", 1),
            (compensator, "triggered", None),
            (compensator, "window", None),
            (compensator, "retardances", "0.0"),
            ({"type": "session_end", "v": 1}, "reason", 0)]:
        with pytest.raises(WireError, match=f"bad fields for "
                                            f"{payload['type']}: {field} "):
            decode_payload({**payload, field: value})
    # Integer angles are JSON numbers; retardance elements are checked by
    # the measurement node.
    assert decode_payload({**announcement, "theta_z": 0}).theta_z == 0
    assert decode_payload({**compensator, "retardances": [True, 0, 0, 0]}
                          ).retardances == (True, 0, 0, 0)


def test_non_object_body_rejected():
    with pytest.raises(WireError, match="must be a JSON object"):
        decode_payload([1, 2, 3])


def test_encode_rejects_foreign_objects():
    with pytest.raises(WireError, match="cannot encode"):
        encode_message({"type": "session_end"})


def test_oversized_frame_length_rejected():
    decoder = FrameDecoder()
    huge = struct.pack(">I", wire.MAX_FRAME_BYTES + 1)
    with pytest.raises(WireError, match="exceeds limit"):
        decoder.feed(huge + b"xxxx")


@pytest.mark.parametrize("message", EXAMPLES, ids=lambda m: type(m).__name__)
def test_valid_frames_keep_their_json_dumps_bytes(message):
    body = encode_message(message)[4:]
    payload = json.loads(body)
    assert body == json.dumps(payload, sort_keys=True, separators=(",", ":"),
                              ensure_ascii=True).encode("utf-8")


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
def test_encode_rejects_non_finite_floats(value):
    with pytest.raises(WireError, match="cannot encode misalignment"):
        encode_message(MisalignmentAnnouncement(user="alice", window=1,
                                                theta_z=value, theta_x=None))
    with pytest.raises(WireError, match="cannot encode compensator_state"):
        encode_message(CompensatorState(user="bob", window=0,
                                        retardances=(0.0, value, 0.0, 0.0)))


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity",
                                   # finite literals that overflow a float
                                   "1e999", "-1e400"])
def test_decoder_rejects_non_finite_tokens_then_resyncs(token):
    body = ('{"theta_x":null,"theta_z":' + token + ',"type":"misalignment",'
            '"user":"alice","v":1,"window":1}').encode()
    bad = struct.pack(">I", len(body)) + body
    decoder = FrameDecoder()
    with pytest.raises(WireError, match=f"non-finite number {token}"):
        decoder.feed(bad + encode_message(SessionEnd()))
    assert decoder.feed(b"") == [SessionEnd()]


def test_decoder_rejects_an_integer_too_long_to_convert_then_resyncs():
    # Python converts at most 4 300 digits to an int by default.
    body = ('{"theta_x":null,"theta_z":' + "9" * 5000 + ',"type":'
            '"misalignment","user":"alice","v":1,"window":1}').encode()
    bad = struct.pack(">I", len(body)) + body
    decoder = FrameDecoder()
    with pytest.raises(WireError, match="malformed frame body: Exceeds the "
                                        "limit"):
        decoder.feed(bad + encode_message(SessionEnd()))
    assert decoder.feed(b"") == [SessionEnd()]
