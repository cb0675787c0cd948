"""Canonical versioned byte serialization for wire messages.

The simulated fabric passes payload objects by reference; the socket
fabric cannot, so every envelope crossing a real TCP connection goes
through this module.  Design goals, in order:

1. **Total over the wire vocabulary.**  Every dataclass in
   ``repro.core.wire`` plus the RPC framing payloads (``_Request`` /
   ``_Reply``) has a stable numeric code in :data:`REGISTRY`; every
   field value is built from a small closed set of primitives (ints of
   arbitrary width, floats, strings, bytes, bools, ``None``, tuples,
   lists, dicts, sets, frozensets, registered dataclasses).  Anything
   else raises :class:`WireEncodeError` at encode time -- better a loud
   failure at the sender than a silent divergence at the receiver.
2. **Canonical.**  One value has exactly one encoding: dict entries are
   sorted by encoded key bytes and set/frozenset elements by encoded
   element bytes, so ``encode(decode(b)) == b`` holds for any valid
   frame and byte-level comparison of re-encodings is meaningful.
3. **Versioned.**  Every envelope starts with :data:`WIRE_VERSION`; a
   receiver refuses frames from a different version instead of
   misparsing them.

Format summary (all integers are unsigned LEB128 varints unless noted):

* value   = tag byte, then tag-specific payload;
* int     = zigzag-mapped varint (arbitrary precision);
* float   = 8 bytes, big-endian IEEE-754 binary64;
* str     = length + UTF-8 bytes;  bytes = length + raw bytes;
* tuple/list = count + encoded elements;
* dict    = count + (encoded key, encoded value) pairs, sorted by key
  bytes;  set/frozenset = count + encoded elements, sorted;
* dataclass = registry code + field values in ``dataclasses.fields``
  order (field names never travel; the registry pins the shape).

Frames on a connection are 4-byte big-endian length prefixes followed by
the envelope bytes; see :class:`FrameDecoder`.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Dict, List, Tuple

from repro.core import wire
from repro.net.message import Envelope
from repro.net.rpc import _Reply, _Request

#: Bumped on any incompatible change to the value format or registry
#: (2: ``SyncRequestBody``, ``SyncReplyBody`` and ``TxnStatusReplyBody``
#: gained their re-stage fields; 3: ``SyncRequestBody.site``, and a
#: ``decision`` stream entry's ``writes`` are ``(site, key, value)``; 4:
#: ``ReadRequestBody.queue``, ``ReadReturnBody.spoken_for``, ``VoteBody.lost``;
#: 5: ``ReadRequestBody.frozen`` deleted; 6: ``PropagateBody.seq_nos``
#: deleted, one Propagate per commit; 7: the chain-transfer offer's
#: ``shard`` and its ack's ``site_vc`` deleted, transfer is shard-only; 8:
#: REPLICATE is one-way, its body and ``ReplicateAckBody`` carry the
#: stream's incarnation; 9: one ``ShardShipmentBody`` per shipment
#: replaces the offer, its chunks and their ack; 10: a view change is its
#: commit body alone, the propose and ack bodies retired; 11: a view's
#: ``members`` are its ids, the lifecycle states gone; 12: the sites are
#: fixed, the view commit body retired).
WIRE_VERSION = 12

#: Refuse frames larger than this (a corrupt length prefix must not make
#: the receiver try to buffer gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class WireEncodeError(TypeError):
    """A payload contains a value outside the wire vocabulary."""


class WireDecodeError(ValueError):
    """A frame is truncated, corrupt, or from an unknown version."""


# ----------------------------------------------------------------------
# Registry: stable numeric codes for every dataclass allowed on the wire
# ----------------------------------------------------------------------

#: code -> class.  Codes are append-only: never renumber, never reuse.
REGISTRY: Dict[int, type] = {
    1: _Request,
    2: _Reply,
    3: wire.ReadRequestBody,
    4: wire.ReadReturnBody,
    5: wire.PrepareBody,
    6: wire.VoteBody,
    7: wire.DecideBody,
    8: wire.PropagateBody,
    9: wire.RemoveBody,
    10: wire.TxnStatusRequestBody,
    11: wire.TxnStatusReplyBody,
    12: wire.SyncRequestBody,
    13: wire.SyncReplyBody,
    17: wire.ReplicationEntry,
    18: wire.ReplicateBody,
    19: wire.ReplicateAckBody,
    23: wire.HeartbeatBody,
    24: wire.SimpleReadRequestBody,
    25: wire.SimpleReadReturnBody,
    26: wire.SimplePrepareBody,
    27: wire.SimpleVoteBody,
    28: wire.SimpleDecideBody,
    29: wire.ShardShipmentBody,
}
#: Retired codes, never to be reused: 14-16 (the chunked chain transfer),
#: 20-21 (the view propose and ack), 22 (the view commit).

_CODE_OF: Dict[type, int] = {cls: code for code, cls in REGISTRY.items()}
#: class -> ordered field names, resolved once (dataclasses.fields walks
#: the MRO every call; this sits on every message of a socket run).
_FIELDS_OF: Dict[type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in dataclasses.fields(cls))
    for cls in REGISTRY.values()
}

# Value tags.
_T_NONE = 0x00
_T_FALSE = 0x01
_T_TRUE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_FROZENSET = 0x0A
_T_SET = 0x0B
_T_DATACLASS = 0x0C

_F64 = struct.Struct(">d")


def _write_varint(out: bytearray, value: int) -> None:
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _write_value(out: bytearray, value: Any) -> None:
    # Exact type checks throughout: bool is an int subclass and a
    # registered dataclass must not be mistaken for a plain object.
    cls = type(value)
    if value is None:
        out.append(_T_NONE)
    elif cls is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif cls is int:
        out.append(_T_INT)
        # Zigzag: small negatives stay small; arbitrary precision.
        _write_varint(out, (value << 1) if value >= 0 else ((-value) << 1) - 1)
    elif cls is float:
        out.append(_T_FLOAT)
        out += _F64.pack(value)
    elif cls is str:
        data = value.encode("utf-8")
        out.append(_T_STR)
        _write_varint(out, len(data))
        out += data
    elif cls is bytes:
        out.append(_T_BYTES)
        _write_varint(out, len(value))
        out += value
    elif cls is tuple:
        out.append(_T_TUPLE)
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif cls is list:
        out.append(_T_LIST)
        _write_varint(out, len(value))
        for item in value:
            _write_value(out, item)
    elif cls is dict:
        out.append(_T_DICT)
        _write_varint(out, len(value))
        entries = []
        for key, val in value.items():
            key_buf = bytearray()
            _write_value(key_buf, key)
            entries.append((bytes(key_buf), val))
        entries.sort(key=lambda pair: pair[0])
        for key_bytes, val in entries:
            out += key_bytes
            _write_value(out, val)
    elif cls is frozenset or cls is set:
        out.append(_T_FROZENSET if cls is frozenset else _T_SET)
        _write_varint(out, len(value))
        encoded = []
        for item in value:
            item_buf = bytearray()
            _write_value(item_buf, item)
            encoded.append(bytes(item_buf))
        encoded.sort()
        for item_bytes in encoded:
            out += item_bytes
    else:
        code = _CODE_OF.get(cls)
        if code is None:
            raise WireEncodeError(
                f"{cls.__name__} is not wire-encodable (value {value!r}); "
                f"register it in repro.net.serde.REGISTRY or use plain "
                f"tuples/dicts"
            )
        out.append(_T_DATACLASS)
        _write_varint(out, code)
        for name in _FIELDS_OF[cls]:
            _write_value(out, getattr(value, name))


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise WireDecodeError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        # Arbitrary-precision ints are allowed, but a kilobit-wide one
        # is a corrupt stream, not a transaction id.
        if shift > 146 * 7:
            raise WireDecodeError("varint too long")


def _read_value(data: bytes, pos: int) -> Tuple[Any, int]:
    if pos >= len(data):
        raise WireDecodeError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _T_NONE:
        return None, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_INT:
        raw, pos = _read_varint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == _T_FLOAT:
        if pos + 8 > len(data):
            raise WireDecodeError("truncated float")
        return _F64.unpack_from(data, pos)[0], pos + 8
    if tag == _T_STR:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise WireDecodeError("truncated string")
        return data[pos:end].decode("utf-8"), end
    if tag == _T_BYTES:
        length, pos = _read_varint(data, pos)
        end = pos + length
        if end > len(data):
            raise WireDecodeError("truncated bytes")
        return data[pos:end], end
    if tag == _T_TUPLE or tag == _T_LIST:
        count, pos = _read_varint(data, pos)
        items: List[Any] = []
        for _ in range(count):
            item, pos = _read_value(data, pos)
            items.append(item)
        return (tuple(items) if tag == _T_TUPLE else items), pos
    if tag == _T_DICT:
        count, pos = _read_varint(data, pos)
        result: Dict[Any, Any] = {}
        for _ in range(count):
            key, pos = _read_value(data, pos)
            val, pos = _read_value(data, pos)
            result[key] = val
        return result, pos
    if tag == _T_FROZENSET or tag == _T_SET:
        count, pos = _read_varint(data, pos)
        elems = []
        for _ in range(count):
            item, pos = _read_value(data, pos)
            elems.append(item)
        return (frozenset(elems) if tag == _T_FROZENSET else set(elems)), pos
    if tag == _T_DATACLASS:
        code, pos = _read_varint(data, pos)
        cls = REGISTRY.get(code)
        if cls is None:
            raise WireDecodeError(f"unknown dataclass code {code}")
        args = []
        for _ in _FIELDS_OF[cls]:
            arg, pos = _read_value(data, pos)
            args.append(arg)
        return cls(*args), pos
    raise WireDecodeError(f"unknown value tag 0x{tag:02x}")


def encode_value(value: Any) -> bytes:
    """Encode one value to canonical bytes (mostly for tests)."""
    out = bytearray()
    _write_value(out, value)
    return bytes(out)


def decode_value(data: bytes) -> Any:
    """Inverse of :func:`encode_value`; rejects trailing garbage."""
    value, pos = _read_value(data, 0)
    if pos != len(data):
        raise WireDecodeError(f"{len(data) - pos} trailing bytes after value")
    return value


# ----------------------------------------------------------------------
# Envelopes and frames
# ----------------------------------------------------------------------


def encode_envelope(envelope: Envelope) -> bytes:
    """Envelope -> versioned canonical bytes.

    ``deliver_time`` is intentionally not carried: on a real network the
    receiver's transport stamps delivery at arrival.  ``send_time`` and
    ``msg_id`` travel for tracing parity with the simulated fabric.
    """
    out = bytearray()
    out.append(WIRE_VERSION)
    _write_value(
        out,
        (
            envelope.msg_type,
            envelope.src,
            envelope.dst,
            envelope.payload,
            envelope.send_time,
            envelope.msg_id,
        ),
    )
    return bytes(out)


def decode_envelope(data: bytes) -> Envelope:
    """Inverse of :func:`encode_envelope` (``deliver_time`` left 0.0)."""
    if not data:
        raise WireDecodeError("empty envelope frame")
    version = data[0]
    if version != WIRE_VERSION:
        raise WireDecodeError(
            f"wire version {version} != supported {WIRE_VERSION}"
        )
    fields, pos = _read_value(data, 1)
    if pos != len(data):
        raise WireDecodeError(f"{len(data) - pos} trailing bytes in envelope")
    if not isinstance(fields, tuple) or len(fields) != 6:
        raise WireDecodeError("malformed envelope tuple")
    msg_type, src, dst, payload, send_time, msg_id = fields
    return Envelope(
        msg_type=msg_type,
        src=src,
        dst=dst,
        payload=payload,
        send_time=send_time,
        deliver_time=0.0,
        msg_id=msg_id,
    )


def encode_frame(envelope: Envelope) -> bytes:
    """Envelope -> length-prefixed frame ready for a socket write."""
    body = encode_envelope(envelope)
    if len(body) > MAX_FRAME_BYTES:
        raise WireEncodeError(f"frame of {len(body)} bytes exceeds cap")
    return struct.pack(">I", len(body)) + body


class FrameDecoder:
    """Incremental splitter of a TCP byte stream into envelope frames.

    Feed arbitrary chunks; get back complete envelope byte bodies (not
    yet decoded -- the caller chooses where decoding runs).  A frame
    longer than :data:`MAX_FRAME_BYTES` raises, poisoning the
    connection, which is the right response to a corrupt length prefix.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> List[bytes]:
        self._buffer += chunk
        frames: List[bytes] = []
        while True:
            if len(self._buffer) < 4:
                return frames
            (length,) = struct.unpack_from(">I", self._buffer)
            if length > MAX_FRAME_BYTES:
                raise WireDecodeError(
                    f"frame length {length} exceeds cap {MAX_FRAME_BYTES}"
                )
            if len(self._buffer) < 4 + length:
                return frames
            frames.append(bytes(self._buffer[4 : 4 + length]))
            del self._buffer[: 4 + length]

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)
