"""Fuzz tests for the canonical wire serde.

Every registered wire message class gets a Hypothesis strategy derived
from its field type hints, and the suite asserts the serde's two core
contracts over them:

* **round trip**: ``decode(encode(msg)) == msg`` with types preserved;
* **canonical**: ``encode(decode(b)) == b`` -- one value, one encoding
  (dict entries and set elements are sorted by encoded bytes).

Plus targeted coverage for the formats the protocols lean on hardest
(dynamic-width vector clocks, anti-dependency frozensets), the framing
layer under arbitrary chunking, and the failure modes (unknown tags,
truncation, version mismatch, unregistered payload types).
"""

import dataclasses
import struct
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.net.message import Envelope
from repro.net.serde import (
    MAX_FRAME_BYTES,
    REGISTRY,
    WIRE_VERSION,
    FrameDecoder,
    WireDecodeError,
    WireEncodeError,
    decode_envelope,
    decode_value,
    encode_envelope,
    encode_frame,
    encode_value,
)

# ----------------------------------------------------------------------
# Strategies derived from the wire classes' type hints
# ----------------------------------------------------------------------

#: Keys travel as Hashable; protocols use strings and ints.
keys_st = st.one_of(
    st.text(max_size=8),
    st.integers(-(10**6), 10**6),
    st.tuples(st.text(max_size=4), st.integers(0, 99)),
)

#: Opaque stored values (``object``-typed fields).
values_st = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=12),
    st.tuples(st.integers(), st.text(max_size=4)),
)


def resolve(hint):
    """A Hypothesis strategy generating values of the given type hint."""
    if hint is int:
        return st.integers(-(2**48), 2**48)
    if hint is bool:
        return st.booleans()
    if hint is float:
        return st.floats(allow_nan=False)
    if hint is str:
        return st.text(max_size=12)
    if hint is typing.Any or hint is object:
        return values_st
    if hint is typing.Hashable:
        return keys_st
    if dataclasses.is_dataclass(hint):
        return message_strategy(hint)
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is tuple:
        if not args:  # bare Tuple: opaque payload rows
            return st.lists(values_st, max_size=3).map(tuple)
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(resolve(args[0]), max_size=5).map(tuple)
        return st.tuples(*(resolve(arg) for arg in args))
    if origin is typing.Union:  # Optional[X] and friends
        return st.one_of(
            *(
                st.none() if arg is type(None) else resolve(arg)
                for arg in args
            )
        )
    if origin is dict:
        return st.dictionaries(resolve(args[0]), resolve(args[1]), max_size=4)
    if origin is frozenset:
        return st.frozensets(resolve(args[0]), max_size=5)
    raise NotImplementedError(f"no strategy for field type {hint!r}")


def message_strategy(cls):
    hints = typing.get_type_hints(cls)
    return st.builds(
        cls,
        **{
            field.name: resolve(hints[field.name])
            for field in dataclasses.fields(cls)
        },
    )


WIRE_CLASSES = sorted(REGISTRY.items())


# ----------------------------------------------------------------------
# The two core contracts, over every registered message class
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "cls", [cls for _code, cls in WIRE_CLASSES],
    ids=[cls.__name__ for _code, cls in WIRE_CLASSES],
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_wire_message_round_trips(cls, data):
    message = data.draw(message_strategy(cls))
    encoded = encode_value(message)
    decoded = decode_value(encoded)
    assert decoded == message
    assert type(decoded) is cls
    # Canonical: re-encoding the decoded message is byte-identical.
    assert encode_value(decoded) == encoded


@settings(max_examples=60, deadline=None)
@given(value=st.recursive(
    values_st,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys_st, inner, max_size=3),
        st.frozensets(st.one_of(st.integers(), st.text(max_size=4)), max_size=3),
    ),
    max_leaves=12,
))
def test_arbitrary_nested_values_round_trip(value):
    encoded = encode_value(value)
    decoded = decode_value(encoded)
    assert decoded == value
    assert type(decoded) is type(value)
    assert encode_value(decoded) == encoded


def test_registry_codes_are_stable_and_dense_enough():
    # Codes are append-only wire contract: catching an accidental
    # renumber is the whole point of pinning them here.
    assert REGISTRY[3] is wire.ReadRequestBody
    assert REGISTRY[5] is wire.PrepareBody
    assert REGISTRY[23] is wire.HeartbeatBody
    assert len(set(REGISTRY)) == len(REGISTRY)
    for cls in REGISTRY.values():
        assert dataclasses.is_dataclass(cls)


# ----------------------------------------------------------------------
# Vector clocks: dynamic width; frozensets (``DecideBody.collected``)
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    vc=st.lists(st.integers(0, 2**40), min_size=0, max_size=12).map(tuple),
    has_read=st.lists(st.booleans(), max_size=12).map(tuple),
)
def test_dynamic_width_vector_clocks_round_trip(vc, has_read):
    body = wire.ReadRequestBody(
        txn_id=7, is_read_only=False, key="k", vc=vc, has_read=has_read
    )
    assert decode_value(encode_value(body)) == body


@settings(max_examples=60, deadline=None)
@given(collected=st.frozensets(st.integers(0, 2**40), max_size=16))
def test_dropped_origin_sets_round_trip_canonically(collected):
    body = wire.DecideBody(
        txn_id=1, outcome=True, origin=0, seq_no=4,
        commit_vc=(1, 2), collected=collected,
    )
    encoded = encode_value(body)
    decoded = decode_value(encoded)
    assert decoded == body
    assert decoded.collected == collected
    assert isinstance(decoded.collected, frozenset)
    # Set elements are sorted by encoded bytes, so insertion order
    # cannot leak into the encoding.
    shuffled = wire.DecideBody(
        txn_id=1, outcome=True, origin=0, seq_no=4,
        commit_vc=(1, 2), collected=frozenset(sorted(collected, reverse=True)),
    )
    assert encode_value(shuffled) == encoded


# ----------------------------------------------------------------------
# Re-stage SYNC: the one exchange that nests a wire message in another
# ----------------------------------------------------------------------
def test_restage_sync_round_trips_with_its_listed_decisions():
    request = wire.SyncRequestBody(requester=2, restage_above=17)
    assert decode_value(encode_value(request)) == request
    # A gossip or join digest leaves the field out, as before.
    assert wire.SyncRequestBody(2, (1, 2, 3)).restage_above is None
    listed = wire.TxnStatusReplyBody(
        txn_id=9, committed=True, origin=0, seq_no=18, commit_vc=(18, 4, 0),
        collected=frozenset({5, 6}), writes=(("k13", 2), (("t", 7), None)),
    )
    reply = wire.SyncReplyBody(site_vc=(18, 4, 0), decisions=(listed,))
    decoded = decode_value(encode_value(reply))
    assert decoded == reply
    assert type(decoded.decisions[0]) is wire.TxnStatusReplyBody
    assert decoded.decisions[0].writes == listed.writes
    assert encode_value(decoded) == encode_value(reply)
    # A plain digest reply and a plain status answer carry empty fields.
    assert wire.SyncReplyBody((1, 0)).decisions == ()
    assert wire.TxnStatusReplyBody(9, False, 0).writes == ()


# ----------------------------------------------------------------------
# The line's three fields survive at their non-defaults; a read request
# (wire version 5) carries no ``frozen`` flag, its ``queue`` sixth
# ----------------------------------------------------------------------
def test_queue_spoken_for_and_lost_round_trip():
    assert [f.name for f in dataclasses.fields(wire.ReadRequestBody)] == [
        "txn_id", "is_read_only", "key", "vc", "has_read", "queue",
    ]
    request = wire.ReadRequestBody(7, False, "u0", (3, 1), (False, False), True)
    reply = wire.ReadReturnBody("v", (3, 2), 5, 6, spoken_for=True)
    votes = [
        wire.VoteBody(False, reason="validation", lost=key)
        for key in ("u0", 17, ("t", 4))
    ]
    for message in [request, reply, *votes]:
        decoded = decode_value(encode_value(message))
        assert decoded == message
        assert encode_value(decoded) == encode_value(message)
    assert decode_value(encode_value(request)).queue is True
    assert decode_value(encode_value(reply)).spoken_for is True
    assert [decode_value(encode_value(v)).lost for v in votes] == [
        "u0", 17, ("t", 4),
    ]
    # Left out, they read as before: an ordinary read, an ordinary vote.
    plain = wire.ReadRequestBody(7, False, "u0", (3, 1), (False, False))
    assert plain.queue is False
    assert wire.ReadReturnBody("v", None, 5, 6).spoken_for is False
    assert wire.VoteBody(True).lost is None
    assert WIRE_VERSION == 12


def test_the_replication_stream_bodies_carry_its_incarnation():
    """Wire version 8: REPLICATE is one-way, so its batch and its ack
    carry the stream incarnation that tells a live ack from an orphan."""
    entry = wire.ReplicationEntry(seq=3, kind="apply", txn_id=9)
    for message in (
        wire.ReplicateBody(primary=1, incarnation=2, acked=2, entries=(entry,)),
        wire.ReplicateAckBody(incarnation=2, applied=3),
        wire.ReplicateAckBody(incarnation=0, applied=-1),
    ):
        decoded = decode_value(encode_value(message))
        assert decoded == message
        assert encode_value(decoded) == encode_value(message)
    assert WIRE_VERSION == 12


def test_a_shipment_is_one_body():
    """Wire version 9: a shard handoff's chains travel in one
    ``ShardShipmentBody``; the codes of the offer, chunk and ack bodies
    it replaced stay retired."""
    version = ("v", (1, 0), 3, 1, None, 0.0)
    message = wire.ShardShipmentBody(
        sender=1, snapshot_id=4, site_vc=(3, 2), curr_seq_no=3,
        fingerprint="ab" * 32, chains=(("k1", 0, (version,)),),
    )
    decoded = decode_value(encode_value(message))
    assert decoded == message
    assert encode_value(decoded) == encode_value(message)
    assert REGISTRY[29] is wire.ShardShipmentBody
    assert not {14, 15, 16} & set(REGISTRY)
    assert WIRE_VERSION == 12


def test_the_view_codes_stay_retired():
    """Wire version 12: the sites are fixed, so no view message is left;
    the codes of the view propose, ack and commit bodies stay retired."""
    assert not {20, 21, 22} & set(REGISTRY)
    assert not [name for name in vars(wire) if name.startswith("View")]
    assert WIRE_VERSION == 12


def test_dict_encoding_is_insertion_order_independent():
    forward = wire.PrepareBody(
        txn_id=1, coordinator=0, writes={"a": 1, "b": 2}, vc=(0,),
    )
    backward = wire.PrepareBody(
        txn_id=1, coordinator=0, writes={"b": 2, "a": 1}, vc=(0,),
    )
    assert encode_value(forward) == encode_value(backward)


# ----------------------------------------------------------------------
# Envelopes and framing
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_envelope_round_trip(data):
    payload = data.draw(message_strategy(wire.ReadReturnBody))
    envelope = Envelope(
        msg_type="ReadReturn", src=data.draw(st.integers(0, 63)),
        dst=data.draw(st.integers(0, 63)), payload=payload,
        send_time=data.draw(st.floats(0, 1e6, allow_nan=False)),
        deliver_time=123.0, msg_id=data.draw(st.integers(0, 2**40)),
    )
    decoded = decode_envelope(encode_envelope(envelope))
    assert decoded.msg_type == envelope.msg_type
    assert decoded.src == envelope.src
    assert decoded.dst == envelope.dst
    assert decoded.payload == payload
    assert decoded.send_time == envelope.send_time
    assert decoded.msg_id == envelope.msg_id
    # Delivery is stamped by the receiving transport, never carried.
    assert decoded.deliver_time == 0.0


@settings(max_examples=30, deadline=None)
@given(
    chunk_sizes=st.lists(st.integers(1, 17), min_size=1, max_size=40),
    count=st.integers(1, 6),
)
def test_frame_decoder_handles_arbitrary_chunking(chunk_sizes, count):
    envelopes = [
        Envelope("Heartbeat", 0, 1, wire.HeartbeatBody(site_vc=(i,)), 0.0, 0.0, i)
        for i in range(count)
    ]
    stream = b"".join(encode_frame(e) for e in envelopes)
    decoder = FrameDecoder()
    frames = []
    pos = 0
    sizes = iter(chunk_sizes)
    while pos < len(stream):
        size = next(sizes, 17)
        frames.extend(decoder.feed(stream[pos:pos + size]))
        pos += size
    assert [decode_envelope(f).payload.site_vc for f in frames] == [
        (i,) for i in range(count)
    ]
    assert decoder.pending_bytes == 0


# ----------------------------------------------------------------------
# Failure modes
# ----------------------------------------------------------------------
def test_unregistered_payload_type_raises_encode_error():
    class NotOnTheWire:
        pass

    with pytest.raises(WireEncodeError):
        encode_value(NotOnTheWire())
    with pytest.raises(WireEncodeError):
        encode_value(wire.HeartbeatBody(site_vc=(NotOnTheWire(),)))


def test_unknown_tag_and_truncation_raise_decode_error():
    with pytest.raises(WireDecodeError):
        decode_value(b"\xfe")
    encoded = encode_value(wire.HeartbeatBody(site_vc=(1, 2, 3)))
    for cut in range(len(encoded)):
        with pytest.raises(WireDecodeError):
            decode_value(encoded[:cut])
    with pytest.raises(WireDecodeError):
        decode_value(encoded + b"\x00")  # trailing garbage


def test_version_mismatch_is_refused():
    envelope = Envelope("Heartbeat", 0, 1, wire.HeartbeatBody((1,)), 0.0, 0.0, 0)
    data = encode_envelope(envelope)
    assert data[0] == WIRE_VERSION
    with pytest.raises(WireDecodeError):
        decode_envelope(bytes([WIRE_VERSION + 1]) + data[1:])


def test_oversized_frame_length_poisons_the_stream():
    decoder = FrameDecoder()
    with pytest.raises(WireDecodeError):
        decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"x")
