"""Wire-codec round-trips: everything the DES passes by reference must
survive tagged JSON + length-prefixed framing."""

from types import MappingProxyType

import pytest

from repro.leases.cache import CachedRead
from repro.live import CodecError, FrameReader, decode, encode, encode_frame
from repro.live.codec import MAX_FRAME_BYTES, dumps, loads
from repro.store.merkle import MerkleTree
from repro.store.types import Cell, Condition, DeleteRow, Row, Update


def round_trip(obj):
    return loads(dumps(obj))


def test_json_natives_pass_through():
    for obj in [None, True, 1, 2.5, "s", [1, "a", None], {"k": [1, {"n": 2}]}]:
        assert round_trip(obj) == obj


def test_tuples_round_trip_as_tuples():
    stamp = (3, "client-7", 12)
    assert round_trip(stamp) == stamp
    assert isinstance(round_trip(stamp), tuple)
    nested = {"promise": (1, (2, "b")), "list": [(0, 1)]}
    back = round_trip(nested)
    assert back == nested
    assert isinstance(back["promise"][1], tuple)
    assert isinstance(back["list"][0], tuple)


def test_non_string_dict_keys_round_trip():
    table = {None: "head", 3: "third", ("a", 1): "composite"}
    assert round_trip(table) == table


def test_tag_collision_dicts_are_preserved():
    sneaky = {"__t": "not a tuple", "x": 1}
    assert round_trip(sneaky) == sneaky
    assert round_trip({"__d": 0}) == {"__d": 0}
    assert round_trip({"__c": "Update"}) == {"__c": "Update"}


def test_read_only_views_lower_like_dicts_and_arrive_as_dicts():
    # A store_read reply carries the replica's live-row view itself.
    rows = {1: Row(cells={"value": Cell("v", (1, "c", 3))}), "guard": Row()}
    for view in (MappingProxyType(rows), MappingProxyType({"k": 1}), MappingProxyType({})):
        assert encode(view) == encode(dict(view))
        back = round_trip({"rows": view})
        assert type(back["rows"]) is dict
        assert back["rows"] == dict(view)


def test_registered_dataclasses_round_trip():
    update = Update(
        table="music_kv", partition="k", clustering=None,
        columns={"value": "v"}, stamp=(1, "c", 2),
    )
    back = round_trip(update)
    assert isinstance(back, Update)
    assert back == update

    for obj in [
        DeleteRow(table="music_locks", partition="k", clustering=7, stamp=(2, "c", 3)),
        Row(cells={"value": Cell("v", (1, "c", 3))}, tombstone=(0, "c", 1)),
        Condition(kind="col_eq", clustering=None, column="synchFlag", expected=True),
        CachedRead(value="v", stamp=(1, "c", 4), fetched_ms=10.0, hit=True),
    ]:
        back = round_trip(obj)
        assert type(back) is type(obj)
        assert back == obj


def test_an_anti_entropy_round_survives_the_wire():
    """A tree's 64-bit leaves arrive exact, and a row that crossed the
    wire digests as its sender's did (the cache is not sent)."""
    stored = Row(cells={"value": Cell("v", (1.0, "c"), "op")}, tombstone=(0.5, "c")).freeze()
    tree = MerkleTree()
    tree.add("music_kv", "k", {None: stored})
    request = round_trip({"tree": tree.payload()})
    assert MerkleTree.from_payload(request["tree"]).diff(tree) == []
    reply = round_trip({"leaves": tree.diff(MerkleTree()), "entries": [("music_kv", "k", {None: stored})]})
    (_table, _key, rows), = reply["entries"]
    assert rows[None].digest(None) == stored.digest(None)


def test_unencodable_objects_raise_codec_error():
    with pytest.raises(CodecError):
        encode(object())

    class Unregistered:
        pass

    with pytest.raises(CodecError):
        encode(Unregistered())


def test_unknown_wire_class_raises():
    with pytest.raises(CodecError):
        decode({"__c": "NotARealClass", "f": {}})


def test_frame_reader_reassembles_split_and_batched_frames():
    frames = [encode_frame({"seq": i, "stamp": (i, "n", i)}) for i in range(5)]
    stream = b"".join(frames)
    reader = FrameReader()
    # Feed one byte at a time: every frame must still come out whole.
    out = []
    for offset in range(len(stream)):
        out.extend(reader.feed(stream[offset : offset + 1]))
    assert [frame["seq"] for frame in out] == [0, 1, 2, 3, 4]
    assert out[3]["stamp"] == (3, "n", 3)
    # Feed everything at once: same result.
    assert len(FrameReader().feed(stream)) == 5


def test_frame_length_cap_is_enforced():
    import struct

    reader = FrameReader()
    with pytest.raises(CodecError):
        reader.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))


def test_every_service_operation_round_trips_the_wire():
    """Each request and reply of the service RPC surface — every kind in
    ``_OPERATIONS`` plus ``music.waitRelease`` — as a DES run actually
    produced it (stamps riding replies, ``CachedRead``, typed errors)
    must survive the live codec unchanged."""
    from repro.core import build_music
    from repro.core.service import _OPERATIONS
    from repro.errors import NotLockHolder

    music = build_music(read_leases=True, seed=3)
    client = music.service_client("Ohio")
    requests, replies = {}, []

    def tap(message):
        if message.kind.startswith("music.") and message.src == client.client_id:
            requests.setdefault(message.kind, []).append(message.body)
        elif message.kind == "__reply__" and message.dst == client.client_id:
            replies.append(message.body)

    music.network.add_tap(tap)

    def scenario():
        oregon = music.client("Oregon")
        holder = yield from oregon.critical_section("k")
        ref = yield from client.create_lock_ref("k")
        music.sim.process(_exit_later(music.sim, holder))
        assert (yield from client.acquire_lock_blocking("k", ref))  # waits: waitRelease
        stamp = yield from client.critical_put("k", ref, {"n": (1, "x")})
        yield from client.critical_get_stamped("k", ref)
        yield from client.critical_delete("k", ref)
        yield from client.release_lock("k", ref)
        holder = yield from oregon.critical_section("k")
        with pytest.raises(NotLockHolder):
            yield from client.critical_get("k", ref)  # a typed error reply
        yield from holder.exit()
        yield from client.put("u", [1, 2.5, None])
        yield from client.get("u")
        yield from client.get("u", staleness_ms=1_000.0)
        yield from client.txn_write("t", "v", (stamp[0] + 1.0, "txn"))
        yield from client.txn_read("t")
        yield from client.get_all_keys()
        return stamp

    stamp = music.sim.run_until_complete(music.sim.process(scenario()), limit=1e9)
    assert set(requests) == set(_OPERATIONS) | {"music.waitRelease"}
    assert any(isinstance(r.get("result"), CachedRead) for r in replies)
    assert any(r.get("result") == stamp for r in replies)  # a write's ack
    assert any(r["ok"] is False for r in replies)
    for body in [b for bodies in requests.values() for b in bodies] + replies:
        assert round_trip(body) == body


def _exit_later(sim, section):
    yield sim.timeout(100.0)
    yield from section.exit()
