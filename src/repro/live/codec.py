"""Wire codec for the live transport: tagged JSON + length-prefixed frames.

The protocol code was written against the DES transport, which passes
Python objects by reference — message bodies freely contain tuples
(``Stamp``, ``Ballot``), dataclasses (:class:`~repro.store.types.Update`,
:class:`~repro.store.types.Row`, …) and dicts keyed by non-strings (a
``store_read`` reply maps clustering keys, which may be ``None`` or
ints, to rows).  Plain JSON loses all of that, so the live transport
uses a small tagged encoding:

- tuples become ``{"__t": [...]}`` (round-trips ``Stamp``/``Ballot``
  exactly, including inside promises and in-progress Paxos state);
- registered dataclasses become ``{"__c": "Update", "f": {...}}``;
- dicts with any non-string key (or whose keys collide with a tag)
  become ``{"__d": [[k, v], ...]}``; a read-only ``MappingProxyType``
  (a replica's live-row view) is lowered the same way and arrives as a
  plain dict;
- everything JSON-native passes through untouched.

Frames on the socket are ``<4-byte big-endian length><utf-8 JSON>``.
The length cap is a safety valve against a corrupt or hostile peer, not
a protocol limit.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from types import MappingProxyType
from typing import Any, Dict, Type

from ..leases.cache import CachedRead
from ..store.types import Cell, Condition, DeleteRow, Row, Update

__all__ = [
    "CodecError",
    "encode",
    "decode",
    "dumps",
    "loads",
    "encode_frame",
    "FrameReader",
    "MAX_FRAME_BYTES",
]

MAX_FRAME_BYTES = 16 * 1024 * 1024

_TUPLE_TAG = "__t"
_DICT_TAG = "__d"
_CLASS_TAG = "__c"
_TAGS = (_TUPLE_TAG, _DICT_TAG, _CLASS_TAG)

# Dataclasses that may appear in protocol message bodies.  Keyed by the
# class name that goes on the wire; both sides of a connection run the
# same code, so names are stable.
_CLASSES: Dict[str, Type[Any]] = {
    cls.__name__: cls for cls in (Update, DeleteRow, Row, Cell, Condition, CachedRead)
}


class CodecError(ValueError):
    """An object that cannot round-trip the live wire format."""


def encode(obj: Any) -> Any:
    """Lower ``obj`` to a JSON-serialisable structure."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, tuple):
        return {_TUPLE_TAG: [encode(item) for item in obj]}
    if isinstance(obj, list):
        return [encode(item) for item in obj]
    if isinstance(obj, (dict, MappingProxyType)):
        if all(isinstance(key, str) for key in obj) and not any(
            tag in obj for tag in _TAGS
        ):
            return {key: encode(value) for key, value in obj.items()}
        return {_DICT_TAG: [[encode(k), encode(v)] for k, v in obj.items()]}
    cls = type(obj)
    if dataclasses.is_dataclass(obj) and cls.__name__ in _CLASSES:
        # init=False fields are derived local state (size/payload caches),
        # not protocol data: the receiver's constructor recomputes them.
        fields = {
            field.name: encode(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
            if field.init
        }
        return {_CLASS_TAG: cls.__name__, "f": fields}
    raise CodecError(f"cannot encode {cls.__name__} value {obj!r} for the live wire")


def decode(obj: Any) -> Any:
    """Invert :func:`encode`."""
    if isinstance(obj, list):
        return [decode(item) for item in obj]
    if isinstance(obj, dict):
        if _TUPLE_TAG in obj:
            return tuple(decode(item) for item in obj[_TUPLE_TAG])
        if _DICT_TAG in obj:
            return {decode(k): decode(v) for k, v in obj[_DICT_TAG]}
        if _CLASS_TAG in obj:
            cls = _CLASSES.get(obj[_CLASS_TAG])
            if cls is None:
                raise CodecError(f"unknown wire class {obj[_CLASS_TAG]!r}")
            fields = {key: decode(value) for key, value in obj["f"].items()}
            return cls(**fields)
        return {key: decode(value) for key, value in obj.items()}
    return obj


def dumps(obj: Any) -> bytes:
    return json.dumps(encode(obj), separators=(",", ":")).encode("utf-8")


def loads(data: bytes) -> Any:
    return decode(json.loads(data.decode("utf-8")))


def encode_frame(obj: Any) -> bytes:
    payload = dumps(obj)
    if len(payload) > MAX_FRAME_BYTES:
        raise CodecError(f"frame of {len(payload)} bytes exceeds cap {MAX_FRAME_BYTES}")
    return struct.pack(">I", len(payload)) + payload


class FrameReader:
    """Incremental decoder for a stream of length-prefixed frames."""

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list:
        """Absorb ``data``; return every complete frame now available."""
        self._buffer.extend(data)
        frames = []
        while True:
            if len(self._buffer) < 4:
                return frames
            (length,) = struct.unpack_from(">I", self._buffer)
            if length > MAX_FRAME_BYTES:
                raise CodecError(f"incoming frame of {length} bytes exceeds cap")
            if len(self._buffer) < 4 + length:
                return frames
            payload = bytes(self._buffer[4 : 4 + length])
            del self._buffer[: 4 + length]
            frames.append(loads(payload))
